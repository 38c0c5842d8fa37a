// SiEVE end-to-end benchmark.
//
//   e2e_bench --workload <live_encode|fleet_replay|wan_durable> --seed N
//             --seconds S --trace 0|1 [--work-dir DIR]
//
// One run: render/encode the seeded inputs (untimed), set the system up
// three times (timed; the median is setup_s), then drive the last set-up
// from at most nproc load threads — a fixed-rate open-loop phase (75% of
// S) followed by a saturated closed-loop phase (25% of S) on the same
// sessions — while an open-loop operator reader queries the live index.
// Every run checks its outputs against a single-threaded reference and
// prints one JSON object as its last stdout line: end-to-end metrics with
// --trace 0, per-layer metrics (from a traced run) with --trace 1.
// See README.md in this directory.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <queue>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <unistd.h>
#include <vector>

#include "bench_util.h"
#include "codec/container.h"
#include "core/tuner.h"
#include "obs/trace.h"
#include "query/service.h"
#include "runtime/runtime.h"
#include "store/recovery.h"
#include "trace_reduce.h"
#include "workload.h"

namespace e2e {
namespace {

using namespace sieve;

constexpr int kSetupReps = 3;
constexpr double kFixedShare = 0.75;  ///< of --seconds; the rest saturates
constexpr int kNnInput = 96;
constexpr std::size_t kTraceEventsPerThread = std::size_t(1) << 17;
constexpr double kHeapSampleSeconds = 0.002;  ///< live-heap sampling period
constexpr double kQueryHz = 40;  ///< open-loop operator reader rate

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 25;
  bool trace = false;
  std::string work_dir = ".bench_build/work";
};

[[noreturn]] void Fail(const std::string& what) {
  std::fprintf(stderr, "e2e_bench: %s\n", what.c_str());
  std::exit(1);
}

Options ParseArgs(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      o.workload = v;
    } else if (k == "--seed") {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      o.seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      o.trace = v == "1";
    } else if (k == "--work-dir") {
      o.work_dir = v;
    } else {
      Fail("unknown argument " + k);
    }
  }
  if (argc % 2 != 1) Fail("arguments come in --key value pairs");
  if (FindWorkload(o.workload) == nullptr) {
    Fail("--workload must be one of: " + WorkloadNames());
  }
  if (!(o.seconds >= 1)) Fail("--seconds must be >= 1");
  return o;
}

// ------------------------------------------------------------- set-up --

/// One complete set-up of the system: tuned encoders, fitted classifier,
/// runtime (with store recovery), and one open session per camera.
struct System {
  std::unique_ptr<nn::FrameClassifier> classifier;
  std::unique_ptr<runtime::Runtime> runtime;
  std::vector<std::unique_ptr<runtime::SieveSession>> sessions;
  std::vector<codec::KeyframeParams> keyframe;  ///< per camera
  std::vector<std::uint64_t> track;             ///< per camera trace track
  std::vector<std::string> route;               ///< per camera session route
  std::size_t split = 0;
  double epoch = 0;  ///< Now() just before the runtime was constructed
  double setup_s = 0, fit_s = 0;
  std::vector<double> tune_s;  ///< per tuned camera
  std::vector<double> open_ms;

  void TearDown() {
    sessions.clear();
    if (runtime) (void)runtime->Shutdown();
    runtime.reset();
    classifier.reset();
  }
};

/// "session.<route>.iframes" counters name every session the runtime
/// opened; map each camera id to its route (trace track identity).
std::map<std::string, std::string> SessionRoutes(const obs::Registry& reg) {
  std::map<std::string, std::string> out;
  const std::string prefix = "session.", suffix = ".iframes";
  for (const auto& [name, value] : reg.Snapshot().counters) {
    (void)value;
    if (name.rfind(prefix, 0) != 0 || name.size() <= prefix.size() + suffix.size() ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
      continue;
    }
    const std::string route = name.substr(
        prefix.size(), name.size() - prefix.size() - suffix.size());
    out[route.substr(0, route.rfind('#'))] = route;
  }
  return out;
}

runtime::RuntimeConfig MakeRuntimeConfig(const WorkloadSpec& spec,
                                         std::uint64_t seed, bool trace,
                                         const std::string& store_dir) {
  runtime::RuntimeConfig rc;
  rc.nn_input_size = kNnInput;
  rc.transcode_parallelism = spec.transcode_parallelism;
  rc.cloud_nn_parallelism = spec.cloud_nn_parallelism;
  rc.wan_parallelism = spec.wan_parallelism;
  rc.cloud_batch_max = spec.batch_max;
  // Every still or activation crosses a real-time WAN (20 ms RTT, 30 Mbps),
  // as in the edge-cloud deployment the paper measures. Besides realism,
  // this keeps the latency metrics steady: on a shared host, CPU steal
  // stretches the ~11 ms of compute on a frame's path by up to 70% from one
  // run to the next, and the fixed link time does not stretch.
  rc.link_time_scale = 1.0;
  if (!spec.real_time_lan) {
    rc.camera_to_edge =
        net::LinkModel{std::numeric_limits<double>::infinity(), 0.0};
  }
  rc.wan_faults.seed = seed * 31 + 7;
  rc.wan_faults.drop_probability = spec.wan_loss;
  // A first retry after one RTT keeps a lost attempt's stall, which the
  // order-kept WAN stage passes on to every frame queued behind it, at
  // about three link times.
  rc.wan_retry.initial_backoff_ms = 20.0;
  // The split is pinned: drops must come from the fault plan, not from a
  // health-driven replan.
  rc.adaptive_placement = false;
  rc.trace.enabled = trace;
  rc.trace.events_per_thread = kTraceEventsPerThread;
  rc.store.dir = store_dir;
  return rc;
}

System SetUp(const WorkloadSpec& spec, const Inputs& in, std::uint64_t seed,
             bool trace, const std::string& store_dir) {
  System sys;
  const double t0 = Now();
  sys.keyframe.resize(in.cameras.size());
  if (spec.live) {
    // Section IV: every camera tunes its semantic encoder on its own
    // labelled history before it goes live.
    for (std::size_t c = 0; c < in.cameras.size(); ++c) {
      const Feed& feed = in.feeds[std::size_t(in.cameras[c].feed)];
      const double ts = Now();
      const core::TuningResult tuned =
          core::TuneEncoder(feed.video, feed.truth, BenchTunerGrid());
      sys.tune_s.push_back(Now() - ts);
      sys.keyframe[c].gop_size = tuned.best.gop_size;
      sys.keyframe[c].scenecut = tuned.best.scenecut;
    }
  } else {
    for (std::size_t c = 0; c < in.cameras.size(); ++c) {
      sys.keyframe[c] = in.feeds[std::size_t(in.cameras[c].feed)].keyframe;
    }
  }
  const double t1 = Now();
  nn::ClassifierParams cp;
  cp.input_size = kNnInput;
  sys.classifier = std::make_unique<nn::FrameClassifier>(cp);
  std::vector<media::Frame> frames;
  std::vector<synth::LabelSet> labels;
  for (const Feed& feed : in.feeds) {
    frames.insert(frames.end(), feed.calib_frames.begin(),
                  feed.calib_frames.end());
    labels.insert(labels.end(), feed.calib_labels.begin(),
                  feed.calib_labels.end());
  }
  if (!sys.classifier->Fit(frames, synth::GroundTruth(labels), 1).ok()) {
    Fail("classifier fit failed");
  }
  const double t2 = Now();
  sys.epoch = t2;
  sys.runtime = std::make_unique<runtime::Runtime>(
      MakeRuntimeConfig(spec, seed, trace, store_dir), sys.classifier.get());
  const std::size_t layers = sys.classifier->network().LayerCount();
  sys.split = spec.mid_split ? layers / 2 : 0;
  for (std::size_t c = 0; c < in.cameras.size(); ++c) {
    runtime::SessionConfig sc;
    sc.width = kWidth;
    sc.height = kHeight;
    sc.fps = kFps;
    sc.encoder = codec::EncoderParams::Semantic(sys.keyframe[c].gop_size,
                                                sys.keyframe[c].scenecut);
    sc.encoder.threads = 1;  // each camera encodes on its own load thread
    sc.placement = spec.placement;
    sc.fixed_split = sys.split;
    const double ts = Now();
    auto session = sys.runtime->OpenSession(in.cameras[c].id, sc);
    if (!session.ok()) {
      Fail("OpenSession failed: " + session.status().ToString());
    }
    sys.open_ms.push_back((Now() - ts) * 1e3);
    sys.sessions.push_back(std::move(*session));
  }
  const double t3 = Now();
  sys.setup_s = t3 - t0;
  sys.fit_s = t2 - t1;

  const auto routes = SessionRoutes(sys.runtime->registry());
  for (const CameraPlan& cam : in.cameras) {
    const auto it = routes.find(cam.id);
    if (it == routes.end()) Fail("no session route for " + cam.id);
    sys.route.push_back(it->second);
    sys.track.push_back(obs::HashTrack(it->second));
  }
  return sys;
}

// ---------------------------------------------------------------- load --

struct PushSample {
  std::uint32_t cam = 0;
  std::uint32_t frame = 0;
  float late_ms = 0;
  float dur_ms = 0;
};

struct QuerySample {
  bool where_is = false;
  bool fixed_phase = false;
  double due = 0, start = 0, end = 0;
};

struct EventSample {
  std::size_t cam = 0;
  std::size_t frame = 0;
  double at = 0;
};

/// Drives one System: the pushers, the reader, and the event recorder.
class Load {
 public:
  Load(const WorkloadSpec& spec, const Inputs& in, System& sys, int pushers)
      : spec_(spec), in_(in), sys_(sys), pushers_(pushers),
        next_(in.cameras.size(), 0), fixed_frames_(in.cameras.size(), 0),
        attempts_(in.cameras.size(), 0), failures_(in.cameras.size(), 0) {
    for (std::size_t c = 0; c < in.cameras.size(); ++c) {
      cam_index_[in.cameras[c].id] = c;
    }
  }
  // Subscription callbacks and the reader thread hold `this`.
  Load(const Load&) = delete;
  Load& operator=(const Load&) = delete;
  ~Load() {
    Unsubscribe();
    StopReader();
  }

  void Subscribe() {
    for (int k = 0; k < synth::kNumObjectClasses; ++k) {
      subscriptions_.push_back(sys_.runtime->query().Subscribe(
          synth::ObjectClass(k), [this](const query::QueryEvent& ev) {
            const double at = Now();
            if (!recording_.load(std::memory_order_relaxed)) return;
            const auto it = cam_index_.find(ev.camera_id);
            if (it == cam_index_.end()) return;
            std::lock_guard<std::mutex> lock(events_mu_);
            events_.push_back({it->second, ev.frame, at});
          }));
    }
  }

  void Unsubscribe() {
    recording_.store(false);
    for (auto id : subscriptions_) sys_.runtime->query().Unsubscribe(id);
    subscriptions_.clear();
  }

  /// Open-loop phase: every camera pushes frame f at t0 + phase + f/fps,
  /// each pusher in merged due-time order across its cameras.
  void RunFixed(double t0, double t_end) {
    t0_ = t0;
    recording_.store(true);
    RunPushers(/*fixed=*/true, t_end);
    for (std::size_t c = 0; c < next_.size(); ++c) fixed_frames_[c] = next_[c];
  }

  /// Closed-loop phase on the same sessions: as fast as backpressure
  /// allows, same merged order, until t_end.
  void RunSaturated(double t_end) { RunPushers(/*fixed=*/false, t_end); }

  /// Wait until every frame pushed so far has settled (so the saturated
  /// phase never inflates fixed-phase latencies).
  bool WaitSettled(double timeout_s) const {
    std::size_t pushed = 0;
    for (std::size_t c = 0; c < next_.size(); ++c) {
      pushed += attempts_[c] - failures_[c];
    }
    const double deadline = Now() + timeout_s;
    while (Now() < deadline) {
      std::size_t settled = 0;
      const auto snap = sys_.runtime->registry().Snapshot();
      for (const std::string& route : sys_.route) {
        for (const char* k : {"stored_edge", "delivered", "dropped_wan",
                              "dropped_corrupt", "dropped_shutdown",
                              "resumed"}) {
          const auto it = snap.counters.find("session." + route + "." + k);
          if (it != snap.counters.end()) settled += it->second;
        }
      }
      if (settled >= pushed) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return false;
  }

  /// Open-loop operator reader at kQueryHz from t0 until StopReader:
  /// mostly time-windowed FindObject, every fifth a WhereIs.
  void StartReader(double t0, double fixed_end, double history_seconds,
                   std::uint64_t seed) {
    reader_ = std::thread([=, this] {
      obs::SetThreadName("bench-reader");
      std::mt19937_64 rng(seed * 977 + 5);
      const double period = 1.0 / kQueryHz;
      for (std::size_t k = 0;; ++k) {
        const double due = t0 + double(k) * period;
        std::this_thread::sleep_until(ToTimePoint(due));
        if (stop_reader_.load()) break;
        const auto cls = synth::ObjectClass(rng() % synth::kNumObjectClasses);
        const double span =
            std::max(history_seconds, due - sys_.epoch) - 5.0;
        const double w0 = span > 0 ? double(rng() >> 11) * 0x1.0p-53 * span : 0;
        QuerySample q;
        q.due = due;
        q.fixed_phase = due < fixed_end;
        q.where_is = k % 5 == 4;
        q.start = Now();
        if (q.where_is) {
          (void)sys_.runtime->query().WhereIs(cls);
        } else {
          (void)sys_.runtime->query().FindObject(cls, w0, w0 + 5.0);
        }
        q.end = Now();
        queries_.push_back(q);
      }
    });
  }
  void StopReader() {
    stop_reader_.store(true);
    if (reader_.joinable()) reader_.join();
  }

  /// Sample buffers sized up front, so they add nothing to the heap peak.
  void Reserve(double fixed_s, double total_s) {
    const std::size_t per_pusher =
        std::size_t(double(next_.size()) / pushers_ + 1) *
        std::size_t(kFps * fixed_s * 1.1 + 16);
    fixed_samples.assign(std::size_t(pushers_), {});
    for (auto& v : fixed_samples) v.reserve(per_pusher);
    queries_.reserve(std::size_t(kQueryHz * (total_s + 30)));
    events_.reserve(1 << 14);
  }

  double Due(std::size_t cam, std::size_t frame) const {
    return t0_ + in_.cameras[cam].phase + double(frame) / kFps;
  }

  std::atomic<std::uint64_t> pushed_total{0};
  std::vector<std::vector<PushSample>> fixed_samples;  ///< per pusher

  const std::vector<std::size_t>& next() const { return next_; }
  const std::vector<std::size_t>& fixed_frames() const { return fixed_frames_; }
  const std::vector<std::size_t>& attempts() const { return attempts_; }
  const std::vector<std::size_t>& failures() const { return failures_; }
  const std::vector<QuerySample>& queries() const { return queries_; }
  std::vector<EventSample> events() {
    std::lock_guard<std::mutex> lock(events_mu_);
    return events_;
  }

 private:
  Status Push(std::size_t c, std::size_t f) {
    const CameraPlan& cam = in_.cameras[c];
    const Feed& feed = in_.feeds[std::size_t(cam.feed)];
    const std::size_t raw = RawIndex(in_, cam, f);
    obs::TraceSpan span(kPushSpan, obs::TraceContext{sys_.track[c], f});
    if (spec_.live) return sys_.sessions[c]->PushFrame(feed.video.frames[raw]);
    const codec::FrameRecord& r = feed.encoded.records[raw];
    const auto wire = std::span<const std::uint8_t>(feed.encoded.bytes)
                          .subspan(r.payload_offset -
                                       codec::FrameRecord::kHeaderSize,
                                   codec::FrameRecord::kHeaderSize +
                                       r.payload_size);
    return sys_.sessions[c]->PushEncoded(r.type, f, wire);
  }

  void RunPushers(bool fixed, double t_end) {
    if (fixed && fixed_samples.empty()) {
      fixed_samples.assign(std::size_t(pushers_), {});
    }
    std::vector<std::thread> threads;
    for (int p = 0; p < pushers_; ++p) {
      threads.emplace_back([this, p, fixed, t_end] {
        obs::SetThreadName("bench-pusher");
        using Item = std::pair<double, std::size_t>;  // (due, camera)
        std::priority_queue<Item, std::vector<Item>, std::greater<Item>> heap;
        // Phases rise with the camera index, so cameras adjacent in phase
        // go to different pushers: one pusher's I-frame encode never delays
        // its phase neighbour.
        for (std::size_t c = std::size_t(p); c < next_.size();
             c += std::size_t(pushers_)) {
          heap.push({Due(c, next_[c]), c});
        }
        while (!heap.empty()) {
          const auto [due, c] = heap.top();
          heap.pop();
          if (fixed) {
            if (due >= t_end) break;
            std::this_thread::sleep_until(ToTimePoint(due));
          } else if (Now() >= t_end) {
            break;
          }
          const std::size_t f = next_[c];
          const double start = Now();
          const Status st = Push(c, f);
          const double end = Now();
          ++attempts_[c];
          if (st.ok()) {
            pushed_total.fetch_add(1, std::memory_order_relaxed);
          } else {
            ++failures_[c];
          }
          if (fixed) {
            fixed_samples[std::size_t(p)].push_back(
                {std::uint32_t(c), std::uint32_t(f),
                 float((start - due) * 1e3), float((end - start) * 1e3)});
          }
          next_[c] = f + 1;
          heap.push({Due(c, f + 1), c});
        }
      });
    }
    for (auto& t : threads) t.join();
  }

  const WorkloadSpec& spec_;
  const Inputs& in_;
  System& sys_;
  const int pushers_;
  double t0_ = 0;
  // Per camera; each camera belongs to one pusher thread, and phases are
  // separated by thread joins.
  std::vector<std::size_t> next_, fixed_frames_, attempts_, failures_;
  std::unordered_map<std::string, std::size_t> cam_index_;
  std::vector<query::QueryService::SubscriptionId> subscriptions_;
  std::atomic<bool> recording_{false};
  std::mutex events_mu_;
  std::vector<EventSample> events_;
  std::thread reader_;
  std::atomic<bool> stop_reader_{false};
  std::vector<QuerySample> queries_;  ///< reader thread only until joined
};

// ----------------------------------------------------------- one run --

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0, failed = 0;
  std::map<std::string, double> e2e;    ///< end-to-end metrics
  std::map<std::string, double> layer;  ///< per-layer metrics
  std::map<std::string, double> noise;  ///< host-noise record
  std::map<std::string, double> detail;
  std::vector<std::string> errors;
};

void Check(RunResult& r, bool ok, const std::string& what) {
  if (!ok) {
    r.correct = false;
    r.errors.push_back(what);
  }
}

bool SameHits(const std::vector<query::QueryHit>& a,
              const std::vector<query::QueryHit>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].camera_id != b[i].camera_id ||
        a[i].begin_frame != b[i].begin_frame ||
        a[i].end_frame != b[i].end_frame ||
        a[i].begin_seconds != b[i].begin_seconds ||
        a[i].end_seconds != b[i].end_seconds || a[i].open != b[i].open) {
      return false;
    }
  }
  return true;
}

/// Rebuild a query index from the journaled rows alone and compare it with
/// the live (recovered + published) index the runtime serves.
bool RecoveredIndexMatchesRebuild(const std::string& store_dir,
                                  const query::QueryService& live) {
  auto report = store::RecoverStore(store_dir);
  if (!report.ok()) return false;
  query::QueryService rebuilt;
  for (const store::RecoveredCamera& cam : report->cameras) {
    rebuilt.RegisterCamera(cam.route, cam.camera_id,
                           query::CameraClock{cam.open_seconds, cam.fps});
    core::ResultsDatabase db;
    db.set_observer([&](const core::ResultsDatabase& d, std::size_t frame,
                        const synth::LabelSet& labels) {
      rebuilt.Publish(cam.route, d, frame, labels);
    });
    for (const auto& ins : cam.inserts) {
      db.Insert(std::size_t(ins.frame), synth::LabelSet{ins.label_bits});
    }
    if (cam.sealed) rebuilt.Seal(cam.route, std::size_t(cam.total_frames));
  }
  for (int k = 0; k < synth::kNumObjectClasses; ++k) {
    if (!SameHits(live.FindObject(synth::ObjectClass(k)),
                  rebuilt.FindObject(synth::ObjectClass(k)))) {
      return false;
    }
  }
  return true;
}

struct EncodeProbe {
  std::vector<double> push_ms, push_iframe_ms;  ///< PushFrame calls
  std::map<std::string, std::vector<double>> span_ms;  ///< encode/* spans
};

/// Encode one clip twice under tracing, outside the runtime: once through
/// PushFrame (the live path, one span per pass) and once pipelined, which
/// splits the coding pass into encode/pass1 and encode/entropy. Replay
/// workloads never encode in the runtime, so their codec metrics come
/// from this probe of the smart cameras' encoder.
EncodeProbe ProbeEncode(const Feed& feed, const codec::KeyframeParams& kp) {
  codec::EncoderParams params =
      codec::EncoderParams::Semantic(kp.gop_size, kp.scenecut);
  params.threads = 1;
  EncodeProbe probe;
  obs::StartTracing(kTraceEventsPerThread);
  {
    codec::StreamingEncoder encoder(params, kWidth, kHeight, kFps);
    for (const media::Frame& frame : feed.video.frames) {
      const double ts = Now();
      auto record = encoder.PushFrame(frame);
      const double ms = (Now() - ts) * 1e3;
      probe.push_ms.push_back(ms);
      if (record.ok() && record->type == codec::FrameType::kIntra) {
        probe.push_iframe_ms.push_back(ms);
      }
      encoder.TrimBuffered();
    }
  }
  params.pipeline = true;
  {
    codec::StreamingEncoder encoder(params, kWidth, kHeight, kFps);
    for (const media::Frame& frame : feed.video.frames) {
      (void)encoder.PushFramePipelined(frame);
    }
    (void)encoder.Finish();
  }
  obs::StopTracing();
  for (const auto& thread : obs::SnapshotTrace()) {
    for (const auto& ev : thread.events) {
      if (ev.name == nullptr || ev.phase != 'X') continue;
      probe.span_ms[ev.name].push_back(double(ev.dur_us) / 1e3);
    }
  }
  return probe;
}

/// An empty store directory, seeded with the workload's archive if any.
std::string FreshStore(const Inputs& in, const std::string& dir) {
  namespace fs = std::filesystem;
  fs::remove_all(dir);
  fs::create_directories(dir);
  if (in.archive_dir.empty()) return dir;
  for (const auto& entry : fs::directory_iterator(in.archive_dir)) {
    fs::copy_file(entry.path(), fs::path(dir) / entry.path().filename());
  }
  return dir;
}

RunResult Run(const Options& opt, const WorkloadSpec& spec,
              const std::string& work_dir) {
  RunResult r;
  const int hw = int(std::max(1u, std::thread::hardware_concurrency()));
  const int load_threads = std::min(4, hw);
  const int pushers = std::max(1, std::min(spec.pushers, load_threads - 1));

  const double prep0 = Now();
  const Inputs in = BuildInputs(spec, opt.seed, work_dir, load_threads);
  r.detail["prepare_s"] = Now() - prep0;
  for (const Feed& feed : in.feeds) {
    if (!spec.live && feed.encoded.records.empty()) Fail("encode failed");
  }

  // Set up kSetupReps times; every set-up but the last is torn down (the
  // second-to-last one drives the untraced reference leg of a traced run).
  const double fixed_s = kFixedShare * opt.seconds;
  const double sat_s = opt.seconds - fixed_s;
  std::vector<double> setups;
  System sys;
  double untraced_cpu_ms = 0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const bool last = rep + 1 == kSetupReps;
    sys = SetUp(spec, in, opt.seed, opt.trace && last,
                FreshStore(in, work_dir + "/store" + std::to_string(rep)));
    setups.push_back(sys.setup_s);
    if (last) break;
    if (opt.trace && rep + 2 == kSetupReps) {
      Load leg(spec, in, sys, pushers);
      const double t0 = Now() + 0.05;
      const double cpu0 = ProcessCpuSeconds();
      leg.RunFixed(t0, t0 + fixed_s / 2);
      const double cpu = ProcessCpuSeconds() - cpu0;
      std::size_t frames = 0;
      for (std::size_t f : leg.fixed_frames()) frames += f;
      untraced_cpu_ms = frames > 0 ? cpu * 1e3 / double(frames) : 0;
      leg.WaitSettled(10);
    }
    sys.TearDown();
  }
  r.e2e["setup_s"] = Median(setups);

  // ------------------------------------------------------ measured run --
  Load load(spec, in, sys, pushers);
  load.Reserve(fixed_s, opt.seconds);
  load.Subscribe();
  const std::uint64_t version0 = sys.runtime->query().version();
  std::vector<double> heap_mb;  // live heap above heap0, sampled
  heap_mb.reserve(std::size_t(fixed_s / kHeapSampleSeconds) + 64);
  const std::int64_t heap0 = HeapLiveBytes();
  const CpuJiffies j0 = ReadCpuJiffies();
  const long csw0 = InvoluntaryContextSwitches();
  const double t0 = Now() + 0.05;
  const double fixed_end = t0 + fixed_s;
  // The reader runs through both phases (reads beside publish writes) and
  // through the settle barrier between them.
  load.StartReader(t0, fixed_end, in.archive_seconds, opt.seed);
  const double cpu0 = ProcessCpuSeconds();
  std::atomic<bool> fixed_done{false};
  std::thread fixed([&] {
    load.RunFixed(t0, fixed_end);
    fixed_done.store(true);
  });
  // This thread samples the live heap through the fixed-rate phase. The
  // saturated phase is left out: there the heap depends on where
  // backpressure happens to park frames (7-21 MB from run to run on
  // fleet_replay).
  std::this_thread::sleep_until(ToTimePoint(t0));
  while (!fixed_done.load()) {
    heap_mb.push_back(double(HeapLiveBytes() - heap0) / double(1 << 20));
    std::this_thread::sleep_for(
        std::chrono::duration<double>(kHeapSampleSeconds));
  }
  fixed.join();
  const double cpu_fixed = ProcessCpuSeconds() - cpu0;
  const CpuJiffies j_fixed = ReadCpuJiffies();
  const long csw_fixed = InvoluntaryContextSwitches();
  if (!load.WaitSettled(10)) Check(r, false, "fixed phase did not settle");

  // Saturated phase, sampled in fixed windows by this thread.
  const double window = std::min(0.5, sat_s / 4);
  const double s0 = Now();
  const double cpu_sat0 = ProcessCpuSeconds();
  const double s_end = s0 + sat_s;
  std::vector<double> window_fps;
  std::thread sat([&] { load.RunSaturated(s_end); });
  std::uint64_t prev = load.pushed_total.load();
  double prev_t = s0;
  for (int k = 1; s0 + k * window <= s_end + 1e-9; ++k) {
    std::this_thread::sleep_until(ToTimePoint(s0 + k * window));
    const std::uint64_t n = load.pushed_total.load();
    const double t = Now();
    window_fps.push_back(double(n - prev) / (t - prev_t));
    prev = n;
    prev_t = t;
  }
  sat.join();
  const double cpu_sat = ProcessCpuSeconds() - cpu_sat0;
  const double measured_end = Now();
  const CpuJiffies j1 = ReadCpuJiffies();
  const long csw1 = InvoluntaryContextSwitches();
  load.StopReader();
  load.Unsubscribe();

  std::vector<runtime::SessionReport> reports;
  for (auto& session : sys.sessions) reports.push_back(session->Drain());
  const std::uint64_t version1 = sys.runtime->query().version();
  auto stats = sys.runtime->Shutdown();
  if (!stats.ok()) Fail("shutdown failed");
  const double lifetime = Now() - sys.epoch;
  sys.runtime->PublishMetrics();
  const obs::MetricsSnapshot snap = sys.runtime->registry().Snapshot();

  // --------------------------------------------------------- checks --
  ReferencePath path;
  path.classifier = sys.classifier.get();
  path.nn_input_size = kNnInput;
  path.split = sys.split;
  Reference ref(spec, in, path);
  std::vector<codec::KeyframeParams> feed_kp(std::size_t(spec.feeds));
  for (std::size_t c = 0; c < in.cameras.size(); ++c) {
    feed_kp[std::size_t(in.cameras[c].feed)] = sys.keyframe[c];
  }
  const double check0 = Now();
  const double baseline_fps = ref.RunBaseline(feed_kp, load_threads);

  std::size_t pushed = 0, selected = 0, delivered = 0, dropped = 0,
              failed_pushes = 0, correct_labels = 0, labelled_frames = 0;
  std::uint64_t wan_bytes = 0, lan_bytes = 0;
  std::map<std::string, std::size_t> drops = {
      {"wan", 0}, {"corrupt", 0}, {"shutdown", 0}};
  std::set<std::pair<std::size_t, std::size_t>> intra_frames;  // (cam, frame)
  for (std::size_t c = 0; c < reports.size(); ++c) {
    const runtime::SessionReport& rep = reports[c];
    const CameraPlan& cam = in.cameras[c];
    const std::string who = cam.id + ": ";
    Check(r, rep.frames_pushed == load.attempts()[c] - load.failures()[c],
          who + "pushed count differs from accepted pushes");
    Check(r,
          rep.frames_pushed == rep.frames_stored_edge + rep.frames_delivered +
                                   rep.frames_dropped + rep.frames_resumed,
          who + "ledger does not reconcile");
    pushed += rep.frames_pushed;
    selected += rep.iframes_selected;
    delivered += rep.frames_delivered;
    dropped += rep.frames_dropped;
    failed_pushes += load.failures()[c];
    drops["wan"] += rep.dropped_wan;
    drops["corrupt"] += rep.dropped_corrupt;
    drops["shutdown"] += rep.dropped_shutdown;
    wan_bytes += rep.edge_to_cloud_bytes + rep.wan_retransmit_bytes;
    lan_bytes += rep.camera_to_edge_bytes;

    // Every delivered row equals the single-threaded reference.
    const std::vector<std::size_t> intra =
        ref.IntraFrames(c, rep.frames_pushed, sys.keyframe[c]);
    for (std::size_t f : intra) intra_frames.insert({c, f});
    Check(r, intra.size() == rep.iframes_selected,
          who + "I-frame count differs from the reference");
    const auto& rows = sys.sessions[c]->db().rows();
    Check(r, rows.size() == rep.frames_delivered,
          who + "row count differs from frames delivered");
    std::size_t mismatched = 0;
    for (const auto& [frame, label] : rows) {
      if (!std::binary_search(intra.begin(), intra.end(), frame) ||
          ref.Label(c, RawIndex(in, cam, frame)) != label) {
        ++mismatched;
      }
    }
    Check(r, mismatched == 0,
          who + std::to_string(mismatched) + " rows differ from the reference");

    // Fig. 3: per-frame propagated label accuracy against ground truth.
    const Feed& feed = in.feeds[std::size_t(cam.feed)];
    for (std::size_t f = 0; f < rep.frames_pushed; ++f) {
      correct_labels += sys.sessions[c]->db().LabelAt(f) ==
                        feed.truth.label(RawIndex(in, cam, f));
      ++labelled_frames;
    }
  }
  Check(r, RecoveredIndexMatchesRebuild(
               work_dir + "/store" + std::to_string(kSetupReps - 1),
               sys.runtime->query()),
        "live index differs from a rebuild of the journaled rows");
  if (spec.wan_loss == 0) {
    Check(r, dropped == 0, "frames dropped without a fault plan");
  }
  Check(r, drops["corrupt"] == 0 && drops["shutdown"] == 0,
        "frames dropped other than by the WAN fault plan");
  r.detail["check_s"] = Now() - check0;

  // ------------------------------------------------- end-to-end metrics --
  std::size_t fixed_frames = 0;
  for (std::size_t f : load.fixed_frames()) fixed_frames += f;
  // Event latency of the fixed-rate phase, from each frame's due time.
  std::vector<double> event_ms;
  for (const EventSample& ev : load.events()) {
    if (ev.frame < load.fixed_frames()[ev.cam]) {
      event_ms.push_back((ev.at - load.Due(ev.cam, ev.frame)) * 1e3);
    }
  }
  std::vector<double> find_ms, find_service_ms, where_ms;
  for (const QuerySample& q : load.queries()) {
    if (q.where_is) {
      where_ms.push_back((q.end - q.start) * 1e3);
    } else {
      find_service_ms.push_back((q.end - q.start) * 1e3);
      if (q.fixed_phase) find_ms.push_back((q.end - q.due) * 1e3);
    }
  }
  std::vector<double> late_ms, push_ms, push_iframe_ms;
  for (const auto& samples : load.fixed_samples) {
    for (const PushSample& s : samples) {
      late_ms.push_back(s.late_ms);
      push_ms.push_back(s.dur_ms);
      if (intra_frames.count({s.cam, s.frame}) != 0) {
        push_iframe_ms.push_back(s.dur_ms);
      }
    }
  }
  const std::vector<double> sat_windows(window_fps.begin() + 1,
                                        window_fps.end());
  r.e2e["capacity_fps"] = Median(sat_windows);
  r.e2e["cpu_ms_per_frame"] =
      fixed_frames > 0 ? cpu_fixed * 1e3 / double(fixed_frames) : 0;
  r.e2e["event_p50_ms"] = Median(event_ms);
  r.e2e["event_p90_ms"] = Quantile(event_ms, 0.9);
  r.e2e["query_p50_ms"] = Median(find_ms);
  r.e2e["delivery_rate"] =
      double(delivered) / double(std::max<std::size_t>(1, selected + failed_pushes));
  r.e2e["wan_bytes_per_frame"] = double(wan_bytes) / double(std::max<std::size_t>(1, pushed));
  r.e2e["decoded_share"] = double(selected) / double(std::max<std::size_t>(1, pushed));
  r.e2e["label_accuracy"] =
      double(correct_labels) / double(std::max<std::size_t>(1, labelled_frames));
  // The 99th percentile of the samples, not their maximum: a host stall of
  // a few milliseconds backs frames up in the queues, and the maximum
  // followed how long the longest stall of the run happened to be.
  r.e2e["peak_heap_mb"] = Quantile(heap_mb, 0.99);

  std::size_t queries = load.queries().size();
  r.attempted = 0;
  for (std::size_t a : load.attempts()) r.attempted += a;
  r.attempted += queries;
  r.failed = failed_pushes + dropped;

  // ------------------------------------------------------- host noise --
  auto steal = [](const CpuJiffies& a, const CpuJiffies& b) {
    return a.valid && b.valid && b.total > a.total
               ? double(b.steal - a.steal) / double(b.total - a.total)
               : -1.0;
  };
  r.noise["steal_share"] = steal(j0, j1);
  r.noise["steal_share_fixed"] = steal(j0, j_fixed);
  r.noise["steal_share_saturated"] = steal(j_fixed, j1);
  r.noise["cpu_cores_fixed"] = cpu_fixed / fixed_s;
  r.noise["cpu_cores_saturated"] = cpu_sat / sat_s;
  r.noise["involuntary_csw"] = double(csw1 - csw0);
  r.noise["involuntary_csw_fixed"] = double(csw_fixed - csw0);
  r.noise["gen_late_p50_ms"] = Median(late_ms);
  r.noise["gen_late_p99_ms"] = Quantile(late_ms, 0.99);
  r.noise["gen_late_max_ms"] =
      late_ms.empty() ? 0 : *std::max_element(late_ms.begin(), late_ms.end());
  r.noise["load_threads"] = load_threads;
  r.noise["hardware_threads"] = hw;

  r.detail["event_samples"] = double(event_ms.size());
  // Also printed by traced runs, to set beside obs.push_to_settle_ms.p50.
  r.detail["event_p50_ms"] = Median(event_ms);
  r.detail["heap_max_mb"] =
      heap_mb.empty() ? 0 : *std::max_element(heap_mb.begin(), heap_mb.end());
  r.detail["query_samples"] = double(find_ms.size());
  r.detail["fixed_frames"] = double(fixed_frames);
  r.detail["saturated_windows"] = double(sat_windows.size());
  r.detail["capacity_window_q1"] = Quantile(sat_windows, 0.25);
  r.detail["capacity_window_q3"] = Quantile(sat_windows, 0.75);
  r.detail["frames_pushed"] = double(pushed);
  r.detail["iframes_selected"] = double(selected);
  r.detail["frames_delivered"] = double(delivered);
  r.detail["reference_fps"] = baseline_fps;
  r.detail["measured_seconds"] = measured_end - t0;
  // >= 200 samples leave >= 20 beyond the p90.
  Check(r, event_ms.size() >= 200,
        "only " + std::to_string(event_ms.size()) + " event samples (< 200)");

  // --------------------------------------------------- per-layer metrics --
  if (!opt.trace) return r;
  auto counter = [&](const std::string& name) {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0.0 : double(it->second);
  };
  auto gauge = [&](const std::string& name) {
    const auto it = snap.gauges.find(name);
    return it == snap.gauges.end() ? 0.0 : it->second;
  };
  auto hist = [&](const std::string& name, bool p99) {
    const auto it = snap.histograms.find(name);
    if (it == snap.histograms.end() || it->second.count == 0) return 0.0;
    return p99 ? std::min(it->second.p99, it->second.max) : it->second.p50;
  };
  auto& L = r.layer;
  const std::size_t nonzero = std::max<std::size_t>(1, pushed);
  // codec (replay workloads: the probe's PushFrame calls, see ProbeEncode)
  if (spec.live) {
    L["codec.push_frame_ms.p50"] = Median(push_ms);
    L["codec.push_frame_ms.p99"] = Quantile(push_ms, 0.99);
    L["codec.push_iframe_ms.p50"] = Median(push_iframe_ms);
  }
  L["codec.lan_bytes_per_frame"] = double(lan_bytes) / double(nonzero);
  // core: seconds one camera spends tuning its encoder (replay cameras
  // tuned before they streamed, while the inputs were built)
  std::vector<double> tune_s = sys.tune_s;
  if (!spec.live) {
    for (const Feed& feed : in.feeds) tune_s.push_back(feed.tune_s);
  }
  L["core.tune_s"] = Median(tune_s);
  L["core.iframes_selected"] = double(selected);
  // dataflow (+ the busy-time views of core and nn)
  std::map<std::string, const dataflow::StageStats*> stage;
  for (const auto& s : *stats) {
    std::string name = s.name;
    std::replace(name.begin(), name.end(), '/', '-');
    stage[name] = &s;
  }
  for (const std::string& s : StageMetricNames()) {
    const auto it = stage.find(s);
    const dataflow::StageStats* st = it == stage.end() ? nullptr : it->second;
    L["dataflow." + s + ".busy_share"] =
        st ? st->busy_seconds / (double(std::max<std::size_t>(1, st->workers)) *
                                 lifetime)
           : 0;
    L["dataflow." + s + ".avg_queue"] = st ? st->avg_queue : 0;
  }
  auto busy_per_item = [&](const std::string& s, double scale) {
    const auto it = stage.find(s);
    if (it == stage.end() || it->second->in == 0) return 0.0;
    return it->second->busy_seconds * scale / double(it->second->in);
  };
  L["core.seeker.busy_us_per_frame"] = busy_per_item("edge-iframe-seeker", 1e6);
  // runtime
  L["runtime.open_session_ms"] = Median(sys.open_ms);
  L["runtime.gen_late_ms.p99"] = Quantile(late_ms, 0.99);
  for (const auto& [reason, n] : drops) {
    L["runtime.frames_dropped." + reason] = double(n);
  }
  // nn
  L["nn.fit_s"] = sys.fit_s;
  for (auto [precision, name] :
       {std::pair{nn::Precision::kFp32, "nn.forward_ms.fp32"},
        std::pair{nn::Precision::kInt8, "nn.forward_ms.int8"}}) {
    std::vector<double> ms;
    for (int rep = 0; rep < 3; ++rep) {
      for (const media::Frame& still : ref.stills()) {
        const double ts = Now();
        (void)sys.classifier->Embed(still, precision);
        ms.push_back((Now() - ts) * 1e3);
      }
    }
    L[name] = Median(ms);
  }
  L["nn.edge_nn.busy_ms_per_item"] = busy_per_item("edge-nn", 1e3);
  L["nn.cloud_nn.busy_ms_per_item"] = busy_per_item("cloud-nn", 1e3);
  // fleet
  L["fleet.batch_occupancy_avg"] = gauge("batch.occupancy_avg");
  L["fleet.flushes"] = gauge("batch.flushes");
  L["fleet.peak_pending"] = gauge("batch.peak_pending");
  // net
  L["net.wan.messages_sent"] = gauge("wan.messages_sent");
  L["net.wan.retries"] = gauge("wan.retries");
  L["net.wan.retransmit_bytes"] = gauge("wan.retransmit_bytes");
  L["net.wan.messages_dropped"] = gauge("wan.messages_dropped");
  // store
  L["store.recover.records"] = counter("store.recover.records");
  L["store.journal.appends"] = counter("store.journal.appends");
  L["store.journal.fsyncs"] = counter("store.journal.fsyncs");
  L["store.journal.fsync_ms.p50"] = hist("store.journal.fsync_ms", false);
  L["store.journal.fsync_ms.p99"] = hist("store.journal.fsync_ms", true);
  // query
  L["query.find_object_ms.p50"] = Median(find_service_ms);
  L["query.find_object_ms.p99"] = Quantile(find_service_ms, 0.99);
  L["query.where_is_ms.p50"] = Median(where_ms);
  L["query.updates_per_s"] =
      double(version1 - version0) / std::max(1e-9, measured_end - t0);
  L["query.rebuilds"] = counter("query.rebuilds");

  // Trace reduction (tracing stopped at Shutdown; the rings stay readable).
  const auto trace = obs::SnapshotTrace();
  double recover_ms = 0;
  for (const auto& thread : trace) {
    for (const auto& ev : thread.events) {
      if (ev.name != nullptr && std::strcmp(ev.name, "store/recover") == 0) {
        recover_ms = double(ev.dur_us) / 1e3;
      }
    }
  }
  L["store.recover_s"] = recover_ms / 1e3;
  std::map<std::uint64_t, std::uint64_t> fixed_limit;
  for (std::size_t c = 0; c < sys.track.size(); ++c) {
    fixed_limit[sys.track[c]] = load.fixed_frames()[c];
  }
  const TraceReduction red = ReduceTrace(trace, fixed_limit);
  for (const auto& [name, value] : red.metrics) L[name] = value;
  if (!spec.live) {
    // The whole PushEncoded call, timed at finer grain than the trace's
    // microsecond stamps.
    L["runtime.push_encoded_us.p50"] = Median(push_ms) * 1e3;
    L["runtime.push_encoded_us.p99"] = Quantile(push_ms, 0.99) * 1e3;
  }
  L["obs.trace_overhead"] =
      untraced_cpu_ms > 0 ? r.e2e["cpu_ms_per_frame"] / untraced_cpu_ms - 1.0
                          : 0;
  EncodeProbe probe = ProbeEncode(
      in.feeds[0], spec.live ? sys.keyframe[0] : in.feeds[0].keyframe);
  if (!spec.live) {
    L["codec.push_frame_ms.p50"] = Median(probe.push_ms);
    L["codec.push_frame_ms.p99"] = Quantile(probe.push_ms, 0.99);
    L["codec.push_iframe_ms.p50"] = Median(probe.push_iframe_ms);
    L["codec.encode_analyze_ms.p50"] = Median(probe.span_ms["encode/analyze"]);
    L["codec.encode_pass_ms.p50"] = Median(probe.span_ms["encode/pass"]);
  }
  L["codec.encode_pass1_ms.p50"] = Median(probe.span_ms["encode/pass1"]);
  L["codec.encode_entropy_ms.p50"] = Median(probe.span_ms["encode/entropy"]);
  return r;
}

/// Unit of every metric the program reports; BENCHMARK.json lists the same
/// names with the same units.
const std::map<std::string, std::string>& MetricUnits() {
  static const std::map<std::string, std::string> units = [] {
    std::map<std::string, std::string> u = {
        // end to end
        {"setup_s", "s"},
        {"capacity_fps", "frames/s"},
        {"cpu_ms_per_frame", "ms"},
        {"event_p50_ms", "ms"},
        {"event_p90_ms", "ms"},
        {"query_p50_ms", "ms"},
        {"delivery_rate", "fraction"},
        {"wan_bytes_per_frame", "B"},
        {"decoded_share", "fraction"},
        {"label_accuracy", "fraction"},
        {"peak_heap_mb", "MB"},
        // per layer
        {"codec.encode_analyze_ms.p50", "ms"},
        {"codec.encode_entropy_ms.p50", "ms"},
        {"codec.encode_pass1_ms.p50", "ms"},
        {"codec.encode_pass_ms.p50", "ms"},
        {"codec.lan_bytes_per_frame", "B"},
        {"codec.push_frame_ms.p50", "ms"},
        {"codec.push_frame_ms.p99", "ms"},
        {"codec.push_iframe_ms.p50", "ms"},
        {"core.iframes_selected", "count"},
        {"core.seeker.busy_us_per_frame", "us"},
        {"core.tune_s", "s"},
        {"fleet.batch_occupancy_avg", "count"},
        {"fleet.batch_wait_ms.p50", "ms"},
        {"fleet.batch_wait_ms.p99", "ms"},
        {"fleet.flushes", "count"},
        {"fleet.peak_pending", "count"},
        {"net.wan.messages_dropped", "count"},
        {"net.wan.messages_sent", "count"},
        {"net.wan.retransmit_bytes", "B"},
        {"net.wan.retries", "count"},
        {"net.wan.send_ms.p50", "ms"},
        {"net.wan.send_ms.p99", "ms"},
        {"nn.cloud_nn.busy_ms_per_item", "ms"},
        {"nn.edge_nn.busy_ms_per_item", "ms"},
        {"nn.fit_s", "s"},
        {"nn.forward_ms.fp32", "ms"},
        {"nn.forward_ms.int8", "ms"},
        {"obs.breakdown_coverage", "fraction"},
        {"obs.push_to_settle_ms.p50", "ms"},
        {"obs.trace_dropped", "count"},
        {"obs.trace_events", "count"},
        {"obs.trace_overhead", "fraction"},
        {"query.db_insert_ms.p50", "ms"},
        {"query.find_object_ms.p50", "ms"},
        {"query.find_object_ms.p99", "ms"},
        {"query.rebuilds", "count"},
        {"query.updates_per_s", "1/s"},
        {"query.where_is_ms.p50", "ms"},
        {"runtime.frames_dropped.corrupt", "count"},
        {"runtime.frames_dropped.shutdown", "count"},
        {"runtime.frames_dropped.wan", "count"},
        {"runtime.gen_late_ms.p99", "ms"},
        {"runtime.open_session_ms", "ms"},
        {"runtime.push_encoded_us.p50", "us"},
        {"runtime.push_encoded_us.p99", "us"},
        {"store.journal.appends", "count"},
        {"store.journal.fsync_ms.p50", "ms"},
        {"store.journal.fsync_ms.p99", "ms"},
        {"store.journal.fsyncs", "count"},
        {"store.recover.records", "count"},
        {"store.recover_s", "s"},
    };
    for (const std::string& stage : StageMetricNames()) {
      const std::string p = "dataflow." + stage;
      u[p + ".busy_share"] = "fraction";
      u[p + ".avg_queue"] = "count";
      u[p + ".queue_wait_ms.p50"] = "ms";
      u[p + ".service_ms.p50"] = "ms";
    }
    return u;
  }();
  return units;
}

/// The metrics as JSON, each with its unit from MetricUnits().
std::string JsonMetrics(const std::map<std::string, double>& metrics) {
  std::string out = "{";
  for (const auto& [name, value] : metrics) {
    const auto u = MetricUnits().find(name);
    if (u == MetricUnits().end()) Fail("metric " + name + " has no unit");
    char buf[512];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  out.size() > 1 ? ", " : "", name.c_str(),
                  std::isfinite(value) ? value : 0.0,
                  u->second.c_str());
    out += buf;
  }
  return out + "}";
}

std::string JsonPlain(const std::map<std::string, double>& values) {
  std::string out = "{";
  for (const auto& [name, value] : values) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": %.10g", out.size() > 1 ? ", " : "",
                  name.c_str(), value);
    out += buf;
  }
  return out + "}";
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  using namespace e2e;
  const Options opt = ParseArgs(argc, argv);
  const WorkloadSpec& spec = *FindWorkload(opt.workload);
  const std::string work_dir =
      opt.work_dir + "/" + spec.name + "-" + std::to_string(getpid());
  std::filesystem::create_directories(work_dir);
  RunResult r = Run(opt, spec, work_dir);
  std::filesystem::remove_all(work_dir);

  for (const std::string& e : r.errors) {
    std::fprintf(stderr, "e2e_bench: check failed: %s\n", e.c_str());
  }
  const auto& metrics = opt.trace ? r.layer : r.e2e;
  std::printf("host_noise %s\n", JsonPlain(r.noise).c_str());
  std::printf("detail %s\n", JsonPlain(r.detail).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              JsonMetrics(metrics).c_str());
  return 0;
}
