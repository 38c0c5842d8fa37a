#include "workload.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <random>
#include <thread>

#include "bench_util.h"
#include "codec/decoder.h"
#include "codec/frame_coding.h"
#include "codec/range_coder.h"
#include "codec/still.h"
#include "core/tuner.h"
#include "media/image_ops.h"
#include "nn/tensor.h"
#include "store/journal.h"
#include "synth/datasets.h"
#include "synth/scene.h"

namespace e2e {

using namespace sieve;

namespace {

/// Classifier calibration frames per run, spread over all feeds.
constexpr std::size_t kCalibFrames = 384;

std::vector<WorkloadSpec> MakeSpecs() {
  std::vector<WorkloadSpec> specs;

  // Cameras encode live: the semantic encoder is most of the CPU, so codec
  // changes show here. Cloud placement, no batching.
  WorkloadSpec live;
  live.name = "live_encode";
  live.live = true;
  live.cameras = 12;
  live.feeds = 12;
  live.loop_periods = 5;
  // Two cameras' I-frames that reach the still transcode or the cloud NN
  // together are served side by side. With one worker each, which I-frames
  // queue behind one another depends on the seeded phases and content, and
  // event_p90_ms swung with the seed (12-18 ms on a quiet host).
  live.transcode_parallelism = 2;
  live.cloud_nn_parallelism = 2;
  // Each still spends ~21 ms on the real-time WAN; eight concurrent sends
  // keep the link from bounding the saturated phase (~190 I-frames/s).
  live.wan_parallelism = 8;
  specs.push_back(live);

  // Smart cameras ship pre-encoded semantic video; the encoder is bypassed
  // and the per-frame runtime/dataflow path dominates (most frames are
  // P-frames the seeker filters). Cloud placement, fleet batcher on.
  WorkloadSpec fleet;
  fleet.name = "fleet_replay";
  // 24 cameras keep the single still-transcode worker ~25% busy in the
  // fixed-rate phase. At 48 (~45% busy), a run at 29% steal pushed it past
  // saturation, and that run's latencies grew five-fold; at 32, 22% steal
  // still raised event_p90_ms by 70%.
  fleet.cameras = 24;
  fleet.feeds = 24;
  fleet.loop_periods = 5;
  fleet.batch_max = 16;
  // One still-transcode worker bounds the saturated phase. With two, no
  // single stage set the saturated rate (2.1-2.7 of 4 cores busy): it
  // jumped between 2,400 and 5,600 frames/s within one run, and
  // capacity_fps swung by 30% between runs on a quiet host.
  fleet.transcode_parallelism = 1;
  // A replayed push is ~10 us, so two threads drive all 24 cameras and leave
  // the cores to the tiers they measure. Two rather than one: a stall of one
  // pusher delays half the fleet's frames, not all of them.
  fleet.pushers = 2;
  // ~280 I-frames/s in the saturated phase, ~21 ms each on the WAN.
  fleet.wan_parallelism = 12;
  specs.push_back(fleet);

  // A mid-network split sends activations over a real-time lossy WAN, and
  // boot recovers a large archived history that an operator reader queries
  // while new rows publish. 16 cameras rather than 8, so that a run
  // collects >= 200 notifications.
  WorkloadSpec wan;
  wan.name = "wan_durable";
  wan.cameras = 16;
  wan.feeds = 16;
  wan.loop_periods = 8;
  wan.placement = runtime::PlacementMode::kFixed;
  wan.mid_split = true;
  wan.real_time_lan = true;
  wan.wan_loss = 0.02;
  wan.archive_cameras = 40;
  wan.archive_rows = 2500;
  // An activation spends ~40 ms on the link (20 ms RTT plus ~70 kB at
  // 30 Mbps), ~2 sends in flight at the fixed rate. With four workers, a
  // tenth of the frames queued for one, and event_p90_ms moved with how
  // the seeded losses and the host bunched them (0.25 IQR/median).
  wan.wan_parallelism = 6;
  specs.push_back(wan);
  return specs;
}

const std::vector<WorkloadSpec>& Specs() {
  static const std::vector<WorkloadSpec> specs = MakeSpecs();
  return specs;
}

/// Run fn(i) for i in [0, n) on up to `threads` threads.
template <typename Fn>
void ParallelFor(int n, int threads, Fn fn) {
  std::atomic<int> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < std::max(1, std::min(threads, n)); ++t) {
    pool.emplace_back([&] {
      for (int i = next++; i < n; i = next++) fn(i);
    });
  }
  for (auto& th : pool) th.join();
}

synth::SceneConfig FeedConfig(const WorkloadSpec& spec, std::uint64_t seed,
                              int feed) {
  synth::SceneConfig cfg = synth::MakeDatasetConfig(
      synth::DatasetId::kJacksonSquare, spec.loop_frames(), seed);
  // Feeds take the preset's classes (car, bus, truck) in turn, one class
  // per feed, so every run carries the same class mix: a seeded draw per
  // vehicle would swing encode cost and accuracy from seed to seed.
  cfg.classes = {cfg.classes[std::size_t(feed) % cfg.classes.size()]};
  cfg.width = kWidth;
  cfg.height = kHeight;
  cfg.fps = kFps;
  // The schedule draws max(min, Exponential(mean)); a negligible mean
  // leaves exactly the minimum.
  cfg.allow_concurrent = false;
  cfg.min_gap_seconds = kGapSeconds;
  cfg.mean_gap_seconds = 1e-6;
  cfg.min_dwell_seconds = kDwellSeconds;
  cfg.mean_dwell_seconds = 1e-6;
  cfg.ramp_seconds = kRampSeconds;
  return cfg;
}

Feed MakeFeed(const WorkloadSpec& spec, std::uint64_t seed, int index) {
  synth::SyntheticVideo scene =
      synth::GenerateScene(FeedConfig(spec, seed, index));
  Feed feed;
  feed.truth = scene.truth;
  const std::size_t per_feed = kCalibFrames / std::size_t(spec.feeds);
  const std::size_t stride =
      std::max<std::size_t>(1, scene.video.frames.size() / per_feed);
  for (std::size_t f = 0; f < scene.video.frames.size(); f += stride) {
    feed.calib_frames.push_back(scene.video.frames[f]);
    feed.calib_labels.push_back(scene.truth.label(f));
  }
  if (spec.live) {
    // Cost of each raw frame after its predecessor in the loop (raw 0
    // follows raw L-1): what the camera's lookahead sees after frame 0.
    codec::FrameAnalyzer analyzer;
    analyzer.Push(scene.video.frames.back());
    for (const media::Frame& frame : scene.video.frames) {
      feed.loop_costs.push_back(analyzer.Push(frame));
    }
    feed.video = std::move(scene.video);
    return feed;
  }
  // A smart camera tuned itself on its own history and streams the result.
  const double t0 = Now();
  const core::TuningResult tuned =
      core::TuneEncoder(scene.video, scene.truth, BenchTunerGrid());
  feed.tune_s = Now() - t0;
  feed.keyframe.gop_size = tuned.best.gop_size;
  feed.keyframe.scenecut = tuned.best.scenecut;
  codec::EncoderParams params =
      codec::EncoderParams::Semantic(feed.keyframe.gop_size,
                                     feed.keyframe.scenecut);
  params.threads = 1;
  auto encoded = codec::VideoEncoder(params).Encode(scene.video);
  if (encoded.ok()) feed.encoded = std::move(*encoded);
  if (index == 0) feed.video = std::move(scene.video);
  return feed;
}

void WriteArchive(const WorkloadSpec& spec, std::uint64_t seed,
                  const std::string& dir, Inputs& out) {
  std::filesystem::create_directories(dir);
  std::mt19937_64 rng(seed * 7919 + 17);
  constexpr std::size_t kFramesPerRow = 10;
  constexpr int kClasses = 3;  // car, bus, truck: the preset's classes
  for (int cam = 0; cam < spec.archive_cameras; ++cam) {
    const std::string id = "archive-" + std::to_string(cam);
    const std::string route = id + "#1";
    auto writer = store::JournalWriter::Open(
        dir + "/" + store::JournalFileName(route), store::FsyncPolicy{});
    if (!writer.ok()) continue;
    (void)(*writer)->AppendRegister(route, id, 0.0, kFps);
    std::uint8_t bits = 0;
    for (std::size_t row = 0; row < spec.archive_rows; ++row) {
      // A label set that changes at about a third of the analyzed frames,
      // one class entering or leaving at a time.
      if (rng() % 3 == 0) bits ^= std::uint8_t(1u << (rng() % kClasses));
      (void)(*writer)->AppendInsert(row * kFramesPerRow, bits);
    }
    (void)(*writer)->AppendSeal(spec.archive_rows * kFramesPerRow);
    (void)(*writer)->Close();
  }
  out.archive_dir = dir;
  out.archive_rows = std::size_t(spec.archive_cameras) * spec.archive_rows;
  out.archive_seconds = double(spec.archive_rows * kFramesPerRow) / kFps;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Specs()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::string WorkloadNames() {
  std::string names;
  for (const WorkloadSpec& spec : Specs()) {
    names += (names.empty() ? "" : ", ") + spec.name;
  }
  return names;
}

core::TunerGrid BenchTunerGrid() {
  core::TunerGrid grid;
  grid.gop_sizes = {30};
  return grid;
}

Inputs BuildInputs(const WorkloadSpec& spec, std::uint64_t seed,
                   const std::string& work_dir, int threads) {
  Inputs in;
  in.feeds.resize(std::size_t(spec.feeds));
  ParallelFor(spec.feeds, threads, [&](int f) {
    in.feeds[std::size_t(f)] =
        MakeFeed(spec, seed * 1000 + std::uint64_t(f), f);
  });

  // Every feed runs the same object timetable, so a camera's I-frames
  // (scene cuts at each arrival and departure, GOP-forced ones between)
  // fall at fixed times after its schedule starts. Push schedules are
  // therefore spread evenly over one object period, in camera order with
  // seeded jitter of whole frames, and clips start at a seeded whole
  // period: the cameras' I-frames never reach the serial transcode/NN
  // stages in lockstep, and which cameras (and classes) neighbour each
  // other in phase does not depend on the seed. Within a frame interval,
  // camera c is due c/cameras of the way in, whatever the seed: a pusher
  // serves cameras c, c + pushers, ..., so its pushes are evenly spaced and
  // no camera's frame waits behind another's encode by a seeded amount.
  std::mt19937_64 rng(seed * 104729 + 3);
  const double period_frames = kPeriodSeconds * kFps;
  for (int c = 0; c < spec.cameras; ++c) {
    CameraPlan cam;
    cam.id = "cam-" + std::to_string(c);
    cam.feed = c % spec.feeds;
    cam.offset = spec.loop_frames() / std::size_t(spec.loop_periods) *
                 std::size_t(rng() % std::uint64_t(spec.loop_periods));
    const double jitter = double(rng() >> 11) * 0x1.0p-54;  // [0, 0.5)
    const double frames =
        std::floor((double(c) + jitter) / spec.cameras * period_frames);
    cam.phase = (frames + double(c) / spec.cameras) / kFps;
    in.cameras.push_back(cam);
  }
  if (spec.archive_cameras > 0) {
    WriteArchive(spec, seed, work_dir + "/archive", in);
  }
  return in;
}

// ----------------------------------------------------------- reference --

synth::LabelSet ReferencePath::Classify(std::span<const std::uint8_t> payload,
                                        int width, int height,
                                        media::Frame* still_out) const {
  // edge/still-transcode: decode the I-frame, resize, re-encode as a still.
  codec::RangeDecoder rc(payload);
  codec::FrameModels models;
  media::Frame frame(width, height);
  codec::DecodeIntraFrame(rc, models, codec::CodingContext::ForQp(qp), frame);
  const media::Frame resized =
      media::ResizeFrame(frame, nn_input_size, nn_input_size);
  auto still = codec::DecodeStill(codec::EncodeStill(resized, still_qp));
  if (!still.ok()) return synth::LabelSet(0xFF);
  if (still_out != nullptr) *still_out = *still;
  // edge/nn prefix, the activation's wire round trip, then the cloud suffix.
  const nn::Network& net = classifier->network();
  nn::Tensor activation = classifier->InputTensor(*still);
  if (split > 0) {
    auto wire = nn::DeserializeTensor(
        nn::SerializeTensor(net.ForwardPrefix(activation, split)));
    if (!wire.ok()) return synth::LabelSet(0xFF);
    activation = std::move(*wire);
  }
  auto label = classifier->PredictFromEmbedding(
      net.ForwardSuffix(activation, split).values());
  return label.ok() ? *label : synth::LabelSet(0xFF);
}

double Reference::RunBaseline(const std::vector<codec::KeyframeParams>& tuned,
                              int threads) {
  // Each feed runs the single-threaded pipeline on one thread. Feed 0 runs
  // alone and gives the baseline rate; the other feeds share nothing, so
  // up to `threads` of them then run at once.
  struct FeedRun {
    std::size_t frames = 0;
    double seconds = 0;
    std::map<std::size_t, synth::LabelSet> labels;  ///< raw frame -> label
    std::vector<media::Frame> stills;
  };
  std::vector<FeedRun> runs(std::size_t(spec_.feeds));
  auto run_feed = [&](int fi) {
    const Feed& feed = inputs_.feeds[std::size_t(fi)];
    FeedRun& run = runs[std::size_t(fi)];
    const double t0 = Now();
    auto keep = [&](std::size_t raw, std::span<const std::uint8_t> wire) {
      media::Frame still;
      run.labels[raw] =
          path_.Classify(wire.subspan(codec::FrameRecord::kHeaderSize),
                         kWidth, kHeight, &still);
      if (run.stills.size() < 4) run.stills.push_back(std::move(still));
    };
    if (spec_.live) {
      // The feed's first camera's tuned encoder; cameras on one feed tune
      // on the same clip.
      codec::EncoderParams params = codec::EncoderParams::Semantic(
          tuned[std::size_t(fi)].gop_size, tuned[std::size_t(fi)].scenecut);
      params.threads = 1;
      codec::StreamingEncoder encoder(params, kWidth, kHeight, kFps);
      for (std::size_t raw = 0; raw < feed.video.frames.size(); ++raw) {
        auto record = encoder.PushFrame(feed.video.frames[raw]);
        if (!record.ok()) continue;
        if (record->type == codec::FrameType::kIntra) {
          keep(raw, encoder.WireBytes(*record));
        }
        encoder.TrimBuffered();
        ++run.frames;
      }
    } else {
      const std::span<const std::uint8_t> bytes(feed.encoded.bytes);
      for (std::size_t raw = 0; raw < feed.encoded.records.size(); ++raw) {
        const codec::FrameRecord& r = feed.encoded.records[raw];
        if (r.type == codec::FrameType::kIntra) {
          keep(raw, bytes.subspan(r.payload_offset -
                                      codec::FrameRecord::kHeaderSize,
                                  codec::FrameRecord::kHeaderSize +
                                      r.payload_size));
        }
        ++run.frames;
      }
    }
    run.seconds = Now() - t0;
  };
  run_feed(0);
  ParallelFor(spec_.feeds - 1, threads, [&](int i) { run_feed(i + 1); });
  for (int fi = 0; fi < spec_.feeds; ++fi) {
    FeedRun& run = runs[std::size_t(fi)];
    for (const auto& [raw, label] : run.labels) cache_[{fi, raw}] = label;
    for (media::Frame& still : run.stills) {
      if (stills_.size() < 32) stills_.push_back(std::move(still));
    }
  }
  return runs[0].seconds > 0 ? double(runs[0].frames) / runs[0].seconds
                            : 0.0;
}

std::vector<std::size_t> Reference::IntraFrames(
    std::size_t cam, std::size_t n,
    const codec::KeyframeParams& keyframe) const {
  const CameraPlan& plan = inputs_.cameras[cam];
  const Feed& feed = inputs_.feeds[std::size_t(plan.feed)];
  std::vector<std::size_t> out;
  std::size_t since = 0;
  for (std::size_t f = 0; f < n; ++f) {
    const std::size_t raw = RawIndex(inputs_, plan, f);
    bool intra = false;
    if (spec_.live) {
      // The live encoder's rule: frame 0 always, then the lookahead cost
      // against the previous pushed frame under the camera's tuned params.
      intra = f == 0 || codec::IsKeyframe(feed.loop_costs[raw], keyframe, since);
      since = intra ? 1 : since + 1;
    } else {
      intra = feed.encoded.records[raw].type == codec::FrameType::kIntra;
    }
    if (intra) out.push_back(f);
  }
  return out;
}

synth::LabelSet Reference::Label(std::size_t cam, std::size_t raw) {
  const int fi = inputs_.cameras[cam].feed;
  const auto it = cache_.find({fi, raw});
  if (it != cache_.end()) return it->second;
  // A live camera keyed a clip frame the baseline loop coded as P. Intra
  // payloads use fresh models and a fixed quantizer, so coding the frame
  // alone reproduces the bytes the camera sent.
  const Feed& feed = inputs_.feeds[std::size_t(fi)];
  media::RawVideo one;
  one.width = kWidth;
  one.height = kHeight;
  one.fps = kFps;
  one.frames.push_back(feed.video.frames[raw]);
  codec::EncoderParams params;
  params.threads = 1;
  synth::LabelSet label(0xFF);
  auto encoded = codec::VideoEncoder(params).Encode(one);
  if (encoded.ok() && !encoded->records.empty()) {
    const codec::FrameRecord& r = encoded->records[0];
    label = path_.Classify(
        std::span<const std::uint8_t>(encoded->bytes)
            .subspan(r.payload_offset, r.payload_size),
        kWidth, kHeight, nullptr);
  }
  cache_[{fi, raw}] = label;
  return label;
}

}  // namespace e2e
