#include "trace_reduce.h"

#include <algorithm>
#include <cstring>
#include <unordered_map>

#include "bench_util.h"

namespace e2e {

namespace {

struct Span {
  const char* name = nullptr;
  std::uint32_t tid = 0;
  double start_ms = 0;
  double end_ms = 0;
  double dur() const { return end_ms - start_ms; }
};

struct FrameEvents {
  std::vector<Span> spans;
  double submit_ms = -1;     ///< "batch/submit" instant
  double delivered_ms = -1;  ///< "frame/delivered" instant
};

bool StartsWith(const char* s, const char* prefix) {
  return std::strncmp(s, prefix, std::strlen(prefix)) == 0;
}

/// "stage/edge/iframe-seeker" -> "edge-iframe-seeker".
std::string StageMetricName(const char* span_name) {
  std::string s(span_name + std::strlen("stage/"));
  std::replace(s.begin(), s.end(), '/', '-');
  return s;
}

struct Key {
  std::uint64_t track, frame;
  bool operator==(const Key&) const = default;
};
struct KeyHash {
  std::size_t operator()(const Key& k) const noexcept {
    return std::size_t(k.track * 0x9E3779B97F4A7C15ull ^ k.frame);
  }
};

}  // namespace

const std::vector<std::string>& StageMetricNames() {
  static const std::vector<std::string> names = {
      "edge-iframe-seeker", "edge-still-transcode", "edge-nn",
      "wan",                "cloud-nn",             "cloud-sink"};
  return names;
}

TraceReduction ReduceTrace(
    const std::vector<sieve::obs::ThreadTrace>& trace,
    const std::map<std::uint64_t, std::uint64_t>& frame_limit) {
  TraceReduction out;
  std::uint64_t events = 0, dropped = 0;
  std::unordered_map<Key, FrameEvents, KeyHash> frames;
  for (const auto& thread : trace) {
    dropped += thread.dropped;
    events += thread.events.size();
    for (const auto& ev : thread.events) {
      if (ev.name == nullptr) continue;
      const auto limit = frame_limit.find(ev.track);
      if (limit == frame_limit.end() || ev.frame >= limit->second) continue;
      FrameEvents& fe = frames[Key{ev.track, ev.frame}];
      const double ts = double(ev.ts_us) / 1e3;
      if (ev.phase == 'X') {
        fe.spans.push_back(
            Span{ev.name, thread.tid, ts, ts + double(ev.dur_us) / 1e3});
      } else if (std::strcmp(ev.name, "batch/submit") == 0) {
        fe.submit_ms = ts;
      } else if (std::strcmp(ev.name, "frame/delivered") == 0) {
        fe.delivered_ms = ts;
      }
    }
  }
  out.metrics["obs.trace_events"] = double(events);
  out.metrics["obs.trace_dropped"] = double(dropped);

  std::map<std::string, std::vector<double>> service, wait;
  std::vector<double> analyze, pass, batch_wait, db_insert, wan_send,
      push_runtime;
  struct Timeline {
    double total, attributed;
  };
  std::vector<Timeline> timelines;

  for (auto& [key, fe] : frames) {
    std::sort(fe.spans.begin(), fe.spans.end(),
              [](const Span& a, const Span& b) {
                return a.start_ms < b.start_ms;
              });
    const Span* push = nullptr;
    const Span* db = nullptr;
    double encode_ms = 0;
    std::vector<const Span*> stages;
    for (const Span& s : fe.spans) {
      if (std::strcmp(s.name, kPushSpan) == 0) {
        push = &s;
      } else if (std::strcmp(s.name, "db/insert") == 0) {
        db = &s;
        db_insert.push_back(s.dur());
      } else if (std::strcmp(s.name, "encode/analyze") == 0) {
        analyze.push_back(s.dur());
        encode_ms += s.dur();
      } else if (std::strcmp(s.name, "encode/pass") == 0) {
        pass.push_back(s.dur());
        encode_ms += s.dur();
      } else if (StartsWith(s.name, "stage/")) {
        stages.push_back(&s);
      }
    }
    // The runtime's share of a push: PushFrame less its encoder child spans
    // (all of PushEncoded on replay workloads).
    if (push != nullptr) push_runtime.push_back(push->dur() - encode_ms);
    // Service (self) time of every stage span: the sink's db/insert child
    // is the query layer's, not the sink's.
    for (const Span* s : stages) {
      double self = s->dur();
      if (db != nullptr && db->tid == s->tid && db->start_ms >= s->start_ms &&
          db->end_ms <= s->end_ms) {
        self -= db->dur();
      }
      service[StageMetricName(s->name)].push_back(self);
      if (std::strcmp(s->name, "stage/wan") == 0) wan_send.push_back(s->dur());
    }
    if (fe.delivered_ms < 0 || push == nullptr || stages.empty()) continue;

    // Walk the delivered frame's timeline: the push (encode passes plus the
    // LAN hand-off), then each stage's queue wait and self time, the
    // batcher wait, and the db insert. Parts are clipped at the cursor, the
    // end of what is already attributed: the first stage often starts
    // before the push call returns (the pusher is descheduled after the
    // hand-off), and that stretch must not count twice. What is left
    // between the last part and the delivered instant is unattributed.
    double attributed = push->dur();
    double cursor = push->end_ms;
    auto take = [&](double from, double to) {
      const double part = std::max(0.0, to - std::max(from, cursor));
      cursor = std::max(cursor, to);
      return part;
    };
    for (const Span* s : stages) {
      const double w = std::max(0.0, s->start_ms - cursor);
      wait[StageMetricName(s->name)].push_back(w);
      attributed += w;
      double end = s->end_ms;
      if (std::strcmp(s->name, "stage/cloud/sink") == 0) {
        if (fe.submit_ms >= 0) {
          end = fe.submit_ms;  // then the batcher holds it
        } else if (db != nullptr) {
          end = db->start_ms;
        }
      }
      attributed += take(s->start_ms, end);
    }
    if (fe.submit_ms >= 0 && db != nullptr) {
      const double w = std::max(0.0, db->start_ms - fe.submit_ms);
      batch_wait.push_back(w);
      attributed += take(fe.submit_ms, db->start_ms);
    }
    if (db != nullptr) attributed += take(db->start_ms, db->end_ms);
    timelines.push_back({fe.delivered_ms - push->start_ms, attributed});
  }

  for (const std::string& s : StageMetricNames()) {
    out.metrics["dataflow." + s + ".queue_wait_ms.p50"] = Median(wait[s]);
    out.metrics["dataflow." + s + ".service_ms.p50"] = Median(service[s]);
  }
  out.metrics["codec.encode_analyze_ms.p50"] = Median(analyze);
  out.metrics["codec.encode_pass_ms.p50"] = Median(pass);
  out.metrics["fleet.batch_wait_ms.p50"] = Median(batch_wait);
  out.metrics["fleet.batch_wait_ms.p99"] = Quantile(batch_wait, 0.99);
  out.metrics["net.wan.send_ms.p50"] = Median(wan_send);
  out.metrics["net.wan.send_ms.p99"] = Quantile(wan_send, 0.99);
  out.metrics["query.db_insert_ms.p50"] = Median(db_insert);
  out.metrics["runtime.push_encoded_us.p50"] = Median(push_runtime) * 1e3;
  out.metrics["runtime.push_encoded_us.p99"] =
      Quantile(push_runtime, 0.99) * 1e3;

  out.delivered_frames = timelines.size();
  double total = 0, attributed = 0;
  if (!timelines.empty()) {
    std::sort(timelines.begin(), timelines.end(),
              [](const Timeline& a, const Timeline& b) {
                return a.total < b.total;
              });
    const Timeline& mid = timelines[timelines.size() / 2];
    total = mid.total;
    attributed = mid.attributed;
  }
  out.metrics["obs.push_to_settle_ms.p50"] = total;
  out.metrics["obs.breakdown_coverage"] = total > 0 ? attributed / total : 0.0;
  return out;
}

}  // namespace e2e
