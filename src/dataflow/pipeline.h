// The dataflow engine: a NiFi-style processor pipeline.
//
// A Pipeline is a fan-in chain: one or more sources, any number of transform
// stages, one sink. Each stage owns worker threads pulling from its inbound
// bounded connection (backpressure propagates upstream automatically) and
// pushing to the next. Sources merge into the first stage's connection, so N
// camera feeds share one edge chain while each source blocks independently
// when the chain is saturated. The edge and cloud compute engines of
// Figure 1 are each one Pipeline; the orchestration layer (Echo in the
// paper) wires their queues together through a RealizedLink stage.
//
// Start() launches the stage/sink workers; sources are attached before or
// while the flow is live (AttachSource — this is how the runtime plugs newly
// opened camera sessions into the shared edge tier), and Finish() waits for
// every source to exhaust, drains the queues, and returns the statistics.
//
// Worker threads are obtained from an injected runtime::Executor
// (SpawnWorker), so the engine itself never constructs raw threads.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "dataflow/bounded_queue.h"
#include "dataflow/flow_file.h"

namespace sieve::runtime {
class Executor;
}

namespace sieve::dataflow {

/// Per-stage execution statistics.
struct StageStats {
  std::string name;
  std::size_t in = 0;          ///< items consumed
  std::size_t out = 0;         ///< items emitted (in - filtered)
  double busy_seconds = 0.0;   ///< summed processing wall time
  std::size_t peak_queue = 0;  ///< peak inbound queue depth
  /// Mean inbound queue depth at push time. Together with peak_queue this
  /// is the fan-in profile: a stage whose average rides near the connection
  /// capacity is the pipeline's bottleneck (widen its `parallelism`), one
  /// near zero keeps up with upstream.
  double avg_queue = 0.0;
  std::size_t workers = 1;     ///< worker threads this stage ran with
  /// False for sources: they have no inbound queue, so peak_queue/avg_queue
  /// are meaningless for them — exporters print `n/a` instead of a
  /// misleading 0 (obs::FormatStageStats) and skip the queue gauges.
  bool has_queue = true;
};

/// A source yields items until exhausted (std::nullopt).
using SourceFn = std::function<std::optional<FlowFile>()>;
/// A transform maps an item to an output or filters it (std::nullopt).
using TransformFn = std::function<std::optional<FlowFile>(FlowFile)>;
/// A sink consumes items.
using SinkFn = std::function<void(FlowFile)>;

class Pipeline {
 public:
  /// `queue_capacity` bounds every inter-stage connection. `executor`
  /// provides the worker threads (null = runtime::SharedExecutor()).
  explicit Pipeline(std::size_t queue_capacity = 16,
                    runtime::Executor* executor = nullptr);
  ~Pipeline();

  Pipeline(const Pipeline&) = delete;
  Pipeline& operator=(const Pipeline&) = delete;

  /// Add a transform stage with `parallelism` workers. A parallel stage
  /// emits items in exactly the order it consumed them (workers claim a
  /// sequence number with their pop and wait their turn to push), so
  /// downstream stages observe the inbound order — the runtime's tiers
  /// scale workers without reordering any camera's frames.
  void AddStage(std::string name, TransformFn transform, int parallelism = 1);
  void SetSink(std::string name, SinkFn sink);

  /// Launch stage and sink workers (and any sources registered so far).
  /// After Start(), AttachSource() may add live sources until Finish().
  Status Start();

  /// Attach a source; all sources fan into the first stage. On a running
  /// flow it starts pumping immediately; before Start() it waits for it.
  Status AttachSource(std::string name, SourceFn source);

  /// Wait for every attached source to exhaust, drain all queues, stop the
  /// workers, and return per-stage statistics in order: sources (in attach
  /// order), stages..., sink. One-shot. The caller is responsible for
  /// making sources terminate (e.g. closing the session queues they pop).
  Expected<std::vector<StageStats>> Finish();

 private:
  struct SourceSpec {
    std::string name;
    SourceFn fn;
    std::size_t produced = 0;
    double busy_seconds = 0.0;
    std::thread worker;  ///< joinable only once started
  };
  struct StageSpec {
    std::string name;
    TransformFn transform;
    int parallelism = 1;
  };
  struct OrderedGate;  ///< pop/emit sequencing and live workers of a stage

  void StartSourceLocked(SourceSpec& spec);

  std::size_t queue_capacity_;
  runtime::Executor* executor_;
  std::vector<std::unique_ptr<SourceSpec>> sources_;  ///< stable addresses
  std::vector<StageSpec> stages_;
  std::string sink_name_;
  SinkFn sink_;

  std::mutex mutex_;               ///< guards sources_ growth + state flags
  bool started_ = false;
  bool finishing_ = false;

  /// Interned c_str stage names for trace spans (events may outlive the
  /// Pipeline; interned pointers outlive everything).
  std::vector<const char*> stage_trace_names_;
  const char* sink_trace_name_ = nullptr;

  std::vector<std::unique_ptr<BoundedQueue<FlowFile>>> queues_;
  std::vector<std::unique_ptr<OrderedGate>> gates_;  ///< one per stage
  std::vector<std::thread> workers_;            ///< stage + sink workers
  std::vector<StageStats> stage_stats_;         ///< stages..., sink
  std::mutex stats_mutex_;
};

}  // namespace sieve::dataflow
