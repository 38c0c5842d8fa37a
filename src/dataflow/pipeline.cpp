#include "dataflow/pipeline.h"

#include <atomic>
#include <cassert>
#include <condition_variable>

#include "common/stopwatch.h"
#include "obs/trace.h"
#include "runtime/executor.h"

namespace sieve::dataflow {

// Sequencing state of one stage. Pops are serialized under
// pop_mutex so the sequence numbers mirror the inbound queue order; emits
// wait under emit_mutex until their turn, so the outbound queue sees the
// inbound order even with N workers transforming concurrently. A filtered
// item (transform returned nullopt) still advances the emit cursor.
struct Pipeline::OrderedGate {
  std::mutex pop_mutex;
  std::mutex emit_mutex;
  std::condition_variable emit_cv;
  std::uint64_t next_pop = 0;
  std::uint64_t next_emit = 0;
  std::atomic<int> live_workers{0};  ///< the last one out closes the output
};

Pipeline::Pipeline(std::size_t queue_capacity, runtime::Executor* executor)
    : queue_capacity_(queue_capacity), executor_(executor) {}

Pipeline::~Pipeline() {
  bool need_finish = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    need_finish = started_ && !finishing_;
  }
  // Best-effort drain on destruction; sources must terminate for this to
  // return (the same contract Finish() documents).
  if (need_finish) (void)Finish();
}

void Pipeline::AddStage(std::string name, TransformFn transform,
                        int parallelism) {
  std::lock_guard<std::mutex> lock(mutex_);
  // Configuration is frozen once started: live workers index into stages_,
  // so growing it mid-flight would race a vector reallocation.
  assert(!started_ && "Pipeline: AddStage after Start()");
  if (started_) return;
  stages_.push_back(StageSpec{std::move(name), std::move(transform),
                              std::max(1, parallelism)});
}

void Pipeline::SetSink(std::string name, SinkFn sink) {
  std::lock_guard<std::mutex> lock(mutex_);
  assert(!started_ && "Pipeline: SetSink after Start()");
  if (started_) return;
  sink_name_ = std::move(name);
  sink_ = std::move(sink);
}

void Pipeline::StartSourceLocked(SourceSpec& spec) {
  spec.worker = executor_->SpawnWorker([this, &spec] {
    Stopwatch watch;
    for (;;) {
      watch.Start();
      std::optional<FlowFile> item = spec.fn();
      spec.busy_seconds += watch.ElapsedSeconds();
      if (!item) break;
      if (!queues_.front()->Push(std::move(*item))) break;
      ++spec.produced;
    }
  });
}

Status Pipeline::Start() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (started_) return Status::Precondition("Pipeline: already started");
  if (!sink_) return Status::Precondition("Pipeline: no sink set");
  started_ = true;
  if (executor_ == nullptr) executor_ = &runtime::SharedExecutor();

  const std::size_t num_queues = stages_.size() + 1;
  queues_.reserve(num_queues);
  for (std::size_t i = 0; i < num_queues; ++i) {
    queues_.push_back(std::make_unique<BoundedQueue<FlowFile>>(queue_capacity_));
  }

  stage_stats_.resize(stages_.size() + 1);
  stage_trace_names_.reserve(stages_.size());
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    stage_stats_[i].name = stages_[i].name;
    stage_stats_[i].workers = std::size_t(stages_[i].parallelism);
    stage_trace_names_.push_back(obs::InternName("stage/" + stages_[i].name));
  }
  stage_stats_.back().name = sink_name_;
  stage_stats_.back().workers = 1;
  sink_trace_name_ = obs::InternName("stage/" + sink_name_);

  // Transform stages: queue i -> queue i+1, with per-stage worker counts.
  // Each stage closes its output only after all its workers finish.
  gates_.reserve(stages_.size());
  for (const auto& stage : stages_) {
    gates_.push_back(std::make_unique<OrderedGate>());
    gates_.back()->live_workers = stage.parallelism;
  }
  for (std::size_t s = 0; s < stages_.size(); ++s) {
    for (int w = 0; w < stages_[s].parallelism; ++w) {
      workers_.push_back(executor_->SpawnWorker([this, s] {
        BoundedQueue<FlowFile>& in = *queues_[s];
        BoundedQueue<FlowFile>& out = *queues_[s + 1];
        OrderedGate& gate = *gates_[s];
        std::size_t consumed = 0, emitted = 0;
        double busy = 0;
        Stopwatch watch;
        for (;;) {
          std::optional<FlowFile> item;
          std::uint64_t seq = 0;
          {
            // Serialize pop + sequence claim: seq order == queue order, so
            // a worker can only ever wait on seqs other workers are already
            // processing (no circular wait).
            std::lock_guard<std::mutex> pop_lock(gate.pop_mutex);
            item = in.Pop();
            if (item) seq = gate.next_pop++;
          }
          if (!item) break;
          ++consumed;
          watch.Start();
          std::optional<FlowFile> result;
          if (obs::TracingEnabled()) {
            // Capture the frame identity before the move; end the span
            // before the push so it strictly precedes downstream pops in
            // the trace (causal ordering per frame).
            const obs::TraceContext ctx = item->trace;
            const std::uint64_t t0 = obs::NowMicros();
            result = stages_[s].transform(std::move(*item));
            obs::RecordSpan(stage_trace_names_[s], ctx, t0, obs::NowMicros());
          } else {
            result = stages_[s].transform(std::move(*item));
          }
          busy += watch.ElapsedSeconds();
          bool push_failed = false;
          {
            std::unique_lock<std::mutex> emit_lock(gate.emit_mutex);
            gate.emit_cv.wait(emit_lock, [&] { return gate.next_emit == seq; });
            if (result) {
              // The push happens under emit_mutex: emit order is pop order
              // even when the outbound queue is contended.
              if (out.Push(std::move(*result))) {
                ++emitted;
              } else {
                push_failed = true;
              }
            }
            ++gate.next_emit;
          }
          gate.emit_cv.notify_all();
          if (push_failed) break;
        }
        {
          std::lock_guard<std::mutex> stats_lock(stats_mutex_);
          stage_stats_[s].in += consumed;
          stage_stats_[s].out += emitted;
          stage_stats_[s].busy_seconds += busy;
          stage_stats_[s].peak_queue =
              std::max(stage_stats_[s].peak_queue, in.peak_depth());
          stage_stats_[s].avg_queue = in.avg_depth();
        }
        if (gate.live_workers.fetch_sub(1) == 1) out.Close();
      }));
    }
  }

  // Sink worker drains the last queue.
  workers_.push_back(executor_->SpawnWorker([this] {
    BoundedQueue<FlowFile>& in = *queues_.back();
    std::size_t consumed = 0;
    double busy = 0;
    Stopwatch watch;
    for (;;) {
      std::optional<FlowFile> item = in.Pop();
      if (!item) break;
      ++consumed;
      watch.Start();
      if (obs::TracingEnabled()) {
        const obs::TraceContext ctx = item->trace;
        const std::uint64_t t0 = obs::NowMicros();
        sink_(std::move(*item));
        obs::RecordSpan(sink_trace_name_, ctx, t0, obs::NowMicros());
      } else {
        sink_(std::move(*item));
      }
      busy += watch.ElapsedSeconds();
    }
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    stage_stats_.back().in = consumed;
    stage_stats_.back().out = consumed;
    stage_stats_.back().busy_seconds = busy;
    stage_stats_.back().peak_queue = in.peak_depth();
    stage_stats_.back().avg_queue = in.avg_depth();
  }));

  for (auto& source : sources_) StartSourceLocked(*source);
  return Status::Ok();
}

Status Pipeline::AttachSource(std::string name, SourceFn source) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (finishing_) {
    return Status::Precondition("Pipeline: cannot attach a source while finishing");
  }
  auto spec = std::make_unique<SourceSpec>();
  spec->name = std::move(name);
  spec->fn = std::move(source);
  sources_.push_back(std::move(spec));
  if (started_) StartSourceLocked(*sources_.back());
  return Status::Ok();
}

Expected<std::vector<StageStats>> Pipeline::Finish() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!started_) return Status::Precondition("Pipeline: not started");
    if (finishing_) {
      return Status::Precondition("Pipeline: Finish() already invoked");
    }
    finishing_ = true;  // freezes sources_: AttachSource refuses from here on
  }

  // Wait for every source to exhaust, then cascade the close downstream.
  for (auto& source : sources_) {
    if (source->worker.joinable()) source->worker.join();
  }
  queues_.front()->Close();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }

  std::vector<StageStats> stats;
  stats.reserve(sources_.size() + stage_stats_.size());
  for (const auto& source : sources_) {
    StageStats s;
    s.name = source->name;
    s.in = source->produced;
    s.out = source->produced;
    s.busy_seconds = source->busy_seconds;
    s.has_queue = false;  // sources pull, they have no inbound connection
    stats.push_back(std::move(s));
  }
  {
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    for (const auto& s : stage_stats_) stats.push_back(s);
  }
  return stats;
}

}  // namespace sieve::dataflow
