#include "runtime/runtime.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <utility>

#include "codec/decoder.h"
#include "codec/still.h"
#include "media/image_ops.h"
#include "nn/tensor.h"
#include "obs/export.h"

namespace sieve::runtime {

namespace {

using Kind = dataflow::FlowFile::Kind;

// The incarnation sequence minted into a route ("gate-7#12" -> 12).
std::uint64_t RouteSeq(const std::string& route) {
  const auto pos = route.rfind('#');
  if (pos == std::string::npos) return 0;
  return std::strtoull(route.c_str() + pos + 1, nullptr, 10);
}

// Insert a labelled frame into its session's database and settle it
// delivered. `batch_size` is the fleet batch the frame rode in (0: a label).
void Deliver(const dataflow::FlowFile& file, synth::LabelSet labels,
             std::size_t batch_size) {
  internal::SessionState& session = *file.session;
  {
    obs::TraceSpan insert_span("db/insert", file.trace);
    if (batch_size > 0) insert_span.Arg("batch_size", batch_size);
    std::lock_guard<std::mutex> lock(session.mutex);
    session.db.Insert(std::size_t(file.frame), labels);
  }
  if (batch_size > 0) {
    session.metrics.cloud_batched_frames->Add();
    session.metrics.cloud_batch_size_sum->Add(batch_size);
  }
  session.metrics.labels->Add();
  session.RecordOutcome(file, internal::FrameOutcome::kDelivered);
}

}  // namespace

const char* SessionHealthName(SessionHealth health) noexcept {
  switch (health) {
    case SessionHealth::kHealthy: return "healthy";
    case SessionHealth::kDegraded: return "degraded";
    case SessionHealth::kEdgeFallback: return "edge-fallback";
  }
  return "unknown";
}

namespace internal {

void SessionState::BindMetrics(std::shared_ptr<obs::Registry> reg) {
  registry = std::move(reg);
  const std::string p = "session." + route + ".";
  metrics.iframes = registry->GetCounter(p + "iframes");
  metrics.labels = registry->GetCounter(p + "labels");
  metrics.stored_edge = registry->GetCounter(p + "stored_edge");
  metrics.delivered = registry->GetCounter(p + "delivered");
  metrics.dropped_wan = registry->GetCounter(p + "dropped_wan");
  metrics.dropped_corrupt = registry->GetCounter(p + "dropped_corrupt");
  metrics.dropped_shutdown = registry->GetCounter(p + "dropped_shutdown");
  metrics.resumed = registry->GetCounter(p + "resumed");
  metrics.wan_retries = registry->GetCounter(p + "wan_retries");
  metrics.cloud_batched_frames =
      registry->GetCounter(p + "cloud_batched_frames");
  metrics.cloud_batch_size_sum =
      registry->GetCounter(p + "cloud_batch_size_sum");
  metrics.latency_ms = registry->GetHistogram(p + "latency_ms");
}

void SessionState::RecordOutcome(const dataflow::FlowFile& file,
                                 FrameOutcome outcome) {
  switch (outcome) {
    case FrameOutcome::kStoredEdge:
      metrics.stored_edge->Add();
      obs::RecordInstant("frame/stored-edge", file.trace);
      break;
    case FrameOutcome::kDelivered: {
      metrics.delivered->Add();
      const double now_us = opened.ElapsedMicros();
      if (now_us >= double(file.t_push_us)) {
        metrics.latency_ms->Record((now_us - double(file.t_push_us)) / 1e3);
      }
      obs::RecordInstant("frame/delivered", file.trace);
      break;
    }
    case FrameOutcome::kDroppedWan:
      metrics.dropped_wan->Add();
      obs::RecordInstant("frame/dropped-wan", file.trace);
      break;
    case FrameOutcome::kDroppedCorrupt:
      metrics.dropped_corrupt->Add();
      // The WAN metered this frame's bytes as goodput when its (corrupt)
      // delivery succeeded; the frame is now known wasted, so move exactly
      // those bytes to the corrupt column. Frames dropped before the WAN
      // never carry the stamp. Keeps goodput = bytes that became labels.
      if (file.wan_bytes > 0) {
        edge_cloud_meter.ReclassifyCorrupt(file.wan_bytes);
      }
      obs::RecordInstant("frame/dropped-corrupt", file.trace);
      break;
    case FrameOutcome::kDroppedShutdown:
      metrics.dropped_shutdown->Add();
      obs::RecordInstant("frame/dropped-shutdown", file.trace);
      break;
    case FrameOutcome::kResumedAck:
      metrics.resumed->Add();
      obs::RecordInstant("frame/resumed-ack", file.trace);
      break;
  }
  std::lock_guard<std::mutex> lock(mutex);
  ++settled;
  settled_cv.notify_all();
}

}  // namespace internal

// ----------------------------------------------------------- SieveSession --

Status SieveSession::PushFrame(const media::Frame& frame) {
  if (frame.width() != config_.width || frame.height() != config_.height) {
    return Status::Invalid("PushFrame: frame size does not match session");
  }
  if (state_->closed.load(std::memory_order_acquire)) {
    return Status::Precondition("PushFrame: session closed");
  }
  if (!encoder_) {
    encoder_ = std::make_unique<codec::StreamingEncoder>(
        config_.encoder, config_.width, config_.height, config_.fps,
        encoder_executor_);
    // Encode-pass spans join this session's per-frame span trees.
    encoder_->set_trace_track(state_->track);
  }
  auto record = encoder_->PushFrame(frame);
  if (!record.ok()) return record.status();
  Status pushed =
      PushWire(record->type, record->index, encoder_->WireBytes(*record));
  // The wire bytes were just copied into the flow; dropping the encoder's
  // buffered container keeps a 24/7 session's memory bounded.
  encoder_->TrimBuffered();
  return pushed;
}

Status SieveSession::PushEncoded(codec::FrameType type,
                                 std::uint64_t frame_index,
                                 std::span<const std::uint8_t> wire_bytes) {
  if (wire_bytes.size() < codec::FrameRecord::kHeaderSize) {
    return Status::Invalid("PushEncoded: truncated frame");
  }
  if (state_->closed.load(std::memory_order_acquire)) {
    return Status::Precondition("PushEncoded: session closed");
  }
  return PushWire(type, frame_index, wire_bytes);
}

Status SieveSession::PushWire(codec::FrameType type, std::uint64_t frame_index,
                              std::span<const std::uint8_t> wire_bytes) {
  internal::SessionState& st = *state_;
  dataflow::FlowFile file;
  file.payload.assign(wire_bytes.begin(), wire_bytes.end());
  file.kind = type == codec::FrameType::kIntra ? Kind::kIFrame : Kind::kPFrame;
  file.frame = frame_index;
  // Push-time stamp on this session's stopwatch: the delivered-frame
  // latency ledger measures push -> settle against it.
  file.t_push_us = std::uint64_t(st.opened.ElapsedMicros());
  // Trace identity: every span/instant this frame triggers downstream —
  // stage transforms, WAN retries, batcher residency, the db insert, its
  // terminal outcome — lands on this (track, frame) pair.
  file.trace = obs::TraceContext{st.track, frame_index};
  // The camera sends over its LAN hop before the edge queue: backpressure
  // from a saturated edge blocks right here, in the camera's own thread.
  // Shutdown cancels the link, which unblocks a camera mid-transfer; the
  // frame never entered the tiers, so it is rejected, not counted dropped.
  if (Status lan = st.camera_edge.Transfer(file.payload.size()); !lan.ok()) {
    return lan;
  }
  st.pushed.fetch_add(1, std::memory_order_acq_rel);
  if (!st.camera_queue.Push(std::move(file))) {
    st.pushed.fetch_sub(1, std::memory_order_acq_rel);
    // A Drain() racing this failed push may already be waiting on the
    // transiently inflated count; retaking the lock and notifying ensures
    // its predicate is re-evaluated (no outcome will settle this frame).
    {
      std::lock_guard<std::mutex> lock(st.mutex);
      st.settled_cv.notify_all();
    }
    return Status::Precondition("PushFrame: session closed");
  }
  // Track the stream's length in frame-id space (a resumed session's seal
  // must cover the journaled prefix plus everything pushed since). Only
  // after the push is accepted: a rejected frame never entered the stream.
  std::size_t prev = st.max_frame_excl.load(std::memory_order_relaxed);
  while (prev < frame_index + 1 &&
         !st.max_frame_excl.compare_exchange_weak(prev, frame_index + 1,
                                                  std::memory_order_acq_rel)) {
  }
  return Status::Ok();
}

void SieveSession::Close() {
  state_->closed.store(true, std::memory_order_release);
  state_->camera_queue.Close();
}

SessionReport SieveSession::Drain() {
  Close();
  internal::SessionState& st = *state_;
  {
    std::unique_lock<std::mutex> lock(st.mutex);
    st.settled_cv.wait(lock, [&st] {
      return st.settled == st.pushed.load(std::memory_order_acquire);
    });
  }
  // Every pushed frame has settled, so the database is final. Seal the
  // journal first (write-ahead: a crash between the two leaves the durable
  // state ahead of the index, never behind), then seal this camera in the
  // query index (closing still-open intervals at the stream's end, exactly
  // like FindObject(cls, total) would).
  const std::size_t total = st.SealTotal();
  st.JournalSeal(total);
  if (st.query) st.query->Seal(st.route, total);
  // Every counter below is a view over the session's obs::Registry handles
  // (plus the byte meters): the report is the drain-time snapshot of the
  // same metrics a live registry dump shows. No lock — all frames settled.
  const internal::SessionMetrics& m = st.metrics;
  SessionReport report;
  report.camera_id = st.camera_id;
  report.frames_pushed = st.pushed.load();
  report.iframes_selected = std::size_t(m.iframes->value());
  report.labels_written = std::size_t(m.labels->value());
  report.wall_seconds = st.opened.ElapsedSeconds();
  report.fps = report.wall_seconds > 0
                   ? double(report.frames_pushed) / report.wall_seconds
                   : 0.0;
  report.camera_to_edge_bytes = st.camera_edge.meter().bytes();
  report.edge_to_cloud_bytes = st.edge_cloud_meter.bytes();
  const auto plan = st.ActivePlan();
  report.placement = plan->mode;
  report.nn_split = plan->split;
  report.predicted_total_ms = plan->predicted.total_ms;
  report.precision = st.precision;
  report.wan_retries = m.wan_retries->value();
  report.wan_retransmit_bytes = st.edge_cloud_meter.retransmit_bytes();
  report.wan_corrupt_bytes = st.edge_cloud_meter.corrupt_bytes();
  report.replans = st.replans.load(std::memory_order_relaxed);
  report.health = st.health.load(std::memory_order_relaxed);
  report.frames_stored_edge = std::size_t(m.stored_edge->value());
  report.frames_delivered = std::size_t(m.delivered->value());
  report.dropped_wan = std::size_t(m.dropped_wan->value());
  report.dropped_corrupt = std::size_t(m.dropped_corrupt->value());
  report.dropped_shutdown = std::size_t(m.dropped_shutdown->value());
  report.frames_dropped =
      report.dropped_wan + report.dropped_corrupt + report.dropped_shutdown;
  report.frames_resumed = std::size_t(m.resumed->value());
  report.cloud_batched_frames = std::size_t(m.cloud_batched_frames->value());
  if (report.cloud_batched_frames > 0) {
    report.cloud_batch_occupancy_avg =
        double(m.cloud_batch_size_sum->value()) /
        double(report.cloud_batched_frames);
  }
  if (m.latency_ms->count() > 0) {
    report.latency_avg_ms = m.latency_ms->sum() / double(m.latency_ms->count());
    report.latency_max_ms = m.latency_ms->max();
    report.latency_p99_ms =
        std::min(m.latency_ms->Percentile(0.99), m.latency_ms->max());
  }
  return report;
}

// ---------------------------------------------------------------- Runtime --

Runtime::Runtime(RuntimeConfig config, const nn::FrameClassifier* classifier,
                 Executor* executor)
    : config_(config),
      classifier_(classifier),
      executor_(executor != nullptr ? executor : &SharedExecutor()),
      registry_(std::make_shared<obs::Registry>()),
      wan_(config.edge_to_cloud, config.link_time_scale, config.wan_faults,
           config.wan_retry, config.wan_health),
      pipeline_(config.queue_capacity, executor_),
      query_(std::make_shared<query::QueryService>(registry_)) {
  if (config_.trace.enabled) {
    obs::StartTracing(config_.trace.events_per_thread);
  }
  // Boot-time recovery runs before the tiers exist, let alone a session:
  // by the time OpenSession can be called, the index already serves every
  // journaled camera and `recovered_` stages the resumable ones.
  if (config_.store.enabled()) RecoverFromStore();
  if (classifier_ != nullptr) {
    fleet::FleetSchedulerPolicy policy;
    policy.batch_max = config_.cloud_batch_max;
    policy.fairness_share = config_.cloud_batch_fairness_share;
    batcher_ = std::make_unique<fleet::InferenceBatcher>(
        *classifier_, *executor_, policy, /*pending_capacity=*/0,
        std::size_t(std::max(1, config_.cloud_nn_parallelism)));
    batch_wait_ms_ = registry_->GetHistogram("batch.wait_ms");
  }
  BuildTiers();
  // Recovery failure (unusable store dir) already poisoned start_status_;
  // don't let a clean pipeline start mask it.
  if (start_status_.ok()) start_status_ = pipeline_.Start();
}

void Runtime::RecoverFromStore() {
  obs::TraceSpan recover_span("store/recover", obs::TraceContext{});
  auto report = store::RecoverStore(config_.store.dir);
  if (!report.ok()) {
    // An unusable store directory is a construction failure, not a silent
    // in-memory fallback: the caller asked for durability.
    start_status_ = report.status();
    return;
  }
  obs::Registry& reg = *registry_;
  reg.GetCounter("store.recover.files")->Add(report->files);
  reg.GetCounter("store.recover.records")->Add(report->records);
  reg.GetCounter("store.recover.truncated_tails")->Add(report->truncated_tails);
  reg.GetCounter("store.recover.quarantined")->Add(report->quarantined);
  reg.GetCounter("store.recover.unreadable")->Add(report->unreadable);
  reg.GetCounter("store.recover.cameras")->Add(report->cameras.size());
  recover_span.Arg("cameras", report->cameras.size());
  recover_span.Arg("records", report->records);

  for (store::RecoveredCamera& cam : report->cameras) {
    const std::uint64_t track = obs::HashTrack(cam.route);
    obs::NameTrack(track, cam.route);
    obs::TraceSpan replay_span("store/replay", obs::TraceContext{track, 0});
    replay_span.Arg("inserts", cam.inserts.size());

    // Rebuild the incarnation through the exact incremental path a live
    // session uses: register on the journaled clock, then publish each
    // journaled insert in delivery order via a replay db's observer seam.
    // Recovery and a live run therefore produce the same index state by
    // construction, out-of-order rebuilds included.
    query_->RegisterCamera(cam.route, cam.camera_id,
                           query::CameraClock{cam.open_seconds, cam.fps});
    core::ResultsDatabase replay_db;
    replay_db.set_observer(
        [this, &cam](const core::ResultsDatabase& db, std::size_t frame,
                     const synth::LabelSet& labels) {
          query_->Publish(cam.route, db, frame, labels);
        });
    for (const auto& ins : cam.inserts) {
      replay_db.Insert(std::size_t(ins.frame), synth::LabelSet{ins.label_bits});
    }
    if (cam.sealed) {
      query_->Seal(cam.route, std::size_t(cam.total_frames));
    }

    // New routes must never collide with journaled ones.
    session_seq_ = std::max(session_seq_, RouteSeq(cam.route));

    if (!cam.sealed) {
      // Stage the incarnation for a reconnecting camera; when several
      // unsealed incarnations of one id survive, the newest one resumes
      // (the older ones stay queryable but closed to appends).
      auto [it, inserted] = recovered_.try_emplace(cam.camera_id);
      if (inserted || RouteSeq(it->second.route) < RouteSeq(cam.route)) {
        it->second = std::move(cam);
      }
    }
  }
}

Runtime::~Runtime() {
  bool need_shutdown = false;
  {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    need_shutdown = !shut_down_;
  }
  if (need_shutdown) (void)Shutdown();
}

void Runtime::BuildTiers() {
  // Every stage edits the envelope it received and passes it on; the owning
  // session rides in it (stamped by the session's source), so no stage ever
  // looks a session up.

  // --- Edge: I-frame seeker (metadata-only filter) ------------------------
  pipeline_.AddStage(
      "edge/iframe-seeker",
      [](dataflow::FlowFile file) -> std::optional<dataflow::FlowFile> {
        internal::SessionState& session = *file.session;
        // Resumed session replaying its backlog: frames at or below the
        // journaled high-water mark are already durable and indexed — ack
        // them here, before any tier spends work on them, instead of
        // re-storing (the recovery contract in docs/durability.md).
        if (session.resumed && file.frame <= session.resume_floor) {
          session.RecordOutcome(file, internal::FrameOutcome::kResumedAck);
          return std::nullopt;
        }
        if (file.kind != Kind::kIFrame) {  // P-frames: stored edge-side only
          session.RecordOutcome(file, internal::FrameOutcome::kStoredEdge);
          return std::nullopt;
        }
        session.metrics.iframes->Add();
        return file;
      });

  // --- Edge: decompress the I-frame like a still, resize to the NN input,
  // and re-encode for the NN stage. Runs transcode_parallelism workers;
  // the pipeline keeps every camera's frames in push order downstream.
  pipeline_.AddStage(
      "edge/still-transcode",
      [this](dataflow::FlowFile file) -> std::optional<dataflow::FlowFile> {
        // Strip the fixed frame header to get the entropy-coded payload;
        // decode with the owning camera's dimensions and quantizer.
        const codec::ContainerHeader& header = file.session->header;
        codec::RangeDecoder rc(std::span<const std::uint8_t>(file.payload)
                                   .subspan(codec::FrameRecord::kHeaderSize));
        codec::FrameModels models;
        const codec::CodingContext ctx = codec::CodingContext::ForQp(header.qp);
        media::Frame frame(header.width, header.height);
        codec::DecodeIntraFrame(rc, models, ctx, frame);

        const media::Frame resized = media::ResizeFrame(
            frame, config_.nn_input_size, config_.nn_input_size);
        // Deliberately no executor: this stage already scales ACROSS stills
        // via transcode_parallelism workers; nesting per-still row
        // parallelism here would oversubscribe the shared pool. (Stills are
        // NN-input-sized — a handful of block rows — so the inner win is
        // small anyway.)
        file.payload = codec::EncodeStill(resized, config_.still_qp);
        file.kind = Kind::kStill;
        return file;
      },
      config_.transcode_parallelism);

  // --- Edge: the session's share of the split forward pass ----------------
  // split == 0: pass the still through; the cloud runs the whole network.
  // 0 < split < N: run layers [0, split) and ship the serialized cut-point
  //                activation instead of the still.
  // split >= N: finish inference AND the centroid match here; only the
  //             label crosses to the cloud tier (all-edge placement).
  pipeline_.AddStage(
      "edge/nn",
      [this](dataflow::FlowFile file) -> std::optional<dataflow::FlowFile> {
        internal::SessionState& session = *file.session;
        // Load the live plan once per frame and latch the split into the
        // envelope: this is the plan-swap barrier. A health-driven replan
        // only affects frames that have not yet passed this stage;
        // in-flight activations finish on the plan they started with.
        const std::size_t split = session.ActivePlan()->split;
        if (split == 0) return file;
        auto still = codec::DecodeStill(file.payload);
        if (!still.ok()) {
          session.RecordOutcome(file, internal::FrameOutcome::kDroppedCorrupt);
          return std::nullopt;
        }
        const nn::Tensor input = classifier_->InputTensor(*still);
        const std::size_t layers = classifier_->network().LayerCount();
        // Session-fixed (unlike the split, which replans): the fleet batcher
        // reads the same field, so both halves of a split forward always
        // run at one precision.
        const nn::Precision precision = session.precision;
        file.split = split;
        if (split >= layers) {
          auto labels = classifier_->PredictFromEmbedding(
              classifier_->network().Forward(input, precision).values());
          if (!labels.ok()) {
            session.RecordOutcome(file,
                                  internal::FrameOutcome::kDroppedCorrupt);
            return std::nullopt;
          }
          file.payload.clear();
          file.kind = Kind::kLabel;
          file.label_bits = labels->bits();
        } else {
          file.payload = nn::SerializeTensor(
              classifier_->network().ForwardPrefix(input, split, precision));
          file.kind = Kind::kActivation;
        }
        return file;
      },
      config_.edge_nn_parallelism);

  // --- Edge -> cloud WAN (shared hop, per-camera accounting). Labels from
  // all-edge sessions ride out-of-band (the old kEdge tier's contract:
  // nothing metered) but still ratchet the link clock via Probe, so
  // scripted outages progress — and recovery is detected — even when every
  // session has fallen back to edge-only. Stills and activations go through
  // the reliable send path: delivered (possibly corrupted — the hardened
  // decoders downstream are the integrity check) or counted dropped. ------
  pipeline_.AddStage(
      "wan",
      [this](dataflow::FlowFile file) -> std::optional<dataflow::FlowFile> {
        internal::SessionState& session = *file.session;
        // The sender's stream position (open offset + frame time) ratchets
        // the virtual link clock: outage windows line up with stream
        // content, not wall time, so chaos runs replay exactly.
        const double fps = session.header.fps > 0 ? session.header.fps : 1;
        const double hint = session.open_seconds + double(file.frame) / fps;
        if (file.kind == Kind::kLabel) {
          wan_.Probe(hint);
          MaybeReactToWanHealth();
          return file;
        }
        const net::SendOutcome outcome =
            wan_.Send(std::span<std::uint8_t>(file.payload), hint, file.trace);
        if (outcome.attempts > 1) {
          session.metrics.wan_retries->Add(
              std::uint64_t(outcome.attempts - 1));
        }
        if (outcome.retransmit_bytes > 0) {
          session.edge_cloud_meter.RecordRetransmit(outcome.retransmit_bytes);
        }
        if (!outcome.status.ok()) {
          session.edge_cloud_meter.RecordDrop();
          session.RecordOutcome(
              file, outcome.status.code() == ErrorCode::kCancelled
                        ? internal::FrameOutcome::kDroppedShutdown
                        : internal::FrameOutcome::kDroppedWan);
          MaybeReactToWanHealth();
          return std::nullopt;
        }
        session.edge_cloud_meter.Record(file.payload.size());
        // Stamp what this frame just cost on the WAN: if it later fails
        // decode/validation, RecordOutcome reclassifies exactly these
        // bytes from goodput to the corrupt column.
        file.wan_bytes = file.payload.size();
        MaybeReactToWanHealth();
        return file;
      },
      config_.wan_parallelism);

  // --- Cloud: the widened NN stage. Parses every payload in parallel
  // (cloud_nn_parallelism workers, order-kept per camera) into the cut-point
  // activation (a still decodes to the split-0 activation). The batcher's
  // Submit checks the activation's shape against its split.
  pipeline_.AddStage(
      "cloud/nn",
      [this](dataflow::FlowFile file) -> std::optional<dataflow::FlowFile> {
        if (file.kind == Kind::kLabel) return file;  // edge-computed
        if (file.kind == Kind::kActivation) {
          if (auto parsed = nn::DeserializeTensor(file.payload); parsed.ok()) {
            file.tensor = std::move(*parsed);
          }
        } else if (auto still = codec::DecodeStill(file.payload); still.ok()) {
          // A still is the split-0 cut point: the batcher runs every layer.
          file.tensor = classifier_->InputTensor(*still);
        }
        if (!file.tensor) {
          file.session->RecordOutcome(file,
                                      internal::FrameOutcome::kDroppedCorrupt);
          return std::nullopt;
        }
        std::vector<std::uint8_t>().swap(file.payload);  // parsed: release
        return file;
      },
      config_.cloud_nn_parallelism);

  // --- Cloud sink: record edge-computed labels, and hand every activation
  // to the fleet batcher, whose flushers run the suffix layers and the
  // centroid match and record the result. Serial on purpose — batcher
  // submissions must happen in per-camera arrival order (the order-kept
  // stages upstream only order *emissions*, not transform side effects),
  // and the db insert itself is cheap.
  pipeline_.SetSink("cloud/sink", [this](dataflow::FlowFile file) {
    if (!file.tensor) {
      // A camera that just fell back to edge-only may still have frames in
      // the batcher; its first label must not be stored ahead of them.
      batcher_->AwaitCamera(file.session->track);
      Deliver(file, synth::LabelSet{file.label_bits}, /*batch_size=*/0);
      return;
    }
    // Take everything Submit needs before the envelope moves into the
    // completion callback.
    nn::Tensor activation = std::move(*file.tensor);
    file.tensor.reset();
    const internal::SessionState& session = *file.session;
    const std::size_t split = file.split;
    // Batcher residency is observable per frame: the submit instant here,
    // the covering "batch/flush" span on a flusher thread, and the
    // "db/insert" span in the callback bound the time the frame spent
    // queued versus in the batched pass. batch.wait_ms records the same
    // submit-to-callback interval with tracing off.
    obs::RecordInstant("batch/submit", file.trace, "split",
                       std::uint64_t(split));
    // Submit blocks while the batcher's window is full — that is this
    // pipeline's backpressure propagating into the fleet tier. The
    // callback runs on a flusher thread after the batched pass, or right
    // here (batch size 0) when Submit rejects the activation's shape. The
    // fairness key is the session's track: one stable value per
    // incarnation.
    batcher_->Submit(
        session.track, split, std::move(activation), session.precision,
        [file = std::move(file), wait_ms = batch_wait_ms_,
         submitted = Stopwatch()](Expected<synth::LabelSet> label,
                                  std::size_t batch_size) {
          if (batch_size > 0) wait_ms->Record(submitted.ElapsedMillis());
          if (!label.ok()) {
            file.session->RecordOutcome(
                file, internal::FrameOutcome::kDroppedCorrupt);
            return;
          }
          Deliver(file, *label, batch_size);
        });
  });
}

nn::PartitionInput Runtime::PlannerInput(const SessionConfig& config) {
  return PlannerInputForModel(config.wan_hint.value_or(config_.edge_to_cloud),
                              config.precision);
}

nn::PartitionInput Runtime::PlannerInputForModel(const net::LinkModel& wan,
                                                 nn::Precision precision) {
  std::lock_guard<std::mutex> lock(planner_mutex_);
  PlannerCacheEntry& entry = planner_cache_[precision];
  if (entry.profile.empty()) {
    nn::PartitionInput measured = MeasurePlannerInput(
        *classifier_, config_.nn_input_size, config_.still_qp, wan,
        config_.cloud_speedup, /*profile_iterations=*/2, precision);
    entry.profile = std::move(measured.profile);
    entry.still_bytes = measured.input_bytes;
  }
  nn::PartitionInput input;
  input.profile = entry.profile;
  input.input_bytes = entry.still_bytes;
  input.cloud_speedup = config_.cloud_speedup;
  input.bandwidth_mbps = wan.bandwidth_mbps;
  input.rtt_ms = wan.rtt_ms;
  return input;
}

void Runtime::MaybeReactToWanHealth() {
  if (!config_.adaptive_placement) return;
  const int current = int(wan_.health());
  int expected = reacted_health_.load(std::memory_order_acquire);
  while (expected != current) {
    if (reacted_health_.compare_exchange_weak(expected, current,
                                              std::memory_order_acq_rel)) {
      ApplyWanHealth(net::LinkHealth(current));
      return;
    }
  }
}

void Runtime::ApplyWanHealth(net::LinkHealth link) {
  const std::size_t layers = classifier_->network().LayerCount();
  std::vector<std::shared_ptr<internal::SessionState>> states;
  {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    states.reserve(by_id_.size());
    for (auto& [id, state] : by_id_) states.push_back(state);
  }
  for (auto& state : states) {
    // Sessions already all-edge by configuration have nothing crossing the
    // WAN: their delivery is unaffected, their plan and health stay put.
    const bool uses_wan = state->base_plan.split < layers;
    PlacementPlan next = state->base_plan;
    SessionHealth health = SessionHealth::kHealthy;
    if (uses_wan && link == net::LinkHealth::kDown) {
      // Graceful degradation: run the whole network at the edge; only
      // labels (out-of-band) leave the site until the link recovers.
      next.split = layers;
      health = SessionHealth::kEdgeFallback;
    } else if (uses_wan && link == net::LinkHealth::kDegraded) {
      // Replan against the measured link (loss folded into bandwidth and
      // RTT), never shipping more than the base plan would: the split can
      // only move toward the edge while the WAN is lossy.
      const PlacementPlan planned = ResolvePlacement(
          PlacementMode::kAuto,
          PlannerInputForModel(wan_.EffectiveModel(), state->precision),
          layers, /*fixed_split=*/0);
      next.split = std::max(state->base_plan.split, planned.split);
      next.predicted = planned.predicted;
      health = SessionHealth::kDegraded;
    }
    if (state->ActivePlan()->split != next.split) {
      state->active_plan.store(std::make_shared<const PlacementPlan>(next),
                               std::memory_order_release);
      state->replans.fetch_add(1, std::memory_order_relaxed);
      replans_.fetch_add(1, std::memory_order_relaxed);
    }
    state->health.store(health, std::memory_order_relaxed);
  }
}

void Runtime::PublishMetrics() const {
  obs::Registry& reg = *registry_;
  const net::TransportStats ts = wan_.stats();
  reg.GetGauge("wan.health")->Set(double(int(ts.health)));
  reg.GetGauge("wan.loss_ewma")->Set(ts.loss_ewma);
  reg.GetGauge("wan.messages_sent")->Set(double(ts.messages_sent));
  reg.GetGauge("wan.messages_delivered")->Set(double(ts.messages_delivered));
  reg.GetGauge("wan.messages_dropped")->Set(double(ts.messages_dropped));
  reg.GetGauge("wan.retries")->Set(double(ts.retries));
  reg.GetGauge("wan.probes")->Set(double(ts.probes));
  reg.GetGauge("wan.duplicates")->Set(double(ts.duplicates));
  reg.GetGauge("wan.corrupted_deliveries")
      ->Set(double(ts.corrupted_deliveries));
  reg.GetGauge("wan.health_transitions")->Set(double(ts.health_transitions));
  const net::ByteMeter& meter = wan_.meter();
  reg.GetGauge("wan.goodput_bytes")->Set(double(meter.bytes()));
  reg.GetGauge("wan.retransmit_bytes")->Set(double(meter.retransmit_bytes()));
  reg.GetGauge("wan.corrupt_bytes")->Set(double(meter.corrupt_bytes()));
  reg.GetGauge("runtime.replans")
      ->Set(double(replans_.load(std::memory_order_relaxed)));
  if (batcher_ != nullptr) {
    const fleet::BatcherStats bs = batcher_->stats();
    reg.GetGauge("batch.flushes")->Set(double(bs.batches));
    reg.GetGauge("batch.samples")->Set(double(bs.samples));
    reg.GetGauge("batch.occupancy_avg")->Set(bs.occupancy_avg());
    reg.GetGauge("batch.peak_pending")->Set(double(bs.peak_pending));
  }
  std::size_t healthy = 0, degraded = 0, fallback = 0;
  {
    std::shared_lock<std::shared_mutex> lock(mutex_);
    for (const auto& [id, state] : by_id_) {
      if (state->closed.load(std::memory_order_acquire)) continue;
      switch (state->health.load(std::memory_order_relaxed)) {
        case SessionHealth::kHealthy: ++healthy; break;
        case SessionHealth::kDegraded: ++degraded; break;
        case SessionHealth::kEdgeFallback: ++fallback; break;
      }
    }
  }
  reg.GetGauge("runtime.sessions_healthy")->Set(double(healthy));
  reg.GetGauge("runtime.sessions_degraded")->Set(double(degraded));
  reg.GetGauge("runtime.sessions_edge_fallback")->Set(double(fallback));
}

RuntimeHealth Runtime::health() const {
  // Refresh the gauges, then build the snapshot as a view over the registry:
  // health() and an external metrics dump can never disagree, because they
  // read the same store.
  PublishMetrics();
  obs::Registry& reg = *registry_;
  const auto gauge = [&reg](const char* name) {
    return reg.GetGauge(name)->value();
  };
  RuntimeHealth h;
  h.wan_link = net::LinkHealth(int(gauge("wan.health")));
  h.wan_loss_ewma = gauge("wan.loss_ewma");
  h.wan_messages_delivered = std::uint64_t(gauge("wan.messages_delivered"));
  h.wan_messages_dropped = std::uint64_t(gauge("wan.messages_dropped"));
  h.wan_retries = std::uint64_t(gauge("wan.retries"));
  h.wan_probes = std::uint64_t(gauge("wan.probes"));
  h.replans = std::uint64_t(gauge("runtime.replans"));
  h.sessions_healthy = std::size_t(gauge("runtime.sessions_healthy"));
  h.sessions_degraded = std::size_t(gauge("runtime.sessions_degraded"));
  h.sessions_edge_fallback =
      std::size_t(gauge("runtime.sessions_edge_fallback"));
  h.cloud_batches = std::uint64_t(gauge("batch.flushes"));
  h.cloud_batch_samples = std::uint64_t(gauge("batch.samples"));
  h.cloud_batch_occupancy_avg = gauge("batch.occupancy_avg");
  h.cloud_batch_peak_pending = std::size_t(gauge("batch.peak_pending"));
  return h;
}

Expected<std::unique_ptr<SieveSession>> Runtime::OpenSession(
    std::string camera_id, SessionConfig config) {
  if (!start_status_.ok()) return start_status_;
  if (classifier_ == nullptr || !classifier_->fitted()) {
    return Status::Precondition("Runtime: classifier not fitted");
  }
  if (config.width <= 0 || config.height <= 0 || config.width % 2 != 0 ||
      config.height % 2 != 0) {
    return Status::Invalid("OpenSession: dimensions must be positive and even");
  }
  // Windowed queries need a monotone clock. The open offset comes from the
  // runtime's own clock, so only fps can break it.
  if (!query::CameraClock{0.0, config.fps}.Valid()) {
    return Status::Invalid("OpenSession: fps must be positive and finite");
  }

  // Resolve the placement before taking the registry lock: a kAuto open may
  // measure the layer profile (a few forward passes).
  PlacementMode mode = config.placement == PlacementMode::kDefault
                           ? config_.default_placement
                           : config.placement;
  if (mode == PlacementMode::kDefault) mode = PlacementMode::kCloud;
  const PlacementPlan plan = ResolvePlacement(
      mode,
      mode == PlacementMode::kAuto ? PlannerInput(config) : nn::PartitionInput{},
      classifier_->network().LayerCount(), config.fixed_split);

  std::shared_ptr<internal::SessionState> state;
  // The recovered incarnation this camera resumes, if the store replayed
  // one at boot (consumed here: a later reopen is a fresh incarnation).
  std::optional<store::RecoveredCamera> resume;
  {
    std::unique_lock<std::shared_mutex> lock(mutex_);
    if (shut_down_) {
      return Status::Precondition("OpenSession: runtime already shut down");
    }
    // A camera id may be reused once its previous incarnation closed; its
    // in-flight frames carry their own session, and the unique route key
    // keeps the incarnations apart in the query index and the store.
    auto live = by_id_.find(camera_id);
    if (live != by_id_.end() &&
        !live->second->closed.load(std::memory_order_acquire)) {
      return Status::Invalid("OpenSession: camera id '" + camera_id +
                             "' is still open");
    }
    // Admission control: count what is actually open right now.
    std::size_t open_sessions = 0;
    double pixel_rate = 0.0;
    for (const auto& [id, st] : by_id_) {
      if (st->closed.load(std::memory_order_acquire)) continue;
      ++open_sessions;
      pixel_rate += double(st->header.width) * double(st->header.height) *
                    st->header.fps;
    }
    if (config_.max_sessions != 0 && open_sessions >= config_.max_sessions) {
      return Status::Exhausted("OpenSession: max_sessions (" +
                               std::to_string(config_.max_sessions) +
                               ") already open");
    }
    const double session_rate =
        double(config.width) * double(config.height) * config.fps;
    if (config_.max_aggregate_pixel_rate > 0.0 &&
        pixel_rate + session_rate > config_.max_aggregate_pixel_rate) {
      return Status::Exhausted(
          "OpenSession: aggregate pixel rate budget exhausted");
    }
    if (auto rec = recovered_.find(camera_id); rec != recovered_.end()) {
      resume = std::move(rec->second);
      recovered_.erase(rec);
    }
    // A resuming camera keeps its journaled route: the index already holds
    // that incarnation, and the journal file is appended, not restarted.
    const std::string route =
        resume ? resume->route
               : camera_id + "#" + std::to_string(++session_seq_);
    const codec::ContainerHeader header{config.width, config.height, config.fps,
                                        0, std::uint8_t(config.encoder.qp)};
    state = std::make_shared<internal::SessionState>(
        camera_id, route, header, config.queue_capacity,
        config_.camera_to_edge, config_.link_time_scale, registry_);
    // Trace exports label this session's track by its route, so two
    // incarnations of one camera id stay distinguishable in the viewer.
    obs::NameTrack(state->track, route);
    state->precision = config.precision;
    state->base_plan = plan;
    state->active_plan.store(std::make_shared<const PlacementPlan>(plan),
                             std::memory_order_release);
    sessions_.push_back(state);
    by_id_[camera_id] = state;
  }
  if (Status s = pipeline_.AttachSource(
          camera_id,  // display name in stats
          [state]() -> std::optional<dataflow::FlowFile> {
            // Stamp the owner as the frame leaves the camera queue, not at
            // push: a queued envelope holding its own session would be a
            // reference cycle through camera_queue.
            std::optional<dataflow::FlowFile> file = state->camera_queue.Pop();
            if (file) file->session = state;
            return file;
          });
      !s.ok()) {
    std::unique_lock<std::shared_mutex> lock(mutex_);
    std::erase(sessions_, state);
    if (auto it = by_id_.find(camera_id);
        it != by_id_.end() && it->second == state) {
      by_id_.erase(it);
    }
    return s;
  }
  // Plug the session into the query layer. No frame can flow before the
  // caller holds the session handle, so registering here (after the source
  // is attached) still precedes the first possible insert. The incarnation
  // registers on the shared stream clock, and every database insert
  // publishes through the observer seam (called by the cloud tier under
  // this session's db lock, so the db reference is stable).
  state->query = query_;
  if (resume) {
    // Boot recovery already registered this incarnation on its journaled
    // clock and published its rows; the session only has to rebuild its
    // local database to match and remember where the durable prefix ends.
    state->open_seconds = resume->open_seconds;
    state->resumed = resume->has_rows;
    state->resume_floor = std::size_t(resume->high_water);
    std::map<std::size_t, synth::LabelSet> rows;
    for (const auto& ins : resume->inserts) {
      rows[std::size_t(ins.frame)] = synth::LabelSet{ins.label_bits};
    }
    (void)state->db.Restore(std::move(rows));
  } else {
    // One timestamp serves both clocks: the query layer's stream alignment
    // and the WAN link-clock hints (open offset + frame/fps).
    state->open_seconds = epoch_.ElapsedSeconds();
    query_->RegisterCamera(
        state->route, camera_id,
        query::CameraClock{state->open_seconds, config.fps});
  }
  if (config_.store.enabled()) {
    const std::string path =
        config_.store.dir + "/" + store::JournalFileName(state->route);
    auto journal = store::JournalWriter::Open(
        path, config_.store.fsync, config_.store.crash, registry_.get());
    if (journal.ok()) {
      state->journal = std::move(*journal);
      // A fresh incarnation journals its registration first so recovery
      // can rebuild the camera's clock; a resumed one already has it.
      if (!resume) {
        (void)state->journal->AppendRegister(state->route, camera_id,
                                             state->open_seconds, config.fps);
      }
    } else {
      // The camera still opens — durability degrades to in-memory for this
      // session rather than refusing service — but loudly.
      registry_->GetCounter("store.journal.open_failures")->Add();
    }
  }
  state->db.set_observer(
      [service = query_, st = state.get()](
          const core::ResultsDatabase& db, std::size_t frame,
          const synth::LabelSet& labels) {
        // Write-ahead: the row hits the journal before the live index. Runs
        // under the session's db lock (the cloud tier holds it around
        // Insert), which also serializes appends; `st` outlives the db that
        // owns this observer. Append failures (ENOSPC, scripted crash) are
        // counted by the writer and degrade this session to in-memory — the
        // insert still publishes.
        if (st->journal) {
          (void)st->journal->AppendInsert(std::uint64_t(frame), labels.bits());
        }
        service->Publish(st->route, db, frame, labels);
      });

  // The encoder's thread knob maps onto executors: 0 rides this runtime's
  // shared executor, 1 is serial inline, n > 1 gets a private pool.
  Executor* enc_exec = executor_;
  std::unique_ptr<Executor> owned;
  if (config.encoder.threads != 0) {
    ResolvedExecutor resolved = ResolveExecutor(config.encoder.threads);
    enc_exec = resolved.executor;
    owned = std::move(resolved.owned);
  }
  return std::unique_ptr<SieveSession>(new SieveSession(
      std::move(state), config, enc_exec, std::move(owned)));
}

Expected<std::vector<dataflow::StageStats>> Runtime::Shutdown() {
  std::vector<std::shared_ptr<internal::SessionState>> states;
  {
    std::unique_lock<std::shared_mutex> lock(mutex_);
    if (shut_down_) return Status::Precondition("Runtime: already shut down");
    shut_down_ = true;
    states = sessions_;
  }
  // Cancel the links before draining: a transport mid-backoff (or a camera
  // mid-LAN-transfer) wakes immediately, and every frame still in the tiers
  // settles promptly — delivered if it no longer needs the WAN, counted
  // dropped_shutdown otherwise. With link_time_scale == 0 there are no
  // waits to interrupt, so a zero-scale shutdown drains exactly as before.
  wan_.Cancel();
  for (auto& state : states) {
    state->closed.store(true, std::memory_order_release);
    state->camera_edge.Cancel();
    state->camera_queue.Close();
  }
  if (!start_status_.ok()) return start_status_;
  auto stats = pipeline_.Finish();
  // The pipeline can no longer submit; flush and drain the fleet batcher so
  // every frame that reached the cloud settles before the ledgers are read.
  if (batcher_ != nullptr) batcher_->Drain();
  // The tiers are drained: every session's database is final, so seal any
  // camera the owner never drained explicitly — the query index stays
  // complete and consistent for post-shutdown queries.
  for (auto& state : states) {
    const std::size_t total = state->SealTotal();
    // Write-ahead ordering again: the seal is durable before the index
    // reports the stream closed. Recovered-but-never-resumed cameras are
    // not in sessions_, so they stay unsealed on disk and in the index —
    // exactly the state the pre-crash live runtime advertised.
    state->JournalSeal(total);
    query_->Seal(state->route, total);
  }
  // Final observability flush: refresh the shared-tier gauges, publish the
  // drained pipeline's stage stats as registry gauges, and write any
  // configured exports. Tracing stops only if this runtime started it.
  PublishMetrics();
  if (stats.ok()) obs::PublishStageStats(*registry_, *stats);
  if (!config_.trace.chrome_trace_path.empty()) {
    (void)obs::WriteChromeTrace(config_.trace.chrome_trace_path);
  }
  if (!config_.trace.metrics_path.empty()) {
    (void)obs::WriteMetricsJson(*registry_, config_.trace.metrics_path);
  }
  if (config_.trace.enabled) obs::StopTracing();
  return stats;
}

std::size_t Runtime::session_count() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  std::size_t open = 0;
  for (const auto& [id, state] : by_id_) {
    if (!state->closed.load(std::memory_order_acquire)) ++open;
  }
  return open;
}

}  // namespace sieve::runtime
