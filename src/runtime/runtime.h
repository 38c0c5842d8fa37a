// The multi-camera streaming runtime: Figure 1 as a long-lived service.
//
// One Runtime hosts the shared edge and cloud tiers — I-frame seeker, still
// transcode, WAN link, reference classifier, per-camera results databases —
// as a single live dataflow::Pipeline running on an injected Executor.
// Cameras come and go as sessions:
//
//   runtime::Runtime rt(config, &classifier);          // tiers start here
//   auto cam = rt.OpenSession("gate-7", session_cfg);  // returns SieveSession
//   (*cam)->PushFrame(frame);                          // live capture loop
//   ...
//   (*cam)->Close();
//   runtime::SessionReport report = (*cam)->Drain();   // per-camera totals
//   auto stage_stats = rt.Shutdown();                  // shared-tier stats
//
// While sessions stream, rt.query() answers live cross-camera questions
// (find class X on any camera, time-aligned; standing enter/exit
// subscriptions) from a snapshot-consistent index fed by every database
// insert — see src/query/ and docs/queries.md.
//
// Each session owns a camera-side StreamingEncoder (motion estimation runs
// on the shared executor), a bounded per-camera ingress queue (its private
// backpressure domain: a slow edge stalls that camera's PushFrame, nothing
// else), a LAN link model, a ResultsDatabase, and a PlacementPlan deciding
// where its classifier runs (all-edge / all-cloud / split at a layer chosen
// by the Neurosurgeon-style planner — see runtime/placement.h); sessions
// with different plans run concurrently on one Runtime. The encoded frames
// of all sessions fan into one edge chain via the pipeline's multi-source
// fan-in; each frame travels as one typed dataflow::FlowFile that carries
// its owning session, so every stage reads the session's decode parameters
// and plan, and the cloud tier its database, straight from the envelope.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <vector>

#include "codec/encoder.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "core/results_db.h"
#include "dataflow/pipeline.h"
#include "fleet/batcher.h"
#include "media/frame.h"
#include "net/fault.h"
#include "net/link.h"
#include "net/transport.h"
#include "nn/classifier.h"
#include "nn/precision.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/service.h"
#include "runtime/executor.h"
#include "runtime/placement.h"
#include "store/recovery.h"

namespace sieve::runtime {

/// Observability knobs (docs/observability.md). Tracing is process-global
/// (obs::StartTracing); the exports are written once, at Shutdown.
struct TraceOptions {
  /// Enable the trace recorder for this runtime's lifetime. Off by default:
  /// the disabled fast path costs one branch per probe and the bitstreams,
  /// databases, and reports are byte-identical either way (the bench's
  /// trace_overhead scenario gates both properties).
  bool enabled = false;
  std::size_t events_per_thread = 16384;  ///< per-thread ring capacity
  /// When non-empty, Shutdown writes a Chrome trace_event JSON here
  /// (load in chrome://tracing or ui.perfetto.dev).
  std::string chrome_trace_path;
  /// When non-empty, Shutdown writes the metrics registry as JSON here.
  std::string metrics_path;
};

/// Shared-tier configuration.
struct RuntimeConfig {
  /// Placement applied to sessions that open with PlacementMode::kDefault.
  /// Must not itself be kDefault (treated as kCloud).
  PlacementMode default_placement = PlacementMode::kCloud;
  net::LinkModel camera_to_edge = net::LinkModel::Lan();
  net::LinkModel edge_to_cloud = net::LinkModel::Wan();
  /// Wall-clock scale for link waits (0 = account bytes but never sleep;
  /// 1 = real time). Tests compress time; demos use small nonzero values.
  double link_time_scale = 0.0;
  /// Planner input for kAuto sessions: cloud compute speed relative to the
  /// edge (nn::PartitionInput::cloud_speedup).
  double cloud_speedup = 3.0;
  int nn_input_size = 96;   ///< classifier input (even)
  int still_qp = 26;
  std::size_t queue_capacity = 8;  ///< edge-chain connection bound
  int transcode_parallelism = 1;   ///< still-transcode workers (order-kept)
  /// Edge-NN stage workers (order-kept, like transcode_parallelism): scales
  /// the prefix/full forward passes of all-edge and split sessions across
  /// the fan-in. Per-camera result order is preserved, so scaling it is
  /// invisible to the query layer and the dbs.
  int edge_nn_parallelism = 1;
  /// WAN-stage workers (order-kept): concurrent reliable sends over the
  /// shared hop. The transport and meters are internally synchronized; the
  /// stage's order gate keeps per-camera delivery order. At fleet scale the
  /// serial WAN worker is the first fan-in bottleneck (see docs/fleet.md).
  int wan_parallelism = 1;
  /// Cloud-NN workers: the cloud/nn stage's parallel payload decode and
  /// validation (order-kept), and the fleet batcher's flushers — how many
  /// batched inference passes run at once, over disjoint cameras.
  int cloud_nn_parallelism = 1;
  /// Cross-session batched cloud inference (src/fleet/): every delivered
  /// activation/still goes through one InferenceBatcher, which runs a
  /// batched suffix pass of up to this many samples whenever a flusher is
  /// free — an idle batcher flushes a lone frame at once. Per-sample
  /// results are bit-exact vs a per-frame pass, so the batch size never
  /// changes any camera's database. <= 1 means size-1 flushes.
  std::size_t cloud_batch_max = 1;
  /// Fairness: max samples one camera may hold in a single batch
  /// (0 = uncapped); see fleet::FleetSchedulerPolicy.
  std::size_t cloud_batch_fairness_share = 0;
  /// Admission control: maximum concurrently open sessions (0 = unlimited).
  /// Over-capacity OpenSession calls fail with kResourceExhausted.
  std::size_t max_sessions = 0;
  /// Admission control: cap on the summed width*height*fps of open sessions
  /// (pixels/second, 0 = unlimited) — the edge tier's decode budget.
  double max_aggregate_pixel_rate = 0.0;
  /// Scripted chaos on the shared WAN hop (default: a perfect link). The
  /// schedule is seeded and scripted on the link's virtual clock, so runs
  /// replay exactly (docs/robustness.md).
  net::FaultPlan wan_faults;
  /// Retry/timeout/backoff policy of the WAN send path.
  net::RetryPolicy wan_retry;
  /// Thresholds of the WAN health state machine (degrade / down / promote).
  net::HealthPolicy wan_health;
  /// React to WAN health transitions by replanning session placements
  /// (graceful degradation toward edge-only, re-promotion on recovery).
  /// Off: sessions keep their opening plan and undeliverable frames are
  /// simply counted dropped.
  bool adaptive_placement = true;
  /// Per-frame tracing + metric export (docs/observability.md).
  TraceOptions trace;
  /// Crash-safe durability (docs/durability.md). When store.dir is set,
  /// every session's results are write-ahead journaled there, the Runtime
  /// constructor replays existing journals into fresh databases and the
  /// live query index before accepting sessions, and a camera id found
  /// unsealed in the store resumes at its journaled high-water mark (the
  /// replayed prefix is acked, not re-stored). Empty dir (default) keeps
  /// the pre-store behaviour: all state in memory.
  store::StoreOptions store;
};

/// Per-session degradation state, surfaced through SessionReport and
/// Runtime::health(). kDegraded: the session was re-planned against the
/// measured (lossy) link model. kEdgeFallback: the link is down and the
/// session runs all-edge regardless of its configured placement.
enum class SessionHealth { kHealthy, kDegraded, kEdgeFallback };

const char* SessionHealthName(SessionHealth health) noexcept;

/// Runtime-wide health snapshot: the WAN transport's state plus the fleet's
/// per-session supervision counters. Readable from any thread at any time.
struct RuntimeHealth {
  net::LinkHealth wan_link = net::LinkHealth::kHealthy;
  double wan_loss_ewma = 0.0;
  std::uint64_t wan_messages_delivered = 0;
  std::uint64_t wan_messages_dropped = 0;
  std::uint64_t wan_retries = 0;
  std::uint64_t wan_probes = 0;
  std::uint64_t replans = 0;  ///< plan swaps across all sessions
  std::size_t sessions_healthy = 0;
  std::size_t sessions_degraded = 0;
  std::size_t sessions_edge_fallback = 0;
  // Fleet batching tier: the cloud's one inference path.
  std::uint64_t cloud_batches = 0;        ///< batched flushes run
  std::uint64_t cloud_batch_samples = 0;  ///< frames served by batches
  double cloud_batch_occupancy_avg = 0.0; ///< mean samples per flush
  std::size_t cloud_batch_peak_pending = 0;  ///< max queued in the batcher
};

/// Per-camera configuration.
struct SessionConfig {
  int width = 0;    ///< frame width (even, required)
  int height = 0;   ///< frame height (even, required)
  double fps = 30.0;
  /// Camera-side semantic encoder knobs. `encoder.threads` follows the
  /// executor shim: 0 = the runtime's shared executor, 1 = serial inline,
  /// n > 1 = a private pool. `encoder.qp` also sets the edge decode context
  /// for frames pushed pre-encoded.
  codec::EncoderParams encoder;
  std::size_t queue_capacity = 8;  ///< per-camera ingress bound (backpressure)
  /// Where this camera's classifier runs (kDefault follows the runtime's
  /// default_placement). kAuto asks the Neurosurgeon-style planner to pick
  /// the latency-optimal layer split at OpenSession time; kFixed pins
  /// `fixed_split` directly.
  PlacementMode placement = PlacementMode::kDefault;
  /// The pinned layer split for kFixed (clamped to [0, LayerCount()]).
  std::size_t fixed_split = 0;
  /// Planner-only override of the WAN model for this session (a camera
  /// behind a weaker uplink than RuntimeConfig::edge_to_cloud). Activation
  /// bytes still cross the runtime's shared realized WAN hop.
  std::optional<net::LinkModel> wan_hint;
  /// Inference precision for this session's classifier work — everywhere it
  /// runs: the edge prefix/full forward and the fleet batcher's batched
  /// cloud passes (which never mix precisions in one flush).
  /// Fixed for the session's lifetime; the split may replan on WAN health,
  /// the precision does not. kAuto placements are planned against per-layer
  /// timings measured at this precision — an int8 session's split must come
  /// from int8 numbers (see nn/precision.h and docs/perf.md for the int8
  /// arithmetic contract).
  nn::Precision precision = nn::Precision::kFp32;
};

/// Per-camera outcome, returned by SieveSession::Drain().
struct SessionReport {
  std::string camera_id;
  std::size_t frames_pushed = 0;     ///< frames that left this camera
  std::size_t iframes_selected = 0;  ///< frames passing the seeker
  std::size_t labels_written = 0;    ///< rows in this camera's database
  double wall_seconds = 0.0;         ///< open -> drained
  double fps = 0.0;                  ///< frames_pushed / wall_seconds
  std::uint64_t camera_to_edge_bytes = 0;
  /// What actually crossed the WAN for this camera: transcoded stills for
  /// split 0, serialized cut-point activations for an intermediate split,
  /// nothing for all-edge execution (labels travel out-of-band).
  std::uint64_t edge_to_cloud_bytes = 0;
  PlacementMode placement = PlacementMode::kCloud;  ///< resolved mode
  std::size_t nn_split = 0;  ///< layers [0, split) ran at the edge (active
                             ///< plan at drain time)
  /// The planner's predicted end-to-end latency at the chosen split — the
  /// exact model that drove the decision. Nonzero only for kAuto sessions.
  double predicted_total_ms = 0.0;
  /// The precision every inference for this session ran at (from
  /// SessionConfig::precision).
  nn::Precision precision = nn::Precision::kFp32;

  // --- Failure semantics (docs/runtime.md). Every pushed frame reconciles:
  //   frames_pushed == frames_stored_edge + frames_delivered + frames_dropped
  //                    + frames_resumed
  // where frames_stored_edge are the P-frames the seeker filtered (stored
  // edge-side, per the paper), frames_delivered == labels_written, and
  // frames_resumed are re-pushed frames at or below a resumed session's
  // journaled high-water mark (already durable: acked, not re-processed).
  // A frame is never silently lost.
  std::size_t frames_stored_edge = 0;  ///< P-frames filtered by the seeker
  std::size_t frames_delivered = 0;    ///< I-frames labelled into the db
  std::size_t frames_dropped = 0;      ///< explicit drops, by reason below
  /// Frames acked against the journal on a resumed session (<= the
  /// journaled high-water mark); 0 unless this session resumed a recovered
  /// incarnation (docs/durability.md).
  std::size_t frames_resumed = 0;
  std::size_t dropped_wan = 0;      ///< WAN gave up (retry budget/deadline)
  std::size_t dropped_corrupt = 0;  ///< payload failed decode/validation
  std::size_t dropped_shutdown = 0;  ///< in flight when Shutdown cancelled
  std::uint64_t wan_retries = 0;     ///< extra WAN attempts for this camera
  /// Bytes this camera wasted on the WAN beyond goodput (failed attempts
  /// and duplicates); edge_to_cloud_bytes stays pure goodput.
  std::uint64_t wan_retransmit_bytes = 0;
  /// Bytes that crossed the WAN but arrived corrupt and were dropped
  /// downstream. Reclassified out of edge_to_cloud_bytes when the frame
  /// settles as dropped_corrupt, so goodput counts only frames that
  /// actually became labels (a corrupt delivery used to inflate it).
  std::uint64_t wan_corrupt_bytes = 0;
  std::uint64_t replans = 0;         ///< plan swaps this session saw
  SessionHealth health = SessionHealth::kHealthy;  ///< state at drain
  // Push-to-settle latency of delivered frames (milliseconds).
  double latency_avg_ms = 0.0;
  double latency_p99_ms = 0.0;
  double latency_max_ms = 0.0;
  /// Frames of this camera whose labels came from the fleet batcher's cloud
  /// passes (every delivered frame except edge-computed labels).
  std::size_t cloud_batched_frames = 0;
  /// Frame-weighted mean size of the batches those frames rode in — this
  /// camera's share of the fleet's amortization.
  double cloud_batch_occupancy_avg = 0.0;
};

namespace internal {

/// How one in-flight frame settled (the delivered-vs-dropped ledger).
enum class FrameOutcome {
  kStoredEdge,      ///< P-frame: filtered by the seeker, stored edge-side
  kDelivered,       ///< labelled into the session's database
  kDroppedWan,      ///< the WAN transport gave up (Unavailable / deadline)
  kDroppedCorrupt,  ///< payload failed decode or validation downstream
  kDroppedShutdown, ///< in flight when Shutdown cancelled the links
  kResumedAck       ///< already journaled pre-crash: acked, not re-stored
};

/// Resolved obs::Registry handles for one session's counters — named
/// "session.<route>.<metric>". Handles are resolved once (BindMetrics) and
/// have stable addresses; the hot path touches only the atomic behind each
/// one, never the registry map. SessionReport is a drain-time view over
/// these (plus the byte meters).
struct SessionMetrics {
  obs::Counter* iframes = nullptr;       ///< frames passing the seeker
  obs::Counter* labels = nullptr;        ///< rows inserted into the db
  obs::Counter* stored_edge = nullptr;   ///< P-frames filtered edge-side
  obs::Counter* delivered = nullptr;     ///< frames labelled into the db
  obs::Counter* dropped_wan = nullptr;
  obs::Counter* dropped_corrupt = nullptr;
  obs::Counter* dropped_shutdown = nullptr;
  obs::Counter* resumed = nullptr;  ///< frames acked against the journal
  obs::Counter* wan_retries = nullptr;
  obs::Counter* cloud_batched_frames = nullptr;
  obs::Counter* cloud_batch_size_sum = nullptr;
  /// Push-to-settle latency of delivered frames, milliseconds.
  obs::Histogram* latency_ms = nullptr;
};

/// Shared state of one camera session. Lives in a shared_ptr: the session
/// handle, the runtime registry, and in-flight pipeline items all reference
/// it, so a session handle stays valid even past Runtime shutdown.
struct SessionState {
  SessionState(std::string id, std::string route_key,
               const codec::ContainerHeader& hdr, std::size_t queue_capacity,
               const net::LinkModel& lan, double time_scale,
               std::shared_ptr<obs::Registry> reg)
      : camera_id(std::move(id)),
        route(std::move(route_key)),
        track(obs::HashTrack(route)),
        header(hdr),
        camera_queue(queue_capacity),
        camera_edge(lan, time_scale) {
    BindMetrics(std::move(reg));
  }

  /// Resolve this session's registry handles ("session.<route>.*"). Called
  /// from the constructor so no frame can ever observe an unbound handle.
  void BindMetrics(std::shared_ptr<obs::Registry> reg);

  /// Settle one frame AND account for how it ended: outcome counters plus,
  /// for delivered frames, the push-to-settle latency (the envelope's
  /// t_push_us stamp against this session's stopwatch). Every frame that
  /// enters the tiers leaves through exactly one RecordOutcome call.
  void RecordOutcome(const dataflow::FlowFile& file, FrameOutcome outcome);

  /// The placement the next frame will execute under. In-flight frames are
  /// unaffected by a swap: each frame latches its split when it passes the
  /// edge-NN stage (FlowFile::split), so activations always finish on the
  /// plan they started with — that is the plan-swap barrier.
  std::shared_ptr<const PlacementPlan> ActivePlan() const {
    return active_plan.load(std::memory_order_acquire);
  }

  const std::string camera_id;
  const std::string route;  ///< unique per-incarnation key (id#seq): lets a
                            ///< reconnecting camera reuse its id while the
                            ///< index and store keep incarnations apart
  /// obs::HashTrack(route): the trace-track identity stamped into every
  /// frame's TraceContext, so per-frame spans group per session.
  const std::uint64_t track;
  const codec::ContainerHeader header;  ///< edge decode parameters
  /// Inference precision for every tier touching this session's frames.
  /// Written once at OpenSession (before the state is published to the
  /// registry) and never swapped, so stages read it without the plan-swap
  /// barrier that splits need.
  nn::Precision precision = nn::Precision::kFp32;
  PlacementPlan base_plan;  ///< resolved at OpenSession; restored on recovery
  /// The live plan (swapped by the runtime on WAN health transitions).
  std::atomic<std::shared_ptr<const PlacementPlan>> active_plan;
  std::atomic<SessionHealth> health{SessionHealth::kHealthy};
  std::atomic<std::uint64_t> replans{0};
  double open_seconds = 0.0;  ///< offset on the runtime's shared epoch
  dataflow::BoundedQueue<dataflow::FlowFile> camera_queue;
  net::RealizedLink camera_edge;     ///< this camera's LAN hop
  net::ByteMeter edge_cloud_meter;   ///< this camera's share of the WAN
  Stopwatch opened;
  std::atomic<bool> closed{false};
  std::atomic<std::size_t> pushed{0};

  /// Keepalive for the metric handles: a session handle outlives the
  /// Runtime safely, so the registry the handles point into must too.
  std::shared_ptr<obs::Registry> registry;
  /// The outcome ledger and latency distribution, as registry handles
  /// (lock-free on the settle path; SessionReport reads them at drain).
  SessionMetrics metrics;

  /// The runtime's query layer; Drain seals this session's index entry.
  std::shared_ptr<query::QueryService> query;

  // --- Durability (docs/durability.md; all set before the state is
  // published, so stages read them without synchronization except where
  // noted).
  /// True when this session resumed a recovered unsealed incarnation with
  /// journaled rows: the seeker acks (kResumedAck) every frame at or below
  /// resume_floor instead of re-processing it.
  bool resumed = false;
  std::size_t resume_floor = 0;  ///< journaled high-water frame id
  /// Highest frame_index + 1 ever pushed (fetch-max in PushWire): a
  /// resumed session's stream length, where `pushed` only counts this
  /// incarnation's pushes.
  std::atomic<std::size_t> max_frame_excl{0};

  /// The stream's total frame count for sealing. A fresh session's frames
  /// are the frames it pushed (the pre-store contract, bit-compatible); a
  /// resumed session extends the journaled stream, so its length is the
  /// highest frame pushed across both lives (and never below the journaled
  /// high-water mark, even if the camera reconnects and pushes nothing).
  std::size_t SealTotal() const {
    const std::size_t n = pushed.load(std::memory_order_acquire);
    if (!resumed) return n;
    return std::max(max_frame_excl.load(std::memory_order_acquire),
                    resume_floor + 1);
  }

  /// Write-ahead the stream's seal and close the journal (no-op without
  /// one). Called before the index Seal so a crash between the two leaves
  /// the durable state ahead of the in-memory state, never behind. Safe to
  /// call from both Drain and Shutdown: first caller wins.
  void JournalSeal(std::size_t total_frames) {
    std::lock_guard<std::mutex> lock(mutex);
    if (!journal || seal_done) return;
    seal_done = true;
    (void)journal->AppendSeal(total_frames);
    (void)journal->Close();
  }

  std::mutex mutex;  ///< guards db + journal + settled
  std::condition_variable settled_cv;
  std::size_t settled = 0;
  core::ResultsDatabase db;
  /// This incarnation's write-ahead journal (null = durability off or the
  /// journal failed to open). Appended under `mutex`, on the insert path,
  /// BEFORE the row is published to the query layer.
  std::unique_ptr<store::JournalWriter> journal;
  bool seal_done = false;  ///< guarded by mutex; JournalSeal ran
};

}  // namespace internal

class Runtime;

/// Handle to one live camera feed. Single producer: PushFrame/PushEncoded
/// must not be called concurrently on one session (different sessions are
/// fully independent). The handle outlives the Runtime safely, but frames
/// pushed after Runtime::Shutdown() are rejected.
class SieveSession {
 public:
  SieveSession(const SieveSession&) = delete;
  SieveSession& operator=(const SieveSession&) = delete;

  /// Dropping the handle closes intake (idempotent), so the camera id
  /// becomes reusable and the session's source worker can wind down even
  /// when the caller never called Close()/Drain() explicitly.
  ~SieveSession() { Close(); }

  /// Encode one live frame camera-side and stream it to the edge. Blocks
  /// when this camera's ingress queue is full (per-camera backpressure).
  Status PushFrame(const media::Frame& frame);

  /// Stream an already-encoded frame (header + payload wire bytes, e.g. a
  /// FrameRecord slice of an EncodedVideo container). Do not mix with
  /// PushFrame on the same session: frame indices come from the encoder.
  Status PushEncoded(codec::FrameType type, std::uint64_t frame_index,
                     std::span<const std::uint8_t> wire_bytes);

  /// Stop intake; already-pushed frames continue through the tiers.
  void Close();

  /// Close() + wait until every pushed frame settled (labelled, filtered,
  /// or dropped), then report this camera's totals.
  SessionReport Drain();

  /// This camera's raw results map. Direct access is for *drained*
  /// sessions (after Drain() or Runtime::Shutdown has returned): while
  /// frames are in flight the cloud tier is still inserting rows, and the
  /// map is not synchronized for external readers. For live reads use
  /// Runtime::query() — the query layer observes every insert and serves
  /// snapshot-consistent cross-camera views while sessions stream.
  const core::ResultsDatabase& db() const noexcept { return state_->db; }
  const std::string& camera_id() const noexcept { return state_->camera_id; }

 private:
  friend class Runtime;
  SieveSession(std::shared_ptr<internal::SessionState> state,
               SessionConfig config, Executor* encoder_executor,
               std::unique_ptr<Executor> owned_encoder_executor)
      : state_(std::move(state)),
        config_(config),
        encoder_executor_(encoder_executor),
        owned_encoder_executor_(std::move(owned_encoder_executor)) {}

  Status PushWire(codec::FrameType type, std::uint64_t frame_index,
                  std::span<const std::uint8_t> wire_bytes);

  std::shared_ptr<internal::SessionState> state_;
  SessionConfig config_;
  Executor* encoder_executor_;
  std::unique_ptr<Executor> owned_encoder_executor_;
  std::unique_ptr<codec::StreamingEncoder> encoder_;  ///< lazy: live path only
};

/// The shared edge/cloud service. The classifier must be fitted before
/// sessions open, must stay alive for the Runtime's lifetime, and is shared
/// by every session (FrameClassifier::Predict is const-thread-safe).
class Runtime {
 public:
  explicit Runtime(RuntimeConfig config, const nn::FrameClassifier* classifier,
                   Executor* executor = nullptr);
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Open a camera session. Fails on odd dimensions, an unfitted
  /// classifier, a runtime that is already shut down, or a camera id that
  /// is still open — a Close()d id may be reused (reconnecting camera), and
  /// in-flight frames of the previous incarnation still reach the old
  /// session's database (each frame carries its own session).
  Expected<std::unique_ptr<SieveSession>> OpenSession(std::string camera_id,
                                                      SessionConfig config);

  /// Close every session's intake, drain the tiers, stop the workers, and
  /// return shared-tier statistics (sources in open order, then seeker,
  /// still-transcode, edge/nn, wan, cloud/nn, cloud/sink). One-shot; the
  /// destructor calls it if needed.
  Expected<std::vector<dataflow::StageStats>> Shutdown();

  Executor& executor() const noexcept { return *executor_; }
  const RuntimeConfig& config() const noexcept { return config_; }
  /// Sessions whose intake is still open.
  std::size_t session_count() const;

  /// The live cross-camera query layer (docs/queries.md). Fed by every
  /// session's database inserts as they happen; safe to read from any
  /// thread at any time, including while sessions stream. Survives
  /// Shutdown() for post-hoc queries as long as the Runtime exists.
  query::QueryService& query() const noexcept { return *query_; }

  /// Runtime-wide health snapshot: WAN transport state + fleet supervision
  /// counters. Safe from any thread, any time (including post-Shutdown).
  RuntimeHealth health() const;

  /// The WAN transport (fault plan, retry policy, live stats). Exposed for
  /// tests and benches; sessions never touch it directly.
  net::ReliableTransport& wan() noexcept { return wan_; }

  /// This runtime's metrics registry. Per-runtime (not process-global) so
  /// two Runtimes in one process never mix "session.<route>.*" families —
  /// route keys restart at "<id>#1" per runtime. Session counters land here
  /// as frames settle; PublishMetrics() refreshes the shared-tier gauges.
  obs::Registry& registry() const noexcept { return *registry_; }

  /// Refresh the wan.* / batch.* / runtime.* gauges from their live
  /// sources (transport stats, byte meters, batcher, supervision states).
  /// health() calls this; call it directly before registry().Snapshot()
  /// to get a coherent external dump.
  void PublishMetrics() const;

 private:
  void BuildTiers();
  /// Boot-time recovery (constructor, before any session can open): scan
  /// RuntimeConfig::store.dir, replay every journal into the live query
  /// index through the exact incremental publish path a live session uses,
  /// seal sealed incarnations, and stage unsealed ones in `recovered_` for
  /// reconnecting cameras. Bumps session_seq_ past every recovered route.
  void RecoverFromStore();
  /// Planner input for a kAuto session: the lazily measured per-layer
  /// profile (cached across sessions), the session's WAN model, and the
  /// measured size of a transcoded still (what split 0 ships).
  nn::PartitionInput PlannerInput(const SessionConfig& config);
  /// Planner input against an explicit WAN model (replans use the measured
  /// EffectiveModel instead of the configured one) at a given inference
  /// precision (int8 sessions plan against int8 timings).
  nn::PartitionInput PlannerInputForModel(const net::LinkModel& wan,
                                          nn::Precision precision);
  /// Swap every open session's plan to match the given WAN health:
  /// kDown -> edge-only fallback, kDegraded -> replan against the measured
  /// link, kHealthy -> restore each session's base plan.
  void ApplyWanHealth(net::LinkHealth health);
  /// Called by the wan stage after each send/probe: if the transport's
  /// health changed since the last reaction, run ApplyWanHealth once.
  void MaybeReactToWanHealth();

  RuntimeConfig config_;
  const nn::FrameClassifier* classifier_;
  Executor* executor_;
  /// Owns this runtime's metric families; session states share it so their
  /// handles stay valid past the Runtime (see SessionState::registry).
  std::shared_ptr<obs::Registry> registry_;
  net::ReliableTransport wan_;  ///< the shared WAN hop (reliable send path)
  /// Last LinkHealth ApplyWanHealth ran for (as int); CAS'd by the wan
  /// stage so each transition triggers exactly one replan sweep.
  std::atomic<int> reacted_health_{0};
  std::atomic<std::uint64_t> replans_{0};  ///< fleet-wide plan swaps
  /// The fleet batching tier: the cloud's one inference path (null only
  /// without a classifier, when no session can open). Declared before
  /// pipeline_ on purpose: the sink submits into the batcher, so it must
  /// outlive the pipeline's teardown.
  std::unique_ptr<fleet::InferenceBatcher> batcher_;
  /// batch.wait_ms: per batched frame, sink Submit to its callback (null
  /// without a batcher).
  obs::Histogram* batch_wait_ms_ = nullptr;
  dataflow::Pipeline pipeline_;
  Status start_status_;
  /// Query layer + the shared stream clock's epoch (sessions are stamped
  /// with their open offset on it). shared_ptr: session states keep the
  /// service reachable for Drain-time sealing even past the Runtime.
  std::shared_ptr<query::QueryService> query_;
  Stopwatch epoch_;

  // kAuto planner cache, keyed by inference precision: measuring per-layer
  // latencies costs a few forward passes, so the first auto session at each
  // precision pays it and the rest reuse it. Keying matters — int8 layer
  // timings differ from fp32 by the quantized speedup, and a split planned
  // against the wrong precision's profile would land at the wrong layer.
  struct PlannerCacheEntry {
    std::vector<nn::LayerProfile> profile;
    std::size_t still_bytes = 0;
  };
  std::mutex planner_mutex_;
  std::map<nn::Precision, PlannerCacheEntry> planner_cache_;

  // Session registry. Frames never consult it (each envelope carries its
  // session); it serves admission, health sweeps and Shutdown, so reads
  // (health, metrics) take the shared lock and OpenSession/Shutdown the
  // exclusive one. `sessions_` keeps every session ever opened, in open
  // order, for Shutdown's drain and seal; `by_id_` tracks the latest
  // incarnation of each camera id for duplicate admission.
  mutable std::shared_mutex mutex_;
  std::vector<std::shared_ptr<internal::SessionState>> sessions_;
  std::map<std::string, std::shared_ptr<internal::SessionState>> by_id_;
  /// Latest unsealed incarnation recovered from the store, per camera id:
  /// what a reconnecting camera resumes (consumed by OpenSession). Guarded
  /// by mutex_ after construction.
  std::map<std::string, store::RecoveredCamera> recovered_;
  std::uint64_t session_seq_ = 0;
  bool shut_down_ = false;
};

}  // namespace sieve::runtime
