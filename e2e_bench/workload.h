// Workload definitions, seeded input generation, and the single-threaded
// reference computation the benchmark checks every delivered row against.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "codec/analysis.h"
#include "codec/encoder.h"
#include "core/tuner.h"
#include "media/frame.h"
#include "nn/classifier.h"
#include "runtime/placement.h"
#include "synth/ground_truth.h"
#include "synth/labels.h"

namespace e2e {

/// Object timetable of every feed, compressed from the Jackson Square
/// preset's 7 s gaps and 6 s dwells so that a run collects >= 200
/// notifications: one vehicle every 2.1 s, 0.6 s empty, 0.25 s sliding in,
/// 1 s parked, 0.25 s sliding out (~10% I-frames under the tuned encoders).
/// Gaps and dwells are fixed rather than exponential: a seeded feed still
/// varies in sizes, positions and sprite styles, but every feed carries the
/// same event rate, so the I-frame share and the event count do not swing
/// with the seed.
inline constexpr double kGapSeconds = 0.6;    ///< empty scene between objects
inline constexpr double kDwellSeconds = 1.0;  ///< object fully in view
inline constexpr double kRampSeconds = 0.25;  ///< sliding in (and again out)
/// Seconds from one object's arrival to the next.
inline constexpr double kPeriodSeconds =
    kGapSeconds + kDwellSeconds + 2 * kRampSeconds;

/// Every camera streams 320x240 at 30 fps.
inline constexpr int kWidth = 320;
inline constexpr int kHeight = 240;
inline constexpr double kFps = 30.0;

struct WorkloadSpec {
  std::string name;
  /// true: raw frames through PushFrame, each camera with its own tuned
  /// encoder (tuning is part of set-up). false: pre-encoded replay through
  /// PushEncoded.
  bool live = false;
  int cameras = 0;
  int feeds = 0;  ///< distinct rendered scenes; cameras share them at offsets
  /// Clip length in object periods: the looped clip wraps without a cut.
  int loop_periods = 0;
  std::size_t loop_frames() const {
    return std::size_t(loop_periods * kPeriodSeconds * kFps + 0.5);
  }
  sieve::runtime::PlacementMode placement = sieve::runtime::PlacementMode::kCloud;
  bool mid_split = false;      ///< kFixed at LayerCount()/2
  std::size_t batch_max = 1;   ///< cloud_batch_max (> 1 = fleet batcher on)
  /// The WAN runs in real time in every workload (link_time_scale = 1).
  /// true: the camera->edge LAN hop sleeps in real time too (1 ms per
  /// frame on the pusher); false: the LAN hop is instantaneous, so pushers
  /// spend their time in the encoder and the runtime, not in a modelled
  /// sleep.
  bool real_time_lan = false;
  double wan_loss = 0.0;       ///< seeded drop probability per WAN attempt
  /// Every workload journals its results (the store is on everywhere);
  /// archive_cameras > 0 also pre-writes sealed history boot recovers.
  int archive_cameras = 0;     ///< sealed cameras in the pre-written store
  std::size_t archive_rows = 0;  ///< rows per archived camera
  int transcode_parallelism = 1;
  int cloud_nn_parallelism = 1;
  int wan_parallelism = 1;
  /// Pusher threads (at most nproc - 1; the reader takes one more).
  int pushers = 3;
};

const WorkloadSpec* FindWorkload(const std::string& name);
std::string WorkloadNames();

/// One distinct camera feed (a looped clip).
struct Feed {
  sieve::synth::GroundTruth truth;
  /// Live workloads keep the raw clip (it is what cameras push); replay
  /// workloads drop it once the clip is encoded, except on feed 0, which
  /// the traced run's encoder probe re-encodes.
  sieve::media::RawVideo video;
  /// Replay: the pre-encoded stream and the parameters it was encoded with.
  sieve::codec::EncodedVideo encoded;
  sieve::codec::KeyframeParams keyframe;
  double tune_s = 0.0;  ///< Replay: seconds the camera spent in TuneEncoder
  /// Live: lookahead cost of raw frame r after raw frame r-1 (cyclic), the
  /// input the reference replays keyframe placement from.
  std::vector<sieve::codec::FrameCost> loop_costs;
  /// Frames spread over the clip, with their labels: classifier
  /// calibration input.
  std::vector<sieve::media::Frame> calib_frames;
  std::vector<sieve::synth::LabelSet> calib_labels;
};

struct CameraPlan {
  std::string id;
  int feed = 0;
  std::size_t offset = 0;  ///< raw frame of the clip pushed as frame 0
  double phase = 0.0;      ///< start offset of the push schedule, seconds
};

struct Inputs {
  std::vector<Feed> feeds;
  std::vector<CameraPlan> cameras;
  std::string archive_dir;  ///< pre-written store template (empty: none)
  double archive_seconds = 0.0;  ///< stream-clock span of the archive
  std::size_t archive_rows = 0;
};

/// Render, tune, encode and pre-write everything a run needs, from `seed`.
/// Uses up to `threads` worker threads (input preparation is not timed).
Inputs BuildInputs(const WorkloadSpec& spec, std::uint64_t seed,
                   const std::string& work_dir, int threads);

/// The keyframe grid every workload tunes over: the default scenecut
/// ladder under a 1 s GOP bound. On these short, busy clips the tuner's
/// F1 is a near-tie between 30- and 60-frame GOPs, and for car feeds also
/// between scenecut 250 and the extended ladder's 300+. A per-feed coin
/// flip between them would swing the I-frame share from seed to seed
/// (0.102-0.112 over six seeds of fleet_replay's 24 feeds with the extended
/// ladder, 0.097-0.100 with this one).
sieve::core::TunerGrid BenchTunerGrid();

inline std::size_t RawIndex(const Inputs& in, const CameraPlan& cam,
                            std::size_t frame) {
  return (cam.offset + frame) % in.feeds[std::size_t(cam.feed)].truth.frame_count();
}

/// The runtime's NN path, replayed single-threaded: decode an I-frame
/// payload, transcode it to a still, and classify it the way a session
/// with `split` does.
struct ReferencePath {
  const sieve::nn::FrameClassifier* classifier = nullptr;
  int nn_input_size = 96;
  int still_qp = 26;
  int qp = 26;  ///< quantizer of the camera streams
  std::size_t split = 0;

  sieve::synth::LabelSet Classify(std::span<const std::uint8_t> payload,
                                  int width, int height,
                                  sieve::media::Frame* still_out) const;
};

/// Single-threaded reference: per-(feed, raw frame) expected I-frame labels
/// and, for live cameras, the keyframe placement the tuned encoder makes.
class Reference {
 public:
  Reference(const WorkloadSpec& spec, const Inputs& inputs, ReferencePath path)
      : spec_(spec), inputs_(inputs), path_(path) {}

  /// One loop of every feed through the whole single-threaded pipeline
  /// (encode for live feeds, seek, transcode, classify), feeds spread over
  /// `threads` threads; returns the frames/s of feed 0, run alone. Fills
  /// the label cache as a side effect.
  double RunBaseline(const std::vector<sieve::codec::KeyframeParams>& tuned,
                     int threads);

  /// Frames among [0, n) that camera `cam` sends as I-frames.
  std::vector<std::size_t> IntraFrames(
      std::size_t cam, std::size_t n,
      const sieve::codec::KeyframeParams& keyframe) const;

  /// Expected label of camera `cam`'s raw clip frame `raw` as an I-frame.
  sieve::synth::LabelSet Label(std::size_t cam, std::size_t raw);

  /// NN-input stills decoded along the way (for timing Embed).
  const std::vector<sieve::media::Frame>& stills() const { return stills_; }

 private:
  const WorkloadSpec& spec_;
  const Inputs& inputs_;
  ReferencePath path_;
  std::map<std::pair<int, std::size_t>, sieve::synth::LabelSet> cache_;
  std::vector<sieve::media::Frame> stills_;
};

}  // namespace e2e
