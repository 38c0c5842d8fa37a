// Table III: event-detection speed (frames/second) for SiEVE (I-frame
// seeking in compressed streams) vs MSE and SIFT (decode every frame +
// image similarity) at each dataset's NATIVE resolution.
//
// Paper values (shape targets): Jackson 19600/157/115, Coral 7200/62/38,
// Venice 2300/22/16 fps — i.e. SiEVE is 100-170x faster, because it never
// decodes P-frames; the baselines pay full decode (the paper: 8 ms/frame at
// 1080p) plus the similarity computation per frame.
#include <cstdio>

#include "codec/decoder.h"

#include "common/bytes.h"
#include "codec/encoder.h"
#include "common/stopwatch.h"
#include "media/metrics.h"
#include "synth/datasets.h"
#include "vision/sift.h"

namespace {

using namespace sieve;

struct SpeedRow {
  double sieve_disk_fps;  ///< seek via per-header fread+fseek on a file
  double mse_fps;
  double sift_fps;
  double decode_ms_per_frame;
};

/// File-backed seek: hop frame headers with fread+fseek, payloads untouched.
/// This is the cold-storage path closest to the paper's measurement (their
/// 0.43 ms/frame includes container parsing of on-disk video).
std::size_t SeekIFramesOnDisk(const char* path) {
  std::FILE* f = std::fopen(path, "rb");
  if (!f) return 0;
  std::uint8_t header[codec::ContainerHeader::kSerializedSize];
  if (std::fread(header, 1, sizeof header, f) != sizeof header) {
    std::fclose(f);
    return 0;
  }
  std::size_t iframes = 0;
  std::uint8_t frame_header[codec::FrameRecord::kHeaderSize];
  while (std::fread(frame_header, 1, sizeof frame_header, f) ==
         sizeof frame_header) {
    if (frame_header[0] == std::uint8_t(codec::FrameType::kIntra)) ++iframes;
    std::uint32_t size = 0;
    for (int i = 0; i < 4; ++i) size |= std::uint32_t(frame_header[1 + i]) << (8 * i);
    if (std::fseek(f, long(size), SEEK_CUR) != 0) break;
  }
  std::fclose(f);
  return iframes;
}

SpeedRow RunDataset(synth::DatasetId id, std::size_t frames,
                    std::size_t sift_frames) {
  const auto& spec = synth::GetDatasetSpec(id);
  std::fprintf(stderr, "[table3] %s at native %dx%d (%zu frames)...\n",
               spec.name.c_str(), spec.width, spec.height, frames);
  synth::SceneConfig cfg = synth::MakeDatasetConfig(id, frames, 3);
  cfg.mean_gap_seconds = 1.0;  // keep the probe busy so decode cost is honest
  cfg.min_gap_seconds = 0.5;
  cfg.mean_dwell_seconds = 1.5;
  cfg.min_dwell_seconds = 0.8;
  const auto scene = synth::GenerateScene(cfg);

  codec::EncoderParams params = codec::EncoderParams::Semantic(60, 250);
  auto encoded = codec::VideoEncoder(params).Encode(scene.video);
  if (!encoded.ok()) {
    std::fprintf(stderr, "encode failed: %s\n",
                 encoded.status().ToString().c_str());
    return {};
  }

  SpeedRow row{};
  Stopwatch watch;

  // --- SiEVE from disk: seek I-frames by header hops (no decode) -----------
  {
    const std::string path = "/tmp/sieve_table3_probe.svb";
    (void)WriteFileBytes(path, encoded->bytes);
    const int laps = 50;
    watch.Start();
    std::size_t found = 0;
    for (int i = 0; i < laps; ++i) found += SeekIFramesOnDisk(path.c_str());
    row.sieve_disk_fps = double(frames) * laps / watch.ElapsedSeconds();
    std::remove(path.c_str());
    if (found == 0) std::fprintf(stderr, "disk seek found nothing\n");
  }

  // --- MSE: decode every frame + frame difference --------------------------
  {
    auto decoder = codec::VideoDecoder::Open(encoded->bytes);
    watch.Start();
    media::Frame prev;
    double sink = 0;
    std::size_t n = 0;
    while (!decoder->AtEnd()) {
      auto frame = decoder->DecodeNext();
      if (!frame.ok()) break;
      if (n > 0) sink += media::FrameMse(prev, *frame);
      prev = std::move(*frame);
      ++n;
    }
    const double seconds = watch.ElapsedSeconds();
    row.mse_fps = double(n) / seconds + sink * 0.0;
    row.decode_ms_per_frame = seconds * 1e3 / double(n);
  }

  // --- SIFT: decode + extract + match (on a prefix; per-frame cost scales) -
  {
    auto decoder = codec::VideoDecoder::Open(encoded->bytes);
    watch.Start();
    std::vector<vision::SiftKeypoint> prev;
    std::size_t n = 0;
    while (!decoder->AtEnd() && n < sift_frames) {
      auto frame = decoder->DecodeNext();
      if (!frame.ok()) break;
      auto cur = vision::ExtractSift(frame->y());
      if (n > 0) vision::MatchSift(prev, cur);
      prev = std::move(cur);
      ++n;
    }
    row.sift_fps = double(n) / watch.ElapsedSeconds();
  }
  return row;
}

void Print(const char* name, const SpeedRow& row) {
  std::printf("%-16s %11.0f %8.1f %8.1f   %10.2f   %7.0fx %7.0fx\n",
              name, row.sieve_disk_fps, row.mse_fps,
              row.sift_fps, row.decode_ms_per_frame,
              row.sieve_disk_fps / row.mse_fps,
              row.sieve_disk_fps / row.sift_fps);
}

}  // namespace

int main() {
  std::printf("SiEVE reproduction — Table III: event-detection speed (fps) at "
              "native resolutions\n");
  std::printf("%-16s %11s %8s %8s   %10s   %7s %7s\n", "dataset",
              "SiEVE(disk)", "MSE", "SIFT", "dec ms/f", "vs MSE", "vs SIFT");
  Print("jackson_square",
        RunDataset(synth::DatasetId::kJacksonSquare, 360, 36));
  Print("coral_reef", RunDataset(synth::DatasetId::kCoralReef, 150, 12));
  Print("venice", RunDataset(synth::DatasetId::kVenice, 72, 6));
  std::printf("(paper: 19600/157/115, 7200/62/38, 2300/22/16 fps; seek 0.43 "
              "ms/f and decode 8 ms/f at 1080p)\n");
  return 0;
}
