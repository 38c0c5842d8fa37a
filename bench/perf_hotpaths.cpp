// Hot-path performance harness: encode throughput, motion-search candidate
// throughput, GEMM / CNN-forward arithmetic throughput (the GEMM per kernel
// table, the forward per layer at fp32 and int8), multi-camera
// fan-in, and NN placement (all-edge / all-cloud / auto-split), each
// measured against its serial / unpruned / naive reference IN THE SAME RUN
// so every speedup quoted is apples-to-apples on this machine. Emits a JSON
// report (default ./BENCH_hotpaths.json, override with argv[1]) that tracks
// the perf trajectory across PRs.
//
// Usage: perf_hotpaths [out.json] [parallel_threads] [scenarios] [trace.json]
//   scenarios: comma-separated subset of
//     encode,motion,gemm,conv,multi_session,nn_placement,live_query,
//     dct_sad_kernels,wan_chaos,fleet_scale,int8_inference,pipelined_encode,
//     trace_overhead,durability
//   (default: all). Skipped scenarios report zeros in the JSON.
//   trace.json: when given, the trace_overhead scenario writes its traced
//   leg's Chrome trace there (load in chrome://tracing).
//
// Exits nonzero if any scenario failed to run (the JSON still gets written,
// with zeros in the failed sections, so the caller decides what to keep).
// Everything is seeded; two runs on the same machine produce the same work.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <filesystem>

#include "codec/container.h"
#include "codec/encoder.h"
#include "codec/motion.h"
#include "codec/transform.h"
#include "common/rng.h"
#include "common/simd/kernels.h"
#include "common/stopwatch.h"
#include "media/metrics.h"
#include "nn/classifier.h"
#include "nn/network.h"
#include "nn/partition.h"
#include "nn/tensor.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "query/service.h"
#include "runtime/placement.h"
#include "runtime/runtime.h"
#include "store/journal.h"
#include "store/recovery.h"
#include "synth/scene.h"

namespace {

using namespace sieve;

constexpr std::uint64_t kSeed = 20260729;

constexpr const char* kKnownScenarios[] = {
    "encode", "motion", "gemm",         "conv",      "multi_session",
    "nn_placement", "live_query", "dct_sad_kernels", "wan_chaos",
    "fleet_scale", "int8_inference", "pipelined_encode", "trace_overhead",
    "durability"};

/// Set when a scenario could not run (encode failure, session failure...);
/// main exits nonzero so tools/run_bench.sh never commits a partial report.
std::atomic<bool> g_scenario_failed{false};

void ReportScenarioFailure(const char* scenario, const char* what) {
  std::fprintf(stderr, "[%s] %s\n", scenario, what);
  g_scenario_failed.store(true, std::memory_order_relaxed);
}

/// argv[3] scenario filter: empty = everything enabled.
std::string g_scenarios;

std::vector<std::string> SplitCommas(const std::string& list) {
  std::vector<std::string> tokens;
  std::size_t pos = 0;
  while (pos <= list.size()) {
    const std::size_t comma = list.find(',', pos);
    const std::size_t end = comma == std::string::npos ? list.size() : comma;
    if (end > pos) tokens.push_back(list.substr(pos, end - pos));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return tokens;
}

/// All filter tokens must name real scenarios — a typo silently disabling
/// everything would overwrite the tracked JSON with zeros.
bool ValidateScenarios(const std::string& list) {
  for (const std::string& token : SplitCommas(list)) {
    bool known = false;
    for (const char* name : kKnownScenarios) known = known || token == name;
    if (!known) {
      std::fprintf(stderr, "unknown scenario '%s'; known:", token.c_str());
      for (const char* name : kKnownScenarios) std::fprintf(stderr, " %s", name);
      std::fprintf(stderr, "\n");
      return false;
    }
  }
  return true;
}

bool Enabled(const char* name) {
  if (g_scenarios.empty()) return true;
  for (const std::string& token : SplitCommas(g_scenarios)) {
    if (token == name) return true;
  }
  return false;
}

double Ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

/// Median of a non-empty sample (mean of the middle two for an even count).
double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 != 0 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

// ---------------------------------------------------------------- encode --

struct EncodeResult {
  double reference_fps = 0;   ///< serial, unpruned search (seed path)
  double serial_fps = 0;      ///< pruned search, 1 thread
  double parallel_fps = 0;    ///< pruned search, all hardware threads
  bool bit_identical = false; ///< all three bitstreams byte-equal
  std::size_t frames = 0;
  std::size_t bytes = 0;
};

EncodeResult BenchEncode(int parallel_threads) {
  // A busy feed: camera jitter defeats zero-motion SKIP and concurrent
  // objects keep residual coding warm, so every macroblock exercises the
  // search + transform hot path (the workload the paper's throughput
  // figures care about, and the one where encoding speed actually matters).
  synth::SceneConfig cfg;
  cfg.width = 320;
  cfg.height = 240;
  cfg.num_frames = 96;
  cfg.seed = kSeed;
  cfg.object_scale = 0.28;
  cfg.allow_concurrent = true;
  cfg.mean_gap_seconds = 1.0;
  cfg.min_gap_seconds = 0.3;
  cfg.mean_dwell_seconds = 2.0;
  cfg.min_dwell_seconds = 0.8;
  cfg.noise_sigma = 2.0;
  cfg.jitter_px = 2;
  const auto scene = synth::GenerateScene(cfg);
  std::fprintf(stderr, "[encode] %dx%d, %zu frames\n", cfg.width, cfg.height,
               scene.video.frames.size());

  auto run = [&](bool reference, int threads) {
    codec::EncoderParams params = codec::EncoderParams::DefaultEncoding();
    params.reference_inter = reference;
    params.threads = threads;
    Stopwatch watch;
    auto encoded = codec::VideoEncoder(params).Encode(scene.video);
    const double seconds = watch.ElapsedSeconds();
    return std::pair(std::move(encoded), seconds);
  };

  EncodeResult out;
  out.frames = scene.video.frames.size();

  auto [ref, ref_s] = run(true, 1);
  auto [serial, serial_s] = run(false, 1);
  auto [parallel, parallel_s] = run(false, parallel_threads);
  if (!ref.ok() || !serial.ok() || !parallel.ok()) {
    ReportScenarioFailure("encode", "encode failed");
    return out;
  }
  out.reference_fps = double(out.frames) / ref_s;
  out.serial_fps = double(out.frames) / serial_s;
  out.parallel_fps = double(out.frames) / parallel_s;
  out.bit_identical =
      ref->bytes == serial->bytes && ref->bytes == parallel->bytes;
  out.bytes = ref->bytes.size();
  return out;
}

// --------------------------------------------------------- motion search --

struct MotionResultRow {
  double reference_cand_per_s = 0;
  double pruned_cand_per_s = 0;
  bool identical = false;
};

MotionResultRow BenchMotion() {
  // Two smooth textured planes related by per-block shifts: realistic SAD
  // surfaces for the pruner (white noise would prune nearly everything).
  const int w = 320, h = 240, range = 8;
  media::Plane ref_plane(w, h), cur_plane(w, h);
  Rng rng(kSeed);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      const int v = int(96 + 64 * ((x / 7 + y / 5) % 3)) + rng.UniformInt(-9, 9);
      ref_plane.at(x, y) = std::uint8_t(v < 0 ? 0 : (v > 255 ? 255 : v));
    }
  }
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      cur_plane.at(x, y) = ref_plane.at_clamped(x - 3, y + 2);
    }
  }

  const int mb = 16;
  const std::uint64_t cand_per_block =
      std::uint64_t(2 * range + 1) * std::uint64_t(2 * range + 1);
  std::uint64_t blocks = 0;
  for (int by = 0; by + mb <= h; by += mb) {
    for (int bx = 0; bx + mb <= w; bx += mb) ++blocks;
  }

  auto sweep = [&](auto search_fn) {
    std::uint64_t checksum = 0;
    for (int by = 0; by + mb <= h; by += mb) {
      for (int bx = 0; bx + mb <= w; bx += mb) {
        const codec::MotionResult r =
            search_fn(cur_plane, ref_plane, bx, by, mb, mb, range,
                      codec::MotionVector{0, 0}, 8u);
        checksum = checksum * 1315423911u + r.sad +
                   std::uint64_t(std::uint32_t(r.mv.dx * 131 + r.mv.dy));
      }
    }
    return checksum;
  };

  MotionResultRow row;
  const int laps = 6;
  Stopwatch watch;
  std::uint64_t ref_sum = 0;
  for (int i = 0; i < laps; ++i) ref_sum = sweep(codec::FullSearchReference);
  const double ref_s = watch.ElapsedSeconds();
  watch.Start();
  std::uint64_t pruned_sum = 0;
  for (int i = 0; i < laps; ++i) pruned_sum = sweep(codec::FullSearch);
  const double pruned_s = watch.ElapsedSeconds();

  const double total_cand = double(cand_per_block) * double(blocks) * laps;
  row.reference_cand_per_s = total_cand / ref_s;
  row.pruned_cand_per_s = total_cand / pruned_s;
  row.identical = ref_sum == pruned_sum;
  return row;
}

// -------------------------------------------------------------------- nn --

/// One kernel table's fp32 GEMM on the shared problem.
struct GemmArchColumn {
  const char* arch = "";
  double gflops = 0;
  bool identical = false;  ///< bit-equal to GemmNaive on the shared data
};

struct GemmRow {
  double naive_gflops = 0;
  double blocked_gflops = 0;  ///< nn::Gemm through the active kernel table
  bool identical = false;     ///< every supported table bit-equal to naive
  std::vector<GemmArchColumn> arches;  ///< every supported table, scalar first
};

GemmRow BenchGemm() {
  // An im2col-shaped problem: m = output pixels, k = patch, n = channels.
  const int m = 1024, k = 288, n = 64;
  std::vector<float> a(std::size_t(m) * k), b(std::size_t(k) * n),
      c(std::size_t(m) * n), want(std::size_t(m) * n);
  Rng rng(kSeed);
  for (auto& v : a) v = float(rng.Uniform(-1.0, 1.0));
  for (auto& v : b) v = float(rng.Uniform(-1.0, 1.0));

  const double flops_per_call = 2.0 * double(m) * double(k) * double(n);
  const int laps = 24;
  GemmRow row;
  Stopwatch watch;
  for (int i = 0; i < laps; ++i) nn::GemmNaive(a.data(), b.data(), want.data(), m, k, n);
  row.naive_gflops = flops_per_call * laps / watch.ElapsedSeconds() / 1e9;
  watch.Start();
  for (int i = 0; i < laps; ++i) nn::Gemm(a.data(), b.data(), c.data(), m, k, n);
  row.blocked_gflops = flops_per_call * laps / watch.ElapsedSeconds() / 1e9;
  row.identical = true;
  for (const simd::KernelArch arch : simd::CompiledArches()) {
    if (!simd::ArchSupported(arch)) continue;
    const simd::KernelTable& table = simd::KernelsFor(arch);
    GemmArchColumn col;
    col.arch = table.name;
    std::fill(c.begin(), c.end(), 0.0f);
    watch.Start();
    for (int i = 0; i < laps; ++i) table.gemm_f32(a.data(), b.data(), c.data(), m, k, n);
    col.gflops = flops_per_call * laps / watch.ElapsedSeconds() / 1e9;
    col.identical = std::memcmp(c.data(), want.data(), c.size() * sizeof(float)) == 0;
    row.identical = row.identical && col.identical;
    row.arches.push_back(col);
  }
  return row;
}

/// One backbone layer's wall time at both precisions (nn::ProfileLayers).
struct ConvLayerRow {
  std::string name;
  double fp32_ms = 0;
  double int8_ms = 0;
};

struct ConvRow {
  double forward_ms = 0;
  double gflops = 0;  ///< MAC-derived arithmetic throughput of a full forward
  std::vector<ConvLayerRow> layers;
};

ConvRow BenchConvForward() {
  const nn::Network net = nn::MakeBackbone(96, 64, kSeed);
  std::uint64_t macs = 0;
  for (const auto& layer : net.Profile()) macs += layer.macs;

  nn::Tensor input(net.input_shape());
  for (std::size_t i = 0; i < input.size(); ++i) {
    input.values()[i] = float((i % 255) / 255.0);
  }
  // Warm-up builds the scratch buffers.
  (void)net.Forward(input);
  const int laps = 10;
  Stopwatch watch;
  for (int i = 0; i < laps; ++i) (void)net.Forward(input);
  const double seconds = watch.ElapsedSeconds();
  ConvRow row;
  row.forward_ms = seconds * 1e3 / laps;
  row.gflops = 2.0 * double(macs) * laps / seconds / 1e9;
  // Per-layer split of the same forward, the numbers the split planner
  // consumes. The int8 warm-up builds the quantized weight caches.
  (void)net.Forward(input, nn::Precision::kInt8);
  const auto fp32 = net.ProfileLayers(laps, nn::Precision::kFp32);
  const auto int8 = net.ProfileLayers(laps, nn::Precision::kInt8);
  for (std::size_t i = 0; i < fp32.size(); ++i) {
    row.layers.push_back({fp32[i].name, fp32[i].measured_ms, int8[i].measured_ms});
  }
  return row;
}

// --------------------------------------------------------- kernel micros --

/// One vector table measured against the scalar reference: raw rates plus
/// per-kernel speedups and the bit-equality verdict on the shared data.
struct KernelArchColumn {
  const char* arch = "";
  double fdct_mblocks_s = 0, fdct_speedup = 0;
  double idct_mblocks_s = 0, idct_speedup = 0;
  double sad_mpix_s = 0, sad_speedup = 0;
  double quant_mblocks_s = 0, quant_speedup = 0;
  bool identical = false;  ///< this arch's outputs bit-equal to scalar
};

struct KernelBenchRow {
  const char* active_arch = "";
  bool simd_available = false;   ///< active table != scalar
  double fdct_scalar_mblocks_s = 0, fdct_simd_mblocks_s = 0, fdct_speedup = 0;
  double idct_scalar_mblocks_s = 0, idct_simd_mblocks_s = 0, idct_speedup = 0;
  double sad_scalar_mpix_s = 0, sad_simd_mpix_s = 0, sad_speedup = 0;
  double quant_scalar_mblocks_s = 0, quant_simd_mblocks_s = 0,
         quant_speedup = 0;
  bool identical = false;  ///< SIMD outputs bit-equal to scalar on this data
  /// Every supported non-scalar table (avx2 on AVX2 hardware), each A/B'd
  /// against the same scalar baseline on the same data with its own
  /// bit-equality flag — tools/check_bench.py hard-fails a column whose
  /// `identical` is false.
  std::vector<KernelArchColumn> arches;
};

/// A/B microbench of the dispatch layer itself: the scalar table against
/// EVERY supported vector table on the same random blocks, verifying
/// bit-equality of every output while timing. This is the acceptance number
/// for the SIMD kernels (>= 2.5x ForwardDct, >= 2x SAD on SIMD-capable
/// hardware); the legacy simd columns report the best (widest) table.
KernelBenchRow BenchDctSadKernels() {
  const simd::KernelTable& scalar = simd::KernelsFor(simd::KernelArch::kScalar);

  KernelBenchRow row;
  row.active_arch = simd::KernelArchName(simd::KernelArch::kScalar);
  row.identical = true;

  constexpr int kBlocks = 256;
  constexpr int kLaps = 2000;
  Rng rng(kSeed + 99);
  std::vector<std::int16_t> pixels(std::size_t(kBlocks) * simd::kBlockLen);
  for (auto& v : pixels) v = std::int16_t(rng.UniformInt(-255, 255));
  const codec::QuantTable q = codec::MakeLumaQuant(26);

  std::vector<float> freq_a(pixels.size()), freq_b(pixels.size());
  std::vector<float> dequant(pixels.size());
  std::vector<std::int32_t> coeff_a(pixels.size()), coeff_b(pixels.size());
  std::vector<std::int16_t> rec_a(pixels.size()), rec_b(pixels.size());

  const double total_blocks = double(kBlocks) * kLaps;
  auto time_blocks = [&](auto&& fn) {
    Stopwatch watch;
    for (int lap = 0; lap < kLaps; ++lap) {
      for (int blk = 0; blk < kBlocks; ++blk) fn(blk);
    }
    return total_blocks / watch.ElapsedSeconds() / 1e6;  // Mblocks/s
  };

  // SAD inputs: 16x16 macroblocks over two textured planes (the
  // motion-search shape), measured in pixels/s.
  const int w = 320, h = 240;
  media::Plane pa(w, h), pb(w, h);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      pa.at(x, y) = std::uint8_t(rng.UniformInt(0, 255));
    }
  }
  // pb = pa shifted by 2px + small noise (fill pa fully first): the
  // motion-search-shaped input, with realistic small differences.
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      const int v = int(pa.at_clamped(x + 2, y)) + rng.UniformInt(0, 8);
      pb.at(x, y) = std::uint8_t(v > 255 ? 255 : v);
    }
  }
  const int sad_laps = 400;
  auto time_sad = [&](const simd::KernelTable& table, std::uint64_t* checksum) {
    std::uint64_t sum = 0;
    double pixels_scanned = 0;
    Stopwatch watch;
    for (int lap = 0; lap < sad_laps; ++lap) {
      for (int by = 0; by + 16 <= h; by += 16) {
        for (int bx = 0; bx + 16 <= w; bx += 16) {
          sum += table.sad16xh(pa.row(by) + bx, w, pb.row(by) + bx, w, 16);
          pixels_scanned += 256;
        }
      }
    }
    *checksum = sum;
    return pixels_scanned / watch.ElapsedSeconds() / 1e6;  // Mpix/s
  };

  // Scalar baseline pass: time every kernel and keep its outputs as the
  // bit-equality reference for each vector arch.
  row.fdct_scalar_mblocks_s = time_blocks([&](int blk) {
    scalar.fdct8x8(pixels.data() + blk * simd::kBlockLen,
                   freq_a.data() + blk * simd::kBlockLen);
  });
  row.quant_scalar_mblocks_s = time_blocks([&](int blk) {
    scalar.quantize8x8(freq_a.data() + blk * simd::kBlockLen, q.step.data(),
                       coeff_a.data() + blk * simd::kBlockLen);
  });
  // Inverse DCT runs over dequantized coefficients (kept in a separate
  // buffer: freq_a stays valid as every arch's quantize input).
  for (int blk = 0; blk < kBlocks; ++blk) {
    scalar.dequantize8x8(coeff_a.data() + blk * simd::kBlockLen, q.step.data(),
                         dequant.data() + blk * simd::kBlockLen);
  }
  row.idct_scalar_mblocks_s = time_blocks([&](int blk) {
    scalar.idct8x8(dequant.data() + blk * simd::kBlockLen,
                   rec_a.data() + blk * simd::kBlockLen);
  });
  std::uint64_t sum_scalar = 0;
  row.sad_scalar_mpix_s = time_sad(scalar, &sum_scalar);

  // Measure every supported non-scalar table even under SIEVE_KERNEL_ARCH:
  // the env pins production dispatch, not the A/B harness. CompiledArches()
  // lists narrow-to-wide, so the last supported entry is the best table —
  // its column also fills the legacy simd fields.
  for (simd::KernelArch arch : simd::CompiledArches()) {
    if (arch == simd::KernelArch::kScalar || !simd::ArchSupported(arch)) {
      continue;
    }
    const simd::KernelTable& vec = simd::KernelsFor(arch);
    KernelArchColumn col;
    col.arch = simd::KernelArchName(arch);
    col.identical = true;

    col.fdct_mblocks_s = time_blocks([&](int blk) {
      vec.fdct8x8(pixels.data() + blk * simd::kBlockLen,
                  freq_b.data() + blk * simd::kBlockLen);
    });
    col.fdct_speedup = Ratio(col.fdct_mblocks_s, row.fdct_scalar_mblocks_s);
    col.identical = col.identical &&
                    std::memcmp(freq_a.data(), freq_b.data(),
                                freq_a.size() * sizeof(float)) == 0;

    col.quant_mblocks_s = time_blocks([&](int blk) {
      vec.quantize8x8(freq_a.data() + blk * simd::kBlockLen, q.step.data(),
                      coeff_b.data() + blk * simd::kBlockLen);
    });
    col.quant_speedup = Ratio(col.quant_mblocks_s, row.quant_scalar_mblocks_s);
    col.identical = col.identical &&
                    std::memcmp(coeff_a.data(), coeff_b.data(),
                                coeff_a.size() * sizeof(std::int32_t)) == 0;

    col.idct_mblocks_s = time_blocks([&](int blk) {
      vec.idct8x8(dequant.data() + blk * simd::kBlockLen,
                  rec_b.data() + blk * simd::kBlockLen);
    });
    col.idct_speedup = Ratio(col.idct_mblocks_s, row.idct_scalar_mblocks_s);
    col.identical = col.identical &&
                    std::memcmp(rec_a.data(), rec_b.data(),
                                rec_a.size() * sizeof(std::int16_t)) == 0;

    std::uint64_t sum_simd = 0;
    col.sad_mpix_s = time_sad(vec, &sum_simd);
    col.sad_speedup = Ratio(col.sad_mpix_s, row.sad_scalar_mpix_s);
    col.identical = col.identical && sum_scalar == sum_simd;

    row.identical = row.identical && col.identical;
    row.active_arch = col.arch;
    row.simd_available = true;
    row.fdct_simd_mblocks_s = col.fdct_mblocks_s;
    row.fdct_speedup = col.fdct_speedup;
    row.idct_simd_mblocks_s = col.idct_mblocks_s;
    row.idct_speedup = col.idct_speedup;
    row.sad_simd_mpix_s = col.sad_mpix_s;
    row.sad_speedup = col.sad_speedup;
    row.quant_simd_mblocks_s = col.quant_mblocks_s;
    row.quant_speedup = col.quant_speedup;
    row.arches.push_back(col);
  }
  if (row.arches.empty()) {
    // Scalar-only hardware: the legacy simd columns degenerate to the
    // scalar numbers (speedup 1.0), matching the old behaviour of timing
    // the scalar table against itself.
    row.fdct_simd_mblocks_s = row.fdct_scalar_mblocks_s;
    row.idct_simd_mblocks_s = row.idct_scalar_mblocks_s;
    row.sad_simd_mpix_s = row.sad_scalar_mpix_s;
    row.quant_simd_mblocks_s = row.quant_scalar_mblocks_s;
    row.fdct_speedup = row.idct_speedup = row.sad_speedup =
        row.quant_speedup = 1.0;
  }

  if (!row.identical) {
    ReportScenarioFailure("dct_sad_kernels",
                          "SIMD outputs differ from scalar reference");
  }
  return row;
}

// ----------------------------------------------------- multi-camera fleet --

struct MultiSessionResult {
  std::size_t sessions = 0;
  std::size_t frames_total = 0;
  double aggregate_fps = 0;  ///< all cameras' frames / wall seconds
  std::vector<dataflow::StageStats> stages;  ///< shared-tier stats
};

MultiSessionResult BenchMultiSession() {
  // Three concurrent camera sessions on ONE shared runtime/executor: the
  // scaling scenario the session API exists for. Tracks how fan-in and the
  // shared pool behave across PRs (aggregate fps + per-stage busy time).
  constexpr int kSessions = 3;
  constexpr int kW = 192, kH = 144;
  constexpr std::size_t kFramesPerCam = 48;

  auto make_scene = [&](int cam) {
    synth::SceneConfig cfg;
    cfg.width = kW;
    cfg.height = kH;
    cfg.num_frames = kFramesPerCam;
    cfg.seed = kSeed + std::uint64_t(cam) * 131;
    cfg.object_scale = 0.3;
    cfg.mean_gap_seconds = 0.8;
    cfg.min_gap_seconds = 0.3;
    cfg.mean_dwell_seconds = 1.2;
    cfg.min_dwell_seconds = 0.5;
    cfg.noise_sigma = 2.0;
    cfg.jitter_px = 1;
    return synth::GenerateScene(cfg);
  };
  std::vector<synth::SyntheticVideo> scenes;
  for (int cam = 0; cam < kSessions; ++cam) scenes.push_back(make_scene(cam));

  nn::ClassifierParams cp;
  cp.input_size = 32;
  cp.embedding_dim = 16;
  nn::FrameClassifier classifier(cp);
  if (!classifier.Fit(scenes[0].video.frames, scenes[0].truth, 8).ok()) {
    ReportScenarioFailure("multi_session", "classifier fit failed");
    return {};
  }

  runtime::RuntimeConfig runtime_config;
  runtime_config.nn_input_size = 32;
  runtime::Runtime rt(runtime_config, &classifier);
  std::vector<std::unique_ptr<runtime::SieveSession>> sessions;
  for (int cam = 0; cam < kSessions; ++cam) {
    runtime::SessionConfig sc;
    sc.width = kW;
    sc.height = kH;
    sc.encoder = codec::EncoderParams::Semantic(12, 150);
    auto session = rt.OpenSession("cam-" + std::to_string(cam), sc);
    if (!session.ok()) {
      ReportScenarioFailure("multi_session", "OpenSession failed");
      return {};
    }
    sessions.push_back(std::move(*session));
  }

  Stopwatch watch;
  std::vector<std::thread> feeds;
  for (int cam = 0; cam < kSessions; ++cam) {
    feeds.emplace_back([cam, &sessions, &scenes] {
      for (const auto& frame : scenes[std::size_t(cam)].video.frames) {
        if (!sessions[std::size_t(cam)]->PushFrame(frame).ok()) return;
      }
    });
  }
  for (auto& t : feeds) t.join();
  MultiSessionResult out;
  for (auto& session : sessions) {
    out.frames_total += session->Drain().frames_pushed;
  }
  const double seconds = watch.ElapsedSeconds();
  out.sessions = kSessions;
  out.aggregate_fps = seconds > 0 ? double(out.frames_total) / seconds : 0.0;
  auto stats = rt.Shutdown();
  if (stats.ok()) out.stages = std::move(*stats);
  return out;
}

// ------------------------------------------------------------ placement --

struct PlacementRow {
  const char* mode = "";
  std::size_t split = 0;           ///< layers [0, split) ran at the edge
  std::size_t frames = 0;
  std::size_t iframes = 0;
  double wall_seconds = 0;         ///< open -> drained, end to end
  double latency_ms_per_frame = 0; ///< wall / frames
  std::uint64_t wan_bytes = 0;     ///< stills or activations that crossed
  double predicted_total_ms = 0;   ///< planner estimate at this split
};

struct NnPlacementResult {
  std::size_t layer_count = 0;
  std::vector<PlacementRow> rows;
};

NnPlacementResult BenchNnPlacement() {
  // One camera feed pushed through three runtimes that differ only in the
  // session's placement plan: all-edge, all-cloud, and planner-chosen
  // auto-split. Tracks end-to-end latency and WAN activation/still bytes —
  // the trade the paper's NN Deployment service navigates per camera.
  constexpr int kW = 192, kH = 144;
  constexpr std::size_t kFrames = 48;
  synth::SceneConfig cfg;
  cfg.width = kW;
  cfg.height = kH;
  cfg.num_frames = kFrames;
  cfg.seed = kSeed + 7;
  cfg.object_scale = 0.3;
  cfg.mean_gap_seconds = 0.8;
  cfg.min_gap_seconds = 0.3;
  cfg.mean_dwell_seconds = 1.2;
  cfg.min_dwell_seconds = 0.5;
  cfg.noise_sigma = 2.0;
  cfg.jitter_px = 1;
  const auto scene = synth::GenerateScene(cfg);

  nn::ClassifierParams cp;
  cp.input_size = 32;
  cp.embedding_dim = 16;
  nn::FrameClassifier classifier(cp);
  if (!classifier.Fit(scene.video.frames, scene.truth, 8).ok()) {
    ReportScenarioFailure("nn_placement", "classifier fit failed");
    return {};
  }

  NnPlacementResult out;
  out.layer_count = classifier.network().LayerCount();

  // Planner view of this deployment, used to report a predicted latency
  // for the *fixed* edge/cloud plans (their opens never consult the
  // planner). Shares the runtime's measurement path — same probe still,
  // same defaults — so these columns stay comparable to the auto row.
  const runtime::RuntimeConfig defaults;
  const nn::PartitionInput planner = runtime::MeasurePlannerInput(
      classifier, cp.input_size, defaults.still_qp, defaults.edge_to_cloud,
      defaults.cloud_speedup);
  const auto predicted = nn::EvaluateSplits(planner);

  const runtime::PlacementMode modes[] = {runtime::PlacementMode::kEdge,
                                          runtime::PlacementMode::kCloud,
                                          runtime::PlacementMode::kAuto};
  for (const runtime::PlacementMode mode : modes) {
    runtime::RuntimeConfig runtime_config;
    runtime_config.nn_input_size = 32;
    runtime::Runtime rt(runtime_config, &classifier);
    runtime::SessionConfig sc;
    sc.width = kW;
    sc.height = kH;
    sc.encoder = codec::EncoderParams::Semantic(12, 150);
    sc.placement = mode;
    auto session = rt.OpenSession("cam", sc);
    if (!session.ok()) {
      ReportScenarioFailure("nn_placement", "OpenSession failed");
      return out;
    }
    for (const auto& frame : scene.video.frames) {
      if (!(*session)->PushFrame(frame).ok()) break;
    }
    const runtime::SessionReport report = (*session)->Drain();
    (void)rt.Shutdown();

    PlacementRow row;
    row.mode = runtime::PlacementModeName(report.placement);
    row.split = report.nn_split;
    row.frames = report.frames_pushed;
    row.iframes = report.iframes_selected;
    row.wall_seconds = report.wall_seconds;
    row.latency_ms_per_frame =
        Ratio(report.wall_seconds * 1e3, double(report.frames_pushed));
    row.wan_bytes = report.edge_to_cloud_bytes;
    if (report.placement == runtime::PlacementMode::kAuto) {
      // The exact prediction that drove the split decision.
      row.predicted_total_ms = report.predicted_total_ms;
    } else if (report.nn_split < predicted.size()) {
      row.predicted_total_ms = predicted[report.nn_split].total_ms;
    }
    out.rows.push_back(row);
  }
  return out;
}

// ------------------------------------------------------------ live query --

struct LiveQueryResult {
  std::size_t sessions = 0;
  std::size_t frames_total = 0;
  std::size_t queries = 0;          ///< FindObject calls issued while live
  double avg_query_micros = 0;      ///< mean FindObject latency under ingest
  /// 99th-percentile FindObject latency: the number to watch. The max is
  /// kept for visibility but is dominated by one-off warmup/scheduling
  /// artifacts (a single 40 ms page-fault-shaped outlier in early runs).
  double p99_query_micros = 0;
  double max_query_micros = 0;
  std::uint64_t index_updates = 0;  ///< final index version (register+insert+seal)
  double updates_per_s = 0;         ///< index update throughput while streaming
  std::size_t subscription_events = 0;  ///< enter/exit deliveries
  std::size_t hits_final = 0;       ///< drained hits summed over all classes
};

LiveQueryResult BenchLiveQuery() {
  // Three streaming cameras with one query thread hammering the live index
  // (FindObject + WhereIs over every class, continuously): measures read
  // latency under ingest and the index's update throughput — the query
  // engine's two numbers to watch across PRs.
  constexpr int kSessions = 3;
  constexpr int kW = 192, kH = 144;
  constexpr std::size_t kFramesPerCam = 48;

  std::vector<synth::SyntheticVideo> scenes;
  for (int cam = 0; cam < kSessions; ++cam) {
    synth::SceneConfig cfg;
    cfg.width = kW;
    cfg.height = kH;
    cfg.num_frames = kFramesPerCam;
    cfg.seed = kSeed + 31 + std::uint64_t(cam) * 131;
    cfg.object_scale = 0.3;
    // A busy feed (short gaps, short dwells): plenty of enter/exit
    // transitions so the hit lists the query thread reads are non-trivial.
    cfg.mean_gap_seconds = 0.5;
    cfg.min_gap_seconds = 0.2;
    cfg.mean_dwell_seconds = 0.7;
    cfg.min_dwell_seconds = 0.3;
    cfg.noise_sigma = 2.0;
    cfg.jitter_px = 1;
    scenes.push_back(synth::GenerateScene(cfg));
  }

  nn::ClassifierParams cp;
  cp.input_size = 32;
  cp.embedding_dim = 16;
  nn::FrameClassifier classifier(cp);
  if (!classifier.Fit(scenes[0].video.frames, scenes[0].truth, 8).ok()) {
    ReportScenarioFailure("live_query", "classifier fit failed");
    return {};
  }

  runtime::RuntimeConfig runtime_config;
  runtime_config.nn_input_size = 32;
  runtime::Runtime rt(runtime_config, &classifier);

  LiveQueryResult out;
  std::atomic<std::size_t> events{0};
  for (int c = 0; c < synth::kNumObjectClasses; ++c) {
    rt.query().Subscribe(synth::ObjectClass(c), [&events](const query::QueryEvent&) {
      events.fetch_add(1, std::memory_order_relaxed);
    });
  }

  std::vector<std::unique_ptr<runtime::SieveSession>> sessions;
  for (int cam = 0; cam < kSessions; ++cam) {
    runtime::SessionConfig sc;
    sc.width = kW;
    sc.height = kH;
    sc.encoder = codec::EncoderParams::Semantic(12, 150);
    auto session = rt.OpenSession("cam-" + std::to_string(cam), sc);
    if (!session.ok()) {
      ReportScenarioFailure("live_query", "OpenSession failed");
      return {};
    }
    sessions.push_back(std::move(*session));
  }

  std::atomic<bool> streaming{true};
  std::size_t queries = 0;
  double query_seconds_sum = 0, query_seconds_max = 0;
  std::vector<double> query_seconds;
  query_seconds.reserve(1u << 20);
  std::thread query_thread([&] {
    const query::QueryService& q = rt.query();
    while (streaming.load(std::memory_order_acquire)) {
      for (int c = 0; c < synth::kNumObjectClasses; ++c) {
        const auto cls = synth::ObjectClass(c);
        Stopwatch latency;
        const auto hits = q.FindObject(cls);
        const double seconds = latency.ElapsedSeconds();
        ++queries;
        query_seconds_sum += seconds;
        if (seconds > query_seconds_max) query_seconds_max = seconds;
        query_seconds.push_back(seconds);
        (void)hits;
        (void)q.WhereIs(cls);
      }
    }
  });

  Stopwatch watch;
  std::vector<std::thread> feeds;
  for (int cam = 0; cam < kSessions; ++cam) {
    feeds.emplace_back([cam, &sessions, &scenes] {
      for (const auto& frame : scenes[std::size_t(cam)].video.frames) {
        if (!sessions[std::size_t(cam)]->PushFrame(frame).ok()) return;
      }
    });
  }
  for (auto& t : feeds) t.join();
  for (auto& session : sessions) {
    out.frames_total += session->Drain().frames_pushed;
  }
  const double seconds = watch.ElapsedSeconds();
  streaming.store(false, std::memory_order_release);
  query_thread.join();

  out.sessions = kSessions;
  out.queries = queries;
  out.avg_query_micros =
      queries > 0 ? query_seconds_sum * 1e6 / double(queries) : 0.0;
  if (!query_seconds.empty()) {
    // p99 by rank (nearest-rank on the sorted sample).
    const std::size_t rank =
        std::size_t(0.99 * double(query_seconds.size() - 1));
    std::nth_element(query_seconds.begin(),
                     query_seconds.begin() + std::ptrdiff_t(rank),
                     query_seconds.end());
    out.p99_query_micros = query_seconds[rank] * 1e6;
  }
  out.max_query_micros = query_seconds_max * 1e6;
  out.index_updates = rt.query().version();
  out.updates_per_s =
      seconds > 0 ? double(out.index_updates) / seconds : 0.0;
  out.subscription_events = events.load();
  for (int c = 0; c < synth::kNumObjectClasses; ++c) {
    out.hits_final += rt.query().FindObject(synth::ObjectClass(c)).size();
  }
  (void)rt.Shutdown();
  return out;
}

// ------------------------------------------------------------- wan chaos --

struct WanChaosRow {
  double loss = 0;             ///< configured per-attempt drop probability
  std::size_t frames = 0;
  std::size_t delivered = 0;   ///< I-frames labelled despite the loss
  std::size_t dropped = 0;     ///< explicit give-ups (never silent)
  std::uint64_t retries = 0;   ///< extra WAN attempts the loss cost
  double aggregate_fps = 0;    ///< frames / wall seconds, loss included
  double p99_frame_ms = 0;     ///< push-to-settle p99 of delivered frames
};

struct WanChaosResult {
  std::vector<WanChaosRow> rows;   ///< the loss sweep (0 / 1 / 5 / 20 %)
  std::uint64_t outage_replans = 0;  ///< plan swaps over the outage leg
  std::size_t outage_dropped = 0;
  bool reconciled = true;  ///< every leg: pushed == stored+delivered+dropped
};

WanChaosResult BenchWanChaos() {
  // The transport's overhead curve: one camera session pushed through the
  // reliable WAN send path at increasing packet loss (retry/backoff doing
  // its work, adaptive placement off so the plan never moves), plus an
  // outage leg with adaptive placement on (degrade-to-edge + re-promote).
  // Tracks throughput and delivered-frame p99 latency as the loss climbs,
  // and that the delivered-or-dropped ledger reconciles on every leg.
  constexpr int kW = 64, kH = 48;
  constexpr std::size_t kFrames = 96;
  synth::SceneConfig cfg;
  cfg.width = kW;
  cfg.height = kH;
  cfg.num_frames = kFrames;
  cfg.seed = kSeed + 47;
  cfg.object_scale = 0.3;
  cfg.mean_gap_seconds = 0.6;
  cfg.min_gap_seconds = 0.3;
  cfg.mean_dwell_seconds = 0.8;
  cfg.min_dwell_seconds = 0.4;
  cfg.noise_sigma = 2.0;
  cfg.jitter_px = 1;
  const auto scene = synth::GenerateScene(cfg);

  nn::ClassifierParams cp;
  cp.input_size = 32;
  cp.embedding_dim = 16;
  nn::FrameClassifier classifier(cp);
  if (!classifier.Fit(scene.video.frames, scene.truth, 4).ok()) {
    ReportScenarioFailure("wan_chaos", "classifier fit failed");
    return {};
  }

  WanChaosResult out;
  const auto reconciles = [](const runtime::SessionReport& r) {
    return r.frames_pushed == r.frames_stored_edge + r.frames_delivered +
                                  r.frames_dropped &&
           r.frames_delivered == r.labels_written;
  };
  const auto run_leg = [&](runtime::RuntimeConfig rc, double fps)
      -> std::pair<runtime::SessionReport, runtime::RuntimeHealth> {
    rc.nn_input_size = 32;
    runtime::Runtime rt(rc, &classifier);
    runtime::SessionConfig sc;
    sc.width = kW;
    sc.height = kH;
    sc.fps = fps;
    // GOP 4: an I-frame (WAN message) every 4th frame, so the loss sweep
    // exercises the retry path on a meaningful message count.
    sc.encoder = codec::EncoderParams::Semantic(4, 120);
    auto session = rt.OpenSession("chaos-cam", sc);
    if (!session.ok()) {
      ReportScenarioFailure("wan_chaos", "OpenSession failed");
      return {};
    }
    for (const auto& frame : scene.video.frames) {
      if (!(*session)->PushFrame(frame).ok()) break;
    }
    const runtime::SessionReport report = (*session)->Drain();
    const runtime::RuntimeHealth health = rt.health();
    (void)rt.Shutdown();
    return {report, health};
  };

  for (const double loss : {0.0, 0.01, 0.05, 0.20}) {
    runtime::RuntimeConfig rc;
    rc.wan_faults.seed = kSeed + std::uint64_t(loss * 1000.0);
    rc.wan_faults.drop_probability = loss;
    rc.adaptive_placement = false;  // measure the transport, not the planner
    const auto [report, health] = run_leg(rc, 30.0);
    WanChaosRow row;
    row.loss = loss;
    row.frames = report.frames_pushed;
    row.delivered = report.frames_delivered;
    row.dropped = report.frames_dropped;
    row.retries = report.wan_retries;
    row.aggregate_fps =
        Ratio(double(report.frames_pushed), report.wall_seconds);
    row.p99_frame_ms = report.latency_p99_ms;
    out.reconciled = out.reconciled && reconciles(report);
    out.rows.push_back(row);
  }

  // The outage leg: a hard [1.5, 4.5) window over an 8 s stream (96 frames
  // at 12 fps), adaptive placement reacting — degrade to edge, re-promote.
  {
    runtime::RuntimeConfig rc;
    rc.wan_faults.seed = kSeed + 9;
    rc.wan_faults.drop_probability = 0.05;
    rc.wan_faults.outages.push_back({1.5, 4.5});
    rc.wan_retry.max_attempts = 3;
    rc.wan_retry.deadline_ms = 2000.0;
    rc.wan_health.down_after_failures = 3;
    rc.wan_health.loss_alpha = 0.5;
    rc.wan_health.healthy_loss = 0.25;
    rc.wan_health.promote_after_successes = 2;
    const auto [report, health] = run_leg(rc, 12.0);
    out.outage_replans = health.replans;
    out.outage_dropped = report.frames_dropped;
    out.reconciled = out.reconciled && reconciles(report);
  }
  return out;
}

// ------------------------------------------------------------ fleet scale --

struct FleetScaleRow {
  std::size_t sessions = 0;
  std::size_t frames_total = 0;     ///< per leg (both legs push the same)
  double unbatched_fps = 0;         ///< size-1 flushes (cloud_batch_max 1)
  double batched_fps = 0;           ///< cross-session batcher on
  double unbatched_p99_ms = 0;      ///< worst per-camera delivered p99
  double batched_p99_ms = 0;
  double occupancy_avg = 0;         ///< batched leg: mean samples per flush
  std::uint64_t batches = 0;        ///< batched leg: flushes run
  bool bit_identical = false;       ///< every camera's db equal across legs
};

struct FleetScaleResult {
  std::vector<FleetScaleRow> rows;  ///< the session-count sweep
  bool bit_identical = true;        ///< all rows
  double speedup_at_max = 0;        ///< batched/unbatched fps, largest fleet
  double batched_fps_at_max = 0;    ///< batched aggregate fps, largest fleet
  double batched_p99_at_max_ms = 0; ///< batched worst-camera p99, largest
};

FleetScaleResult BenchFleetScale() {
  // The fleet knee: N concurrent sessions stream one pre-encoded feed
  // through one runtime, once at size-1 flushes and once with batches of up
  // to 32, at identical stage parallelism and flusher count — the only
  // delta is the batch. Sweeping N exposes where size-1 serving saturates
  // the cloud tier while batches keep amortizing, and the dbs must stay
  // bit-identical across both legs (the batching contract).
  constexpr int kW = 64, kH = 48;
  constexpr std::size_t kFrames = 48;
  synth::SceneConfig cfg;
  cfg.width = kW;
  cfg.height = kH;
  cfg.num_frames = kFrames;
  cfg.seed = kSeed + 71;
  cfg.object_scale = 0.3;
  cfg.mean_gap_seconds = 0.6;
  cfg.min_gap_seconds = 0.3;
  cfg.mean_dwell_seconds = 0.8;
  cfg.min_dwell_seconds = 0.4;
  cfg.noise_sigma = 2.0;
  cfg.jitter_px = 1;
  const auto scene = synth::GenerateScene(cfg);

  nn::ClassifierParams cp;
  cp.input_size = 48;
  cp.embedding_dim = 16;
  nn::FrameClassifier classifier(cp);
  if (!classifier.Fit(scene.video.frames, scene.truth, 4).ok()) {
    ReportScenarioFailure("fleet_scale", "classifier fit failed");
    return {};
  }
  // GOP 2: one cloud inference (WAN still) every 2nd frame, so the cloud
  // tier dominates the run. Encode once; every session replays the same
  // wire bytes, so the push side is cheap and the cloud is the contended
  // resource.
  auto encoded = codec::VideoEncoder(codec::EncoderParams::Semantic(2, 120))
                     .Encode(scene.video);
  if (!encoded.ok()) {
    ReportScenarioFailure("fleet_scale", "encode failed");
    return {};
  }
  const std::span<const std::uint8_t> bytes(encoded->bytes);

  struct Leg {
    bool ok = false;
    double fps = 0;
    double p99_ms = 0;
    runtime::RuntimeHealth health;
    std::vector<std::map<std::size_t, std::uint32_t>> dbs;  ///< per camera
  };
  const auto run_leg = [&](std::size_t n, bool batched) -> Leg {
    runtime::RuntimeConfig rc;
    rc.nn_input_size = 48;
    rc.wan_parallelism = 2;
    rc.cloud_nn_parallelism = 2;
    if (batched) rc.cloud_batch_max = 32;
    runtime::Runtime rt(rc, &classifier);
    std::vector<std::unique_ptr<runtime::SieveSession>> sessions;
    for (std::size_t cam = 0; cam < n; ++cam) {
      runtime::SessionConfig sc;
      sc.width = kW;
      sc.height = kH;
      sc.encoder = codec::EncoderParams::Semantic(2, 120);
      auto session = rt.OpenSession("fleet-" + std::to_string(cam), sc);
      if (!session.ok()) {
        ReportScenarioFailure("fleet_scale", "OpenSession failed");
        return {};
      }
      sessions.push_back(std::move(*session));
    }
    Leg leg;
    Stopwatch watch;
    std::vector<std::thread> feeds;
    feeds.reserve(n);
    for (auto& session : sessions) {
      feeds.emplace_back([&session, bytes, &encoded] {
        for (const auto& record : encoded->records) {
          if (!session
                   ->PushEncoded(record.type, record.index,
                                 bytes.subspan(record.payload_offset -
                                                   codec::FrameRecord::kHeaderSize,
                                               codec::FrameRecord::kHeaderSize +
                                                   record.payload_size))
                   .ok()) {
            return;
          }
        }
      });
    }
    for (auto& t : feeds) t.join();
    std::size_t frames = 0;
    for (auto& session : sessions) {
      const runtime::SessionReport report = session->Drain();
      frames += report.frames_pushed;
      leg.p99_ms = std::max(leg.p99_ms, report.latency_p99_ms);
      std::map<std::size_t, std::uint32_t> rows;
      for (const auto& [frame, labels] : session->db().rows()) {
        rows.emplace(frame, labels.bits());
      }
      leg.dbs.push_back(std::move(rows));
    }
    const double seconds = watch.ElapsedSeconds();
    leg.fps = seconds > 0 ? double(frames) / seconds : 0.0;
    leg.health = rt.health();
    (void)rt.Shutdown();
    leg.ok = frames == n * kFrames;
    return leg;
  };

  // Best-of-N *interleaved* repetitions per leg: one-core CI containers
  // jitter ~5-10% run to run, which would swamp the batching delta measured
  // from a single pass, and the jitter is time-correlated (throttling
  // phases), so back-to-back same-leg reps share the bias. Alternating
  // unbatched/batched inside each rep and keeping each leg's fastest pass
  // gives both legs the same shot at a quiet window.
  constexpr int kReps = 3;
  FleetScaleResult out;
  for (const std::size_t n : {std::size_t(8), std::size_t(32),
                              std::size_t(64)}) {
    Leg unbatched, batched;
    for (int rep = 0; rep < kReps; ++rep) {
      Leg u = run_leg(n, false);
      Leg b = run_leg(n, true);
      if (!u.ok || !b.ok) {
        ReportScenarioFailure("fleet_scale", "a leg lost frames");
        return out;
      }
      if (!unbatched.ok || u.fps > unbatched.fps) unbatched = std::move(u);
      if (!batched.ok || b.fps > batched.fps) batched = std::move(b);
    }
    FleetScaleRow row;
    row.sessions = n;
    row.frames_total = n * kFrames;
    row.unbatched_fps = unbatched.fps;
    row.batched_fps = batched.fps;
    row.unbatched_p99_ms = unbatched.p99_ms;
    row.batched_p99_ms = batched.p99_ms;
    row.occupancy_avg = batched.health.cloud_batch_occupancy_avg;
    row.batches = batched.health.cloud_batches;
    row.bit_identical = unbatched.dbs == batched.dbs;
    out.bit_identical = out.bit_identical && row.bit_identical;
    out.speedup_at_max = Ratio(row.batched_fps, row.unbatched_fps);
    out.batched_fps_at_max = row.batched_fps;
    out.batched_p99_at_max_ms = row.batched_p99_ms;
    out.rows.push_back(row);
  }
  return out;
}

// -------------------------------------------------------- int8 inference --

struct Int8InferenceRow {
  /// Median lap of the full backbone forward, deployed size.
  double fp32_forward_ms = 0;
  double int8_forward_ms = 0;
  double speedup = 0;           ///< fp32_ms / int8_ms, same process
  std::size_t frames = 0;       ///< agreement sample size
  std::size_t decidable = 0;    ///< frames with fp32 margin > noise floor
  double agreement_raw = 0;     ///< fp32 == int8 label bits, all frames
  double agreement_decidable = 0;  ///< same, decidable frames only
  double worst_flip_margin = 0; ///< largest fp32 margin among flipped frames
  bool agreement_ok = false;    ///< the int8 quantization contract held
  /// Some int8 embedding differs from its fp32 one: the quantized path ran.
  /// A silent fp32 fallback makes every embedding identical.
  bool quantized = false;
};

Int8InferenceRow BenchInt8Inference() {
  // The quantization trade in one row: per-frame latency of the deployed
  // backbone at fp32 vs int8 (same process, same input — the speedup the
  // planner banks when a session opens at kInt8), plus the end-to-end
  // agreement contract from docs/perf.md: decidable frames (fp32 prediction
  // margin above the int8 noise floor) must agree >= 99%, any flip must sit
  // below the floor, and the raw all-frames number stays >= 90%.
  constexpr double kNoiseFloor = 0.02;  // ~2x the int8 relative embedding error
  synth::SceneConfig cfg;
  cfg.width = 160;
  cfg.height = 120;
  cfg.num_frames = 300;
  cfg.seed = kSeed + 21;
  cfg.classes = {synth::ObjectClass::kCar, synth::ObjectClass::kPerson};
  cfg.mean_gap_seconds = 1.2;
  cfg.min_gap_seconds = 0.5;
  cfg.mean_dwell_seconds = 2.0;
  cfg.min_dwell_seconds = 1.0;
  cfg.noise_sigma = 1.0;
  const auto scene = synth::GenerateScene(cfg);

  // Deployed-size model: the agreement gate and the latency numbers are
  // properties of the production configuration, not a shrunken test net.
  nn::FrameClassifier classifier;
  if (!classifier.Fit(scene.video.frames, scene.truth, 4).ok()) {
    ReportScenarioFailure("int8_inference", "classifier fit failed");
    return {};
  }

  Int8InferenceRow row;
  const nn::Network& net = classifier.network();
  const nn::Tensor input = classifier.InputTensor(scene.video.frames.front());
  (void)net.Forward(input, nn::Precision::kFp32);  // warm-up: scratch buffers
  (void)net.Forward(input, nn::Precision::kInt8);
  // Interleaved laps (fp32, int8, fp32, ...) so a burst of CPU steal or a
  // frequency change lands on both precisions alike, and the median lap of
  // each so one disturbed lap cannot move the ratio.
  const int laps = 20;
  std::vector<double> fp32_ms, int8_ms;
  for (int i = 0; i < laps; ++i) {
    Stopwatch watch;
    (void)net.Forward(input, nn::Precision::kFp32);
    fp32_ms.push_back(watch.ElapsedSeconds() * 1e3);
    watch.Start();
    (void)net.Forward(input, nn::Precision::kInt8);
    int8_ms.push_back(watch.ElapsedSeconds() * 1e3);
  }
  row.fp32_forward_ms = Median(fp32_ms);
  row.int8_forward_ms = Median(int8_ms);
  row.speedup = Ratio(row.fp32_forward_ms, row.int8_forward_ms);

  std::size_t agree = 0, decidable_agree = 0;
  bool flips_below_floor = true;
  for (const auto& frame : scene.video.frames) {
    const std::vector<float> embedding =
        classifier.Embed(frame, nn::Precision::kFp32);
    const std::vector<float> int8_embedding =
        classifier.Embed(frame, nn::Precision::kInt8);
    row.quantized = row.quantized || int8_embedding != embedding;
    const auto fp32 = classifier.PredictFromEmbedding(embedding);
    const auto int8 = classifier.PredictFromEmbedding(int8_embedding);
    if (!fp32.ok() || !int8.ok()) {
      ReportScenarioFailure("int8_inference", "prediction failed");
      return row;
    }
    const double margin = classifier.PredictionMargin(embedding);
    const bool same = fp32->bits() == int8->bits();
    ++row.frames;
    if (same) ++agree;
    if (margin > kNoiseFloor) {
      ++row.decidable;
      if (same) ++decidable_agree;
    }
    if (!same) {
      row.worst_flip_margin = std::max(row.worst_flip_margin, margin);
      flips_below_floor = flips_below_floor && margin <= kNoiseFloor;
    }
  }
  row.agreement_raw = Ratio(double(agree), double(row.frames));
  row.agreement_decidable =
      Ratio(double(decidable_agree), double(row.decidable));
  row.agreement_ok = row.decidable > 0 && flips_below_floor &&
                     row.agreement_decidable >= 0.99 &&
                     row.agreement_raw >= 0.9;
  if (!row.agreement_ok) {
    ReportScenarioFailure("int8_inference",
                          "int8/fp32 agreement contract violated");
  }
  if (!row.quantized) {
    ReportScenarioFailure("int8_inference",
                          "int8 embeddings equal fp32: no quantized pass ran");
  }
  return row;
}

// ------------------------------------------------------ pipelined encode --

struct PipelinedEncodeRow {
  std::size_t frames = 0;
  double parallel_fps = 0;   ///< pass-1 parallel, pipelining off
  double pipelined_fps = 0;  ///< + frame-level pipelining (entropy overlap)
  double speedup = 0;
  bool bit_identical = false;  ///< both legs byte-equal (hard gate)
  bool multicore = false;  ///< >= 2 hardware threads: the speedup gate arms
};

PipelinedEncodeRow BenchPipelinedEncode(int parallel_threads) {
  // The frame-level pipelining dividend, isolated: the same busy feed as
  // the encode scenario, parallel pass 1 in both legs, and the ONLY delta
  // is params.pipeline — frame N's serial entropy sweep overlapping frame
  // N+1's pass 1. Bitstreams must stay byte-identical; the speedup is the
  // entropy fraction bought back (>= 1.2x on multi-core hardware, ~1.0x on
  // one core where there is nothing to overlap with).
  synth::SceneConfig cfg;
  cfg.width = 320;
  cfg.height = 240;
  cfg.num_frames = 96;
  cfg.seed = kSeed;
  cfg.object_scale = 0.28;
  cfg.allow_concurrent = true;
  cfg.mean_gap_seconds = 1.0;
  cfg.min_gap_seconds = 0.3;
  cfg.mean_dwell_seconds = 2.0;
  cfg.min_dwell_seconds = 0.8;
  cfg.noise_sigma = 2.0;
  cfg.jitter_px = 2;
  const auto scene = synth::GenerateScene(cfg);

  auto run = [&](bool pipeline) {
    codec::EncoderParams params = codec::EncoderParams::DefaultEncoding();
    params.threads = parallel_threads;
    params.pipeline = pipeline;
    Stopwatch watch;
    auto encoded = codec::VideoEncoder(params).Encode(scene.video);
    const double seconds = watch.ElapsedSeconds();
    return std::pair(std::move(encoded), seconds);
  };

  PipelinedEncodeRow row;
  row.frames = scene.video.frames.size();
  row.multicore = std::thread::hardware_concurrency() >= 2;

  // Best-of-N interleaved reps: each leg runs ~0.2s post-SIMD, so one-off
  // scheduler noise would swamp the overlap delta; alternating legs gives
  // both the same shot at a quiet window (same rationale as fleet_scale).
  constexpr int kReps = 3;
  double plain_s = 0, piped_s = 0;
  std::vector<std::uint8_t> plain_bytes, piped_bytes;
  for (int rep = 0; rep < kReps; ++rep) {
    auto [plain, s0] = run(false);
    auto [piped, s1] = run(true);
    if (!plain.ok() || !piped.ok()) {
      ReportScenarioFailure("pipelined_encode", "encode failed");
      return row;
    }
    if (rep == 0) {
      plain_bytes = std::move(plain->bytes);
      piped_bytes = std::move(piped->bytes);
    }
    if (plain_s == 0 || s0 < plain_s) plain_s = s0;
    if (piped_s == 0 || s1 < piped_s) piped_s = s1;
  }
  row.parallel_fps = Ratio(double(row.frames), plain_s);
  row.pipelined_fps = Ratio(double(row.frames), piped_s);
  row.speedup = Ratio(row.pipelined_fps, row.parallel_fps);
  row.bit_identical = plain_bytes == piped_bytes;
  if (!row.bit_identical) {
    ReportScenarioFailure("pipelined_encode",
                          "pipelined bitstream differs from non-pipelined");
  }
  return row;
}

// ----------------------------------------------------------- trace overhead --

struct TraceOverheadRow {
  std::size_t frames = 0;      ///< frames served per leg (both sessions)
  double untraced_s = 0;       ///< best leg CPU time, recorder off
  double traced_s = 0;         ///< best leg CPU time, recorder on
  double overhead_pct = 0;     ///< (traced/untraced - 1) * 100, CPU time
  std::uint64_t events = 0;    ///< events the traced leg recorded
  std::uint64_t dropped_events = 0;  ///< ring-wraparound overwrites (want 0)
  bool bit_identical = false;  ///< bitstream + every camera's db equal
};

TraceOverheadRow BenchTraceOverhead(int parallel_threads,
                                    const std::string& trace_path) {
  // The observability contract, measured: one identical workload — a
  // parallel pipelined encode plus two camera sessions served through 5%
  // WAN loss into the batched cloud tier — runs with the trace recorder off
  // and on, and the deltas must be (a) nothing in the output (bitstream and
  // per-camera dbs byte-identical, hard failure here) and (b) under 2% in
  // wall time (gated in tools/check_bench.py). Legs are interleaved
  // best-of-N like fleet_scale so scheduler noise hits both equally. The
  // traced leg is a chaos leg on purpose: its Chrome trace (written to
  // trace_path when given) shows per-frame encode passes, WAN retries,
  // batcher residency, and db inserts — the artifact CI uploads.
  // The encode part uses the pipelined_encode busy feed (320x240): the leg
  // has to run long enough (~0.25s+) that the recorder's one-time costs —
  // each fresh thread's first event allocates its ring — amortize below the
  // per-event noise floor; a 60ms leg would report ring setup as "overhead".
  synth::SceneConfig enc_cfg;
  enc_cfg.width = 320;
  enc_cfg.height = 240;
  enc_cfg.num_frames = 192;
  enc_cfg.seed = kSeed;
  enc_cfg.object_scale = 0.28;
  enc_cfg.allow_concurrent = true;
  enc_cfg.mean_gap_seconds = 1.0;
  enc_cfg.min_gap_seconds = 0.3;
  enc_cfg.mean_dwell_seconds = 2.0;
  enc_cfg.min_dwell_seconds = 0.8;
  enc_cfg.noise_sigma = 2.0;
  enc_cfg.jitter_px = 2;
  const auto enc_scene = synth::GenerateScene(enc_cfg);

  constexpr int kW = 64, kH = 48;
  constexpr std::size_t kFrames = 96;
  synth::SceneConfig cfg;
  cfg.width = kW;
  cfg.height = kH;
  cfg.num_frames = kFrames;
  cfg.seed = kSeed + 83;
  cfg.object_scale = 0.3;
  cfg.mean_gap_seconds = 0.6;
  cfg.min_gap_seconds = 0.3;
  cfg.mean_dwell_seconds = 0.8;
  cfg.min_dwell_seconds = 0.4;
  cfg.noise_sigma = 2.0;
  cfg.jitter_px = 1;
  const auto scene = synth::GenerateScene(cfg);

  nn::ClassifierParams cp;
  cp.input_size = 32;
  cp.embedding_dim = 16;
  nn::FrameClassifier classifier(cp);
  if (!classifier.Fit(scene.video.frames, scene.truth, 4).ok()) {
    ReportScenarioFailure("trace_overhead", "classifier fit failed");
    return {};
  }

  struct Leg {
    bool ok = false;
    double seconds = 0;  ///< process CPU seconds, all threads summed
    std::vector<std::uint8_t> bytes;  ///< the explicit encode's bitstream
    std::vector<std::map<std::size_t, std::uint32_t>> dbs;  ///< per camera
  };
  const auto run_leg = [&](bool traced) -> Leg {
    // 4096 events/thread: the whole leg records ~1.5k events across all
    // threads, and each fresh thread's ring is allocated+zeroed inside the
    // timed region — a 16k default ring would bill ~1% of the leg to setup.
    if (traced) obs::StartTracing(4096);  // resets rings: each rep is clean
    Leg leg;
    // Recording overhead is CPU work (ring append, clock reads, the extra
    // branch), so the legs are timed in process CPU seconds — a hard 2%
    // gate on wall time is untestable on a shared box where adjacent legs
    // wobble +/-4% from scheduling alone, while CPU time charges exactly
    // the cycles the recorder burned and ignores backoff sleeps and
    // preemption. std::clock() sums every thread on POSIX, which is the
    // point: per-thread recording costs all land in the measurement.
    const std::clock_t cpu_start = std::clock();
    // Part 1: the encode hot path with every span-emitting feature on.
    codec::EncoderParams ep = codec::EncoderParams::DefaultEncoding();
    ep.threads = parallel_threads;
    ep.pipeline = true;
    auto encoded = codec::VideoEncoder(ep).Encode(enc_scene.video);
    if (!encoded.ok()) {
      ReportScenarioFailure("trace_overhead", "encode failed");
      return leg;
    }
    leg.bytes = std::move(encoded->bytes);
    // Part 2: two sessions through the chaos WAN into the batched cloud.
    runtime::RuntimeConfig rc;
    rc.nn_input_size = 32;
    rc.wan_faults.seed = kSeed + 83;
    rc.wan_faults.drop_probability = 0.05;
    rc.adaptive_placement = false;  // same plan both legs, deterministic
    rc.cloud_batch_max = 8;
    runtime::Runtime rt(rc, &classifier);
    std::vector<std::unique_ptr<runtime::SieveSession>> sessions;
    for (int cam = 0; cam < 2; ++cam) {
      runtime::SessionConfig sc;
      sc.width = kW;
      sc.height = kH;
      sc.encoder = codec::EncoderParams::Semantic(4, 120);
      auto session = rt.OpenSession("trace-" + std::to_string(cam), sc);
      if (!session.ok()) {
        ReportScenarioFailure("trace_overhead", "OpenSession failed");
        return leg;
      }
      sessions.push_back(std::move(*session));
    }
    std::vector<std::thread> feeds;
    for (auto& session : sessions) {
      feeds.emplace_back([&session, &scene] {
        for (const auto& frame : scene.video.frames) {
          if (!session->PushFrame(frame).ok()) return;
        }
      });
    }
    for (auto& t : feeds) t.join();
    std::size_t frames = 0;
    for (auto& session : sessions) {
      const runtime::SessionReport report = session->Drain();
      frames += report.frames_pushed;
      std::map<std::size_t, std::uint32_t> rows;
      for (const auto& [frame, labels] : session->db().rows()) {
        rows.emplace(frame, labels.bits());
      }
      leg.dbs.push_back(std::move(rows));
    }
    (void)rt.Shutdown();
    leg.seconds = double(std::clock() - cpu_start) / CLOCKS_PER_SEC;
    if (traced) obs::StopTracing();
    leg.ok = frames == 2 * kFrames;
    return leg;
  };

  // The gate on this number is a hard 2% absolute in check_bench.py. Each
  // rep's off/on legs run back to back and yield one paired CPU-time
  // ratio; the overhead is the MEDIAN paired ratio, robust to a single rep
  // landing on a busy phase (CPU time is already far quieter than wall,
  // but one-core containers still steal the occasional timeslice). The
  // within-pair order flips every rep so a drifting box biases neither leg
  // (even rep count: both orders run equally often, and the median of six
  // ratios averages the middle two — one from each order on a quiet box).
  constexpr int kReps = 6;
  TraceOverheadRow row;
  row.frames = 2 * kFrames;
  Leg untraced, traced;
  std::vector<double> ratios;
  for (int rep = 0; rep < kReps; ++rep) {
    const bool on_first = rep % 2 != 0;
    Leg first = run_leg(on_first);
    Leg second = run_leg(!on_first);
    Leg& off = on_first ? second : first;
    Leg& on = on_first ? first : second;
    if (!off.ok || !on.ok) {
      ReportScenarioFailure("trace_overhead", "a leg lost frames");
      return row;
    }
    ratios.push_back(Ratio(on.seconds, off.seconds));
    if (!untraced.ok || off.seconds < untraced.seconds)
      untraced = std::move(off);
    if (!traced.ok || on.seconds < traced.seconds) traced = std::move(on);
  }
  row.untraced_s = untraced.seconds;
  row.traced_s = traced.seconds;
  row.overhead_pct = (Median(ratios) - 1.0) * 100.0;
  row.bit_identical =
      untraced.bytes == traced.bytes && untraced.dbs == traced.dbs;
  if (!row.bit_identical) {
    ReportScenarioFailure("trace_overhead",
                          "tracing changed the bitstream or a db");
  }
  // The last traced rep's rings are still snapshot-able (StopTracing keeps
  // them until the next StartTracing): count events to prove the recorder
  // actually ran — a silently-disabled recorder would ace the 2% gate.
  for (const auto& thread : obs::SnapshotTrace()) {
    row.events += thread.events.size();
    row.dropped_events += thread.dropped;
  }
  if (row.events == 0) {
    ReportScenarioFailure("trace_overhead", "traced leg recorded no events");
  }
  if (!trace_path.empty()) {
    if (const auto s = obs::WriteChromeTrace(trace_path); !s.ok()) {
      ReportScenarioFailure("trace_overhead", "could not write Chrome trace");
    } else {
      std::printf("trace_overhead: Chrome trace written to %s\n",
                  trace_path.c_str());
    }
  }
  return row;
}

// ------------------------------------------------------------ durability --

struct DurabilityRow {
  // Journal ingest overhead: identical camera sessions served through the
  // runtime with the results store on vs off, paired interleaved CPU-time
  // legs, median ratio (gated < 5%).
  std::size_t ingest_rows = 0;  ///< frames pushed through the sessions
  double journal_off_s = 0;
  double journal_on_s = 0;
  double journal_overhead_pct = 0;
  // Boot-time recovery of a 100k-record journal: RecoverStore + replay
  // into a live QueryService, wall time.
  std::size_t recovery_records = 0;
  double recovery_s = 0;
  double recovery_records_per_s = 0;
  bool recovered_identical = false;  ///< replay == live-run snapshot
  // Snapshot-publication cost vs history depth: per-insert Publish with
  // ~1k intervals behind the camera vs ~100k (gated flat, < 3x — the
  // pre-sharding index was ~100x here).
  std::size_t publish_history = 0;
  double publish_small_us = 0;
  double publish_large_us = 0;
  double publish_flat_ratio = 0;
};

/// Deterministic ingest label stream: a few-frame cadence over two classes
/// so intervals keep opening and closing on the incremental publish path.
std::uint8_t DurabilityBits(std::size_t i) {
  switch (i % 6) {
    case 0:
    case 1:
      return 0x01;  // car
    case 2:
      return 0x03;  // car+bus
    case 3:
      return 0x02;  // bus
    default:
      return 0x00;  // empty
  }
}

DurabilityRow BenchDurability() {
  namespace fs = std::filesystem;
  DurabilityRow row;
  const std::string scratch =
      (fs::temp_directory_path() / "sieve_bench_durability").string();
  std::error_code ec;
  fs::remove_all(scratch, ec);
  fs::create_directories(scratch, ec);
  if (ec) {
    ReportScenarioFailure("durability", "cannot create scratch dir");
    return row;
  }

  // Part 1 — journal ingest overhead, measured where it matters: the
  // runtime's session ingest path. Two identical camera sessions stream a
  // scene through encode + classify + store, once with the results store
  // off (the pre-durability configuration) and once journaling every insert
  // at the default group-commit cadence into a fresh store dir. Timed in
  // process CPU seconds like trace_overhead (group commit makes device
  // waits rare; the recurring cost is CPU — framing, CRC32, buffered
  // fwrite). Legs are paired and order-flipped per rep; the gate takes the
  // median ratio.
  constexpr int kW = 64, kH = 48;
  constexpr std::size_t kFrames = 96;
  synth::SceneConfig cfg;
  cfg.width = kW;
  cfg.height = kH;
  cfg.num_frames = kFrames;
  cfg.seed = kSeed + 101;
  cfg.object_scale = 0.3;
  cfg.mean_gap_seconds = 0.6;
  cfg.min_gap_seconds = 0.3;
  cfg.mean_dwell_seconds = 0.8;
  cfg.min_dwell_seconds = 0.4;
  cfg.noise_sigma = 2.0;
  cfg.jitter_px = 1;
  const auto scene = synth::GenerateScene(cfg);
  nn::ClassifierParams cp;
  cp.input_size = 32;
  cp.embedding_dim = 16;
  nn::FrameClassifier classifier(cp);
  if (!classifier.Fit(scene.video.frames, scene.truth, 4).ok()) {
    ReportScenarioFailure("durability", "classifier fit failed");
    return row;
  }
  // Each session pushes the scene several times over: a leg has to run
  // ~0.2s+ of CPU for the paired ratio to resolve a 5% gate above
  // scheduler noise (same reasoning as trace_overhead's leg length).
  constexpr std::size_t kPasses = 8;
  row.ingest_rows = 2 * kPasses * kFrames;
  int leg_serial = 0;
  const auto ingest_leg = [&](bool journaled) -> double {
    runtime::RuntimeConfig rc;
    rc.nn_input_size = 32;
    rc.adaptive_placement = false;  // same plan both legs, deterministic
    if (journaled) {
      // A fresh dir per leg: reusing one would turn the second leg into a
      // reconnect/resume run, a different code path.
      rc.store.dir = scratch + "/ingest" + std::to_string(leg_serial++);
    }
    const std::clock_t cpu_start = std::clock();
    runtime::Runtime rt(rc, &classifier);
    std::vector<std::unique_ptr<runtime::SieveSession>> sessions;
    for (int cam = 0; cam < 2; ++cam) {
      runtime::SessionConfig sc;
      sc.width = kW;
      sc.height = kH;
      auto session = rt.OpenSession("dur-" + std::to_string(cam), sc);
      if (!session.ok()) {
        ReportScenarioFailure("durability", "OpenSession failed");
        return -1.0;
      }
      sessions.push_back(std::move(*session));
    }
    std::size_t frames = 0;
    for (auto& session : sessions) {
      for (std::size_t pass = 0; pass < kPasses; ++pass) {
        for (const auto& frame : scene.video.frames) {
          if (!session->PushFrame(frame).ok()) break;
        }
      }
      frames += session->Drain().frames_pushed;
    }
    (void)rt.Shutdown();
    const double s = double(std::clock() - cpu_start) / CLOCKS_PER_SEC;
    if (frames != 2 * kPasses * kFrames) {
      ReportScenarioFailure("durability", "an ingest leg lost frames");
      return -1.0;
    }
    return s;
  };

  constexpr int kReps = 6;
  {
    std::vector<double> ratios;
    for (int rep = 0; rep < kReps; ++rep) {
      const bool on_first = rep % 2 != 0;
      const double first = ingest_leg(on_first);
      const double second = ingest_leg(!on_first);
      if (first < 0 || second < 0) return row;
      const double off = on_first ? second : first;
      const double on = on_first ? first : second;
      ratios.push_back(Ratio(on, off));
      if (row.journal_off_s == 0 || off < row.journal_off_s)
        row.journal_off_s = off;
      if (row.journal_on_s == 0 || on < row.journal_on_s)
        row.journal_on_s = on;
    }
    row.journal_overhead_pct = (Median(ratios) - 1.0) * 100.0;
  }

  // Part 2 — 100k-record boot recovery. Write a sealed 100k-insert journal,
  // then time the full boot path: RecoverStore (scan + repair) plus replay
  // into a fresh QueryService through a ResultsDatabase observer — exactly
  // what Runtime does before accepting sessions. Identity check: the
  // recovered snapshot must match a live run of the same stream.
  constexpr std::size_t kRecoveryRows = 100'000;
  const std::string rec_dir = scratch + "/recover";
  fs::create_directories(rec_dir, ec);
  {
    auto writer = store::JournalWriter::Open(
        rec_dir + "/" + store::JournalFileName("deep#1"), store::FsyncPolicy{});
    if (!writer.ok()) {
      ReportScenarioFailure("durability", "recovery journal open failed");
      return row;
    }
    bool ok = (*writer)->AppendRegister("deep#1", "deep", 4.0, 30.0).ok();
    for (std::size_t i = 0; ok && i < kRecoveryRows; ++i) {
      ok = (*writer)->AppendInsert(std::uint64_t(i), DurabilityBits(i)).ok();
    }
    ok = ok && (*writer)->AppendSeal(kRecoveryRows).ok() &&
         (*writer)->Close().ok();
    if (!ok) {
      ReportScenarioFailure("durability", "recovery journal write failed");
      return row;
    }
  }
  // The live-run reference the replay must reproduce.
  query::QueryService live_ref;
  {
    live_ref.RegisterCamera("deep#1", "deep", query::CameraClock{4.0, 30.0});
    core::ResultsDatabase db;
    db.set_observer([&live_ref](const core::ResultsDatabase& d,
                                std::size_t frame,
                                const synth::LabelSet& labels) {
      live_ref.Publish("deep#1", d, frame, labels);
    });
    for (std::size_t i = 0; i < kRecoveryRows; ++i) {
      db.Insert(i, synth::LabelSet(DurabilityBits(i)));
    }
    live_ref.Seal("deep#1", kRecoveryRows);
  }
  query::QueryService recovered;
  {
    Stopwatch timer;
    auto report = store::RecoverStore(rec_dir);
    if (!report.ok()) {
      ReportScenarioFailure("durability", "RecoverStore failed");
      return row;
    }
    for (const auto& cam : report->cameras) {
      recovered.RegisterCamera(
          cam.route, cam.camera_id,
          query::CameraClock{cam.open_seconds, cam.fps});
      core::ResultsDatabase db;
      db.set_observer([&recovered, &cam](const core::ResultsDatabase& d,
                                         std::size_t frame,
                                         const synth::LabelSet& labels) {
        recovered.Publish(cam.route, d, frame, labels);
      });
      for (const auto& ins : cam.inserts) {
        db.Insert(std::size_t(ins.frame), synth::LabelSet(ins.label_bits));
      }
      if (cam.sealed) recovered.Seal(cam.route, std::size_t(cam.total_frames));
    }
    row.recovery_s = timer.ElapsedSeconds();
    row.recovery_records = report->records;
  }
  row.recovery_records_per_s =
      row.recovery_s > 0 ? double(row.recovery_records) / row.recovery_s : 0;
  {
    const auto want = live_ref.snapshot();
    const auto got = recovered.snapshot();
    row.recovered_identical = want->cameras.size() == got->cameras.size();
    for (const auto& [route, ref] : want->cameras) {
      const auto it = got->cameras.find(route);
      if (it == got->cameras.end()) {
        row.recovered_identical = false;
        break;
      }
      const auto& rec = *it->second;
      row.recovered_identical =
          row.recovered_identical && rec.sealed == ref->sealed &&
          rec.total_frames == ref->total_frames &&
          rec.inserts == ref->inserts;
      for (std::size_t c = 0; c < std::size_t(synth::kNumObjectClasses); ++c) {
        row.recovered_identical =
            row.recovered_identical &&
            rec.intervals[c].Materialize() == ref->intervals[c].Materialize();
      }
    }
    if (!row.recovered_identical) {
      ReportScenarioFailure("durability",
                            "recovered snapshot differs from the live run");
    }
  }

  // Part 3 — snapshot publication vs history depth. Publish cost must not
  // grow with a camera's interval history (ROADMAP item 3): probe the
  // per-insert Publish cost against a camera with ~1k intervals behind it
  // and one with ~100k. Publishes go straight to the service (in-order, so
  // the index never touches the db); the probe continues the alternating
  // stream so every probe insert does real open/close interval work. The
  // deep camera is built once; each rep rebuilds a fresh shallow camera and
  // order-flips its probes. Ratio is the median across reps.
  constexpr std::size_t kSmallIntervals = 1'000;
  constexpr std::size_t kLargeIntervals = 100'000;
  constexpr std::size_t kProbeRows = 5'000;
  row.publish_history = kLargeIntervals;
  {
    query::QueryService service;
    const core::ResultsDatabase dummy;  // in-order publishes never read it
    const auto alternating = [](std::size_t i) {
      // Even frame opens a car interval, odd closes it: one interval per
      // two rows on exactly one chain.
      return synth::LabelSet(i % 2 == 0 ? 0x01 : 0x00);
    };
    const auto build = [&](const std::string& route, std::size_t intervals) {
      service.RegisterCamera(route, "probe", query::CameraClock{0.0, 30.0});
      for (std::size_t i = 0; i < 2 * intervals; ++i) {
        service.Publish(route, dummy, i, alternating(i));
      }
      return 2 * intervals;  // the next frame id
    };
    std::size_t deep_next = build("deep#probe", kLargeIntervals);
    const auto probe = [&](const std::string& route,
                           std::size_t& next) -> double {
      const std::clock_t cpu_start = std::clock();
      for (std::size_t i = 0; i < kProbeRows; ++i) {
        service.Publish(route, dummy, next, alternating(next));
        ++next;
      }
      const double s = double(std::clock() - cpu_start) / CLOCKS_PER_SEC;
      return s * 1e6 / double(kProbeRows);
    };
    std::vector<double> ratios;
    for (int rep = 0; rep < kReps; ++rep) {
      const std::string small_route = "small#" + std::to_string(rep);
      std::size_t small_next = build(small_route, kSmallIntervals);
      double small_us, large_us;
      if (rep % 2 != 0) {
        large_us = probe("deep#probe", deep_next);
        small_us = probe(small_route, small_next);
      } else {
        small_us = probe(small_route, small_next);
        large_us = probe("deep#probe", deep_next);
      }
      ratios.push_back(Ratio(large_us, small_us));
      if (row.publish_small_us == 0 || small_us < row.publish_small_us)
        row.publish_small_us = small_us;
      if (row.publish_large_us == 0 || large_us < row.publish_large_us)
        row.publish_large_us = large_us;
    }
    std::sort(ratios.begin(), ratios.end());
    const std::size_t mid = ratios.size() / 2;
    row.publish_flat_ratio = ratios.size() % 2 != 0
                                 ? ratios[mid]
                                 : (ratios[mid - 1] + ratios[mid]) / 2.0;
  }

  fs::remove_all(scratch, ec);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  // Usage: perf_hotpaths [out.json] [parallel_threads] [scenarios] [trace.json]
  // parallel_threads overrides the thread count of the parallel encode leg
  // (default 0 = one per hardware thread). scenarios is a comma-separated
  // filter (default: run everything). trace.json, when given, receives the
  // trace_overhead scenario's Chrome trace.
  const char* out_path = argc > 1 ? argv[1] : "BENCH_hotpaths.json";
  const int parallel_threads = argc > 2 ? std::atoi(argv[2]) : 0;
  if (argc > 3) g_scenarios = argv[3];
  const std::string trace_path = argc > 4 ? argv[4] : "";
  if (!ValidateScenarios(g_scenarios)) return 2;
  const unsigned hw = std::thread::hardware_concurrency();

  std::printf("SiEVE hot-path benchmark (%u hardware threads)%s%s\n", hw,
              g_scenarios.empty() ? "" : ", scenarios: ",
              g_scenarios.c_str());

  const EncodeResult enc = Enabled("encode") ? BenchEncode(parallel_threads)
                                             : EncodeResult{};
  if (Enabled("encode")) {
    std::printf("encode:   reference %.1f fps | serial+prune %.1f fps (%.2fx) | "
                "parallel %.1f fps (%.2fx) | bit-identical: %s\n",
                enc.reference_fps, enc.serial_fps,
                Ratio(enc.serial_fps, enc.reference_fps), enc.parallel_fps,
                Ratio(enc.parallel_fps, enc.reference_fps),
                enc.bit_identical ? "yes" : "NO");
  }

  const MotionResultRow mot = Enabled("motion") ? BenchMotion()
                                                : MotionResultRow{};
  if (Enabled("motion")) {
    std::printf("fullsearch: reference %.2fM cand/s | pruned %.2fM cand/s "
                "(%.2fx) | identical: %s\n",
                mot.reference_cand_per_s / 1e6, mot.pruned_cand_per_s / 1e6,
                Ratio(mot.pruned_cand_per_s, mot.reference_cand_per_s),
                mot.identical ? "yes" : "NO");
  }

  const KernelBenchRow kernels = Enabled("dct_sad_kernels")
                                     ? BenchDctSadKernels()
                                     : KernelBenchRow{};
  if (Enabled("dct_sad_kernels")) {
    std::printf("dct_sad_kernels (%s): fdct %.2f -> %.2f Mblk/s (%.2fx) | "
                "idct %.2f -> %.2f Mblk/s (%.2fx) | sad16 %.0f -> %.0f "
                "Mpix/s (%.2fx) | quant %.2f -> %.2f Mblk/s (%.2fx) | "
                "identical: %s\n",
                kernels.active_arch, kernels.fdct_scalar_mblocks_s,
                kernels.fdct_simd_mblocks_s, kernels.fdct_speedup,
                kernels.idct_scalar_mblocks_s, kernels.idct_simd_mblocks_s,
                kernels.idct_speedup, kernels.sad_scalar_mpix_s,
                kernels.sad_simd_mpix_s, kernels.sad_speedup,
                kernels.quant_scalar_mblocks_s, kernels.quant_simd_mblocks_s,
                kernels.quant_speedup, kernels.identical ? "yes" : "NO");
    for (const auto& col : kernels.arches) {
      std::printf("  %-6s fdct %.2f Mblk/s (%.2fx) | idct %.2f Mblk/s "
                  "(%.2fx) | sad16 %.0f Mpix/s (%.2fx) | quant %.2f Mblk/s "
                  "(%.2fx) | identical: %s\n",
                  col.arch, col.fdct_mblocks_s, col.fdct_speedup,
                  col.idct_mblocks_s, col.idct_speedup, col.sad_mpix_s,
                  col.sad_speedup, col.quant_mblocks_s, col.quant_speedup,
                  col.identical ? "yes" : "NO");
    }
  }

  const GemmRow gemm = Enabled("gemm") ? BenchGemm() : GemmRow{};
  if (Enabled("gemm")) {
    std::printf("gemm 1024x288x64: naive %.2f GFLOP/s | blocked %.2f GFLOP/s "
                "(%.2fx) | identical: %s\n",
                gemm.naive_gflops, gemm.blocked_gflops,
                Ratio(gemm.blocked_gflops, gemm.naive_gflops),
                gemm.identical ? "yes" : "NO");
    for (const auto& col : gemm.arches) {
      std::printf("  %-6s %.2f GFLOP/s | identical: %s\n", col.arch,
                  col.gflops, col.identical ? "yes" : "NO");
    }
  }

  const ConvRow conv = Enabled("conv") ? BenchConvForward() : ConvRow{};
  if (Enabled("conv")) {
    std::printf("backbone forward (3x96x96): %.2f ms (%.2f GFLOP/s)\n",
                conv.forward_ms, conv.gflops);
    for (const auto& layer : conv.layers) {
      std::printf("  %-20s fp32 %.3f ms | int8 %.3f ms\n", layer.name.c_str(),
                  layer.fp32_ms, layer.int8_ms);
    }
  }

  const MultiSessionResult multi =
      Enabled("multi_session") ? BenchMultiSession() : MultiSessionResult{};
  if (Enabled("multi_session")) {
    std::printf("multi_session: %zu cameras, %zu frames, aggregate %.1f fps\n",
                multi.sessions, multi.frames_total, multi.aggregate_fps);
    for (const auto& stage : multi.stages) {
      std::printf("  stage %-20s in %-5zu out %-5zu busy %.3fs\n",
                  stage.name.c_str(), stage.in, stage.out, stage.busy_seconds);
    }
  }

  const NnPlacementResult placement =
      Enabled("nn_placement") ? BenchNnPlacement() : NnPlacementResult{};
  if (Enabled("nn_placement")) {
    std::printf("nn_placement (%zu layers):\n", placement.layer_count);
    for (const auto& row : placement.rows) {
      std::printf("  %-6s split %zu/%zu | %zu frames (%zu I) | %.3fs "
                  "(%.2f ms/frame, predicted %.2f ms) | WAN %llu bytes\n",
                  row.mode, row.split, placement.layer_count, row.frames,
                  row.iframes, row.wall_seconds, row.latency_ms_per_frame,
                  row.predicted_total_ms,
                  static_cast<unsigned long long>(row.wan_bytes));
    }
  }

  const LiveQueryResult live =
      Enabled("live_query") ? BenchLiveQuery() : LiveQueryResult{};
  if (Enabled("live_query")) {
    std::printf("live_query: %zu cameras | %zu queries while streaming "
                "(avg %.1f us, p99 %.1f us, max %.1f us) | %llu index updates "
                "(%.1f/s) | %zu events, %zu final hits\n",
                live.sessions, live.queries, live.avg_query_micros,
                live.p99_query_micros, live.max_query_micros,
                static_cast<unsigned long long>(live.index_updates),
                live.updates_per_s, live.subscription_events,
                live.hits_final);
  }

  const WanChaosResult chaos =
      Enabled("wan_chaos") ? BenchWanChaos() : WanChaosResult{};
  if (Enabled("wan_chaos")) {
    std::printf("wan_chaos: outage leg %llu replans, %zu dropped | "
                "reconciled: %s\n",
                static_cast<unsigned long long>(chaos.outage_replans),
                chaos.outage_dropped, chaos.reconciled ? "yes" : "NO");
    for (const auto& row : chaos.rows) {
      std::printf("  loss %4.0f%% | %zu frames %.1f fps | delivered %zu "
                  "dropped %zu retries %llu | p99 %.2f ms\n",
                  row.loss * 100.0, row.frames, row.aggregate_fps,
                  row.delivered, row.dropped,
                  static_cast<unsigned long long>(row.retries),
                  row.p99_frame_ms);
    }
  }

  const FleetScaleResult fleet =
      Enabled("fleet_scale") ? BenchFleetScale() : FleetScaleResult{};
  if (Enabled("fleet_scale")) {
    std::printf("fleet_scale: bit-identical %s | speedup at largest fleet "
                "%.2fx\n",
                fleet.bit_identical ? "yes" : "NO", fleet.speedup_at_max);
    for (const auto& row : fleet.rows) {
      std::printf("  %3zu cams | unbatched %.1f fps p99 %.2f ms | batched "
                  "%.1f fps p99 %.2f ms (%.2fx) | %llu batches, occupancy "
                  "%.1f\n",
                  row.sessions, row.unbatched_fps, row.unbatched_p99_ms,
                  row.batched_fps, row.batched_p99_ms,
                  Ratio(row.batched_fps, row.unbatched_fps),
                  static_cast<unsigned long long>(row.batches),
                  row.occupancy_avg);
    }
  }

  const Int8InferenceRow int8 =
      Enabled("int8_inference") ? BenchInt8Inference() : Int8InferenceRow{};
  if (Enabled("int8_inference")) {
    std::printf("int8_inference: forward %.2f -> %.2f ms (%.2fx) | agreement "
                "raw %.1f%% decidable %.1f%% (%zu/%zu frames decidable) | "
                "worst flip margin %.4f | contract: %s | quantized: %s\n",
                int8.fp32_forward_ms, int8.int8_forward_ms, int8.speedup,
                int8.agreement_raw * 100.0, int8.agreement_decidable * 100.0,
                int8.decidable, int8.frames, int8.worst_flip_margin,
                int8.agreement_ok ? "ok" : "VIOLATED",
                int8.quantized ? "yes" : "NO");
  }

  const PipelinedEncodeRow piped = Enabled("pipelined_encode")
                                       ? BenchPipelinedEncode(parallel_threads)
                                       : PipelinedEncodeRow{};
  if (Enabled("pipelined_encode")) {
    std::printf("pipelined_encode: parallel %.1f fps | +pipeline %.1f fps "
                "(%.2fx) | bit-identical: %s%s\n",
                piped.parallel_fps, piped.pipelined_fps, piped.speedup,
                piped.bit_identical ? "yes" : "NO",
                piped.multicore ? "" : " (single core: no overlap expected)");
  }

  const TraceOverheadRow trace =
      Enabled("trace_overhead")
          ? BenchTraceOverhead(parallel_threads, trace_path)
          : TraceOverheadRow{};
  if (Enabled("trace_overhead")) {
    std::printf("trace_overhead: %.3fs off -> %.3fs on (%+.2f%%) | %llu "
                "events (%llu dropped) | bit-identical: %s\n",
                trace.untraced_s, trace.traced_s, trace.overhead_pct,
                static_cast<unsigned long long>(trace.events),
                static_cast<unsigned long long>(trace.dropped_events),
                trace.bit_identical ? "yes" : "NO");
  }

  const DurabilityRow dur =
      Enabled("durability") ? BenchDurability() : DurabilityRow{};
  if (Enabled("durability")) {
    std::printf("durability: ingest %zu frames %.3fs off -> %.3fs on (%+.2f%%) "
                "| recovery %zu records in %.3fs (%.0fk rec/s) | publish "
                "%.3f -> %.3f us/insert (%.2fx at %zux history) | recovered "
                "identical: %s\n",
                dur.ingest_rows, dur.journal_off_s, dur.journal_on_s,
                dur.journal_overhead_pct, dur.recovery_records,
                dur.recovery_s, dur.recovery_records_per_s / 1e3,
                dur.publish_small_us, dur.publish_large_us,
                dur.publish_flat_ratio, dur.publish_history,
                dur.recovered_identical ? "yes" : "NO");
  }

  std::FILE* f = std::fopen(out_path, "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"hardware_threads\": %u,\n"
               "  \"scenarios\": \"%s\",\n"
               "  \"encode\": {\n"
               "    \"frames\": %zu,\n"
               "    \"reference_fps\": %.2f,\n"
               "    \"serial_pruned_fps\": %.2f,\n"
               "    \"parallel_fps\": %.2f,\n"
               "    \"serial_speedup\": %.3f,\n"
               "    \"parallel_speedup\": %.3f,\n"
               "    \"bit_identical\": %s\n"
               "  },\n"
               "  \"full_search\": {\n"
               "    \"reference_candidates_per_s\": %.0f,\n"
               "    \"pruned_candidates_per_s\": %.0f,\n"
               "    \"speedup\": %.3f,\n"
               "    \"identical\": %s\n"
               "  },\n"
               "  \"dct_sad_kernels\": {\n"
               "    \"active_arch\": \"%s\",\n"
               "    \"simd_available\": %s,\n"
               "    \"fdct_scalar_mblocks_s\": %.3f,\n"
               "    \"fdct_simd_mblocks_s\": %.3f,\n"
               "    \"fdct_speedup\": %.3f,\n"
               "    \"idct_scalar_mblocks_s\": %.3f,\n"
               "    \"idct_simd_mblocks_s\": %.3f,\n"
               "    \"idct_speedup\": %.3f,\n"
               "    \"sad_scalar_mpix_s\": %.1f,\n"
               "    \"sad_simd_mpix_s\": %.1f,\n"
               "    \"sad_speedup\": %.3f,\n"
               "    \"quant_scalar_mblocks_s\": %.3f,\n"
               "    \"quant_simd_mblocks_s\": %.3f,\n"
               "    \"quant_speedup\": %.3f,\n"
               "    \"identical\": %s,\n"
               "    \"arches\": [",
               hw, g_scenarios.empty() ? "all" : g_scenarios.c_str(),
               enc.frames, enc.reference_fps, enc.serial_fps,
               enc.parallel_fps, Ratio(enc.serial_fps, enc.reference_fps),
               Ratio(enc.parallel_fps, enc.reference_fps),
               enc.bit_identical ? "true" : "false", mot.reference_cand_per_s,
               mot.pruned_cand_per_s,
               Ratio(mot.pruned_cand_per_s, mot.reference_cand_per_s),
               mot.identical ? "true" : "false", kernels.active_arch,
               kernels.simd_available ? "true" : "false",
               kernels.fdct_scalar_mblocks_s, kernels.fdct_simd_mblocks_s,
               kernels.fdct_speedup, kernels.idct_scalar_mblocks_s,
               kernels.idct_simd_mblocks_s, kernels.idct_speedup,
               kernels.sad_scalar_mpix_s, kernels.sad_simd_mpix_s,
               kernels.sad_speedup, kernels.quant_scalar_mblocks_s,
               kernels.quant_simd_mblocks_s, kernels.quant_speedup,
               kernels.identical ? "true" : "false");
  for (std::size_t i = 0; i < kernels.arches.size(); ++i) {
    const auto& col = kernels.arches[i];
    std::fprintf(f,
                 "%s\n      {\"arch\": \"%s\", "
                 "\"fdct_mblocks_s\": %.3f, \"fdct_speedup\": %.3f, "
                 "\"idct_mblocks_s\": %.3f, \"idct_speedup\": %.3f, "
                 "\"sad_mpix_s\": %.1f, \"sad_speedup\": %.3f, "
                 "\"quant_mblocks_s\": %.3f, \"quant_speedup\": %.3f, "
                 "\"identical\": %s}",
                 i == 0 ? "" : ",", col.arch, col.fdct_mblocks_s,
                 col.fdct_speedup, col.idct_mblocks_s, col.idct_speedup,
                 col.sad_mpix_s, col.sad_speedup, col.quant_mblocks_s,
                 col.quant_speedup, col.identical ? "true" : "false");
  }
  std::fprintf(f,
               "%s    ]\n"
               "  },\n"
               "  \"gemm_1024x288x64\": {\n"
               "    \"naive_gflops\": %.3f,\n"
               "    \"blocked_gflops\": %.3f,\n"
               "    \"speedup\": %.3f,\n"
               "    \"identical\": %s,\n"
               "    \"arches\": [",
               kernels.arches.empty() ? "" : "\n",
               gemm.naive_gflops, gemm.blocked_gflops,
               Ratio(gemm.blocked_gflops, gemm.naive_gflops),
               gemm.identical ? "true" : "false");
  for (std::size_t i = 0; i < gemm.arches.size(); ++i) {
    const auto& col = gemm.arches[i];
    std::fprintf(f, "%s\n      {\"arch\": \"%s\", \"gflops\": %.3f, "
                    "\"identical\": %s}",
                 i == 0 ? "" : ",", col.arch, col.gflops,
                 col.identical ? "true" : "false");
  }
  std::fprintf(f,
               "%s    ]\n"
               "  },\n"
               "  \"backbone_forward_3x96x96\": {\n"
               "    \"ms\": %.3f,\n"
               "    \"gflops\": %.3f,\n"
               "    \"layers\": [",
               gemm.arches.empty() ? "" : "\n", conv.forward_ms, conv.gflops);
  for (std::size_t i = 0; i < conv.layers.size(); ++i) {
    const auto& layer = conv.layers[i];
    std::fprintf(f, "%s\n      {\"name\": \"%s\", \"fp32_ms\": %.4f, "
                    "\"int8_ms\": %.4f}",
                 i == 0 ? "" : ",", layer.name.c_str(), layer.fp32_ms,
                 layer.int8_ms);
  }
  std::fprintf(f,
               "%s    ]\n"
               "  },\n"
               "  \"multi_session\": {\n"
               "    \"sessions\": %zu,\n"
               "    \"frames_total\": %zu,\n"
               "    \"aggregate_fps\": %.2f,\n"
               "    \"stages\": [",
               conv.layers.empty() ? "" : "\n", multi.sessions,
               multi.frames_total, multi.aggregate_fps);
  for (std::size_t i = 0; i < multi.stages.size(); ++i) {
    const auto& stage = multi.stages[i];
    std::fprintf(f,
                 "%s\n      {\"name\": \"%s\", \"in\": %zu, \"out\": %zu, "
                 "\"busy_seconds\": %.4f}",
                 i == 0 ? "" : ",", stage.name.c_str(), stage.in, stage.out,
                 stage.busy_seconds);
  }
  std::fprintf(f,
               "\n    ]\n"
               "  },\n"
               "  \"nn_placement\": {\n"
               "    \"layer_count\": %zu,\n"
               "    \"plans\": [",
               placement.layer_count);
  for (std::size_t i = 0; i < placement.rows.size(); ++i) {
    const auto& row = placement.rows[i];
    std::fprintf(f,
                 "%s\n      {\"mode\": \"%s\", \"split\": %zu, "
                 "\"frames\": %zu, \"iframes\": %zu, "
                 "\"wall_seconds\": %.4f, \"latency_ms_per_frame\": %.3f, "
                 "\"predicted_total_ms\": %.3f, \"wan_bytes\": %llu}",
                 i == 0 ? "" : ",", row.mode, row.split, row.frames,
                 row.iframes, row.wall_seconds, row.latency_ms_per_frame,
                 row.predicted_total_ms,
                 static_cast<unsigned long long>(row.wan_bytes));
  }
  std::fprintf(f,
               "\n    ]\n"
               "  },\n"
               "  \"live_query\": {\n"
               "    \"sessions\": %zu,\n"
               "    \"frames_total\": %zu,\n"
               "    \"queries\": %zu,\n"
               "    \"avg_query_micros\": %.3f,\n"
               "    \"p99_query_micros\": %.3f,\n"
               "    \"max_query_micros\": %.3f,\n"
               "    \"index_updates\": %llu,\n"
               "    \"updates_per_s\": %.2f,\n"
               "    \"subscription_events\": %zu,\n"
               "    \"hits_final\": %zu\n"
               "  },\n"
               "  \"wan_chaos\": {\n"
               "    \"reconciled\": %s,\n"
               "    \"outage_replans\": %llu,\n"
               "    \"outage_dropped\": %zu,\n"
               "    \"loss5_p99_frame_ms\": %.3f,\n"
               "    \"loss_sweep\": [",
               live.sessions, live.frames_total, live.queries,
               live.avg_query_micros, live.p99_query_micros,
               live.max_query_micros,
               static_cast<unsigned long long>(live.index_updates),
               live.updates_per_s, live.subscription_events,
               live.hits_final, chaos.reconciled ? "true" : "false",
               static_cast<unsigned long long>(chaos.outage_replans),
               chaos.outage_dropped,
               chaos.rows.size() > 2 ? chaos.rows[2].p99_frame_ms : 0.0);
  for (std::size_t i = 0; i < chaos.rows.size(); ++i) {
    const auto& row = chaos.rows[i];
    std::fprintf(f,
                 "%s\n      {\"loss\": %.2f, \"frames\": %zu, "
                 "\"delivered\": %zu, \"dropped\": %zu, \"retries\": %llu, "
                 "\"aggregate_fps\": %.2f, \"p99_frame_ms\": %.3f}",
                 i == 0 ? "" : ",", row.loss, row.frames, row.delivered,
                 row.dropped, static_cast<unsigned long long>(row.retries),
                 row.aggregate_fps, row.p99_frame_ms);
  }
  std::fprintf(f,
               "\n    ]\n"
               "  },\n"
               "  \"fleet_scale\": {\n"
               "    \"bit_identical\": %s,\n"
               "    \"speedup_at_max\": %.3f,\n"
               "    \"batched_fps_at_max\": %.2f,\n"
               "    \"batched_p99_at_max_ms\": %.3f,\n"
               "    \"sweep\": [",
               fleet.bit_identical ? "true" : "false", fleet.speedup_at_max,
               fleet.batched_fps_at_max, fleet.batched_p99_at_max_ms);
  for (std::size_t i = 0; i < fleet.rows.size(); ++i) {
    const auto& row = fleet.rows[i];
    std::fprintf(f,
                 "%s\n      {\"sessions\": %zu, \"frames_total\": %zu, "
                 "\"unbatched_fps\": %.2f, \"batched_fps\": %.2f, "
                 "\"speedup\": %.3f, \"unbatched_p99_ms\": %.3f, "
                 "\"batched_p99_ms\": %.3f, \"batches\": %llu, "
                 "\"occupancy_avg\": %.2f, \"bit_identical\": %s}",
                 i == 0 ? "" : ",", row.sessions, row.frames_total,
                 row.unbatched_fps, row.batched_fps,
                 Ratio(row.batched_fps, row.unbatched_fps),
                 row.unbatched_p99_ms, row.batched_p99_ms,
                 static_cast<unsigned long long>(row.batches),
                 row.occupancy_avg, row.bit_identical ? "true" : "false");
  }
  std::fprintf(f,
               "\n    ]\n"
               "  },\n"
               "  \"int8_inference\": {\n"
               "    \"fp32_forward_ms\": %.3f,\n"
               "    \"int8_forward_ms\": %.3f,\n"
               "    \"speedup\": %.3f,\n"
               "    \"frames\": %zu,\n"
               "    \"decidable_frames\": %zu,\n"
               "    \"agreement_raw\": %.4f,\n"
               "    \"agreement_decidable\": %.4f,\n"
               "    \"worst_flip_margin\": %.4f,\n"
               "    \"noise_floor\": 0.02,\n"
               "    \"agreement_ok\": %s,\n"
               "    \"quantized\": %s\n"
               "  },\n"
               "  \"pipelined_encode\": {\n"
               "    \"frames\": %zu,\n"
               "    \"parallel_fps\": %.2f,\n"
               "    \"pipelined_fps\": %.2f,\n"
               "    \"speedup\": %.3f,\n"
               "    \"multicore\": %s,\n"
               "    \"bit_identical\": %s\n"
               "  },\n"
               "  \"trace_overhead\": {\n"
               "    \"frames\": %zu,\n"
               "    \"untraced_s\": %.4f,\n"
               "    \"traced_s\": %.4f,\n"
               "    \"overhead_pct\": %.3f,\n"
               "    \"events\": %llu,\n"
               "    \"dropped_events\": %llu,\n"
               "    \"bit_identical\": %s\n"
               "  },\n"
               "  \"durability\": {\n"
               "    \"ingest_rows\": %zu,\n"
               "    \"journal_off_s\": %.4f,\n"
               "    \"journal_on_s\": %.4f,\n"
               "    \"journal_overhead_pct\": %.3f,\n"
               "    \"recovery_records\": %zu,\n"
               "    \"recovery_s\": %.4f,\n"
               "    \"recovery_records_per_s\": %.0f,\n"
               "    \"recovered_identical\": %s,\n"
               "    \"publish_history\": %zu,\n"
               "    \"publish_small_us\": %.4f,\n"
               "    \"publish_large_us\": %.4f,\n"
               "    \"publish_flat_ratio\": %.3f\n"
               "  }\n"
               "}\n",
               int8.fp32_forward_ms, int8.int8_forward_ms, int8.speedup,
               int8.frames, int8.decidable, int8.agreement_raw,
               int8.agreement_decidable, int8.worst_flip_margin,
               int8.agreement_ok ? "true" : "false",
               int8.quantized ? "true" : "false", piped.frames,
               piped.parallel_fps, piped.pipelined_fps, piped.speedup,
               piped.multicore ? "true" : "false",
               piped.bit_identical ? "true" : "false", trace.frames,
               trace.untraced_s, trace.traced_s, trace.overhead_pct,
               static_cast<unsigned long long>(trace.events),
               static_cast<unsigned long long>(trace.dropped_events),
               trace.bit_identical ? "true" : "false", dur.ingest_rows,
               dur.journal_off_s, dur.journal_on_s, dur.journal_overhead_pct,
               dur.recovery_records, dur.recovery_s,
               dur.recovery_records_per_s,
               dur.recovered_identical ? "true" : "false",
               dur.publish_history, dur.publish_small_us,
               dur.publish_large_us, dur.publish_flat_ratio);
  std::fclose(f);
  std::printf("wrote %s\n", out_path);
  if (g_scenario_failed.load(std::memory_order_relaxed)) {
    std::fprintf(stderr,
                 "one or more scenarios failed; report is partial (zeros)\n");
    return 1;
  }
  return 0;
}
