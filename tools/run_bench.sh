#!/usr/bin/env bash
# Build (Release, -O2) and run the hot-path perf harness with its fixed seed,
# writing BENCH_hotpaths.json at the repo root. Usage:
#
#   tools/run_bench.sh [--trace[=trace.json]] [build_dir] [output_json] [scenarios]
#
# `scenarios` is a comma-separated filter (default: everything), e.g.
#   tools/run_bench.sh build BENCH_kernels.json dct_sad_kernels,gemm
# A filtered run leaves the other scenarios out of its report, so when no
# explicit output path is given it lands in BENCH_hotpaths.filtered.json
# instead of the tracked BENCH_hotpaths.json.
#
# `--trace` makes the trace_overhead scenario write its traced leg's Chrome
# trace (default BENCH_trace.json at the repo root; override with
# --trace=path). Load it in chrome://tracing or Perfetto — per-frame spans
# from encode passes through WAN retries to the db inserts
# (docs/observability.md).
#
# The harness is deterministic in the work it performs; timings depend on
# the machine, which is why every ratio in the JSON is measured against a
# reference run in the same process. Scenarios: encode (reference vs the
# pruned coder at 1/2/4 threads), motion (full-search pruning), gemm and
# conv (fp32 GEMM and backbone forward), dct_sad_kernels (scalar vs AVX2 A/B
# of the dispatch-layer DCT/IDCT/quant/SAD kernels and the lookahead's block
# texture, deadzone SAD and 2x decimation, bit-equality-checked), analysis
# (the serial FrameAnalyzer loop vs AnalyzeVideo's frame-parallel fan-out on
# the shared pool, bit-identical costs), int8_inference (int8 vs fp32
# backbone + the top-1 agreement contract),
# pipelined_encode (frame-level pipelining on vs off at 1/2/4 threads, with
# a byte-equality check), trace_overhead (trace recorder on vs off: CPU
# overhead under 2%, outputs byte-identical) and durability (journal
# overhead under 5%, 100k-record recovery, flat snapshot publication).
# Each scenario declares its own gates in the report.
#
# Gate a fresh report against the committed baseline with
#   python3 tools/check_bench.py BENCH_hotpaths.json fresh.json
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"

trace_json=""
if [[ "${1:-}" == --trace ]]; then
  trace_json="$repo_root/BENCH_trace.json"
  shift
elif [[ "${1:-}" == --trace=* ]]; then
  trace_json="${1#--trace=}"
  shift
fi

build_dir="${1:-$repo_root/build}"
out_json="${2:-$repo_root/BENCH_hotpaths.json}"
scenarios="${3:-}"

# A filtered run reports only its scenarios; never let it clobber the
# tracked trajectory file unless the caller named that path explicitly.
if [[ -n "$scenarios" && -z "${2:-}" ]]; then
  out_json="$repo_root/BENCH_hotpaths.filtered.json"
  echo "scenario filter active: writing $out_json (tracked JSON untouched)"
fi

cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release
cmake --build "$build_dir" --target perf_hotpaths -j "$(nproc)"

# Run into a temp file and move into place only on success: a failed or
# crashed harness (it exits nonzero when any scenario fails) must never
# replace the tracked trajectory JSON with a partial report.
tmp_json="$(mktemp "${out_json}.XXXXXX")"
trap 'rm -f "$tmp_json"' EXIT
if ! "$build_dir/perf_hotpaths" "$tmp_json" "$scenarios" "$trace_json"; then
  echo "perf_hotpaths failed; keeping existing $out_json" >&2
  exit 1
fi
mv "$tmp_json" "$out_json"
trap - EXIT
echo "benchmark report: $out_json"
if [[ -n "$trace_json" ]]; then
  echo "chrome trace: $trace_json (load in chrome://tracing)"
fi
