#!/usr/bin/env bash
# Build (Release, -O2) and run the hot-path perf harness with its fixed seed,
# writing BENCH_hotpaths.json at the repo root. Usage:
#
#   tools/run_bench.sh [--trace[=trace.json]] [build_dir] [output_json] [scenarios]
#
# `scenarios` is a comma-separated filter (default: everything), e.g.
#   tools/run_bench.sh build BENCH_placement.json nn_placement,multi_session
# A filtered run writes zeros for the skipped sections, so when no explicit
# output path is given it lands in BENCH_hotpaths.filtered.json instead of
# the tracked BENCH_hotpaths.json.
#
# `--trace` makes the trace_overhead scenario write its traced leg's Chrome
# trace (default BENCH_trace.json at the repo root; override with
# --trace=path). Load it in chrome://tracing or Perfetto — per-frame spans
# from encode passes through WAN retries to the db inserts
# (docs/observability.md).
#
# The harness is deterministic in the work it performs; timings obviously
# depend on the machine, which is why every speedup in the JSON is measured
# against a baseline run in the same process. Scenarios: encode (reference /
# serial / parallel), motion (full-search), gemm, conv (backbone forward),
# multi_session (3 concurrent camera sessions on one shared runtime
# executor — the fan-in scaling number to watch across PRs),
# nn_placement (all-edge / all-cloud / auto-split session placement:
# end-to-end latency + WAN still/activation bytes per plan),
# live_query (3 streaming cameras with a reader thread hammering the
# cross-camera query index: FindObject avg/p99 latency under ingest + index
# update throughput), dct_sad_kernels (scalar vs SIMD A/B of the
# dispatch-layer DCT/IDCT/quant/SAD kernels — the AVX2 table where the CPU
# has it, bit-equality-checked against scalar), wan_chaos
# (delivered-frame latency + ledger reconciliation under scripted loss),
# fleet_scale (batched vs unbatched cloud inference across a 8/32/64-session
# sweep, with per-camera bit-equality checks), int8_inference (int8 vs fp32
# backbone forward latency + the top-1 agreement contract over a labelled
# scene), pipelined_encode (frame-level pipelining on vs off at the same
# parallelism, with a byte-equality check on the bitstreams), and
# trace_overhead (the observability contract: trace recorder on vs off over
# one encode+serve workload — CPU overhead must stay under 2% and the
# outputs byte-identical).
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

# A filtered run zeroes the unselected sections; never let it clobber the
# tracked trajectory file unless the caller named that path explicitly.
if [[ -n "$scenarios" && -z "${2:-}" ]]; then
  out_json="$repo_root/BENCH_hotpaths.filtered.json"
  echo "scenario filter active: writing $out_json (tracked JSON untouched)"
fi

cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release
cmake --build "$build_dir" --target perf_hotpaths -j "$(nproc)"

# Run into a temp file and move into place only on success: a failed or
# crashed harness (it exits nonzero when any scenario fails) must never
# replace the tracked trajectory JSON with a partial/zeroed report.
tmp_json="$(mktemp "${out_json}.XXXXXX")"
trap 'rm -f "$tmp_json"' EXIT
if ! "$build_dir/perf_hotpaths" "$tmp_json" 0 "$scenarios" "$trace_json"; then
  echo "perf_hotpaths failed; keeping existing $out_json" >&2
  exit 1
fi
mv "$tmp_json" "$out_json"
trap - EXIT
echo "benchmark report: $out_json"
if [[ -n "$trace_json" ]]; then
  echo "chrome trace: $trace_json (load in chrome://tracing)"
fi
