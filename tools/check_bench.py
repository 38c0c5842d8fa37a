#!/usr/bin/env python3
"""Gate a fresh BENCH_hotpaths.json against the committed baseline.

Usage: tools/check_bench.py BASELINE FRESH [--threshold 0.15]

Fails (exit 1) on a >threshold regression in the tracked scenarios:

  * full_search   — candidate-throughput speedup of the pruned search
  * gemm          — dispatched-vs-naive GFLOP/s speedup, plus a hard-fail
                    identical boolean (every supported kernel table's
                    gemm_f32 bit-equal to the naive reference)
  * encode        — serial and parallel fps speedups over the reference coder
  * live_query    — p99 FindObject latency under ingest (lower better;
                    p99-by-rank is the honest, stable number — avg is
                    tail-polluted and max is a one-off warmup artifact)
  * dct_sad_kernels — SIMD-vs-scalar speedups of the kernel layer, plus a
                    hard-fail per-arch identical boolean (every measured
                    table bit-equal to scalar)
  * fleet_scale   — batched-vs-unbatched serving at the largest fleet, plus
                    a hard-fail bit_identical boolean (batching must never
                    change a prediction)
  * int8_inference — int8-vs-fp32 backbone speedup, plus hard-fail
                    agreement_ok (the quantization contract: >= 99% top-1
                    agreement on decidable frames and every flip below the
                    noise floor — see docs/perf.md) and quantized (the
                    int8 embeddings differ from fp32, so no silent fp32
                    fallback) booleans
  * pipelined_encode — pipelined-vs-plain encode speedup (skipped on
                    single-core runners, where there is nothing to overlap
                    with) plus a hard-fail bit_identical boolean
  * trace_overhead — the observability contract: tracing on must cost < 2%
                    CPU over tracing off (absolute gate, no baseline, no
                    noise band — the scenario medians paired legs to stay
                    below measurement noise) and must not change one byte
                    of bitstream or db (hard-fail bit_identical)
  * durability    — the crash-safety contract: journaling every insert must
                    cost < 5% CPU on the session ingest path (absolute
                    gate, median of paired legs), per-insert snapshot
                    publication must stay flat as a camera's interval
                    history grows 100x (absolute < 3x gate — the index is
                    O(1) per insert by design), 100k-record boot recovery
                    throughput must not collapse (baseline ratio, wide
                    band), and replaying journals must reproduce the live
                    run's query snapshot exactly (hard-fail
                    recovered_identical)

Ratio metrics (speedups) are machine-normalized — both legs run in the same
process on the same box — so they are comparable between the committed
baseline and a CI runner. Metrics belonging to a scenario that either
report filtered out (per its "scenarios" field — skipped sections are
written as zeros, so key presence proves nothing), and metrics whose
baseline is missing or zero, are skipped with a note. Correctness booleans
(bit_identical / identical) must be true wherever the fresh report actually
ran the scenario.
"""

import argparse
import json
import sys


def get(d, path):
    for key in path.split("."):
        if not isinstance(d, dict) or key not in d:
            return None
        d = d[key]
    return d


# JSON section -> harness scenario that populates it. A scenario-filtered
# run writes zeros/false into the skipped sections, so presence of a key
# does not mean the scenario ran — the report's "scenarios" field does.
SCENARIO_OF = {
    "full_search": "motion",
    "gemm_1024x288x64": "gemm",
    "encode": "encode",
    "live_query": "live_query",
    "dct_sad_kernels": "dct_sad_kernels",
    "wan_chaos": "wan_chaos",
    "fleet_scale": "fleet_scale",
    "int8_inference": "int8_inference",
    "pipelined_encode": "pipelined_encode",
    "trace_overhead": "trace_overhead",
    "durability": "durability",
}


def scenario_ran(report, path):
    scenarios = report.get("scenarios")
    if scenarios in (None, "", "all"):
        return True
    return SCENARIO_OF[path.split(".")[0]] in scenarios.split(",")


# (json path, lower_is_better, noise_multiplier)
#
# The multiplier widens the threshold for metrics that are noisy run-to-run
# or sensitive to which machine generated the committed baseline:
#  * encode speedups — each leg runs ~0.25s post-SIMD, so the ratio wobbles
#    ~20% on a loaded box;
#  * live_query p99 — the one ABSOLUTE metric in the gate (the ratios are
#    same-process and machine-normalized; a latency has no in-run
#    reference). CI runners differ from the baseline box, so at 20x the
#    gate only fires when fresh p99 exceeds 4x baseline — beyond plausible
#    runner-hardware spread for a CPU-bound sub-microsecond read, while
#    the regressions that matter (per-query snapshot copying, scan creep
#    on the interval lists) are 10x+ and still caught. p99-by-rank is
#    gated, not the tail-polluted avg or the warmup-artifact max;
#  * kernel A/B speedups — the SIMD-vs-scalar advantage swings across CPU
#    generations and compilers; a real regression (SIMD accidentally
#    disabled) drops the ratio to ~1.0, far beyond the widened band.
# The multi-second same-process ratios (full_search, gemm) keep the tight
# 15% gate.
METRICS = [
    ("full_search.speedup", False, 1.0),
    ("gemm_1024x288x64.speedup", False, 1.0),
    ("encode.serial_speedup", False, 2.0),
    ("encode.parallel_speedup", False, 2.0),
    ("live_query.p99_query_micros", True, 20.0),
    # Absolute latency like live_query p99 (no in-run reference), measured
    # over a small delivered-frame sample on whatever box runs CI — the
    # widest band: only a transport-level blowup (a retry path that sleeps
    # real time, a lock held across the WAN hop) moves it 4x.
    ("wan_chaos.loss5_p99_frame_ms", True, 20.0),
    ("dct_sad_kernels.fdct_speedup", False, 2.0),
    ("dct_sad_kernels.idct_speedup", False, 2.0),
    ("dct_sad_kernels.sad_speedup", False, 2.0),
    # Batched-vs-unbatched fleet serving. The speedup is same-process and
    # machine-normalized, but each leg is a full 64-session pipeline run
    # whose inference share of wall time varies with core count — on a
    # 1-core box the ratio hovers near 1.0 while multi-core runners see the
    # batcher's amortization. Gate only a collapse (batching made serving
    # dramatically slower), not the exact ratio.
    ("fleet_scale.speedup_at_max", False, 2.0),
    # Aggregate batched fps / worst-camera p99 at the largest fleet:
    # absolute numbers with no in-run reference, so the widest band — they
    # fire only on a serving-path catastrophe (batcher serializing the
    # fleet, a flusher that sleeps real time per frame).
    ("fleet_scale.batched_fps_at_max", False, 4.0),
    ("fleet_scale.batched_p99_at_max_ms", True, 20.0),
    # Int8-vs-fp32 backbone forward: same-process and machine-normalized,
    # but the int8 advantage shifts with the SIMD tier the runner's CPU
    # offers (AVX2 u8s8 dot vs scalar accumulate), so the widened band.
    # Since fp32 convs run the AVX2 GEMM the healthy ratio is ~1.2 on an
    # AVX2 host, so a silent fall-back to fp32 (~1.0) stays inside the
    # band: the hard int8_inference.quantized boolean catches that, and
    # this ratio catches an int8 path that got slower.
    ("int8_inference.speedup", False, 2.0),
    # Pipelined-vs-plain encode. Same-process ratio, but the overlap
    # dividend only exists with >= 2 cores; main() skips this metric
    # entirely on single-core runners (fresh hardware_threads < 2), where
    # the honest value hovers at 1.0 regardless of code health.
    ("pipelined_encode.speedup", False, 2.0),
    # 100k-record boot recovery throughput: an absolute rate with no in-run
    # reference (journal decode + replay into the index, wall time), so the
    # widest band — it fires only when recovery stops being linear (a
    # re-scan per record, an fsync on the read path), a 10x+ collapse.
    ("durability.recovery_records_per_s", False, 20.0),
]

# Fresh-report metrics gated only on capable hardware: metric path ->
# minimum hardware_threads the fresh runner needs for the number to mean
# anything.
MIN_THREADS_OF = {
    "pipelined_encode.speedup": 2,
}

BOOLEANS = [
    "encode.bit_identical",
    "full_search.identical",
    "dct_sad_kernels.identical",
    # Hard gate: every kernel table's fp32 GEMM must return the naive
    # reference's bits — the contract that keeps labels and activations
    # identical whichever table a host dispatches to.
    "gemm_1024x288x64.identical",
    # Every chaos leg's delivered-or-dropped ledger must balance — a false
    # here means the transport silently lost a frame under load.
    "wan_chaos.reconciled",
    # Hard gate: batched cloud inference must be bit-identical to the
    # per-frame path for every camera at every fleet size. A false here is
    # a correctness bug in ForwardSuffixBatch or the batcher's routing, not
    # noise — no band, no skip.
    "fleet_scale.bit_identical",
    # Hard gate: the int8 quantization contract (>= 99% top-1 agreement on
    # decidable frames, every flip below the noise floor, raw agreement
    # >= 90%). A false is a broken scale/zero-point or a drifted backbone,
    # not noise.
    "int8_inference.agreement_ok",
    # Hard gate: int8 embeddings must differ from fp32 ones. With the AVX2
    # fp32 GEMM, int8 is only ~1.2x faster end to end, inside the speedup
    # metric's noise band, so a silent fall-back to fp32 would pass the
    # ratio gate; it cannot pass this one.
    "int8_inference.quantized",
    # Hard gate: the pipelined encoder must produce byte-identical
    # bitstreams to the non-pipelined path (core or not — bit-equality
    # holds everywhere even when the speedup doesn't).
    "pipelined_encode.bit_identical",
    # Hard gate: enabling the trace recorder must not change one byte of
    # bitstream or db output. A false is an observer effect (a probe
    # feeding back into encode decisions or frame routing), not noise.
    "trace_overhead.bit_identical",
    # Hard gate: replaying a store of journals must rebuild the exact query
    # snapshot the live run produced — same routes, seals, and per-class
    # intervals. A false is lost or reordered durability data, not noise.
    "durability.recovered_identical",
]

# The trace recorder's overhead contract (docs/observability.md): enabling
# tracing costs < this much CPU on the bench's encode+serve workload. An
# ABSOLUTE ceiling on the fresh report — no baseline ratio, no noise band;
# the harness medians interleaved order-balanced paired legs specifically
# so this number sits well below the gate when the recorder is healthy.
TRACE_OVERHEAD_LIMIT_PCT = 2.0


def check_trace_overhead(fresh, failures):
    pct = get(fresh, "trace_overhead.overhead_pct")
    events = get(fresh, "trace_overhead.events")
    if pct is None or not isinstance(pct, (int, float)):
        failures.append("trace_overhead.overhead_pct: missing in fresh report")
        print(f"{'trace_overhead.overhead_pct':44s} {'<2.0%':>10s} "
              f"{'MISSING':>10s}   FAIL")
        return
    mark = "ok" if pct < TRACE_OVERHEAD_LIMIT_PCT else "FAIL"
    print(f"{'trace_overhead.overhead_pct':44s} {'<2.0%':>10s} "
          f"{pct:9.2f}%   {mark}")
    if mark == "FAIL":
        failures.append(
            f"trace_overhead.overhead_pct: {pct:.2f}% >= "
            f"{TRACE_OVERHEAD_LIMIT_PCT:.1f}% (tracing must stay cheap)")
    # A recorder that silently stopped recording would ace the gate — the
    # scenario must actually have captured events for the number to count.
    if not events:
        failures.append("trace_overhead.events: traced leg recorded nothing")
        print(f"{'trace_overhead.events':44s} {'>0':>10s} "
              f"{str(events):>10s}   FAIL")


# The durability contract (docs/durability.md): journaling every insert at
# the default group-commit cadence must cost < this much CPU on the session
# ingest path, and per-insert snapshot publication must stay within this
# factor when a camera's interval history grows 100x (1k -> 100k). Both are
# ABSOLUTE ceilings on the fresh report, like the trace gate: the harness
# medians interleaved paired legs so healthy numbers sit far below them
# (overhead ~1%, flat ratio ~1.0; the pre-sharding index was ~100x).
JOURNAL_OVERHEAD_LIMIT_PCT = 5.0
PUBLISH_FLAT_LIMIT = 3.0


def check_durability(fresh, failures):
    pct = get(fresh, "durability.journal_overhead_pct")
    if pct is None or not isinstance(pct, (int, float)):
        failures.append(
            "durability.journal_overhead_pct: missing in fresh report")
        print(f"{'durability.journal_overhead_pct':44s} {'<5.0%':>10s} "
              f"{'MISSING':>10s}   FAIL")
    else:
        mark = "ok" if pct < JOURNAL_OVERHEAD_LIMIT_PCT else "FAIL"
        print(f"{'durability.journal_overhead_pct':44s} {'<5.0%':>10s} "
              f"{pct:9.2f}%   {mark}")
        if mark == "FAIL":
            failures.append(
                f"durability.journal_overhead_pct: {pct:.2f}% >= "
                f"{JOURNAL_OVERHEAD_LIMIT_PCT:.1f}% (journaling must stay "
                f"cheap on the ingest path)")
    ratio = get(fresh, "durability.publish_flat_ratio")
    if ratio is None or not isinstance(ratio, (int, float)) or ratio <= 0:
        failures.append("durability.publish_flat_ratio: missing/zero in "
                        "fresh report")
        print(f"{'durability.publish_flat_ratio':44s} {'<3.0x':>10s} "
              f"{'MISSING':>10s}   FAIL")
    else:
        mark = "ok" if ratio < PUBLISH_FLAT_LIMIT else "FAIL"
        print(f"{'durability.publish_flat_ratio':44s} {'<3.0x':>10s} "
              f"{ratio:9.2f}x   {mark}")
        if mark == "FAIL":
            failures.append(
                f"durability.publish_flat_ratio: {ratio:.2f}x >= "
                f"{PUBLISH_FLAT_LIMIT:.1f}x (publication must not scale "
                f"with history)")
    # A recovery that read nothing would ace every gate — the scenario must
    # actually have decoded records for its numbers to count.
    records = get(fresh, "durability.recovery_records")
    if not records:
        failures.append("durability.recovery_records: recovery read nothing")
        print(f"{'durability.recovery_records':44s} {'>0':>10s} "
              f"{str(records):>10s}   FAIL")


def check_kernel_arches(fresh, failures):
    """The per-arch kernel columns: every measured arch must be bit-equal
    to scalar."""
    arches = {col.get("arch"): col
              for col in get(fresh, "dct_sad_kernels.arches") or []}
    for name, col in arches.items():
        if col.get("identical") is not True:
            failures.append(f"dct_sad_kernels.arches[{name}].identical: "
                            f"expected true, got {col.get('identical')!r}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="committed BENCH_hotpaths.json")
    parser.add_argument("fresh", help="freshly generated report")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="allowed fractional regression (default 0.15)")
    args = parser.parse_args()

    with open(args.baseline) as f:
        baseline = json.load(f)
    with open(args.fresh) as f:
        fresh = json.load(f)

    failures = []
    print(f"{'metric':44s} {'baseline':>10s} {'fresh':>10s} {'delta':>8s}")
    for path, lower_better, noise in METRICS:
        if not scenario_ran(baseline, path) or not scenario_ran(fresh, path):
            print(f"{path:44s} {'-':>10s} {'-':>10s}   skipped (filtered run)")
            continue
        min_threads = MIN_THREADS_OF.get(path)
        if min_threads and fresh.get("hardware_threads", 0) < min_threads:
            print(f"{path:44s} {'-':>10s} {'-':>10s}   skipped "
                  f"(needs >= {min_threads} hardware threads)")
            continue
        base = get(baseline, path)
        new = get(fresh, path)
        if base is None or not isinstance(base, (int, float)) or base <= 0:
            print(f"{path:44s} {'-':>10s} {'-':>10s}   skipped (no baseline)")
            continue
        if new is None or not isinstance(new, (int, float)) or new <= 0:
            failures.append(f"{path}: missing/zero in fresh report "
                            f"(baseline {base:.3f})")
            print(f"{path:44s} {base:10.3f} {'MISSING':>10s}   FAIL")
            continue
        threshold = args.threshold * noise
        delta = (new - base) / base
        if lower_better:
            regressed = delta > threshold
        else:
            regressed = delta < -threshold
        mark = "FAIL" if regressed else "ok"
        print(f"{path:44s} {base:10.3f} {new:10.3f} {delta:+7.1%} {mark}")
        if regressed:
            failures.append(
                f"{path}: {base:.3f} -> {new:.3f} ({delta:+.1%}, "
                f"threshold {threshold:.0%})")

    for path in BOOLEANS:
        if not scenario_ran(fresh, path):
            print(f"{path:44s} {'-':>10s} {'-':>10s}   skipped (filtered run)")
            continue
        # The fresh report always comes from the current harness, so a
        # missing correctness boolean is a gate-disabling bug, not an
        # old-format report — fail loudly rather than skip silently.
        new = get(fresh, path)
        if new is not True:
            failures.append(f"{path}: expected true, got {new!r}")
            print(f"{path:44s} {'true':>10s} {str(new):>10s}   FAIL")
        else:
            print(f"{path:44s} {'true':>10s} {'true':>10s}   ok")

    if scenario_ran(fresh, "dct_sad_kernels.arches"):
        check_kernel_arches(fresh, failures)

    if scenario_ran(fresh, "trace_overhead.overhead_pct"):
        check_trace_overhead(fresh, failures)

    if scenario_ran(fresh, "durability.journal_overhead_pct"):
        check_durability(fresh, failures)

    if failures:
        print(f"\n{len(failures)} regression(s) beyond "
              f"{args.threshold:.0%}:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nno regressions beyond threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
