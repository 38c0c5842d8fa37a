#!/usr/bin/env python3
"""Gate a fresh perf_hotpaths report against the committed baseline.

Usage: tools/check_bench.py BASELINE FRESH

Each scenario in a report declares its own gates (bench/perf_hotpaths.cpp)
in its "gates" list. A gate names one metric of its scenario and has a kind:

  ratio  compared with the baseline's value: fails when it moves the wrong
         way ("better": "higher" or "lower") by more than "band" (a fraction)
  below  absolute: the fresh value must be < "limit"
  above  absolute: the fresh value must be > "limit"
  true   the fresh value must be true

A gate with "min_threads" is skipped when the fresh report's
hardware_threads is below it; a ratio gate also when the baseline's is.

The fresh report's declarations are the ones applied, and a gate that the
baseline declares but the fresh report lacks fails, so a gate cannot leave
silently. A scenario the fresh run filtered out (its "scenarios" field) is
skipped; one missing from a run that did not filter it fails.
"""

import argparse
import json
import math
import sys


def declared(report):
    """{(scenario, metric, kind): gate} over every scenario of a report."""
    return {(name, gate["metric"], gate["kind"]): gate
            for name, section in report.items() if isinstance(section, dict)
            for gate in section.get("gates", [])}


def filtered_out(report, scenario):
    chosen = report.get("scenarios", "all")
    return chosen != "all" and scenario not in chosen.split(",")


def number(value):
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def evaluate(gate, base, new, base_threads, fresh_threads):
    """(status, expected, detail) for one armed gate; status is ok/FAIL/skip."""
    min_threads = gate.get("min_threads", 1)
    if fresh_threads < min_threads:
        return "skip", "-", f"needs >= {min_threads} hardware threads"
    kind = gate["kind"]
    if kind == "true":
        return ("ok" if new is True else "FAIL"), "true", repr(new)
    if kind in ("below", "above"):
        limit = gate["limit"]
        expected = f"{'<' if kind == 'below' else '>'}{limit:g}"
        if not number(new):
            return "FAIL", expected, f"missing ({new!r})"
        held = new < limit if kind == "below" else new > limit
        return ("ok" if held else "FAIL"), expected, f"{new:.3f}"
    if kind == "ratio":
        if base_threads < min_threads or not number(base) or base <= 0:
            return "skip", "-", "no baseline"
        if not number(new) or new <= 0:
            return "FAIL", f"{base:.3f}", f"missing ({new!r})"
        band = gate["band"]
        delta = (new - base) / base
        worse = -delta if gate["better"] == "higher" else delta
        status = "FAIL" if worse > band else "ok"
        return status, f"{base:.3f}", f"{new:.3f} ({delta:+.1%}, band {band:.0%})"
    return "FAIL", "-", f"unknown gate kind {kind!r}"


def check(baseline, fresh):
    """Returns (rows, failures): one (label, status, expected, detail) row per
    gate in either report, and the labelled FAIL rows."""
    base_gates, fresh_gates = declared(baseline), declared(fresh)
    rows = []
    for key in sorted(base_gates.keys() | fresh_gates.keys()):
        scenario, metric, kind = key
        label = f"{scenario}.{metric} ({kind})"
        if scenario not in fresh:
            if filtered_out(fresh, scenario):
                rows.append((label, "skip", "-", "filtered run"))
            else:
                rows.append((label, "FAIL", "-",
                             "scenario missing from fresh report"))
            continue
        if key not in fresh_gates:
            rows.append((label, "FAIL", "-",
                         "declared by the baseline, missing from fresh report"))
            continue
        rows.append((label,) + evaluate(
            fresh_gates[key], baseline.get(scenario, {}).get(metric),
            fresh[scenario].get(metric), baseline.get("hardware_threads", 0),
            fresh.get("hardware_threads", 0)))
    return rows, [row for row in rows if row[1] == "FAIL"]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="committed BENCH_hotpaths.json")
    parser.add_argument("fresh", help="freshly generated report")
    args = parser.parse_args()
    with open(args.baseline) as f:
        baseline = json.load(f)
    with open(args.fresh) as f:
        fresh = json.load(f)

    rows, failures = check(baseline, fresh)
    print(f"{'gate':52s} {'expected':>10s}  status  fresh")
    for label, status, expected, detail in rows:
        print(f"{label:52s} {expected:>10s}  {status:6s}  {detail}")
    if failures:
        print(f"\n{len(failures)} gate(s) failed:", file=sys.stderr)
        for label, _, expected, detail in failures:
            print(f"  - {label}: expected {expected}, got {detail}",
                  file=sys.stderr)
        return 1
    print("\nall gates hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
