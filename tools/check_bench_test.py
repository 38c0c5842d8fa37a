#!/usr/bin/env python3
"""Self-test of tools/check_bench.py on synthetic baseline/fresh reports."""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_bench  # noqa: E402


def report(threads=4, scenarios="all"):
    """A two-scenario report holding one gate of every kind."""
    return {
        "hardware_threads": threads,
        "scenarios": scenarios,
        "encode": {
            "speedup_t1": 1.0,
            "speedup_t4": 2.0,
            "bit_identical": True,
            "gates": [
                {"metric": "speedup_t1", "kind": "ratio", "better": "higher",
                 "band": 0.30},
                {"metric": "speedup_t4", "kind": "ratio", "better": "higher",
                 "band": 0.30, "min_threads": 4},
                {"metric": "bit_identical", "kind": "true"},
            ],
        },
        "trace_overhead": {
            "overhead_pct": 0.5,
            "events": 100,
            "gates": [
                {"metric": "overhead_pct", "kind": "below", "limit": 2},
                {"metric": "events", "kind": "above", "limit": 0},
            ],
        },
    }


def failed(baseline, fresh):
    return [row[0] for row in check_bench.check(baseline, fresh)[1]]


def status(baseline, fresh, label):
    rows = check_bench.check(baseline, fresh)[0]
    return next(row[1] for row in rows if row[0] == label)


class CheckBenchTest(unittest.TestCase):
    def test_identical_reports_pass(self):
        self.assertEqual(failed(report(), report()), [])

    def test_ratio_within_band_passes(self):
        fresh = report()
        fresh["encode"]["speedup_t1"] = 0.75  # -25%, band 30%
        self.assertEqual(failed(report(), fresh), [])

    def test_ratio_past_band_fails(self):
        fresh = report()
        fresh["encode"]["speedup_t1"] = 0.65  # -35%, band 30%
        self.assertEqual(failed(report(), fresh),
                         ["encode.speedup_t1 (ratio)"])

    def test_lower_is_better_ratio_fails_upward(self):
        baseline, fresh = report(), report()
        for r in (baseline, fresh):
            r["encode"]["gates"][0]["better"] = "lower"
        fresh["encode"]["speedup_t1"] = 1.35
        self.assertEqual(failed(baseline, fresh),
                         ["encode.speedup_t1 (ratio)"])

    def test_missing_ratio_value_fails(self):
        fresh = report()
        del fresh["encode"]["speedup_t1"]
        self.assertEqual(failed(report(), fresh),
                         ["encode.speedup_t1 (ratio)"])

    def test_absolute_limit_exceeded_fails(self):
        fresh = report()
        fresh["trace_overhead"]["overhead_pct"] = 2.0  # limit is strict
        fresh["trace_overhead"]["events"] = 0
        self.assertEqual(failed(report(), fresh),
                         ["trace_overhead.events (above)",
                          "trace_overhead.overhead_pct (below)"])

    def test_false_boolean_fails(self):
        fresh = report()
        fresh["encode"]["bit_identical"] = False
        self.assertEqual(failed(report(), fresh),
                         ["encode.bit_identical (true)"])

    def test_baseline_gate_missing_from_fresh_fails(self):
        fresh = report()
        fresh["trace_overhead"]["gates"].pop(0)
        self.assertEqual(failed(report(), fresh),
                         ["trace_overhead.overhead_pct (below)"])

    def test_scenario_missing_from_unfiltered_run_fails(self):
        fresh = report()
        del fresh["trace_overhead"]
        self.assertEqual(failed(report(), fresh),
                         ["trace_overhead.events (above)",
                          "trace_overhead.overhead_pct (below)"])

    def test_filtered_out_scenario_is_skipped(self):
        fresh = report(scenarios="encode")
        del fresh["trace_overhead"]
        self.assertEqual(failed(report(), fresh), [])
        self.assertEqual(
            status(report(), fresh, "trace_overhead.overhead_pct (below)"),
            "skip")

    def test_leg_below_min_threads_is_skipped(self):
        fresh = report(threads=2)
        fresh["encode"]["speedup_t4"] = 1.0  # would fail at 4 threads
        self.assertEqual(failed(report(), fresh), [])
        self.assertEqual(
            status(report(), fresh, "encode.speedup_t4 (ratio)"), "skip")
        # ... and armed again on a box with enough threads.
        fresh["hardware_threads"] = 4
        self.assertEqual(failed(report(), fresh),
                         ["encode.speedup_t4 (ratio)"])

    def test_ratio_without_baseline_is_skipped(self):
        baseline = report()
        del baseline["encode"]
        self.assertEqual(failed(baseline, report()), [])
        self.assertEqual(
            status(baseline, report(), "encode.speedup_t1 (ratio)"), "skip")


if __name__ == "__main__":
    unittest.main()
