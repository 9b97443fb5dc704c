#!/usr/bin/env python3
"""Regression tests for tools/perf_smoke's malformed-input handling.

The CI perf gate must fail loudly — not vacuously pass — when a broken
bench run writes an empty or malformed BENCH_kernel.json. Run directly or
via ctest (registered as `perf_smoke_guard` in tests/CMakeLists.txt).
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

TOOL = os.path.join(os.path.dirname(os.path.abspath(__file__)), "perf_smoke")


def scenario(name, rate, serial_share=None, allocs_per_event=None):
    s = {"name": name, "events_per_sec": rate, "events": 1000,
         "wall_seconds": 0.1}
    if serial_share is not None:
        s["serial_share"] = serial_share
    if allocs_per_event is not None:
        s["allocs_per_event"] = allocs_per_event
    return s


def doc(scenarios):
    return {"bench": "kernel", "schema_version": 1, "quick": False,
            "repetitions": 3, "scenarios": scenarios}


class PerfSmokeTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.tmp.cleanup()

    def write(self, name, payload):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w") as f:
            json.dump(payload, f)
        return path

    def run_tool(self, current, baseline):
        return subprocess.run(
            [sys.executable, TOOL, current, baseline],
            capture_output=True, text=True)

    def test_ok_on_matching_scenarios(self):
        cur = self.write("cur.json", doc([scenario("sched_churn", 1e6)]))
        base = self.write("base.json", doc([scenario("sched_churn", 1e6)]))
        r = self.run_tool(cur, base)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("perf-smoke: OK", r.stdout)

    def test_fails_on_regression(self):
        cur = self.write("cur.json", doc([scenario("sched_churn", 1e5)]))
        base = self.write("base.json", doc([scenario("sched_churn", 1e6)]))
        r = self.run_tool(cur, base)
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("REGRESSION", r.stdout)

    def test_fails_on_empty_current_scenarios(self):
        # The original bug: an empty current file produced zero comparisons
        # and therefore a green exit.
        cur = self.write("cur.json", doc([]))
        base = self.write("base.json", doc([scenario("sched_churn", 1e6)]))
        r = self.run_tool(cur, base)
        self.assertNotEqual(r.returncode, 0)
        self.assertIn("zero scenarios", r.stderr)

    def test_fails_on_empty_baseline_scenarios(self):
        cur = self.write("cur.json", doc([scenario("sched_churn", 1e6)]))
        base = self.write("base.json", doc([]))
        r = self.run_tool(cur, base)
        self.assertNotEqual(r.returncode, 0)
        self.assertIn("zero scenarios", r.stderr)

    def test_fails_on_missing_scenarios_key(self):
        cur = self.write("cur.json", {"bench": "kernel"})
        base = self.write("base.json", doc([scenario("sched_churn", 1e6)]))
        r = self.run_tool(cur, base)
        self.assertNotEqual(r.returncode, 0)
        self.assertIn("no 'scenarios' key", r.stderr)

    def test_fails_on_scenario_missing_rate(self):
        cur = self.write(
            "cur.json",
            doc([{"name": "sched_churn", "events": 7}]))
        base = self.write("base.json", doc([scenario("sched_churn", 1e6)]))
        r = self.run_tool(cur, base)
        self.assertNotEqual(r.returncode, 0)
        self.assertIn("events_per_sec", r.stderr)

    def test_fails_on_disjoint_scenario_sets(self):
        # Scenario renames on one side only: nothing is compared, which must
        # be an error rather than a vacuous pass.
        cur = self.write("cur.json", doc([scenario("new_name", 1e6)]))
        base = self.write("base.json", doc([scenario("old_name", 1e6)]))
        r = self.run_tool(cur, base)
        self.assertNotEqual(r.returncode, 0)
        self.assertIn("nothing was compared", r.stderr)

    def test_telemetry_overhead_within_bound_passes(self):
        # 8% overhead is inside the default 10% bound.
        cur = self.write("cur.json", doc([scenario("fig08_point", 1e6),
                                          scenario("telemetry_point", 0.92e6)]))
        base = self.write("base.json", doc([scenario("fig08_point", 1e6)]))
        r = self.run_tool(cur, base)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("telemetry overhead", r.stdout)

    def test_telemetry_overhead_beyond_bound_fails(self):
        # 20% overhead breaches the 10% bound even though every baseline
        # comparison is fine — the paired check is its own gate.
        cur = self.write("cur.json", doc([scenario("fig08_point", 1e6),
                                          scenario("telemetry_point", 0.8e6)]))
        base = self.write("base.json", doc([scenario("fig08_point", 1e6)]))
        r = self.run_tool(cur, base)
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("TELEMETRY OVERHEAD TOO HIGH", r.stdout)

    def test_telemetry_pair_absent_is_not_checked(self):
        # Runs without the telemetry scenario (e.g. a scenario subset) skip
        # the paired check rather than failing on a missing key.
        cur = self.write("cur.json", doc([scenario("fig08_point", 1e6)]))
        base = self.write("base.json", doc([scenario("fig08_point", 1e6)]))
        r = self.run_tool(cur, base)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertNotIn("telemetry overhead", r.stdout)

    def test_serial_share_within_bound_passes(self):
        cur = self.write("cur.json", doc(
            [scenario("parallel_point", 1e6, serial_share=0.25)]))
        base = self.write("base.json", doc([scenario("parallel_point", 1e6)]))
        r = self.run_tool(cur, base)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("serial_share=0.250", r.stdout)

    def test_serial_share_beyond_bound_fails(self):
        # A serial phase eating most of the run is a structural regression
        # even when the absolute event rate still clears the 40% margin.
        cur = self.write("cur.json", doc(
            [scenario("parallel_point", 1e6, serial_share=0.85)]))
        base = self.write("base.json", doc([scenario("parallel_point", 1e6)]))
        r = self.run_tool(cur, base)
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("SERIAL SHARE TOO HIGH", r.stdout)

    def test_serial_share_absent_is_not_checked(self):
        # Scenarios without the field (every non-partitioned scenario, and
        # older baselines) skip the bound rather than failing on a missing
        # key.
        cur = self.write("cur.json", doc([scenario("parallel_point", 1e6)]))
        base = self.write("base.json", doc([scenario("parallel_point", 1e6)]))
        r = self.run_tool(cur, base)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertNotIn("serial_share", r.stdout)

    def test_allocs_at_or_below_ceiling_pass(self):
        base = self.write("base.json", doc(
            [scenario("fig08_point", 1e6, allocs_per_event=0.30)]))
        for got in (0.30, 0.10):  # equal, a cut
            cur = self.write("cur.json", doc(
                [scenario("fig08_point", 1e6, allocs_per_event=got)]))
            r = self.run_tool(cur, base)
            self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
            self.assertIn("allocs/event", r.stdout)

    def test_allocs_above_ceiling_fail(self):
        # The count is deterministic: an allocation back on the event path
        # fails even when the event rate is unchanged, and so does any rise.
        base = self.write("base.json", doc(
            [scenario("fig08_point", 1e6, allocs_per_event=0.30)]))
        for got in (0.40, 0.3001):
            cur = self.write("cur.json", doc(
                [scenario("fig08_point", 1e6, allocs_per_event=got)]))
            r = self.run_tool(cur, base)
            self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
            self.assertIn("ALLOCATIONS ABOVE CEILING", r.stdout)

    def test_allocs_missing_from_current_fail(self):
        # A bench that stops counting must not pass the ceiling vacuously.
        cur = self.write("cur.json", doc([scenario("fig08_point", 1e6)]))
        base = self.write("base.json", doc(
            [scenario("fig08_point", 1e6, allocs_per_event=0.30)]))
        r = self.run_tool(cur, base)
        self.assertEqual(r.returncode, 1, r.stdout + r.stderr)
        self.assertIn("MISSING ALLOCS_PER_EVENT", r.stdout)

    def test_allocs_absent_from_baseline_are_not_checked(self):
        # Older baselines carry no count; the current run's is reported
        # nowhere and gates nothing until the baseline is regenerated.
        cur = self.write("cur.json", doc(
            [scenario("fig08_point", 1e6, allocs_per_event=0.30)]))
        base = self.write("base.json", doc([scenario("fig08_point", 1e6)]))
        r = self.run_tool(cur, base)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertNotIn("allocs/event", r.stdout)

    def test_one_sided_scenarios_are_not_failures(self):
        # Adding a scenario without a lockstep baseline update stays green,
        # as long as at least one scenario is actually compared.
        cur = self.write("cur.json", doc([scenario("sched_churn", 1e6),
                                          scenario("brand_new", 5e5)]))
        base = self.write("base.json", doc([scenario("sched_churn", 1e6),
                                            scenario("retired", 2e5)]))
        r = self.run_tool(cur, base)
        self.assertEqual(r.returncode, 0, r.stdout + r.stderr)
        self.assertIn("new scenario", r.stdout)
        self.assertIn("missing from current run", r.stdout)


if __name__ == "__main__":
    unittest.main()
