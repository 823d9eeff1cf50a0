"""Tests of the benchmark's own checks, tracer and workloads.

    python3 perfbench/selftest.py

Each check must accept a right output and reject a deliberately wrong one.
The smoke test runs every workload end to end on tiny inputs, untraced and
traced.  The file name keeps it out of the repository's pytest collection.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import threading
import time
import types
import unittest
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from tracing import SpanIndex, Tracer, _covered  # noqa: E402

HEADER = ",".join(checks.CSV_COLUMNS)


def csv_rows(lines: list[str]) -> list[dict]:
    return checks.parse_csv("\n".join([HEADER] + lines) + "\n")


def bound_rows(curves: dict[str, list[float]], xs=(0.0, 10.0, 20.0), label="true"):
    return csv_rows([f"{x:.9g},{model},analytical,{v:.9g},,{label},,"
                     for model, vals in curves.items() for x, v in zip(xs, vals)])


GOOD_BOUNDS = {"uniform": [0.66, 0.50, 0.33],
               "closest": [0.98, 0.96, 0.88],
               "closest_los": [0.99, 0.98, 0.92]}


def mc_row(load, model, engine, successes, n):
    p = successes / n
    hw = 1.96 * math.sqrt(p * (1.0 - p) / n)
    return f"{load:.9g},{model},{engine},{p:.9g},{hw:.9g},false,7,"


N = 2048
GOOD_MC = {"montecarlo": 290, "montecarlo:los_only": 300, "montecarlo:nlos_only": 330,
           "montecarlo:no_interference": 335}


class AseOptimumTest(unittest.TestCase):
    DENSITY = 150e-6

    def ase(self, s, gamma_db, coverage):
        return s * self.DENSITY * math.log2(1.0 + 10.0 ** (gamma_db / 10.0)) * coverage

    def test_accepts_interior_shrinking_optimum(self):
        results = {20.0: (6, self.ase(6, 20.0, 0.3)), 10.0: (21, self.ase(21, 10.0, 0.2))}
        self.assertEqual(checks.ase_optimum(results, self.DENSITY, 40), [])

    def test_rejects_optimum_growing_with_threshold(self):
        results = {20.0: (25, self.ase(25, 20.0, 0.3)), 10.0: (21, self.ase(21, 10.0, 0.2))}
        self.assertTrue(checks.ase_optimum(results, self.DENSITY, 40))

    def test_rejects_optimum_on_the_edge(self):
        results = {20.0: (1, self.ase(1, 20.0, 0.3)), 10.0: (40, self.ase(40, 10.0, 0.2))}
        self.assertEqual(len(checks.ase_optimum(results, self.DENSITY, 40)), 2)

    def test_rejects_ase_above_its_ceiling(self):
        results = {20.0: (6, self.ase(6, 20.0, 1.2)), 10.0: (21, self.ase(21, 10.0, 0.2))}
        self.assertTrue(checks.ase_optimum(results, self.DENSITY, 40))


class BoundCurvesTest(unittest.TestCase):
    def test_accepts_falling_ordered_curves(self):
        self.assertEqual(checks.bound_curves(bound_rows(GOOD_BOUNDS)), [])

    def test_rejects_rising_curve(self):
        curves = dict(GOOD_BOUNDS, uniform=[0.5, 0.66, 0.33])
        problems = checks.bound_curves(bound_rows(curves))
        self.assertTrue(any("rises" in p for p in problems), problems)

    def test_rejects_model_order(self):
        curves = dict(GOOD_BOUNDS, closest=[0.60, 0.45, 0.30])
        self.assertTrue(checks.bound_curves(bound_rows(curves)))

    def test_rejects_value_outside_unit_interval(self):
        curves = dict(GOOD_BOUNDS, closest_los=[1.2, 0.98, 0.92])
        self.assertTrue(checks.bound_curves(bound_rows(curves)))

    def test_rejects_missing_bound_label(self):
        self.assertTrue(checks.bound_curves(bound_rows(GOOD_BOUNDS, label="false")))

    def test_bound_below_monte_carlo(self):
        self.assertEqual(checks.bound_above_mc("x", 0.34, 0.333, 4096), [])
        self.assertEqual(checks.bound_above_mc("x", 0.34, 0.35, 4096), [])
        self.assertTrue(checks.bound_above_mc("x", 0.30, 0.35, 4096))


class McRowsTest(unittest.TestCase):
    def rows(self, counts=GOOD_MC, n=N):
        return csv_rows([mc_row(5.0, "uniform", e, k, n) for e, k in counts.items()])

    def test_accepts_consistent_rows(self):
        self.assertEqual(checks.mc_rows(self.rows(), N), [])

    def test_rejects_wrong_half_width(self):
        lines = [mc_row(5.0, "uniform", e, k, N) for e, k in GOOD_MC.items()]
        fields = lines[0].split(",")
        fields[4] = f"{float(fields[4]) * 1.01:.9g}"
        lines[0] = ",".join(fields)
        self.assertTrue(checks.mc_rows(csv_rows(lines), N))

    def test_rejects_estimate_that_is_no_count(self):
        lines = [mc_row(5.0, "uniform", e, k, N) for e, k in GOOD_MC.items()]
        lines[0] = lines[0].replace("0.141601562", "0.1416")
        self.assertTrue(checks.mc_rows(csv_rows(lines), N))

    def test_rejects_interference_raising_coverage(self):
        counts = dict(GOOD_MC, montecarlo=500)
        problems = checks.mc_rows(self.rows(counts), N)
        self.assertTrue(any("standard errors" in p for p in problems), problems)

    def test_ordering_allows_sampling_noise(self):
        counts = dict(GOOD_MC, **{"montecarlo:nlos_only": 340})
        self.assertEqual(checks.mc_rows(self.rows(counts), N), [])

    def test_near_bound(self):
        self.assertEqual(checks.mc_near_bound("x", 0.14, 0.138), [])
        self.assertTrue(checks.mc_near_bound("x", 0.14, 0.20))


class LaplaceTest(unittest.TestCase):
    SN = [0.3, 1.0, 3.0, 2.0, 3.0]
    ANA = [0.95, 0.85, 0.62, 0.72, 0.62]

    def test_accepts_agreeing_transforms(self):
        oracle = [a + 0.001 for a in self.ANA]
        self.assertEqual(checks.laplace_pair("x", self.SN, self.ANA, oracle, [0.001] * 5), [])

    def test_rejects_large_z_score(self):
        oracle = [a + 0.01 for a in self.ANA]
        problems = checks.laplace_pair("x", self.SN, self.ANA, oracle, [0.001] * 5)
        self.assertTrue(any("z-score" in p for p in problems), problems)

    def test_rejects_transform_rising_in_argument(self):
        ana = [0.95, 0.85, 0.62, 0.90, 0.62]
        problems = checks.laplace_pair("x", self.SN, ana, self.ANA, [1.0] * 5)
        self.assertTrue(any("rises" in p for p in problems), problems)

    def test_rejects_value_outside_unit_interval(self):
        ana = [1.05] + self.ANA[1:]
        self.assertTrue(checks.laplace_pair("x", self.SN, ana, ana, [0.001] * 5))


class OtherChecksTest(unittest.TestCase):
    def test_same_bytes(self):
        self.assertEqual(checks.same_bytes([b"a,b\n1,2\n"] * 3), [])
        self.assertTrue(checks.same_bytes([b"a,b\n1,2\n", b"a,b\n1,3\n"]))

    def test_parse_csv_rejects_foreign_header(self):
        with self.assertRaises(ValueError):
            checks.parse_csv("a,b\n1,2\n")


class TracerTest(unittest.TestCase):
    def test_covered_merges_overlaps(self):
        self.assertAlmostEqual(_covered([(0, 2), (1, 3), (5, 6)], 0, 10), 4.0)
        self.assertAlmostEqual(_covered([(0, 2), (1, 3)], 1.5, 2.5), 1.0)

    def test_self_time_and_pool_parents(self):
        mod = types.SimpleNamespace()
        mod.leaf = lambda: time.sleep(0.02)

        def outer():
            with ThreadPoolExecutor(max_workers=4) as pool:
                for _ in pool.map(lambda _: mod.leaf(), range(8)):
                    pass

        mod.outer = outer
        original = mod.leaf
        tracer = Tracer()
        tracer.wrap(mod, "leaf", "leaf")
        tracer.wrap(mod, "outer", "outer")
        mod.outer()
        tracer.uninstall()
        index = SpanIndex(tracer.spans)
        (top,) = index.named("outer")
        leaves = index.named("leaf")
        self.assertEqual(len(leaves), 8)
        self.assertTrue(all(s.parent == top.id for s in leaves))
        self.assertLess(index.self_time(top), 0.5 * top.duration)
        self.assertIs(mod.leaf, original)

    def test_concurrent_spans_are_not_lost(self):
        mod = types.SimpleNamespace(f=lambda: None)
        tracer = Tracer()
        tracer.wrap(mod, "f", "f")
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=lambda: [mod.f() for _ in range(2000)])
                       for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                self.assertFalse(t.is_alive())
        finally:
            sys.setswitchinterval(old)
        self.assertEqual(len(tracer.spans), 8000)
        self.assertEqual(len({s.id for s in tracer.spans}), 8000)


class SmokeTest(unittest.TestCase):
    """Every workload end to end on tiny inputs."""

    def run_bench(self, workload, trace):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
             "--seconds", "0", "--trace", str(trace), "--smoke"],
            capture_output=True, text=True, timeout=170)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        return json.loads(proc.stdout.splitlines()[-1])

    def test_workloads(self):
        for workload in ("ase-scan", "bound-curves", "mc-figure", "laplace-crossval"):
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    result = self.run_bench(workload, trace)
                    self.assertTrue(result["correct"])
                    self.assertGreater(result["attempted"], 0)
                    self.assertEqual(result["failed"], 0)
                    expected = {0: {"setup_s", "wall_s", "peak_rss_mb"},
                                1: {"trace.overhead_s", "sweep.rows", "cli.self_s"}}[trace]
                    self.assertTrue(expected <= set(result["metrics"]))


if __name__ == "__main__":
    unittest.main()
