"""Benchmark entry point for mmwcluster.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole repetitions of one workload, each in a fresh interpreter (see
``worker.py``), until ``--seconds`` have passed, always at least one.  With
``--trace 0`` it prints the end-to-end metrics (medians over repetitions);
with ``--trace 1`` it alternates untraced and traced repetitions and prints
the per-layer metrics.  Every repetition's outputs are checked; the last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Details of the run go to ``perfbench/out/``.

``--smoke`` shrinks every workload's inputs so all of them run end to end
in seconds; its numbers are not comparable with a normal run.

Exits with code 2, printing no result, when the mmwcluster sources are not
next to this directory, and with code 1 when a repetition could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("ase-scan", "bound-curves", "mc-figure", "laplace-crossval")
# set-up is sampled at least this often per run, adding set-up-only workers
SETUP_SAMPLES = 3
# a run ends by then, whatever --seconds says, so it stays under 180 s
HARD_LIMIT_S = 170.0

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))
PER_LAYER_UNITS = {
    "special.marcum_q1.calls": "count",
    "special.marcum_q1.self_s": "s",
    "special.rician_pdf.calls": "count",
    "special.rician_pdf.self_s": "s",
    "model.serving_distance_pdf_approx.self_s": "s",
    "analytical.coverage_exact.calls": "count",
    "analytical.coverage_exact.s_per_call": "s",
    "analytical.coverage_approx.calls": "count",
    "analytical.coverage_approx.s_per_call": "s",
    "analytical.optimize_mean_active.s": "s",
    "analytical.inter_table_cold_s": "s",
    "analytical.laplace_intra.ms_per_call": "ms",
    "analytical.laplace_inter.ms_per_call": "ms",
    "montecarlo.estimate_coverage.calls": "count",
    "montecarlo.estimate_coverage.ms_per_1k_trials": "ms",
    "montecarlo.field_ms_per_1k_trials": "ms",
    "montecarlo.field_devices_per_1k_trials": "count_computed",
    "montecarlo.typical_ms_per_1k_trials": "ms",
    "montecarlo.laplace_oracle_intra.ms_per_1k_trials": "ms",
    "montecarlo.laplace_oracle_inter.ms_per_1k_trials": "ms",
    "sweep.run_sweep.s": "s",
    "sweep.self_s": "s",
    "sweep.rows": "count",
    "sweep.thread_utilization": "ratio",
    "cli.self_s": "s",
    "process.cpu_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    """A repetition could not run to its end."""


class Run:
    """Spawns the workers of one benchmark run and keeps their results."""

    def __init__(self, args):
        self.args = args
        self.start = time.perf_counter()
        self.dir = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
        self.work_dir = self.dir / "inputs"
        self._count = 0

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def spawn(self, mode: str, round_dir: Path) -> dict:
        self._count += 1
        result_path = self.dir / f"result-{self._count}.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--mode", mode,
               "--work-dir", str(self.work_dir), "--round-dir", str(round_dir),
               "--result", str(result_path)]
        if self.args.smoke:
            cmd.append("--smoke")
        timeout = max(HARD_LIMIT_S - self.elapsed(), 5.0)
        spawned = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                                  stdout=subprocess.DEVNULL, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} worker still running after {timeout:.0f} s") from None
        if proc.returncode != 0:
            raise BenchError(f"{mode} worker exited {proc.returncode}")
        result = json.loads(result_path.read_text())
        # perf_counter is CLOCK_MONOTONIC on Linux, shared by both processes
        result["setup_s"] = result["ready"] - spawned
        result["round_dir"] = str(round_dir)
        return result


def _median(values):
    return statistics.median(values) if values else 0.0


def _quartiles(values):
    return statistics.quantiles(values, n=4) if len(values) > 1 else list(values) * 3


def _fingerprint(result: dict) -> bytes:
    """Bytes a repetition produced: its files and its parsed outputs."""
    blob = b"".join(Path(f).read_bytes() for f in result["files"])
    outcome = json.loads((Path(result["round_dir"]) / "outcome.json").read_text())
    return blob + json.dumps(outcome["data"], sort_keys=True).encode()


def measure(run: Run) -> tuple[dict, dict]:
    """Run the repetitions; return the printed result and the detail record."""
    import checks

    args = run.args
    plains, traced = [], []
    k = 0
    while True:
        plains.append(run.spawn("timed", run.dir / f"round-{k}"))
        if args.trace:
            traced.append(run.spawn("traced", run.dir / f"round-{k}-traced"))
        k += 1
        # past a third of the hard limit, leave the rest for set-up and verify
        if run.elapsed() >= args.seconds or run.elapsed() >= HARD_LIMIT_S / 3:
            break
    bodies = plains + traced
    setups = [r["setup_s"] for r in bodies]
    while not args.trace and len(setups) < SETUP_SAMPLES:
        setups.append(run.spawn("setup", run.dir / "setup")["setup_s"])
    verify = run.spawn("verify", run.dir / "round-0")

    problems = [p for r in bodies for p in r["problems"]] + verify["problems"]
    problems += checks.same_bytes([_fingerprint(r) for r in bodies])
    attempted = sum(r["attempted"] for r in bodies)
    failed = sum(r["failed"] for r in bodies)
    if args.trace:
        metrics = {name: {"value": _median([t["layers"][name] for t in traced]),
                          "unit": PER_LAYER_UNITS[name]}
                   for name in PER_LAYER_UNITS if name != "trace.overhead_s"}
        overhead = [t["wall_s"] - p["wall_s"] for p, t in zip(plains, traced)]
        metrics["trace.overhead_s"] = {"value": _median(overhead), "unit": "s"}
    else:
        values = {"setup_s": _median(setups),
                  "wall_s": _median([r["wall_s"] for r in plains]),
                  "peak_rss_mb": _median([r["peak_rss_mb"] for r in plains])}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "smoke": args.smoke, "setup_samples_s": setups,
              "wall_s_quartiles": _quartiles([r["wall_s"] for r in plains]),
              "repetitions": [{key: r.get(key) for key in
                               ("wall_s", "cpu_s", "peak_rss_mb", "setup_s", "attempted",
                                "failed", "notes", "layers")} for r in bodies],
              "problems": problems, "result": result}
    return result, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, to check that every workload runs")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mmwcluster" / "__init__.py").is_file():
        print(f"error: mmwcluster sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    run = Run(args)
    run.work_dir.mkdir(parents=True, exist_ok=True)
    try:
        result, detail = measure(run)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        traced_spans = sorted(run.dir.glob("round-*-traced/spans.json"))
        if traced_spans:
            shutil.copyfile(traced_spans[-1],
                            OUT / f"spans-{args.workload}-seed{args.seed}.json")
        shutil.rmtree(run.dir, ignore_errors=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(detail, indent=1))
    for problem in detail["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
