"""The four benchmark workloads: inputs, timed body, checks, and probes.

Each workload drives mmwcluster only through its public entry points
(``cli.main`` and the public functions of ``analytical``, ``montecarlo``,
``config``, ``model`` and ``sweep``), always by module attribute at call
time so the tracer's wrappers see the calls.  Inputs are generated files
(a config file with every key pinned to its value at the time the benchmark
was written, sweep-spec files) and argument vectors, all made from the seed.

Importing this module needs ``mmwcluster`` on ``sys.path``.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import re
import time
from dataclasses import dataclass, field
from pathlib import Path

from mmwcluster import analytical, cli, config, montecarlo, special, sweep
from mmwcluster import model as mmodel
from mmwcluster.analytical import CoverageFlags
from mmwcluster.model import AssociationModel
from mmwcluster.montecarlo import IidExponential, SinrOptions

import checks
from tracing import SpanIndex, Tracer

ALL_MODELS = (AssociationModel.UNIFORM, AssociationModel.CLOSEST,
              AssociationModel.CLOSEST_LOS)

# Every config key pinned, so that a later change of the built-in defaults
# does not change what the benchmark runs.  These are the defaults of
# ``mmwcluster.config`` when the benchmark was defined.
PINNED_CONFIG = {
    "parent_density_per_km2": 150.0,
    "scatter_std": 10.0,
    "cluster_tx_count": 40,
    "mean_active": 5.0,
    "bandwidth_mhz": 100.0,
    "noise_figure_db": 10.0,
    "tx_power_dbm": 23.0,
    "alpha_los": 2.0,
    "alpha_nlos": 4.0,
    "nakagami_los": 3,
    "nakagami_nlos": 2,
    "tx_main_lobe_db": 10.0,
    "tx_side_lobe_db": -10.0,
    "tx_beamwidth_deg": 30.0,
    "rx_main_lobe_db": 10.0,
    "rx_side_lobe_db": 0.0,
    "rx_beamwidth_deg": 90.0,
    "carrier_ghz": 28.0,
    "avg_los_distance": 30.0,
    "antenna_elements": 1,
    "region_half_width": 500.0,
    "gamma_th_db": 20.0,
}


def write_config(path: Path, **overrides) -> Path:
    values = {**PINNED_CONFIG, **overrides}
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    return path


def write_spec(path: Path, **entries) -> Path:
    lines = []
    for key, val in entries.items():
        if isinstance(val, (list, tuple)):
            val = ", ".join(str(v) for v in val)
        lines.append(f"{key} = {val}\n")
    path.write_text("".join(lines))
    return path


def derived_seed(seed: int, salt: int) -> int:
    return (seed * 1_000_003 + salt) & ((1 << 63) - 1)


@dataclass
class Outcome:
    """What one repetition of a workload body produced."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)
    data: dict = field(default_factory=dict)
    files: list[str] = field(default_factory=list)


def call_cli(argv: list[str]) -> tuple[int | None, str, str]:
    """Run one CLI invocation in process; returns (exit code, stdout, note).

    The exit code is None when the call raised.  This is the operation
    boundary: whatever the program raises is recorded, not propagated.
    """
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # noqa: BLE001 - recorded as a failed operation
        return None, out.getvalue(), f"{argv[0]} raised {exc!r}"
    note = "" if rc == 0 else f"{argv[0]} exited {rc}: {err.getvalue().strip()[-300:]}"
    return rc, out.getvalue(), note


def sweep_outcome(argv: list[str], csv_path: Path, expected_rows: int) -> Outcome:
    """One sweep invocation; each expected CSV row is one operation."""
    outcome = Outcome(attempted=expected_rows)
    rc, _, note = call_cli(argv)
    if rc != 0 or not csv_path.is_file():
        outcome.failed = expected_rows
        outcome.notes.append(note or "sweep wrote no CSV")
        return outcome
    text = csv_path.read_text()
    try:
        rows = checks.parse_csv(text)
    except ValueError as exc:
        outcome.failed = expected_rows
        outcome.notes.append(str(exc))
        return outcome
    good = [r for r in rows if not r["error"]]
    outcome.failed = expected_rows - len(good)
    outcome.notes += [f"row error: {r['error']}" for r in rows if r["error"]]
    outcome.data["rows"] = good
    outcome.files.append(str(csv_path))
    return outcome


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """Base: subclasses write ``cfg_path`` and fill in the body and checks."""

    name = ""
    threads = 1
    overrides: dict[str, float] = {}

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.dir = work_dir
        self.dir.mkdir(parents=True, exist_ok=True)

    def run(self, round_dir: Path) -> Outcome:
        raise NotImplementedError

    def check(self, outcome: Outcome) -> list[str]:
        raise NotImplementedError

    def verify(self, outcome: Outcome) -> list[str]:
        """Checks that need extra computation; run once, outside any timing."""
        return []

    def base_config(self):
        """The config the workload's operations start from (also used by the probes)."""
        cfg = config.parse_config(self.cfg_path)
        for key, val in self.overrides.items():
            cfg = config.apply_override(cfg, key, val)
        return cfg


class AseScan(Workload):
    """``optimize-s``, uniform model, unconditioned-distance bound, at 20 dB
    and then 10 dB in one process (criterion 10)."""

    name = "ase-scan"

    def __init__(self, seed, work_dir, smoke):
        super().__init__(seed, work_dir)
        # the smoke run scans 10 loads at thresholds whose optima stay interior
        self.max_active = 10 if smoke else PINNED_CONFIG["cluster_tx_count"]
        self.thresholds = (30.0, 20.0) if smoke else (20.0, 10.0)
        self.cfg_path = write_config(self.dir / "ase.cfg", cluster_tx_count=self.max_active)

    def run(self, round_dir):
        outcome = Outcome()
        for gamma_db in self.thresholds:
            argv = ["optimize-s", "--config", str(self.cfg_path), "--model", "uniform",
                    "--engine", "analytical_approx", "--gamma-db", str(gamma_db),
                    "--seed", str(self.seed)]
            outcome.attempted += 1
            rc, text, note = call_cli(argv)
            if rc != 0:
                outcome.failed += 1
                outcome.notes.append(note)
                continue
            outcome.data[str(gamma_db)] = text
        return outcome

    def check(self, outcome):
        results, problems = {}, []
        for gamma_db, text in outcome.data.items():
            match = re.search(r"optimal mean_active = (\d+)\s+ase = (\S+)", text)
            if match is None:
                problems.append(f"{gamma_db} dB: no optimum in output {text!r}")
                continue
            results[float(gamma_db)] = (int(match.group(1)), float(match.group(2)))
        density = PINNED_CONFIG["parent_density_per_km2"] * 1e-6
        return problems + checks.ase_optimum(results, density, self.max_active)


class BoundCurves(Workload):
    """``sweep --spec`` over the threshold, exact bound, all three models, at
    load 3 and scatter 10 m (the fig. 4b setting)."""

    name = "bound-curves"
    overrides = {"scatter_std": 10.0, "mean_active": 3.0}
    MC_TRIALS = 4096

    def __init__(self, seed, work_dir, smoke):
        super().__init__(seed, work_dir)
        rng = random.Random(seed)
        offset = round(rng.uniform(0.0, 2.0), 3)
        steps = (0.0, 38.0) if smoke else (0.0, 9.5, 19.0, 28.5, 38.0)
        self.values = [round(offset + s, 3) for s in steps]
        self.mc_points = sorted(rng.sample(self.values, 2))
        self.cfg_path = write_config(self.dir / "bound.cfg")
        self.spec_path = write_spec(self.dir / "bound.spec", axis="gamma_th_db",
                                    values=self.values,
                                    models=[m.value for m in ALL_MODELS],
                                    engines="analytical", **self.overrides)

    def run(self, round_dir):
        csv_path = round_dir / "bound.csv"
        argv = ["sweep", "--config", str(self.cfg_path), "--spec", str(self.spec_path),
                "--out", str(csv_path), "--seed", str(self.seed),
                "--threads", str(self.threads)]
        return sweep_outcome(argv, csv_path, len(self.values) * len(ALL_MODELS))

    def check(self, outcome):
        return checks.bound_curves(outcome.data.get("rows", []))

    def verify(self, outcome):
        bounds = {(r["model"], r["axis_value"]): r["coverage_or_ase"]
                  for r in outcome.data.get("rows", [])}
        problems = []
        cases = [(m, SinrOptions(), IidExponential()) for m in ALL_MODELS]
        for k, gamma_db in enumerate(self.mc_points):
            ests = montecarlo.estimate_coverage_many(
                config.apply_override(self.base_config(), "gamma_th_db", gamma_db),
                10.0 ** (gamma_db / 10.0), cases,
                self.MC_TRIALS, derived_seed(self.seed, 17 + k))
            for m, est in zip(ALL_MODELS, ests):
                bound = bounds.get((m.value, gamma_db))
                if bound is not None:
                    problems += checks.bound_above_mc(f"{m.value} at {gamma_db} dB", bound,
                                                      est.p_hat, est.n_trials)
        return problems


class McFigure(Workload):
    """``sweep --spec`` over the load with the four interference variants of
    fig. 4a (scatter 20 m, 20 dB), on two sweep threads."""

    name = "mc-figure"
    ENGINES = ("montecarlo", "montecarlo:los_only", "montecarlo:nlos_only",
               "montecarlo:no_interference")
    threads = 2
    overrides = {"scatter_std": 20.0, "gamma_th_db": 20.0}

    def __init__(self, seed, work_dir, smoke):
        super().__init__(seed, work_dir)
        self.loads = [2.0] if smoke else [2.0, 5.0, 8.0]
        self.trials = 512 if smoke else 2048
        self.cfg_path = write_config(self.dir / "mc.cfg")
        self.spec_path = write_spec(self.dir / "mc.spec", axis="mean_active",
                                    values=self.loads,
                                    models=[m.value for m in ALL_MODELS],
                                    engines=self.ENGINES, **self.overrides)

    def run(self, round_dir):
        csv_path = round_dir / "mc.csv"
        argv = ["sweep", "--config", str(self.cfg_path), "--spec", str(self.spec_path),
                "--out", str(csv_path), "--seed", str(self.seed),
                "--trials", str(self.trials), "--threads", str(self.threads)]
        return sweep_outcome(argv, csv_path,
                             len(self.loads) * len(ALL_MODELS) * len(self.ENGINES))

    def check(self, outcome):
        return checks.mc_rows(outcome.data.get("rows", []), self.trials)

    def verify(self, outcome):
        problems = []
        base = self.base_config()
        gamma = 10.0 ** (base.gamma_th_db / 10.0)
        for row in outcome.data.get("rows", []):
            if row["engine"] != "montecarlo":
                continue
            cfg = base.with_mean_active(row["axis_value"])
            bound = analytical.coverage(AssociationModel(row["model"]), gamma,
                                        CoverageFlags(), cfg)
            problems += checks.mc_near_bound(f"{row['model']} at load {row['axis_value']}",
                                             row["coverage_or_ase"], bound)
        return problems


class LaplaceCrossval(Workload):
    """Monte Carlo Laplace oracles against the analytical transforms, intra
    for all three models plus inter (the shape of criterion 3, reduced)."""

    name = "laplace-crossval"

    def __init__(self, seed, work_dir, smoke):
        super().__init__(seed, work_dir)
        self.cfg_path = write_config(self.dir / "laplace.cfg")
        self.cfg = self.base_config()
        self.intra_trials = 4096 if smoke else 100_000
        self.inter_trials = 1024 if smoke else 8192
        s_ref = laplace_scale(self.cfg)
        self.s = [0.3 * s_ref, s_ref, 3.0 * s_ref, s_ref, s_ref]
        self.n = [1, 1, 1, 2, 3]
        self.v = self.cfg.scatter_std
        self.r_serving = 0.2 * self.cfg.scatter_std

    def run(self, round_dir):
        outcome = Outcome()
        sources = [(m, "intra") for m in ALL_MODELS] + [(AssociationModel.UNIFORM, "inter")]
        for k, (model, which) in enumerate(sources):
            label = f"{which}/{model.value}" if which == "intra" else "inter"
            outcome.attempted += len(self.s)
            rs = None if model is AssociationModel.UNIFORM else self.r_serving
            try:
                if which == "intra":
                    est = montecarlo.laplace_oracle(
                        self.cfg, model, "intra", self.s, self.n, self.intra_trials,
                        derived_seed(self.seed, k), v=self.v, r_serving=rs)
                    ana = [analytical.laplace_intra(model, n, s, self.v, r_serving=rs,
                                                    cfg=self.cfg)
                           for s, n in zip(self.s, self.n)]
                else:
                    est = montecarlo.laplace_oracle(
                        self.cfg, model, "inter", self.s, self.n, self.inter_trials,
                        derived_seed(self.seed, k))
                    ana = [analytical.laplace_inter(n, s, self.cfg)
                           for s, n in zip(self.s, self.n)]
            except Exception as exc:  # noqa: BLE001 - recorded as failed operations
                outcome.failed += len(self.s)
                outcome.notes.append(f"{label} raised {exc!r}")
                continue
            outcome.data[label] = (ana, [float(x) for x in est.value],
                                   [float(x) for x in est.std_error])
        return outcome

    def check(self, outcome):
        sn = [s * n for s, n in zip(self.s, self.n)]
        problems = []
        for label, (ana, oracle, se) in outcome.data.items():
            problems += checks.laplace_pair(label, sn, ana, oracle, se)
        return problems


WORKLOADS = {cls.name: cls for cls in (AseScan, BoundCurves, McFigure, LaplaceCrossval)}


def laplace_scale(cfg) -> float:
    """Laplace argument at which the strongest serving term of the coverage
    bound is evaluated at a device one scatter-std away (criterion 3)."""
    ch = cfg.channel
    n_l = ch.nakagami_los
    eta = n_l * math.exp(-math.lgamma(n_l + 1.0) / n_l)
    gamma = 10.0 ** (cfg.gamma_th_db / 10.0)
    return gamma * eta * cfg.scatter_std ** ch.alpha_los \
        / (ch.intercept_los * cfg.gain_table().boresight_gain)


# ---------------------------------------------------------------------------
# Tracing: which attributes are wrapped, and the layer metrics
# ---------------------------------------------------------------------------


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _coverage_tags(args, kwargs):
    flags = _arg(args, kwargs, 2, "flags", CoverageFlags())
    return {"kind": "approx" if flags.use_assumption1 else "exact"}


def _estimate_tags(args, kwargs):
    return {"trials": int(_arg(args, kwargs, 3, "n_trials"))}


def _oracle_tags(args, kwargs):
    return {"which": _arg(args, kwargs, 2, "which"),
            "trials": int(_arg(args, kwargs, 5, "n_trials"))}


def _sweep_tags(args, kwargs):
    return {"threads": int(_arg(args, kwargs, 5, "threads", 1))}


def install_tracer() -> Tracer:
    """Wrap each public callable at the attribute its callers look up."""
    tracer = Tracer()
    plan = [
        ((cli,), "main", "cli.main", None),
        ((cli, sweep), "run_sweep", "sweep.run_sweep", _sweep_tags),
        ((analytical,), "optimize_mean_active", "analytical.optimize_mean_active", None),
        ((analytical,), "coverage", "analytical.coverage", _coverage_tags),
        ((analytical,), "laplace_intra", "analytical.laplace_intra", None),
        ((analytical,), "laplace_inter", "analytical.laplace_inter", None),
        ((analytical, mmodel, special), "marcum_q1", "special.marcum_q1", None),
        ((analytical, mmodel, special), "rician_pdf", "special.rician_pdf", None),
        ((analytical, mmodel), "serving_distance_pdf_approx",
         "model.serving_distance_pdf_approx", None),
        ((montecarlo,), "estimate_coverage", "montecarlo.estimate_coverage", _estimate_tags),
        ((montecarlo,), "laplace_oracle", "montecarlo.laplace_oracle", _oracle_tags),
    ]
    for modules, attr, name, tag_fn in plan:
        for module in modules:
            if hasattr(module, attr):
                tracer.wrap(module, attr, name, tag_fn)
    return tracer


def _per_1k(index: SpanIndex, spans) -> float:
    trials = sum(s.tags["trials"] for s in spans)
    return 1e6 * index.total(spans) / trials if trials else 0.0


def _mean(index: SpanIndex, spans, scale: float = 1.0) -> float:
    return scale * index.total(spans) / len(spans) if spans else 0.0


def layer_metrics(index: SpanIndex, rows: int) -> dict[str, float]:
    """Per-layer numbers of one traced repetition."""
    exact = index.named("analytical.coverage", kind="exact")
    approx = index.named("analytical.coverage", kind="approx")
    intra = index.named("montecarlo.laplace_oracle", which="intra")
    inter = index.named("montecarlo.laplace_oracle", which="inter")
    estimates = index.named("montecarlo.estimate_coverage")
    sweeps = index.named("sweep.run_sweep")
    row_time = sum(index.total(index.children(s)) for s in sweeps)
    sweep_wall = index.total(sweeps)
    sweep_capacity = math.fsum(s.duration * s.tags["threads"] for s in sweeps)
    return {
        "special.marcum_q1.calls": len(index.named("special.marcum_q1")),
        "special.marcum_q1.self_s": index.total_self(index.named("special.marcum_q1")),
        "special.rician_pdf.calls": len(index.named("special.rician_pdf")),
        "special.rician_pdf.self_s": index.total_self(index.named("special.rician_pdf")),
        "model.serving_distance_pdf_approx.self_s":
            index.total_self(index.named("model.serving_distance_pdf_approx")),
        "analytical.coverage_exact.calls": len(exact),
        "analytical.coverage_exact.s_per_call": _mean(index, exact),
        "analytical.coverage_approx.calls": len(approx),
        "analytical.coverage_approx.s_per_call": _mean(index, approx),
        "analytical.optimize_mean_active.s":
            index.total(index.named("analytical.optimize_mean_active")),
        "analytical.laplace_intra.ms_per_call":
            _mean(index, index.named("analytical.laplace_intra"), 1000.0),
        "analytical.laplace_inter.ms_per_call":
            _mean(index, index.named("analytical.laplace_inter"), 1000.0),
        "montecarlo.estimate_coverage.calls": len(estimates),
        "montecarlo.estimate_coverage.ms_per_1k_trials": _per_1k(index, estimates),
        "montecarlo.laplace_oracle_intra.ms_per_1k_trials": _per_1k(index, intra),
        "montecarlo.laplace_oracle_inter.ms_per_1k_trials": _per_1k(index, inter),
        "sweep.run_sweep.s": sweep_wall,
        "sweep.self_s": index.total_self(sweeps),
        "sweep.rows": rows,
        "sweep.thread_utilization":
            row_time / sweep_capacity if sweep_capacity > 0.0 else 0.0,
        "cli.self_s": index.total_self(index.named("cli.main")),
    }


FIELD_PROBE_TRIALS = 4096
TYPICAL_PROBE_TRIALS = 8192


def expected_field_devices(cfg) -> float:
    """Mean number of inter-cluster devices one Monte Carlo trial draws:
    parents in the window times E[min(Poisson(mean_active), M)]."""
    lam, m = cfg.mean_active, cfg.cluster_tx_count
    pmf, below, mean_capped = math.exp(-lam), 0.0, 0.0
    for k in range(m):
        mean_capped += k * pmf
        below += pmf
        pmf *= lam / (k + 1)
    mean_capped += m * (1.0 - below)
    return cfg.parent_density * (2.0 * cfg.region_half_width) ** 2 * mean_capped


def run_probes(cfg, seed: int) -> dict[str, float]:
    """Timed calls on the workload's own config, outside the traced body."""
    gamma = 10.0 ** (cfg.gamma_th_db / 10.0)
    # a scatter no earlier call used, so every table cache misses once
    fresh = config.apply_override(cfg, "scatter_std", cfg.scatter_std * 1.001)
    flags = CoverageFlags(use_assumption1=True)
    t0 = time.perf_counter()
    analytical.coverage(AssociationModel.UNIFORM, gamma, flags, fresh)
    t1 = time.perf_counter()
    analytical.coverage(AssociationModel.UNIFORM, gamma, flags, fresh)
    t2 = time.perf_counter()
    montecarlo.laplace_oracle(cfg, AssociationModel.UNIFORM, "inter", laplace_scale(cfg),
                              1, FIELD_PROBE_TRIALS, derived_seed(seed, 91))
    t3 = time.perf_counter()
    montecarlo.estimate_coverage(cfg, AssociationModel.UNIFORM, gamma, TYPICAL_PROBE_TRIALS,
                                 derived_seed(seed, 92),
                                 options=SinrOptions(include_inter=False))
    t4 = time.perf_counter()
    return {
        "analytical.inter_table_cold_s": (t1 - t0) - (t2 - t1),
        "montecarlo.field_ms_per_1k_trials": (t3 - t2) * 1e6 / FIELD_PROBE_TRIALS,
        "montecarlo.field_devices_per_1k_trials": 1000.0 * expected_field_devices(cfg),
        "montecarlo.typical_ms_per_1k_trials": (t4 - t3) * 1e6 / TYPICAL_PROBE_TRIALS,
    }
