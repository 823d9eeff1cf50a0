"""Parameter sweeps and CSV emission for the reference figure curves.

A sweep evaluates one metric (coverage or area spectral efficiency) over an
axis of parameter values, for a set of association models and engines, and
writes one CSV row per (value, model, engine).  The Monte Carlo rows of one
axis value are estimated together from one seed, so they share sampled
worlds (common random numbers).  Rows are computed by a worker pool but
always written in spec order, so output files are byte-stable for a fixed
(config, spec, seed) regardless of thread count.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from . import analytical, montecarlo
from .analytical import CoverageFlags
from .config import apply_override, check_override_key, parse_number, read_key_values
from .errors import ConfigError, NumericalError, UsageError
from .model import AssociationModel, NetworkConfig

__all__ = ["SweepSpec", "run_sweep", "figure_specs", "parse_sweep_spec", "evaluate_engines",
           "CSV_HEADER"]

CSV_HEADER = "axis_value,model,engine,coverage_or_ase,ci_half_width,is_upper_bound,seed,error"

_AXES = ("mean_active", "gamma_th_db", "scatter_std", "carrier_hz", "avg_los_distance")
# the upper-bound engines and the bound flags each evaluates
BOUND_ENGINES = {"analytical": CoverageFlags(),
                 "analytical_approx": CoverageFlags(use_assumption1=True)}
_BASE_ENGINES = (*BOUND_ENGINES, "lower_bound", "montecarlo")
_MC_VARIANTS = {
    "intra_only": dict(include_inter=False),
    "inter_only": dict(include_intra=False),
    "no_interference": dict(include_intra=False, include_inter=False),
    "los_only": dict(include_nlos_interference=False),
    "nlos_only": dict(include_los_interference=False),
    "losball": {},  # blockage-mode switch, handled separately
}


@dataclass(frozen=True)
class SweepSpec:
    """One figure curve family: axis, values, models, engines, metric."""

    axis: str
    values: tuple[float, ...]
    models: tuple[AssociationModel, ...]
    engines: tuple[str, ...]
    metric: str = "coverage"
    config_overrides: tuple[tuple[str, float], ...] = ()
    label: str = ""

    def __post_init__(self):
        if self.axis not in _AXES:
            raise ConfigError(f"axis must be one of {_AXES}, got {self.axis!r}")
        if not self.values:
            raise ConfigError("values must be non-empty")
        if not self.engines:
            raise ConfigError("engines must be non-empty")
        if not self.models:
            raise ConfigError("models must be non-empty")
        if self.metric not in ("coverage", "ase"):
            raise ConfigError("metric must be 'coverage' or 'ase'")
        for engine in self.engines:
            _parse_engine(engine)


def _parse_engine(token: str) -> tuple[str, tuple[str, ...]]:
    parts = token.split(":")
    base, variants = parts[0], tuple(parts[1:])
    if base not in _BASE_ENGINES:
        raise ConfigError(f"unknown engine {token!r}")
    if variants and base != "montecarlo":
        raise ConfigError(f"engine {base!r} takes no variants")
    for var in variants:
        if var not in _MC_VARIANTS:
            raise ConfigError(f"unknown montecarlo variant {var!r}")
    return base, variants


def _mc_case(variants: tuple[str, ...], cfg: NetworkConfig):
    opts = {}
    blockage: montecarlo.BlockageMode = montecarlo.IidExponential()
    for var in variants:
        if var == "losball":
            blockage = montecarlo.LosBall(math.log(2.0) / cfg.channel.blockage_rate)
        else:
            opts.update(_MC_VARIANTS[var])
    return montecarlo.SinrOptions(**opts), blockage


def _format(x: float | None) -> str:
    if x is None:
        return ""
    return f"{x:.9g}"


def _row_seed(base_seed: int, index: int) -> int:
    return (base_seed * 1_000_003 + index) & ((1 << 63) - 1)


def evaluate_engines(cfg: NetworkConfig, rows: Sequence[tuple[AssociationModel, str]],
                     metric: str, seed: int,
                     trials: int) -> list[tuple[float, float | None, bool]]:
    """Each (model, engine) row's coverage (or ASE) at the configured threshold.

    Returns ``(value, 95% half-width or None, is_upper_bound)`` per row; the
    half-width is in the metric's units and only Monte Carlo engines have
    one.  All Monte Carlo rows come from one ``estimate_coverage_many`` call
    at ``seed``, so they share sampled worlds (common random numbers), and
    each equals a lone ``estimate_coverage`` call at that seed.  Raises
    ``UsageError``/``NumericalError`` when an engine cannot evaluate the point.
    """
    gamma = 10.0 ** (cfg.gamma_th_db / 10.0)
    parsed = [(model, *_parse_engine(engine)) for model, engine in rows]
    cases = [(model, *_mc_case(variants, cfg))
             for model, base, variants in parsed if base == "montecarlo"]
    estimates = iter(montecarlo.estimate_coverage_many(cfg, gamma, cases, trials, seed)
                     if cases else ())
    results = []
    for model, base, _ in parsed:
        ci = None
        if base in BOUND_ENGINES:
            value = analytical.coverage(model, gamma, BOUND_ENGINES[base], cfg)
        elif base == "lower_bound":
            value = analytical.coverage_lower_bound(gamma, cfg)
        else:
            est = next(estimates)
            value, ci = est.p_hat, est.half_width_95
        if metric == "ase":
            value = analytical.ase_from_coverage(cfg, gamma, value)
            if ci is not None:
                ci = analytical.ase_from_coverage(cfg, gamma, ci)
        results.append((value, ci, base in BOUND_ENGINES))
    return results


def _csv_line(axis_value: float, model: AssociationModel, engine: str, value, ci,
              upper: bool, seed: int, error: str) -> str:
    # only Monte Carlo rows carry a half-width, and only they are seeded
    return ",".join([_format(axis_value), model.value, engine, _format(value), _format(ci),
                     "true" if upper else "false", "" if ci is None else str(seed), error])


def _evaluate_point(cfg: NetworkConfig, pairs: list[tuple[AssociationModel, str]],
                    metric: str, axis_value: float, seed: int, trials: int) -> list[str]:
    """The CSV rows of one work item; a numerical failure fills ``error`` of
    every row instead of a value."""
    error = ""
    try:
        results = evaluate_engines(cfg, pairs, metric, seed, trials)
    except (UsageError, NumericalError) as exc:
        results = [(None, None, engine in BOUND_ENGINES) for _, engine in pairs]
        error = str(exc).replace(",", ";")
    return [_csv_line(axis_value, model, engine, value, ci, upper, seed, error)
            for (model, engine), (value, ci, upper) in zip(pairs, results)]


def _evaluate_curve(cfgs: list[NetworkConfig], pair: tuple[AssociationModel, str],
                    spec: SweepSpec, seeds: list[int], trials: int) -> list[str]:
    """The CSV rows of one analytical curve along the threshold or load axis
    from one :func:`analytical.coverage_grid` call.  If that call fails, each
    row is evaluated alone, so that a failure stays with its own point."""
    model, engine = pair
    gammas = [10.0 ** (c.gamma_th_db / 10.0) for c in cfgs]
    loads = [c.mean_active for c in cfgs]
    along_loads = spec.axis == "mean_active"
    try:
        grid = analytical.coverage_grid(
            model, gammas[:1] if along_loads else gammas, loads if along_loads else loads[:1],
            BOUND_ENGINES[engine], cfgs[0])
    except (UsageError, NumericalError):
        return [_evaluate_point(c, [pair], spec.metric, value, seed, trials)[0]
                for c, value, seed in zip(cfgs, spec.values, seeds)]
    covs = [cov for row in grid for cov in row]
    if spec.metric == "ase":
        covs = [analytical.ase_from_coverage(c, g, cov) for c, g, cov in zip(cfgs, gammas, covs)]
    return [_csv_line(value, model, engine, cov, None, True, seed, "")
            for value, cov, seed in zip(spec.values, covs, seeds)]


def run_sweep(cfg: NetworkConfig, spec: SweepSpec, out_path: str | Path,
              seed: int = 1, trials: int = 20_000, threads: int = 1) -> Path:
    """Evaluate the sweep and write the CSV; returns the output path.

    Each analytical row is one work item, except along the threshold or load
    axis, where each analytical (model, engine) curve is one.  The Monte
    Carlo rows of one axis value are one more: they share the point's seed
    and so its sampled worlds.  Per-point numerical failures land in the
    ``error`` column instead of aborting the sweep.
    """
    base_cfg = cfg
    for key, value in spec.config_overrides:
        base_cfg = apply_override(base_cfg, key, value)
    cfgs = [apply_override(base_cfg, spec.axis, value) for value in spec.values]
    seeds = [_row_seed(seed, i) for i in range(len(spec.values))]

    pairs = [(model, engine) for model in spec.models for engine in spec.engines]
    mc = [k for k, (_, engine) in enumerate(pairs) if engine.startswith("montecarlo")]
    curves = [k for k, (_, engine) in enumerate(pairs) if engine in BOUND_ENGINES] \
        if spec.axis in ("gamma_th_db", "mean_active") else []
    # the (axis value, row) cells of each work item: each curve along the
    # axis, every other analytical row alone, and the Monte Carlo rows of
    # each axis value together
    groups = [[k] for k in range(len(pairs)) if k not in mc and k not in curves] \
        + ([mc] if mc else [])
    items = [[(i, k) for i in range(len(spec.values))] for k in curves] \
        + [[(i, k) for k in ks] for i in range(len(spec.values)) for ks in groups]

    def work(cells):
        i, k = cells[0]
        if k in curves:
            return _evaluate_curve(cfgs, pairs[k], spec, seeds, trials)
        return _evaluate_point(cfgs[i], [pairs[k] for _, k in cells], spec.metric,
                               spec.values[i], seeds[i], trials)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(work, items))
    else:
        results = [work(item) for item in items]
    rows = [""] * (len(spec.values) * len(pairs))
    for cells, lines in zip(items, results):
        for (i, k), line in zip(cells, lines):
            rows[i * len(pairs) + k] = line

    out_path = Path(out_path)
    out_path.write_text("\n".join([CSV_HEADER, *rows]) + "\n")
    return out_path


# ---------------------------------------------------------------------------
# Built-in figure presets
# ---------------------------------------------------------------------------

_ALL_MODELS = (AssociationModel.UNIFORM, AssociationModel.CLOSEST,
               AssociationModel.CLOSEST_LOS)


def figure_specs(figure: str) -> list[SweepSpec]:
    """Named sweeps reproducing the reference figures (one CSV per spec)."""
    s_axis = tuple(float(s) for s in range(1, 11))
    g_axis = tuple(float(g) for g in range(0, 41, 5))
    if figure == "2a":
        return [SweepSpec(
            axis="mean_active", values=s_axis, models=_ALL_MODELS,
            engines=("analytical", "analytical_approx", "montecarlo"),
            config_overrides=(("scatter_std", 20.0), ("gamma_th_db", 20.0)),
            label="fig2a")]
    if figure == "2b":
        return [SweepSpec(
            axis="gamma_th_db", values=g_axis, models=(AssociationModel.UNIFORM,),
            engines=("montecarlo", "lower_bound", "analytical"),
            config_overrides=(("carrier_hz", 60e9), ("scatter_std", 10.0),
                              ("mean_active", 10.0)),
            label="fig2b")]
    if figure == "3a":
        return [SweepSpec(
            axis="mean_active", values=tuple(float(s) for s in range(1, 7)),
            models=(AssociationModel.UNIFORM,),
            engines=("montecarlo", "montecarlo:intra_only", "montecarlo:inter_only"),
            config_overrides=(("scatter_std", 10.0), ("gamma_th_db", 10.0)),
            label="fig3a")]
    if figure == "3b":
        return [SweepSpec(
            axis="mean_active", values=tuple(float(s) for s in range(4, 11)),
            models=(AssociationModel.UNIFORM,),
            engines=("montecarlo", "montecarlo:losball"),
            config_overrides=(("scatter_std", 10.0), ("gamma_th_db", 10.0)),
            label="fig3b")]
    if figure == "4a":
        return [SweepSpec(
            axis="mean_active", values=s_axis, models=_ALL_MODELS,
            engines=("montecarlo", "montecarlo:los_only", "montecarlo:nlos_only",
                     "montecarlo:no_interference"),
            config_overrides=(("scatter_std", 20.0), ("gamma_th_db", 20.0)),
            label="fig4a")]
    if figure == "4b":
        # receiver beam variants: default, higher main lobe, narrower main lobe
        variants = [
            ("rx10db90deg", ()),
            ("rx20db90deg", (("rx_main_lobe_db", 20.0),)),
            ("rx10db45deg", (("rx_beamwidth_deg", 45.0),)),
        ]
        return [SweepSpec(
            axis="gamma_th_db", values=g_axis, models=_ALL_MODELS,
            engines=("analytical_approx", "montecarlo"),
            config_overrides=(("scatter_std", 10.0), ("mean_active", 3.0)) + extra,
            label=f"fig4b_{name}") for name, extra in variants]
    if figure == "5a":
        return [SweepSpec(
            axis="mean_active", values=tuple(float(s) for s in range(1, 16)),
            models=_ALL_MODELS, engines=("analytical_approx", "montecarlo"),
            metric="ase",
            config_overrides=(("scatter_std", 10.0), ("gamma_th_db", 20.0)),
            label="fig5a")]
    if figure == "5b":
        return [SweepSpec(
            axis="gamma_th_db", values=g_axis, models=(AssociationModel.UNIFORM,),
            engines=("montecarlo", "analytical"),
            config_overrides=(("carrier_hz", carrier), ("scatter_std", 30.0),
                              ("mean_active", 3.0)),
            label=f"fig5b_{int(carrier / 1e9)}ghz")
            for carrier in (28e9, 38e9, 60e9, 73e9)]
    raise ConfigError(f"unknown figure id {figure!r}; expected one of "
                      "2a, 2b, 3a, 3b, 4a, 4b, 5a, 5b")


def parse_sweep_spec(path: str | Path) -> SweepSpec:
    """Parse a sweep-spec file (same line-oriented key = value format).

    Reserved keys: axis, values (comma-separated), models, engines, metric.
    Any other key must be an override key (``config.OVERRIDE_KEYS``) and is
    applied before the sweep runs.
    """
    fields = {"axis": None, "values": (), "models": _ALL_MODELS, "engines": (),
              "metric": "coverage"}
    overrides: list[tuple[str, float]] = []

    def store(key: str, text: str) -> None:
        if key == "values":
            fields[key] = tuple(float(tok) for tok in text.split(","))
        elif key == "models":
            fields[key] = tuple(AssociationModel(tok.strip()) for tok in text.split(","))
        elif key == "engines":
            fields[key] = tuple(tok.strip() for tok in text.split(","))
        elif key in ("axis", "metric"):
            fields[key] = text
        else:
            check_override_key(key)
            overrides.append((key, parse_number(key, text)))

    read_key_values(path, store)
    if fields["axis"] is None:
        raise ConfigError(f"{path}: missing 'axis'")
    return SweepSpec(**fields, config_overrides=tuple(overrides), label=Path(path).stem)
