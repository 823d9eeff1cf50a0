"""Command-line front end.

Commands: ``coverage``, ``ase``, ``sweep``, ``optimize-s``, ``validate``.
Exit codes: 0 success, 1 validation failure, 2 usage/config error,
3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import analytical
from .config import apply_override, default_config, parse_config
from .errors import ConfigError, NumericalError, UsageError
from .model import AssociationModel
from .sweep import BOUND_ENGINES, evaluate_engines, figure_specs, parse_sweep_spec, run_sweep
from .validate import run_validation

_MODEL_CHOICES = [m.value for m in AssociationModel] + ["all"]
_ENGINE_NOTES = {
    "analytical": "analytical upper bound",
    "analytical_approx": "analytical upper bound (unconditioned distances)",
    "lower_bound": "closed-form lower bound",
    "montecarlo": "monte carlo, +-{half_width} (95%), {trials} trials",
}


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--config", type=Path, default=None,
                        help="config file (key = value lines); defaults built in")
    parser.add_argument("--seed", type=int, default=1, help="RNG seed (64-bit)")
    parser.add_argument("--trials", type=int, default=20_000,
                        help="Monte Carlo trials per estimate")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker threads for sweeps")
    parser.add_argument("--out", type=Path, default=None, help="output path")


def _load_config(args):
    cfg = parse_config(args.config) if args.config else default_config()
    for key, flag in (("gamma_th_db", "gamma_db"), ("mean_active", "mean_active"),
                      ("scatter_std", "scatter_std")):
        if getattr(args, flag, None) is not None:
            cfg = apply_override(cfg, key, getattr(args, flag))
    return cfg


def _models(args) -> list[AssociationModel]:
    if args.model == "all":
        return list(AssociationModel)
    return [AssociationModel(args.model)]


def _point_estimates(args, metric: str) -> list[str]:
    cfg = _load_config(args)
    # coverage half-widths keep 4 decimals; ASE ones are far below 1e-4
    unit, width_format = (" bit/s/Hz/m^2", ".3g") if metric == "ase" else ("", ".4f")
    models = _models(args)
    # one call for all models: Monte Carlo ones share the sampled worlds
    results = evaluate_engines(cfg, [(model, args.engine) for model in models], metric,
                               args.seed, args.trials)
    lines = []
    for model, (value, half_width, _) in zip(models, results):
        note = _ENGINE_NOTES[args.engine]
        if half_width is not None:
            note = note.format(half_width=format(half_width, width_format), trials=args.trials)
        lines.append(f"{model.value:12s} {value:.9g}{unit}  [{note}]")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="mmwcluster",
        description="Coverage probability and area spectral efficiency for "
                    "clustered D2D mmWave networks")
    sub = parser.add_subparsers(dest="command", required=True)

    p_cov = sub.add_parser("coverage", help="coverage probability at the configured threshold")
    p_ase = sub.add_parser("ase", help="area spectral efficiency at the configured threshold")
    for p in (p_cov, p_ase):
        _add_common(p)
        p.add_argument("--model", choices=_MODEL_CHOICES, default="all")
        p.add_argument("--engine", choices=list(_ENGINE_NOTES), default="analytical")
        p.add_argument("--gamma-db", type=float, default=None, help="SINR threshold [dB]")
        p.add_argument("--mean-active", type=float, default=None)
        p.add_argument("--scatter-std", type=float, default=None)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep and write CSV")
    _add_common(p_sweep)
    group = p_sweep.add_mutually_exclusive_group(required=True)
    group.add_argument("--figure", help="built-in figure preset (2a..5b)")
    group.add_argument("--spec", type=Path, help="sweep spec file")

    p_opt = sub.add_parser("optimize-s", help="scan the mean active-transmitter count "
                                              "for maximum area spectral efficiency")
    _add_common(p_opt)
    p_opt.add_argument("--model", choices=_MODEL_CHOICES, default="uniform")
    p_opt.add_argument("--engine", choices=list(BOUND_ENGINES), default="analytical_approx")
    p_opt.add_argument("--gamma-db", type=float, default=None)

    p_val = sub.add_parser("validate", help="run the self-validation checks")
    _add_common(p_val)
    p_val.add_argument("--tol-scale", type=float, default=1.0,
                       help="multiply every tolerance (testing hook)")

    args = parser.parse_args(argv)
    try:
        if args.trials < 1 or args.threads < 1:
            raise UsageError("--trials and --threads must be >= 1")
        if args.command in ("coverage", "ase"):
            for line in _point_estimates(args, args.command):
                print(line)
            return 0
        if args.command == "sweep":
            cfg = _load_config(args)
            specs = figure_specs(args.figure) if args.figure else [parse_sweep_spec(args.spec)]
            default_stem = f"figure_{args.figure}" if args.figure else Path(args.spec).stem
            for spec in specs:
                if len(specs) == 1:
                    out = args.out or Path(f"{default_stem}.csv")
                else:
                    stem = args.out.with_suffix("") if args.out else Path(default_stem)
                    out = Path(f"{stem}_{spec.label.rsplit('_', 1)[-1]}.csv")
                path = run_sweep(cfg, spec, out, seed=args.seed, trials=args.trials,
                                 threads=args.threads)
                print(f"wrote {path}")
            return 0
        if args.command == "optimize-s":
            cfg = _load_config(args)
            gamma = 10.0 ** (cfg.gamma_th_db / 10.0)
            for model in _models(args):
                s_opt, ase_opt = analytical.optimize_mean_active(
                    model, gamma, BOUND_ENGINES[args.engine], cfg)
                print(f"{model.value:12s} optimal mean_active = {s_opt}  "
                      f"ase = {ase_opt:.9g} bit/s/Hz/m^2  [upper-bound based]")
            return 0
        if args.command == "validate":
            cfg = _load_config(args)
            report, ok = run_validation(cfg, n_trials=args.trials, seed=args.seed,
                                        tol_scale=args.tol_scale)
            out = sys.stdout if args.out is None else open(args.out, "w")
            try:
                out.write(report)
            finally:
                if args.out is not None:
                    out.close()
            return 0 if ok else 1
        raise UsageError(f"unknown command {args.command!r}")
    except (ConfigError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
