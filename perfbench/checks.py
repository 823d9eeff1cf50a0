"""Correctness checks on the outputs of the benchmark workloads.

Every check returns a list of problems, empty when the output is right.  A
check compares against a property the method must have (bounds in [0, 1],
monotone curves, model ordering, the binomial half-width formula) or against
a computation made apart from the output under test; none compares against
a stored copy of an earlier output.  Monte Carlo comparisons allow several
standard errors, so a correct program passes on any seed.
"""

from __future__ import annotations

import math

CSV_COLUMNS = ("axis_value", "model", "engine", "coverage_or_ase", "ci_half_width",
               "is_upper_bound", "seed", "error")
MODEL_ORDER = ("uniform", "closest", "closest_los")
# Monte Carlo comparisons allow this many standard errors: the chance that a
# correct program exceeds it on one comparison is below 1e-6.
Z_MAX = 5.0


def parse_csv(text: str) -> list[dict]:
    """Rows of a sweep CSV as dicts; numbers as floats, empty fields as None."""
    lines = text.splitlines()
    if not lines or tuple(lines[0].split(",")) != CSV_COLUMNS:
        raise ValueError(f"unexpected CSV header {lines[:1]!r}")
    rows = []
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != len(CSV_COLUMNS):
            raise ValueError(f"malformed CSV row {line!r}")
        row = dict(zip(CSV_COLUMNS, fields))
        for key in ("axis_value", "coverage_or_ase", "ci_half_width"):
            row[key] = float(row[key]) if row[key] else None
        rows.append(row)
    return rows


def binomial_se(p: float, n: int) -> float:
    """Standard error of a proportion, floored at one trial's worth so that
    an estimate of exactly 0 or 1 still carries some uncertainty."""
    return math.sqrt(max(p * (1.0 - p), 1.0 / n) / n)


def same_bytes(blobs: list[bytes]) -> list[str]:
    """Every run with the same seed must write the same bytes."""
    return [f"output of repetition {i} differs from repetition 0"
            for i, blob in enumerate(blobs) if blob != blobs[0]]


def ase_optimum(results: dict[float, tuple[int, float]], density: float,
                max_active: int) -> list[str]:
    """``results`` maps threshold [dB] to (optimal mean_active, its ASE).

    The optimum is interior, it does not grow with the threshold, and the
    ASE is s * lambda * log2(1 + gamma) times a coverage probability.
    """
    problems = []
    for gamma_db, (s_opt, ase) in results.items():
        if not 1 < s_opt < max_active:
            problems.append(f"{gamma_db} dB: optimum {s_opt} not interior to (1, {max_active})")
        ceiling = s_opt * density * math.log2(1.0 + 10.0 ** (gamma_db / 10.0))
        ratio = ase / ceiling
        if not 0.0 < ratio <= 1.0 + 1e-9:
            problems.append(f"{gamma_db} dB: ase / (s lambda log2(1+gamma)) = {ratio} "
                            "is not a probability")
    ordered = sorted(results)
    for lo, hi in zip(ordered, ordered[1:]):
        if results[hi][0] > results[lo][0]:
            problems.append(f"optimum grows with threshold: s*({hi} dB) = {results[hi][0]} "
                            f"> s*({lo} dB) = {results[lo][0]}")
    return problems


def _by_model(rows: list[dict]) -> dict[str, dict[float, dict]]:
    out: dict[str, dict[float, dict]] = {}
    for row in rows:
        out.setdefault(row["model"], {})[row["axis_value"]] = row
    return out


def bound_curves(rows: list[dict]) -> list[str]:
    """Analytical coverage rows over a threshold axis."""
    problems = []
    for row in rows:
        value = row["coverage_or_ase"]
        if value is None or not 0.0 <= value <= 1.0:
            problems.append(f"{row['model']} at {row['axis_value']} dB: value {value} "
                            "outside [0, 1]")
        if row["is_upper_bound"] != "true":
            problems.append(f"{row['model']} at {row['axis_value']} dB: not labelled "
                            "an upper bound")
    if problems:
        return problems
    curves = _by_model(rows)
    for model, curve in curves.items():
        xs = sorted(curve)
        for a, b in zip(xs, xs[1:]):
            if curve[b]["coverage_or_ase"] > curve[a]["coverage_or_ase"] + 1e-9:
                problems.append(f"{model}: coverage rises from {a} dB to {b} dB")
    for weak, strong in zip(MODEL_ORDER, MODEL_ORDER[1:]):
        for x, row in curves.get(weak, {}).items():
            other = curves.get(strong, {}).get(x)
            if other is not None and other["coverage_or_ase"] < row["coverage_or_ase"] - 1e-9:
                problems.append(f"at {x} dB: {strong} {other['coverage_or_ase']} "
                                f"< {weak} {row['coverage_or_ase']}")
    return problems


def bound_above_mc(label: str, bound: float, p_hat: float, n_trials: int) -> list[str]:
    """An upper bound may not sit below a Monte Carlo estimate of the truth."""
    se = binomial_se(p_hat, n_trials)
    if p_hat > bound + Z_MAX * se:
        return [f"{label}: bound {bound} below Monte Carlo {p_hat} "
                f"by {(p_hat - bound) / se:.1f} standard errors"]
    return []


# (lower, higher): removing interference terms cannot lower the SINR
_MC_ORDER = (("montecarlo", "montecarlo:los_only"),
             ("montecarlo", "montecarlo:nlos_only"),
             ("montecarlo:los_only", "montecarlo:no_interference"),
             ("montecarlo:nlos_only", "montecarlo:no_interference"))


def mc_rows(rows: list[dict], n_trials: int) -> list[str]:
    """Monte Carlo coverage rows of a load sweep over interference variants."""
    problems = []
    for row in rows:
        p = row["coverage_or_ase"]
        hw = row["ci_half_width"]
        where = f"{row['model']}/{row['engine']} at load {row['axis_value']}"
        if p is None or hw is None or not 0.0 <= p <= 1.0:
            problems.append(f"{where}: estimate {p} / half-width {hw} missing or outside [0, 1]")
            continue
        if row["is_upper_bound"] != "false" or not row["seed"]:
            problems.append(f"{where}: Monte Carlo row must carry a seed and no bound label")
        successes = round(p * n_trials)
        if abs(p * n_trials - successes) > 1e-5:
            problems.append(f"{where}: {p} is not a count over {n_trials} trials")
        p_exact = successes / n_trials
        expected = 1.96 * math.sqrt(p_exact * (1.0 - p_exact) / n_trials)
        if abs(hw - expected) > 1e-8 * expected + 1e-12:
            problems.append(f"{where}: half-width {hw} != 1.96 sqrt(p(1-p)/n) = {expected}")
    if problems:
        return problems
    cells: dict[tuple[float, str], dict[str, float]] = {}
    for row in rows:
        cells.setdefault((row["axis_value"], row["model"]), {})[row["engine"]] = \
            row["coverage_or_ase"]
    for (load, model), by_engine in sorted(cells.items()):
        for lower, higher in _MC_ORDER:
            if lower not in by_engine or higher not in by_engine:
                continue
            a, b = by_engine[lower], by_engine[higher]
            tol = Z_MAX * math.hypot(binomial_se(a, n_trials), binomial_se(b, n_trials))
            if a > b + tol:
                problems.append(f"{model} at load {load}: {lower} {a} > {higher} {b} "
                                f"beyond {Z_MAX} standard errors")
    return problems


def mc_near_bound(label: str, p_hat: float, bound: float, tol: float = 0.05) -> list[str]:
    """The full Monte Carlo case tracks the exact analytical bound."""
    if abs(p_hat - bound) > tol:
        return [f"{label}: Monte Carlo {p_hat} and exact bound {bound} differ by more than {tol}"]
    return []


def laplace_pair(label: str, sn: list[float], analytic: list[float],
                 oracle: list[float], std_error: list[float]) -> list[str]:
    """Analytical transform against its Monte Carlo oracle at several s*n.

    Both are Laplace transforms of a nonnegative interference, so both lie
    in (0, 1] and do not rise with s*n; they agree within Z_MAX standard
    errors.
    """
    problems = []
    for k, (x, a, o, se) in enumerate(zip(sn, analytic, oracle, std_error)):
        for name, val in (("analytic", a), ("oracle", o)):
            if not 0.0 < val <= 1.0:
                problems.append(f"{label} s*n={x:.4g}: {name} value {val} outside (0, 1]")
        if se > 0.0:
            z = abs(a - o) / se
            if not z <= Z_MAX:
                problems.append(f"{label} s*n={x:.4g}: z-score {z:.2f} above {Z_MAX}")
        elif abs(a - o) > 1e-12:
            problems.append(f"{label} s*n={x:.4g}: oracle has zero spread but differs")
    order = sorted(range(len(sn)), key=lambda k: sn[k])
    for name, vals in (("analytic", analytic), ("oracle", oracle)):
        for i, j in zip(order, order[1:]):
            if vals[j] > vals[i] + 1e-12:
                problems.append(f"{label}: {name} rises from s*n={sn[i]:.4g} to {sn[j]:.4g}")
    return problems
