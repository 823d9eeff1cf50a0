"""Self-validation harness: runs the library's cross-checks and reports
PASS/FAIL per check with the measured value and its tolerance.

Every check is deterministic for a fixed seed, so two runs with the same
arguments produce byte-identical reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import quad as _quad
from scipy.special import i0e as _i0e

from . import analytical, montecarlo, special
from .analytical import CoverageFlags, gamma_cdf_bound_coefficient
from .errors import NumericalError
from .model import (
    AssociationModel,
    NetworkConfig,
    los_association_probability,
    serving_distance_pdf,
)

__all__ = ["run_validation", "ValidationCheck", "i0_series", "marcum_by_quadrature"]


@dataclass(frozen=True)
class ValidationCheck:
    name: str
    measured: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.measured <= self.tolerance


def i0_series(x: float) -> float:
    """Power series sum_k (x^2/4)^k / (k!)^2, summed to convergence."""
    total, term, k = 1.0, 1.0, 0
    q = 0.25 * x * x
    while term > 1e-18 * total and k < 1000:
        k += 1
        term *= q / (k * k)
        total += term
    return total


def marcum_by_quadrature(a: float, b: float) -> float:
    """Adaptive quadrature of the defining integral, scaled-Bessel form.

    The integrand peaks near t = a, so the range must cover it even when
    b < a; splitting at the peak keeps the adaptive error estimate tight.
    Raises ``NumericalError`` if the estimated error exceeds 5e-10.
    """
    f = lambda t: t * math.exp(-0.5 * (t - a) ** 2) * _i0e(a * t)
    hi = max(a, b) + 45.0
    if b < a:
        v1, e1 = _quad(f, b, a, epsabs=1e-13, epsrel=1e-13, limit=600)
        v2, e2 = _quad(f, a, hi, epsabs=1e-13, epsrel=1e-13, limit=600)
        val, err = v1 + v2, e1 + e2
    else:
        val, err = _quad(f, b, hi, epsabs=1e-13, epsrel=1e-13, limit=600)
    if not err < 5e-10:
        raise NumericalError(f"Marcum Q1 oracle at ({a}, {b}) did not converge", val)
    return val


def run_validation(cfg: NetworkConfig, n_trials: int = 20_000, seed: int = 1,
                   tol_scale: float = 1.0) -> tuple[str, bool]:
    """Run all checks; returns (report text, all passed)."""
    checks: list[ValidationCheck] = []

    def add(name: str, measured: float, tolerance: float):
        checks.append(ValidationCheck(name, float(measured), tolerance * tol_scale))

    sigma = cfg.scatter_std
    var = sigma * sigma

    # special functions against independent oracles
    xs = np.linspace(0.0, 30.0, 40)
    err = max(abs(special.bessel_i0(float(x)) - i0_series(float(x)))
              / i0_series(float(x)) for x in xs)
    add("bessel_i0_vs_power_series", err, 1e-12)

    grid = [(a, b) for a in (0.0, 0.5, 1.0, 3.0, 8.0, 25.0) for b in (0.0, 0.5, 2.0, 6.0, 27.0)]
    err = max(abs(special.marcum_q1(a, b) - marcum_by_quadrature(a, b)) for a, b in grid)
    add("marcum_q1_vs_quadrature", err, 1e-9)

    err = 0.0
    for a in (0.0, 1.0, 4.0):
        for b in (0.5, 2.0, 5.0):
            tail, _ = _quad(lambda t: special.rician_pdf(t, a, 1.0), b, b + 45.0, limit=200)
            err = max(err, abs(special.marcum_q1(a, b) - tail))
    add("marcum_q1_vs_rician_tail", err, 1e-8)

    mass, _ = _quad(lambda x: special.rayleigh_pdf(x, var), 0.0, 20.0 * sigma, limit=200)
    err = abs(mass - 1.0)
    mass, _ = _quad(lambda x: special.rician_pdf(x, 3.0 * sigma, var), 0.0, 30.0 * sigma,
                    limit=200)
    err = max(err, abs(mass - 1.0))
    add("density_normalization", err, 1e-9)

    table = cfg.gain_table()
    p1, p2, p3, p4 = table.probabilities
    add("gain_table_probability_sum", abs(1.0 - p1 - p2 - p3 - p4), 0.0)

    # serving-density masses for all three models
    err = 0.0
    for model in AssociationModel:
        for v in (0.3 * sigma, 1.0 * sigma, 2.5 * sigma):
            mass, _ = _quad(lambda r: serving_distance_pdf(model, r, v, cfg),
                            0.0, v + 16.0 * sigma, limit=400)
            target = (los_association_probability(v, cfg)
                      if model is AssociationModel.CLOSEST_LOS else 1.0)
            err = max(err, abs(mass - target))
    add("serving_density_mass", err, 1e-6)

    # Monte Carlo micro-checks
    rng = np.random.Generator(np.random.Philox(key=(seed << 64) | 0xFAD))
    for shape in (cfg.channel.nakagami_los, cfg.channel.nakagami_nlos):
        draws = montecarlo._fading(rng, shape, 1_000_000)
        add(f"fading_unit_mean_shape{shape}", abs(float(draws.mean()) - 1.0), 0.01)

    draws = rng.random(1_000_000)
    # outcome indices for gains: the two mixed outcomes share one gain
    _, cum = montecarlo._gain_law(table)
    idx = montecarlo._gain_draw(draws, cum, np.arange(cum.size))
    err = 0.0
    for i, b in enumerate(table.probabilities):
        freq = float(np.mean(idx == i))
        se = math.sqrt(b * (1.0 - b) / draws.size)
        err = max(err, abs(freq - b) / se)
    add("gain_draw_frequencies_z", err, 3.5)

    dists = np.array([5.0, 15.0, 30.0, 60.0])
    u = rng.random((200_000, dists.size))
    p = np.exp(-cfg.channel.blockage_rate * dists)
    emp = montecarlo._los_flags(dists, u, montecarlo.IidExponential(),
                                cfg.channel.blockage_rate, False).mean(axis=0)
    z = np.abs(emp - p) / np.sqrt(p * (1.0 - p) / u.shape[0])
    add("los_fraction_z", float(z.max()), 3.5)

    gamma = 10.0 ** (cfg.gamma_th_db / 10.0)
    est1 = montecarlo.estimate_coverage(cfg, AssociationModel.UNIFORM, gamma,
                                        min(n_trials, 5000), seed)
    est2 = montecarlo.estimate_coverage(cfg, AssociationModel.UNIFORM, gamma,
                                        min(n_trials, 5000), seed)
    add("mc_determinism", abs(est1.p_hat - est2.p_hat), 0.0)

    est = montecarlo.estimate_coverage(cfg, AssociationModel.UNIFORM, gamma,
                                       n_trials, seed)
    cov = analytical.coverage(AssociationModel.UNIFORM, gamma, CoverageFlags(), cfg)
    add("analytical_vs_mc_uniform", abs(cov - est.p_hat),
        max(0.05, 4.0 * est.half_width_95 / 1.96))

    eta = gamma_cdf_bound_coefficient(cfg.channel.nakagami_los)
    s_ref = gamma * eta * sigma ** cfg.channel.alpha_los \
        / (cfg.channel.intercept_los * table.boresight_gain)
    oracle = montecarlo.laplace_oracle(cfg, AssociationModel.UNIFORM, "intra",
                                       s_ref, 1, n_trials, seed, v=sigma)
    ana = analytical.laplace_intra(AssociationModel.UNIFORM, 1, s_ref, sigma, cfg=cfg)
    add("laplace_intra_vs_oracle_z", abs(ana - oracle.value) / oracle.std_error, 3.5)

    oracle = montecarlo.laplace_oracle(cfg, AssociationModel.UNIFORM, "inter",
                                       s_ref, 1, n_trials, seed)
    ana = analytical.laplace_inter(1, s_ref, cfg)
    add("laplace_inter_vs_oracle_z", abs(ana - oracle.value) / oracle.std_error, 3.5)

    width = max(len(c.name) for c in checks) + 2
    lines = [f"{'check'.ljust(width)}{'measured':>14}{'tolerance':>14}  status"]
    for c in checks:
        lines.append(f"{c.name.ljust(width)}{c.measured:>14.6e}{c.tolerance:>14.6e}"
                     f"  {'PASS' if c.passed else 'FAIL'}")
    ok = all(c.passed for c in checks)
    n_pass = sum(c.passed for c in checks)
    lines.append(f"RESULT: {'PASS' if ok else 'FAIL'} ({n_pass}/{len(checks)} checks)")
    return "\n".join(lines) + "\n", ok
