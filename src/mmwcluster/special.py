"""Special functions and elementary densities used throughout the library.

All functions accept scalars or numpy arrays and broadcast like ufuncs.
Density arguments follow the convention that the second moment parameter is
a *variance* (sigma squared), never a standard deviation; the CLI squares
user-supplied sigmas exactly once at parse time.
"""

from __future__ import annotations

import numpy as np
from scipy import special as _sc

__all__ = [
    "bessel_i0",
    "bessel_i0_scaled",
    "marcum_q1",
    "rayleigh_pdf",
    "rician_pdf",
]

# Largest argument for which exp(x) does not overflow a double; beyond this
# bessel_i0 would return inf and callers must switch to the scaled form.
_I0_OVERFLOW = 709.0


def _as_checked_array(x, name: str, allow_zero: bool = True) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    if allow_zero:
        if (arr < 0.0).any():
            raise ValueError(f"{name} must be >= 0")
    else:
        if (arr <= 0.0).any():
            raise ValueError(f"{name} must be > 0")
    return arr


def _scalar_like(result: np.ndarray, *inputs) -> float | np.ndarray:
    if all(np.ndim(v) == 0 for v in inputs):
        return float(result)
    return result


def bessel_i0(x):
    """Modified Bessel function of the first kind, order zero.

    Only the nonnegative branch is exposed (I0 is even).  Overflows to inf
    for x beyond ~709; use :func:`bessel_i0_scaled` in exponent-heavy code.
    """
    arr = _as_checked_array(x, "x")
    return _scalar_like(_sc.i0(arr), x)


def bessel_i0_scaled(x):
    """exp(-x) * I0(x), finite for all nonnegative x."""
    arr = _as_checked_array(x, "x")
    return _scalar_like(_sc.i0e(arr), x)


def _marcum_q1_series(half_a2: np.ndarray, half_b2: np.ndarray) -> np.ndarray:
    """Canonical series: sum_k Poisson(k; a^2/2) * Q_gamma(k+1, b^2/2).

    Every term is nonnegative, so there is no cancellation; truncating the
    Poisson weights at +-12 sigma keeps the absolute error far below 1e-12.
    """
    out = np.empty_like(half_a2)
    zero = half_a2 == 0.0
    out[zero] = np.exp(-half_b2[zero])
    if np.all(zero):
        return out

    a2 = half_a2[~zero]
    b2 = half_b2[~zero]
    amax = float(a2.max())
    k_lo = max(0, int(np.floor(a2.min() - 12.0 * np.sqrt(a2.min()) - 25.0)))
    k_hi = int(np.ceil(amax + 12.0 * np.sqrt(amax) + 25.0))
    k = np.arange(k_lo, k_hi + 1, dtype=float)

    # Chunk the flat element axis so the (elements x terms) matrix stays small.
    vals = np.empty_like(a2)
    chunk = max(1, int(4_000_000 // (k.size + 1)))
    for start in range(0, a2.size, chunk):
        sl = slice(start, min(start + chunk, a2.size))
        log_w = k * np.log(a2[sl, None]) - a2[sl, None] - _sc.gammaln(k + 1.0)
        vals[sl] = np.sum(np.exp(log_w) * _sc.gammaincc(k + 1.0, b2[sl, None]), axis=1)
    out[~zero] = vals
    return np.clip(out, 0.0, 1.0)


def marcum_q1(a, b):
    """First-order Marcum Q function Q1(a, b).

    Q1(a, b) = integral_b^inf t * exp(-(t^2 + a^2)/2) * I0(a t) dt, i.e. the
    upper tail of a unit-variance Rician density with noncentrality a.
    Evaluated by the Poisson-weighted gamma-tail series, which stays stable
    for noncentralities up to a ~ 50 and beyond.
    """
    a_arr = _as_checked_array(a, "a")
    b_arr = _as_checked_array(b, "b")
    half_a2, half_b2 = np.broadcast_arrays(0.5 * a_arr * a_arr, 0.5 * b_arr * b_arr)
    q = _marcum_q1_series(np.ascontiguousarray(half_a2, dtype=float).ravel(),
                          np.ascontiguousarray(half_b2, dtype=float).ravel())
    q = q.reshape(half_a2.shape)
    return _scalar_like(q, a, b)


def rayleigh_pdf(x, variance):
    """Rayleigh density with scale parameter ``variance`` (= sigma^2)."""
    x_arr = _as_checked_array(x, "x")
    var = _as_checked_array(variance, "variance", allow_zero=False)
    pdf = (x_arr / var) * np.exp(-0.5 * x_arr * x_arr / var)
    return _scalar_like(pdf, x, variance)


def rician_pdf(x, y, variance):
    """Rician density with noncentrality ``y`` and scale ``variance``.

    Uses the scaled Bessel form (x/v) exp(-(x-y)^2 / 2v) i0e(xy/v) so the
    density stays finite even when x*y/variance is in the thousands.
    """
    x_arr = _as_checked_array(x, "x")
    y_arr = _as_checked_array(y, "y")
    var = _as_checked_array(variance, "variance", allow_zero=False)
    diff = x_arr - y_arr
    pdf = (x_arr / var) * np.exp(-0.5 * diff * diff / var) * _sc.i0e(x_arr * y_arr / var)
    return _scalar_like(pdf, x, y, variance)
