"""Special functions and elementary densities used throughout the library.

All functions accept scalars or numpy arrays and broadcast like ufuncs.
Density arguments follow the convention that the second moment parameter is
a *variance* (sigma squared), never a standard deviation; the configuration
stores the standard deviation and the engines square it.
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


def marcum_q1(a, b):
    """First-order Marcum Q function Q1(a, b).

    Q1(a, b) = integral_b^inf t * exp(-(t^2 + a^2)/2) * I0(a t) dt, i.e. the
    upper tail of a unit-variance Rician density with noncentrality a, or
    P(X > b^2) for X noncentral chi-square with 2 degrees of freedom and
    noncentrality a^2.  Where b <= a, Q1 >= 1/2 and the complement of that
    CDF loses nothing.  Elsewhere the symmetry identity
    Q1(a, b) + Q1(b, a) = 1 + exp(-(a^2 + b^2)/2) I0(a b) (Nuttall 1975)
    writes Q1 as a sum of two positive terms, so small tails keep their
    relative accuracy.
    """
    a_arr = _as_checked_array(a, "a")
    b_arr = _as_checked_array(b, "b")
    a2, b2 = a_arr * a_arr, b_arr * b_arr
    q = np.where(b_arr <= a_arr,
                 1.0 - _sc.chndtr(b2, 2.0, a2),
                 _sc.chndtr(a2, 2.0, b2)
                 + np.exp(-0.5 * (b_arr - a_arr) ** 2) * _sc.i0e(a_arr * b_arr))
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
