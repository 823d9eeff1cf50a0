"""Fixed-order Gauss-Legendre building blocks for the vectorized integrals.

The analytical engine never calls scipy's adaptive scalar quadrature in its
hot loops; instead it lays out panel grids once and evaluates integrands on
whole tensors.  These helpers keep the node bookkeeping in one place.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=32)
def gl_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(order)
    return (0.5 * (x + 1.0)).copy(), (0.5 * w).copy()


def panel_rule(edges: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite rule over consecutive [edges[i], edges[i+1]] panels.

    Returns flat node and weight arrays of length (len(edges)-1) * order,
    in ascending node order.
    """
    edges = np.asarray(edges, dtype=float)
    u, w = gl_nodes(order)
    lo = edges[:-1, None]
    width = np.diff(edges)[:, None]
    nodes = (lo + width * u[None, :]).ravel()
    weights = (width * w[None, :]).ravel()
    return nodes, weights


@lru_cache(maxsize=64)
def relative_template(fractions: tuple[float, ...], order: int) -> tuple[np.ndarray, np.ndarray]:
    """Panel rule on [0, 1] from panel-edge fractions; scale by the interval
    length to integrate over [0, L].  Cached; the arrays are read-only."""
    nodes, weights = panel_rule(np.asarray(fractions, dtype=float), order)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


class CumulativeQuadrature:
    """Exact cumulative integral of a vectorized function on [0, hi].

    Panel-edge prefix sums are precomputed; a query point adds one partial
    Gauss-Legendre panel, so values carry quadrature error only (no
    interpolation error).  Instances are immutable after construction.
    """

    def __init__(self, fn, hi: float, segments: int = 512, order: int = 8):
        self._fn = fn
        self._hi = float(hi)
        self._edges = np.linspace(0.0, self._hi, segments + 1)
        u, w = gl_nodes(order)
        self._u = u
        self._w = w
        lo = self._edges[:-1, None]
        width = np.diff(self._edges)[:, None]
        vals = fn(lo + width * u[None, :])
        seg = np.sum(vals * w[None, :], axis=1) * np.diff(self._edges)
        self._prefix = np.concatenate([[0.0], np.cumsum(seg)])

    @property
    def total(self) -> float:
        return float(self._prefix[-1])

    def value(self, r):
        """Cumulative integral from 0 to r (elementwise; clipped to [0, hi])."""
        r_arr = np.minimum(np.maximum(np.asarray(r, dtype=float), 0.0), self._hi)
        idx = np.clip(np.searchsorted(self._edges, r_arr, side="right") - 1,
                      0, len(self._edges) - 2)
        lo = self._edges[idx]
        width = r_arr - lo
        nodes = lo[..., None] + width[..., None] * self._u
        partial = np.sum(self._fn(nodes) * self._w, axis=-1) * width
        out = self._prefix[idx] + partial
        if np.ndim(r) == 0:
            return float(out)
        return out
