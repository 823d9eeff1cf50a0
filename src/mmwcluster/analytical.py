"""Semi-analytical engine: interference Laplace transforms and the coverage
probability bounds built from them, evaluated by nested quadrature.

Structure of the computation
----------------------------
Every bound has the shape

    sum_n (+-) C(N, n) * [noise factor] * L_intra(t | .) * L_inter(t)

with t = n * gamma_th * eta * r^alpha / (intercept * boresight_gain), where
``eta`` is the coefficient of the tight Gamma-CDF exponential bound.  Both
Laplace transforms depend on (s, n) only through the product t, which lets
the expensive inter-cluster transform be tabulated instead of re-integrated
inside every coverage integrand evaluation.  Its inner integral I(t, v) does
not depend on the load, so it is tabulated once per geometry on a log grid of
t; each load then gets its own interpolant of the exponent (monotone cubic in
log-log), built from that table in milliseconds.

All inner integrals run on fixed Gauss-Legendre panel templates scaled to
the relevant Rayleigh/Rician support; infinite limits are truncated
``_TAIL_SIGMAS`` scatter deviations out, where the weight densities' remaining
tail mass is negligible.  These templates and the named constants beside them
are the whole quadrature setting: the engine takes no tolerances.  Every
intra-cluster distance law comes from :mod:`.model`.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace
from functools import lru_cache, reduce

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.special import beta as _sc_beta

from .errors import NumericalError, UsageError
from .model import (
    AssociationModel,
    ChannelParams,
    GainTable,
    NetworkConfig,
    cluster_center_distance_pdf,
    interferer_distance_pdf,
    serving_distance_pdf,
    serving_distance_pdf_approx,
)
from ._quadrature import gl_nodes, relative_template
from .special import rician_pdf

__all__ = [
    "CoverageFlags",
    "LowerBoundConstants",
    "gamma_cdf_bound_coefficient",
    "kernel_los",
    "kernel_nlos",
    "laplace_intra",
    "laplace_inter",
    "coverage",
    "coverage_grid",
    "coverage_lower_bound",
    "lower_bound_constants",
    "ase",
    "optimize_mean_active",
]


@dataclass(frozen=True)
class CoverageFlags:
    """Select the approximation level of the coverage evaluation.

    ``use_assumption1`` drops the cluster-center conditioning from every
    distance density (single outer integral).  ``use_assumption2`` keeps
    only unblocked intra-cluster interference and drops noise; it is defined
    for the uniform model only.
    """

    use_assumption1: bool = False
    use_assumption2: bool = False


@dataclass(frozen=True)
class LowerBoundConstants:
    """Constants of the closed-form lower bound."""

    xi: float
    psi: float


def gamma_cdf_bound_coefficient(shape: int) -> float:
    """Coefficient eta = N * (N!)^(-1/N) of the exponential bound
    P(Gamma(N, 1/N) < x) < (1 - exp(-eta * x))^N used by every theorem."""
    if shape < 1:
        raise ValueError("shape must be >= 1")
    return shape * math.exp(-math.lgamma(shape + 1.0) / shape)


# Truncation: distance integrals stop this many scatter deviations past the
# center distance.  The outer inter-cluster integral grows by geometric panels,
# at most _MAX_PANELS of them, until its estimated power-law tail is below
# max(_TAIL_FLOOR, 3e-5 * h).  A per-load fit of the inter-cluster exponent is
# densified when it misses a grid midpoint by more than _FIT_RTOL relative.
_TAIL_SIGMAS = 12.0
_TAIL_FLOOR = 1e-9
_MAX_PANELS = 200
_FIT_RTOL = 10.0 * 1e-6

# Panel templates (fractions of the integration interval, Gauss-Legendre
# order).  The serving-distance template packs panels near zero because the
# nearest-transmitter densities spike there for large cluster sizes.
_R_FRACS = (0.0, 1 / 96, 1 / 48, 1 / 24, 1 / 12, 1 / 8, 3 / 16, 1 / 4, 5 / 16,
            3 / 8, 7 / 16, 1 / 2, 5 / 8, 3 / 4, 7 / 8, 1.0)
_R_ORDER = 8
_W_FRACS = (0.0, 1 / 32, 1 / 16, 1 / 8, 3 / 16, 1 / 4, 3 / 8, 1 / 2, 5 / 8,
            3 / 4, 7 / 8, 1.0)
_W_ORDER = 6
_W2_FRACS = (0.0, 1 / 64, 1 / 32, 1 / 16, 1 / 8, 1 / 4, 1 / 2, 3 / 4, 1.0)
_W2_ORDER = 6
_V_EDGE_SIGMAS = (0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 2.5, 3.0, 4.0,
                  5.0, 6.5, 8.0, 10.0, 12.0)
_V_ORDER = 8
_V_CHUNK = 8
_PANEL_BATCH = 8


class _Workspace:
    """Scratch arrays of one evaluation, reused by all of its kernel calls.

    Each named buffer grows to the largest block asked of it and is handed out
    as a contiguous view, so a chunked loop writes the same memory on every
    pass instead of allocating, and faulting in, fresh arrays.  A workspace
    belongs to the call that made it; callers in other threads make their own.
    """

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}

    def take(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            buf = self._buffers[name] = np.empty(size)
        return buf[:size].reshape(shape)


def _link_mean(scaled: np.ndarray, gains, probs, shape: int,
               out: np.ndarray, y: np.ndarray, q: np.ndarray) -> None:
    """Write sum_i b_i * (1 - (1 + y_i)^(-N)) with y_i = a_i * scaled / N, one
    link's mean fading-and-gain kernel, into ``out``; ``scaled`` is
    t * intercept * w^(-alpha) and ``y``, ``q`` scratch of its shape.

    For integer N, 1 - (1 + y)^(-N) = q / (1 + q) with q = (1 + y)^N - 1 =
    sum_k C(N, k) y^k, evaluated by Horner's rule.  Every term is positive and
    no transcendental function is called, so the kernel keeps full relative
    accuracy at small y, where 1 - exp(-N log1p(y)) cancels.  y is capped
    where the result rounds to 1, so (1 + y)^N stays below 2^1000.
    """
    cap = 2.0 ** (1000.0 / shape) - 1.0
    coefs = [math.comb(shape, k) for k in range(shape - 1, 0, -1)]
    # q is y itself when N = 1; the other buffer then takes 1 + q
    num, den = (q, y) if coefs else (y, q)
    for i, (a_i, b_i) in enumerate(zip(gains, probs)):
        np.multiply(scaled, a_i / shape, out=y)
        np.minimum(y, cap, out=y)
        acc = y
        for c in coefs:
            np.add(acc, c, out=q)
            np.multiply(q, y, out=q)
            acc = q
        np.add(num, 1.0, out=den)
        np.divide(num, den, out=den)
        np.multiply(den, b_i, out=den if i else out)
        if i:
            np.add(out, den, out=out)


def _check_fading_shapes(ch: ChannelParams) -> None:
    """Reject fading shapes above 10: the bound's alternating binomial sums
    lose precision there, and the kernel's binomial coefficients grow past
    the float range near N = 1030."""
    for name in ("nakagami_los", "nakagami_nlos"):
        if getattr(ch, name) > 10:
            raise UsageError(f"{name} must be <= 10")


def _link(ch: ChannelParams, w: np.ndarray, los: bool, weight=None):
    """The w-only factors of one link kind at distances ``w``: intercept *
    w^(-alpha), the Nakagami shape and the link-probability weight (None for
    a link counted with weight 1)."""
    if los:
        return ch.intercept_los * w ** (-ch.alpha_los), ch.nakagami_los, weight
    return ch.intercept_nlos * w ** (-ch.alpha_nlos), ch.nakagami_nlos, weight


def _links(ch: ChannelParams, w: np.ndarray):
    """Both link kinds at distances ``w``, each weighted by its probability."""
    p_los = np.exp(-ch.blockage_rate * w)
    return _link(ch, w, True, p_los), _link(ch, w, False, 1.0 - p_los)


def kernel_los(s, r, n: int, table: GainTable, channel: ChannelParams):
    """Per-interferer unblocked-link kernel at Laplace argument s (order n); a sum
    of positive terms, it keeps full relative accuracy where it is small."""
    return _kernel(s, r, n, table, channel, los=True)


def kernel_nlos(s, r, n: int, table: GainTable, channel: ChannelParams):
    """Per-interferer blocked-link kernel at Laplace argument s (order n); a sum
    of positive terms, it keeps full relative accuracy where it is small."""
    return _kernel(s, r, n, table, channel, los=False)


def _kernel(s, r, n, table, channel, los: bool):
    s_arr = np.asarray(s, dtype=float)
    r_arr = np.asarray(r, dtype=float)
    if np.any(s_arr < 0.0):
        raise ValueError("s must be >= 0")
    if np.any(r_arr <= 0.0):
        raise ValueError("r must be > 0")
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_fading_shapes(channel)
    gains, probs = table.as_arrays()
    p_los = np.exp(-channel.blockage_rate * r_arr)
    link = _link(channel, r_arr, los, p_los if los else 1.0 - p_los)
    out = _kernel_grid(n * s_arr, (link,), gains, probs, _Workspace())
    if np.ndim(s) == 0 and np.ndim(r) == 0:
        return float(out)
    return out


def _kernel_grid(t, links, gains, probs, ws: _Workspace) -> np.ndarray:
    """(Q + Z)(t, w): the sum over ``links`` (from :func:`_link`, all at the
    same w) of each link's weight times its mean kernel, with t broadcast
    against w.  The result is a view into ``ws``, overwritten by the next
    kernel call on it.
    """
    shape = np.broadcast_shapes(np.shape(t), np.shape(links[0][0]))
    scaled, y, q = (ws.take(name, shape) for name in ("scaled", "y", "q"))
    out = ws.take("kernel", shape)
    for k, (ell, n_shape, weight) in enumerate(links):
        acc = out if k == 0 else ws.take("link", shape)
        np.multiply(t, ell, out=scaled)
        _link_mean(scaled, gains, probs, n_shape, acc, y, q)
        if weight is not None:
            np.multiply(acc, weight, out=acc)
        if k:
            np.add(out, acc, out=out)
    return out


# ---------------------------------------------------------------------------
# Inter-cluster Laplace transform
# ---------------------------------------------------------------------------


def _inter_integrals(cfg: NetworkConfig, t: np.ndarray,
                     loads) -> tuple[np.ndarray, np.ndarray]:
    """Inner integrals I(t_k, v_j), shape (t, node), and outer weights
    v_j * w_j, shape (node,), of the inter-cluster exponent at positive ``t``.

    I(t, v) integrates the interferer kernel against the Rician law of device
    distances in a cluster at center distance v; it does not depend on the
    load.  The outer integral is extended by geometric panels until the
    measured power-law tail is negligible at every load in ``loads``.
    """
    ch = cfg.channel
    sigma = cfg.scatter_std
    gains, probs = cfg.gain_table().as_arrays()
    load = np.asarray(loads, dtype=float)[:, None, None]
    pref = 2.0 * math.pi * cfg.parent_density
    # few arguments: evaluate several outer panels per kernel call, since the
    # per-call overhead then outweighs the panels computed past convergence
    batch = max(1, _PANEL_BATCH // t.size)
    ws = _Workspace()

    def panel_integrals(edges: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray]:
        """I of each panel, shape (t, panel, v), and v * w, shape (panel, v)."""
        vwv, w, pdf_w = _inter_panels(edges, sigma)
        links = _links(ch, w[None])
        inner = np.empty((t.size,) + vwv.shape)
        for k0 in range(0, t.size, 16):
            sl = slice(k0, min(k0 + 16, t.size))
            kern = _kernel_grid(t[sl, None, None, None], links, gains, probs, ws)
            inner[sl] = np.einsum("kpvw,pvw->kpv", kern, pdf_w)
        return inner, vwv

    inner, vwv = panel_integrals(tuple(e * sigma for e in (0.0, 1.0, 2.0, 4.0, 8.0, _TAIL_SIGMAS)))
    inners, weights = [inner], [vwv]
    h = _inter_sum(cfg, inner.reshape(t.size, -1), vwv.ravel(), load)
    edges = [_TAIL_SIGMAS * sigma]
    while len(edges) <= _MAX_PANELS:
        start = len(edges) - 1
        for _ in range(min(batch, _MAX_PANELS + 1 - len(edges))):
            edges.append(edges[-1] * 1.6)
        inner, vwv = panel_integrals(tuple(edges[start:]))
        for p in range(vwv.shape[0]):
            h += _inter_sum(cfg, inner[:, p], vwv[p], load)
            # endpoint integrand density times the power-law tail length
            edge = edges[start + p + 1]
            tail = -pref * np.expm1(-load[..., 0] * inner[:, p, -1]) * edge * edge \
                / (ch.alpha_nlos - 2.0)
            if np.all(tail < np.maximum(_TAIL_FLOOR, 3e-5 * h)):
                inners.append(inner[:, :p + 1])
                weights.append(vwv[:p + 1])
                return (np.concatenate([i.reshape(t.size, -1) for i in inners], axis=1),
                        np.concatenate([wt.ravel() for wt in weights]))
        inners.append(inner)
        weights.append(vwv)
    raise NumericalError("outer inter-cluster integral did not converge",
                         value=float(np.max(h)))


def _inter_sum(cfg: NetworkConfig, inner: np.ndarray, vw: np.ndarray,
               load) -> np.ndarray:
    """h = 2 pi lambda_p * sum_j (1 - exp(-load * I(t, v_j))) v_j w_j, with
    ``load`` broadcast against ``inner``.  expm1 keeps the terms of tiny t,
    where 1 - exp rounds to a few digits or to 0."""
    return 2.0 * math.pi * cfg.parent_density * ((-np.expm1(-load * inner)) @ vw)


def _inter_exponent(cfg: NetworkConfig, t_vals: np.ndarray) -> np.ndarray:
    """Exponent h(t) with L_inter(t) = exp(-h(t)) at the load ``mean_active``.

    h(t) = 2 pi lambda_p * integral_0^inf (1 - exp(-mean_active * I(t, v))) v dv.
    """
    if cfg.channel.alpha_nlos <= 2.0:
        raise NumericalError("inter-cluster integral diverges for alpha_nlos <= 2")
    t = np.asarray(t_vals, dtype=float)
    out = np.zeros(t.shape)
    pos = t > 0.0
    if not np.any(pos):
        return out
    inner, vw = _inter_integrals(cfg, t[pos], (cfg.mean_active,))
    out[pos] = _inter_sum(cfg, inner, vw, cfg.mean_active)
    return out


@lru_cache(maxsize=64)
def _inter_panels(edges: tuple[float, ...], sigma: float):
    """Outer panels [edges[i], edges[i+1]] of the inter-cluster integral:
    center-distance nodes times their weights, and the device-distance nodes
    and Rician weights at each center node (leading axis: panel)."""
    u_v, w_v = gl_nodes(_V_ORDER)
    u_w, w_w = relative_template(_W_FRACS, _W_ORDER)
    lo = np.asarray(edges[:-1])[:, None]
    width = np.asarray(edges[1:])[:, None] - lo
    v = lo + width * u_v
    w_lo = np.maximum(v - _TAIL_SIGMAS * sigma, 0.0)
    w_span = (v + _TAIL_SIGMAS * sigma - w_lo)[..., None]
    w = w_lo[..., None] + w_span * u_w
    pdf_w = rician_pdf(w, v[..., None], sigma * sigma) * (w_span * w_w)
    return v * (width * w_v), w, pdf_w


class _InterTable:
    """Inter-cluster exponent h(t) of one geometry at any load: the inner
    integrals I(t, v) on a log grid of t, shared by every load, and per load
    a log-log monotone-cubic fit of h built from them."""

    _H_FLOOR = 1e-10
    _H_CAP = 60.0

    def __init__(self, cfg: NetworkConfig):
        self._cfg = cfg
        ch = cfg.channel
        gains, _ = cfg.gain_table().as_arrays()
        # probe scale: t at which the strongest gain outcome reaches the
        # fading knee at a typical device distance
        t0 = ch.nakagami_los * (math.sqrt(2.0) * cfg.scatter_std) ** ch.alpha_los \
            / (max(gains) * ch.intercept_los)
        # h grows with the load, so the floor is probed at the largest load
        # and the cap at the smallest, and both then hold at every load
        top = float(cfg.cluster_tx_count)
        lo, hi = t0, t0
        for _ in range(60):
            if float(_inter_exponent(cfg.with_mean_active(top),
                                     np.array([lo]))[0]) <= self._H_FLOOR:
                break
            lo /= 10.0
        for _ in range(60):
            if float(_inter_exponent(cfg.with_mean_active(1.0),
                                     np.array([hi]))[0]) >= self._H_CAP:
                break
            hi *= 10.0
        n_pts = max(int(math.ceil(10.0 * math.log10(hi / lo))) + 1, 8)
        # the fit grid (even entries) and its midpoints (odd entries).  The tail
        # rule is met at the smallest and the largest load; h is concave in the
        # load and the tail linear, so it is met at every load between.
        self._log_t = np.linspace(math.log(lo), math.log(hi), 2 * n_pts - 1)
        self._inner, self._vw = _inter_integrals(cfg, np.exp(self._log_t), (1.0, top))
        # one fit per load asked for, at most 64 (a scan over every active
        # count of a 64-transmitter cluster keeps all of its fits)
        self._fit = lru_cache(maxsize=64)(self._fit_load)

    def _fit_load(self, load: float):
        """Fit of log h over log t at one load, and its two end slopes."""
        h = _inter_sum(self._cfg, self._inner, self._vw, load)
        log_h = np.log(h)
        interp = PchipInterpolator(self._log_t[::2], log_h[::2])
        # verify the fit at the midpoints; densify with them if needed
        exact = h[1::2]
        err = np.abs(np.exp(interp(self._log_t[1::2])) - exact) \
            / np.maximum(np.abs(exact), 1e-300)
        if np.max(err) > _FIT_RTOL:
            interp = PchipInterpolator(self._log_t, log_h)
        slope_lo, slope_hi = interp(self._log_t[[0, -1]], nu=1)
        return interp, float(slope_lo), float(slope_hi)

    def exponent(self, t, fit) -> np.ndarray:
        """h(t) at the load whose ``_fit`` is ``fit``."""
        interp, slope_lo, slope_hi = fit
        t_arr = np.asarray(t, dtype=float)
        out = np.zeros(t_arr.shape)
        pos = t_arr > 0.0
        log_t = np.log(t_arr[pos])
        x = np.clip(log_t, self._log_t[0], self._log_t[-1])
        # power-law continuation beyond the grid, using the end slopes of the fit
        slope = np.where(log_t < x, slope_lo, slope_hi)
        out[pos] = np.exp(interp(x) + slope * (log_t - x))
        return out


@lru_cache(maxsize=16)
def _inter_table(cfg: NetworkConfig) -> _InterTable:
    # a table holds about 0.6 MB of inner integrals (421 t-points by 176
    # center nodes at the defaults); the built-in figure presets with an
    # analytical engine use 9 geometries, so all of them fit
    return _InterTable(cfg)


_TABLE_BUILD = threading.Lock()


def _geometry_table(cfg: NetworkConfig) -> _InterTable:
    """The cached table of ``cfg``'s geometry, looked up and built under one
    lock.  Concurrent callers on a cold geometry wait for one build
    (``lru_cache`` does not merge concurrent misses), and tables are built
    one at a time: on 2 cores, four cold builds of different geometries took
    0.73 s one after another and 1.15 s on two threads."""
    with _TABLE_BUILD:
        return _inter_table(_inter_table_key(cfg))


def _inter_table_key(cfg: NetworkConfig) -> NetworkConfig:
    """Strip the fields the inter-cluster table does not depend on (load,
    threshold, boresight gain and noise), so sweeps over them reuse it."""
    return replace(cfg, gamma_th_db=0.0, boresight_gain=None, noise_power=0.0,
                   mean_active=1.0)


def laplace_inter(n: int, s: float, cfg: NetworkConfig) -> float:
    """E[exp(-s*n*I)] for the interference from all other clusters.

    Model-independent: inter-cluster interferers are uniformly random draws
    regardless of how the serving device is chosen.
    """
    if n < 1:
        raise UsageError("n must be >= 1")
    if s < 0.0:
        raise UsageError("s must be >= 0")
    _check_fading_shapes(cfg.channel)
    h = float(_inter_exponent(cfg, np.array([n * s]))[0])
    return math.exp(-h)


# ---------------------------------------------------------------------------
# Intra-cluster Laplace transform
# ---------------------------------------------------------------------------


def _intra_laws(model: AssociationModel, v, r_serving, flags: CoverageFlags,
                cfg: NetworkConfig, w_rule: tuple[tuple[float, ...], int]) -> list:
    """The interferer-distance laws of J at center distances ``v`` and serving
    distances ``r_serving``, as (links, weighted density) pairs; none depends
    on t.  ``w_rule`` is the (panel fractions, order) template of the
    untruncated laws; the truncated ones use the _W2 template.  Under
    ``use_assumption1`` the law is the unconditioned Rayleigh for every model.
    """
    ch = cfg.channel
    sigma = cfg.scatter_std
    u, wt = relative_template(*w_rule)

    def all_links(w):
        # assumption 2 counts every interferer as unblocked, with weight 1
        return (_link(ch, w, True),) if flags.use_assumption2 else _links(ch, w)

    if flags.use_assumption1:
        # the unconditioned law is the uniform model's approximate serving law
        hi = (_TAIL_SIGMAS + 5.0) * sigma
        w = u * hi
        pdf = serving_distance_pdf_approx(AssociationModel.UNIFORM, w, cfg) * wt * hi
        return [(all_links(w), pdf)]

    v_w = np.asarray(v, dtype=float)[..., None]
    hi = v_w + _TAIL_SIGMAS * sigma
    w = hi * u
    if model is AssociationModel.UNIFORM:
        pdf = interferer_distance_pdf(model, w, v_w, None, cfg) * (hi * wt)
        return [(all_links(w), pdf)]

    # the law truncated beyond the serving distance: every nearest-model
    # interferer and the unblocked nearest-unblocked ones
    r_w = np.asarray(r_serving, dtype=float)[..., None]
    u2, wt2 = relative_template(_W2_FRACS, _W2_ORDER)
    span = np.maximum(hi - r_w, sigma * 1e-9)
    w2 = r_w + span * u2
    pdf2 = interferer_distance_pdf(model, w2, v_w, r_w, cfg) * span * wt2
    if model is AssociationModel.CLOSEST:
        return [(_links(ch, w2), pdf2)]
    # the blocked nearest-unblocked interferers keep the untruncated law
    pdf = interferer_distance_pdf(model, w, v_w, None, cfg, interferer_is_los=False) * (hi * wt)
    los = _link(ch, w2, True, np.exp(-ch.blockage_rate * w2))
    nlos = _link(ch, w, False, 1.0 - np.exp(-ch.blockage_rate * w))
    return [((los,), pdf2), ((nlos,), pdf)]


def _intra_exponent(laws, t, cfg: NetworkConfig, ws: _Workspace) -> np.ndarray:
    """Per-interferer integral J with L_intra = exp(-(mean_active - 1) * J)
    at ``t``, over the laws of :func:`_intra_laws`, broadcast against them;
    the kernel is evaluated in ``ws``."""
    gains, probs = cfg.gain_table().as_arrays()
    t_w = np.asarray(t, dtype=float)[..., None]

    def integral(links, pdf):
        # a t with an axis of its own (the bound's branches) is integrated
        # one slice of that axis at a time, which keeps the kernel block small
        out = np.empty(np.broadcast_shapes(t_w.shape, pdf.shape)[:-1])
        for t_b, out_b in (zip(t_w, out) if t_w.ndim > pdf.ndim else [(t_w, out)]):
            kern = _kernel_grid(t_b, links, gains, probs, ws)
            np.einsum("...w,...w->...", kern, pdf, out=out_b)
        return out

    return reduce(np.add, (integral(*law) for law in laws))


def laplace_intra(model: AssociationModel, n: int, s: float, v: float,
                  r_serving: float | None = None,
                  flags: CoverageFlags = CoverageFlags(),
                  cfg: NetworkConfig | None = None) -> float:
    """E[exp(-s*n*I)] for the interference inside the receiver's own cluster.

    Conditional on the cluster-center distance ``v`` and, for the nearest
    and nearest-unblocked models, on the serving distance ``r_serving``.
    Returns exactly 1 when the cluster carries no interferers on average.
    Raises :class:`DegenerateSupportError` where the serving distance lies so
    deep in the tail that the truncated interferer law has no support.
    """
    if cfg is None:
        raise UsageError("cfg is required")
    if n < 1:
        raise UsageError("n must be >= 1")
    if s < 0.0:
        raise UsageError("s must be >= 0")
    if v is None or v < 0.0:
        raise UsageError("v must be >= 0")
    _check_fading_shapes(cfg.channel)
    if flags.use_assumption2 and model is not AssociationModel.UNIFORM:
        raise UsageError("the noise-free LOS-only special case is defined for "
                         "the uniform model only")
    needs_serving = model in (AssociationModel.CLOSEST, AssociationModel.CLOSEST_LOS) \
        and not flags.use_assumption1
    if needs_serving:
        if r_serving is None or r_serving < 0.0:
            raise UsageError(f"{model.value} requires r_serving >= 0")
    if cfg.mean_active <= 1.0:
        return 1.0
    if s == 0.0:
        return 1.0
    laws = _intra_laws(model, v, r_serving, flags, cfg, (_R_FRACS, _R_ORDER))
    j = _intra_exponent(laws, float(n * s), cfg, _Workspace())
    return float(np.exp(-(cfg.mean_active - 1.0) * j))


# ---------------------------------------------------------------------------
# Coverage probability
# ---------------------------------------------------------------------------


def _branches(gamma_th: float, cfg: NetworkConfig, include_nlos: bool):
    """Signed binomial coefficients, t = t_coef * r^alpha coefficients,
    path-loss exponents and LOS flags of the branches of the bound."""
    ch = cfg.channel
    g0 = cfg.gain_table().boresight_gain
    laws = [(ch.nakagami_los, ch.intercept_los, ch.alpha_los, True)]
    if include_nlos:
        laws.append((ch.nakagami_nlos, ch.intercept_nlos, ch.alpha_nlos, False))
    rows = [((-1.0) ** (n + 1) * math.comb(shape, n),
             n * gamma_th * gamma_cdf_bound_coefficient(shape) / (intercept * g0),
             alpha, is_los)
            for shape, intercept, alpha, is_los in laws for n in range(1, shape + 1)]
    coefs, t_coefs, alphas, is_los = (np.array(col) for col in zip(*rows))
    return coefs, t_coefs[:, None, None], alphas[:, None, None], is_los[:, None, None]


def _validate_coverage_args(model, gamma_th, flags, cfg):
    if gamma_th <= 0.0:
        raise UsageError("gamma_th must be > 0 (linear)")
    if flags.use_assumption2 and model is not AssociationModel.UNIFORM:
        raise UsageError("the noise-free LOS-only special case is defined for "
                         "the uniform model only")
    _check_fading_shapes(cfg.channel)


def _coverage_raw(model: AssociationModel, gammas, flags: CoverageFlags,
                  cfg: NetworkConfig, loads) -> list[list[float]]:
    """Alternating branch sum of the bound at each threshold of ``gammas``
    (linear) and each of ``loads`` (mean active counts), one row per
    threshold, integrated over the serving distance r and, unless
    ``use_assumption1`` drops the conditioning, the cluster-center distance v
    (a single v node otherwise).

    Neither threshold nor load changes a distance law, so one pass over the
    v-chunks serves the grid: each chunk builds its laws once, each threshold
    its t and J, and each load adds the chunk's term to its own total, in
    chunk order as a lone call does.  Each load's table fit is resolved once,
    before the loop, and nothing outlives its chunk."""
    for gamma_th in gammas:
        _validate_coverage_args(model, gamma_th, flags, cfg)
    ch = cfg.channel
    sigma = cfg.scatter_std
    no_assumption2 = not flags.use_assumption2
    serving_blockage = no_assumption2 and model is not AssociationModel.CLOSEST_LOS
    branches = [_branches(gamma_th, cfg, serving_blockage) for gamma_th in gammas]
    _, _, alphas, los_mask = branches[0]

    table = _geometry_table(cfg) if no_assumption2 else None
    fits = [table._fit(float(sbar)) for sbar in loads] if table else None
    noisy = no_assumption2 and cfg.noise_power > 0.0
    ws = _Workspace()

    # distance law: center-distance nodes, their weights times the center
    # density, the serving-distance limit per node, the untruncated w-rule
    if flags.use_assumption1:
        v_nodes, v_wts = np.zeros(1), np.ones(1)
        r_hi = np.full(1, (_TAIL_SIGMAS + 5.0) * sigma)
        w_rule = (_R_FRACS, _R_ORDER)
    else:
        v_edges = np.asarray(_V_EDGE_SIGMAS) * sigma
        v_nodes, v_wts = relative_template(tuple(v_edges), _V_ORDER)
        v_wts = v_wts * cluster_center_distance_pdf(v_nodes, cfg)
        r_hi = v_nodes + _TAIL_SIGMAS * sigma
        w_rule = (_W_FRACS, _W_ORDER)
    u_r, w_r = relative_template(_R_FRACS, _R_ORDER)

    with_intra = any(sbar > 1.0 for sbar in loads)
    totals = [[0.0] * len(loads) for _ in gammas]
    for c0 in range(0, v_nodes.size, _V_CHUNK):
        v = v_nodes[c0:c0 + _V_CHUNK, None]
        rhi = r_hi[c0:c0 + _V_CHUNK, None]
        vw = v_wts[c0:c0 + _V_CHUNK]
        r = rhi * u_r                                          # (nv, nr)
        wr = rhi * w_r
        if flags.use_assumption1:
            f_serv = serving_distance_pdf_approx(model, r, cfg)
        else:
            f_serv = serving_distance_pdf(model, r, v, cfg)
        r_pow = r ** alphas                                    # (branch, nv, nr)
        if serving_blockage:
            # serving-link blockage weights per branch
            p_los = np.exp(-ch.blockage_rate * r)
            serv_wt = np.where(los_mask, p_los, 1.0 - p_los)
        laws = _intra_laws(model, v, r, flags, cfg, w_rule) if with_intra else None

        for (coefs, t_coefs, _, _), row in zip(branches, totals):
            t = t_coefs * r_pow
            j = _intra_exponent(laws, t, cfg, ws) if with_intra else None
            noise = np.exp(-t * cfg.noise_power) if noisy else None
            for k, sbar in enumerate(loads):
                if sbar <= 1.0:
                    factor = np.ones(t.shape)
                else:
                    factor = np.exp(-(sbar - 1.0) * j)
                if table is not None:
                    factor = factor * np.exp(-table.exponent(t, fits[k]))
                if noisy:
                    factor = factor * noise
                if serving_blockage:
                    factor = serv_wt * factor
                integrand = np.einsum("b,bvr->vr", coefs, factor)
                inner = np.sum(integrand * f_serv * wr, axis=1)
                row[k] += float(np.sum(inner * vw))
        # let the chunk's laws go before the next chunk builds its own
        del laws

    for total in (x for row in totals for x in row if not math.isfinite(x)):
        raise NumericalError("coverage integral did not converge", value=total)
    return totals


def coverage_grid(model: AssociationModel, gammas, loads,
                  flags: CoverageFlags = CoverageFlags(),
                  cfg: NetworkConfig | None = None) -> list[list[float]]:
    """:func:`coverage` at each threshold of ``gammas`` (linear) and load of
    ``loads``, one row per threshold, from one pass over the distance laws;
    each value equals the lone call with that threshold and load, bit for bit."""
    if cfg is None:
        raise UsageError("cfg is required")
    return [[min(max(raw, 0.0), 1.0) for raw in row]
            for row in _coverage_raw(model, gammas, flags, cfg, loads)]


def coverage(model: AssociationModel, gamma_th: float,
             flags: CoverageFlags = CoverageFlags(),
             cfg: NetworkConfig | None = None) -> float:
    """Probability that the receiver's SINR exceeds ``gamma_th`` (linear).

    The returned value is the tight analytical *upper bound* for the chosen
    model and approximation flags, clamped to [0, 1] for output.
    """
    if cfg is None:
        raise UsageError("cfg is required")
    return coverage_grid(model, (gamma_th,), (cfg.mean_active,), flags, cfg)[0][0]


# ---------------------------------------------------------------------------
# Closed-form lower bound
# ---------------------------------------------------------------------------


def lower_bound_constants(cfg: NetworkConfig) -> LowerBoundConstants:
    """xi (gain moment) and psi (tail integral) of the closed-form bound.

    psi = integral_0^inf (1 - (1+y)^-N) y^(-c-1) dy with c = 2/alpha and N the
    LOS Nakagami shape.  Integration by parts turns it into the Beta integral
    (N/c) * integral_0^inf y^-c (1+y)^-(N+1) dy = (N/c) B(1-c, N+c).
    """
    ch = cfg.channel
    alpha = ch.alpha_los
    if alpha <= 2.0:
        raise UsageError(
            "the closed-form lower bound requires alpha_los > 2; the tail "
            "integral diverges otherwise")
    n_l = ch.nakagami_los
    gains, probs = cfg.gain_table().as_arrays()
    xi = float(np.sum(probs * gains ** (2.0 / alpha)))

    c = 2.0 / alpha
    return LowerBoundConstants(xi=xi, psi=float((n_l / c) * _sc_beta(1.0 - c, n_l + c)))


def coverage_lower_bound(gamma_th: float, cfg: NetworkConfig) -> float:
    """Closed-form lower bound for the uniform model's noise-free LOS-only
    intra-interference coverage.  Requires alpha_los > 2."""
    if gamma_th <= 0.0:
        raise UsageError("gamma_th must be > 0 (linear)")
    ch = cfg.channel
    consts = lower_bound_constants(cfg)
    g0 = cfg.gain_table().boresight_gain
    eta_l = gamma_cdf_bound_coefficient(ch.nakagami_los)
    scale = 2.0 * consts.xi * consts.psi * (cfg.mean_active - 1.0) / ch.alpha_los
    total = 0.0
    for n in range(1, ch.nakagami_los + 1):
        arg = (gamma_th * eta_l * n / (g0 * ch.nakagami_los)) ** (2.0 / ch.alpha_los)
        total += (-1.0) ** (n + 1) * math.comb(ch.nakagami_los, n) / (1.0 + scale * arg)
    return min(max(total, 0.0), 1.0)


# ---------------------------------------------------------------------------
# Area spectral efficiency
# ---------------------------------------------------------------------------


def ase_from_coverage(cfg: NetworkConfig, gamma_th: float, coverage_value: float) -> float:
    """bits/s/Hz/m^2 given a coverage probability."""
    return cfg.mean_active * cfg.parent_density * math.log2(1.0 + gamma_th) * coverage_value


def ase(model: AssociationModel, gamma_th: float,
        flags: CoverageFlags = CoverageFlags(),
        cfg: NetworkConfig | None = None) -> float:
    """Area spectral efficiency with the analytical coverage bound plugged in."""
    if cfg is None:
        raise UsageError("cfg is required")
    return ase_from_coverage(cfg, gamma_th, coverage(model, gamma_th, flags, cfg))


def optimize_mean_active(model: AssociationModel, gamma_th: float,
                         flags: CoverageFlags = CoverageFlags(),
                         cfg: NetworkConfig | None = None,
                         coverage_fn=None) -> tuple[int, float]:
    """Exhaustive scan of the mean active-transmitter count for maximum ASE.

    Returns (argmax, max ASE); ties break toward the smaller count.  The scan
    is the one-threshold row of :func:`coverage_grid`: the loads share the
    distance laws and J of each v-chunk and one inter-cluster table, since
    none of them depends on the load.  The optional ``coverage_fn(cfg) -> float``
    hook replaces the analytical coverage evaluation, one call per load
    (tests use it to scan a known curve).
    """
    if cfg is None:
        raise UsageError("cfg is required")
    cfgs = [cfg.with_mean_active(float(s_bar)) for s_bar in range(1, cfg.cluster_tx_count + 1)]
    if coverage_fn is not None:
        covs = [coverage_fn(cfg_s) for cfg_s in cfgs]
    else:
        covs = coverage_grid(model, (gamma_th,), [c.mean_active for c in cfgs], flags, cfg)[0]
    best_s, best_ase = 1, -math.inf
    for s_bar, (cfg_s, cov) in enumerate(zip(cfgs, covs), start=1):
        val = ase_from_coverage(cfg_s, gamma_th, cov)
        if val > best_ase:
            best_s, best_ase = s_bar, val
    return best_s, best_ase
