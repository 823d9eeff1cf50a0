"""Direct Monte Carlo simulator of the clustered network.

This engine never evaluates the semi-analytical formulas: it samples cluster
positions, device offsets, blockage, beam orientations and fading, computes
the SINR of the receiver at the origin, and counts threshold crossings.  It
is the ground truth the analytical module is validated against.

Reproducibility: trials are processed in fixed-size blocks and block ``i``
draws from a counter-based Philox stream keyed by ``(seed, i)``.  Estimates
are therefore bit-identical for a given (seed, config, trial count) no
matter how calls are scheduled or how many worker threads drive a sweep.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import UsageError
from .model import AssociationModel, ChannelParams, NetworkConfig, los_probability, path_loss

__all__ = [
    "IidExponential",
    "LosBall",
    "BlockageMode",
    "SinrOptions",
    "CoverageEstimate",
    "LaplaceEstimate",
    "NetworkRealization",
    "sample_realization",
    "simulate_sinr",
    "estimate_coverage",
    "estimate_coverage_many",
    "laplace_oracle",
]

_BLOCK = 1024
_MASK64 = (1 << 64) - 1
# blocks are sampled on one pool shared by the whole process, which also
# bounds the memory held by blocks in flight however many threads call in
_POOL = ThreadPoolExecutor(min(2, os.cpu_count() or 1), thread_name_prefix="mc-block")


@dataclass(frozen=True)
class IidExponential:
    """Each link is independently unblocked with probability exp(-rate*d)."""


@dataclass(frozen=True)
class LosBall:
    """Deterministic blockage: links shorter than ``radius`` are unblocked."""

    radius: float

    def __post_init__(self):
        if self.radius <= 0.0:
            raise ValueError("radius must be positive")


BlockageMode = Union[IidExponential, LosBall]


@dataclass(frozen=True)
class SinrOptions:
    """Which terms enter the SINR denominator and how links are classified.

    The interference toggles reproduce the intra-only / inter-only and
    LOS-only / NLOS-only decompositions; ``force_los`` treats every link
    (serving included) as unblocked.
    """

    include_intra: bool = True
    include_inter: bool = True
    include_noise: bool = True
    include_los_interference: bool = True
    include_nlos_interference: bool = True
    force_los: bool = False

    def validate(self):
        if not (self.include_intra or self.include_inter or self.include_noise):
            raise UsageError("SINR denominator needs at least one of intra/inter/noise")


@dataclass(frozen=True)
class CoverageEstimate:
    """Empirical coverage probability with a 95% binomial half-width."""

    p_hat: float
    half_width_95: float
    n_trials: int
    seed: int


@dataclass(frozen=True)
class LaplaceEstimate:
    """Sample mean of exp(-s*n*I) with its standard error."""

    value: np.ndarray | float
    std_error: np.ndarray | float
    n_trials: int
    seed: int


def _philox(seed: int, block: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=((int(seed) & _MASK64) << 64) | (block & _MASK64)))


def _map_blocks(fn, seed: int, n_trials: int) -> list:
    """``fn(rng, size)`` for every block of ``n_trials``, in block order.

    Each block draws only from its own Philox stream, so the results do not
    depend on how the pool schedules the blocks.
    """
    def run(index: int):
        return fn(_philox(seed, index), min(_BLOCK, n_trials - index * _BLOCK))

    return list(_POOL.map(run, range(-(-n_trials // _BLOCK))))


def _check_window(cfg: NetworkConfig):
    guard = 6.0 * cfg.scatter_std + 3.0 / cfg.channel.blockage_rate
    if cfg.region_half_width < guard:
        raise UsageError(
            f"region_half_width {cfg.region_half_width:g} m is below the edge-bias "
            f"guard {guard:g} m (6*sigma + 3/blockage_rate)")


def _los_flags(d: np.ndarray, u: np.ndarray, blockage: BlockageMode,
               channel: ChannelParams, force_los: bool) -> np.ndarray:
    if force_los:
        return np.ones(d.shape, dtype=bool)
    if isinstance(blockage, LosBall):
        return d <= blockage.radius
    return u < los_probability(d, channel)


def _gain_law(table) -> tuple[np.ndarray, np.ndarray]:
    """Interferer gain outcomes and their cumulative probabilities."""
    gains, probs = table.as_arrays()
    cum_probs = np.cumsum(probs)
    cum_probs[-1] = 1.0
    return gains, cum_probs


def _gain_draw(u: np.ndarray, cum_probs: np.ndarray, gains: np.ndarray) -> np.ndarray:
    return gains[np.searchsorted(cum_probs, u)]


def _fading(rng, shape: int, size) -> np.ndarray:
    """Unit-mean Nakagami power fading: Gamma(shape, 1/shape) draws."""
    return rng.gamma(shape, 1.0 / shape, size)


def _link_loss(d: np.ndarray, ch: ChannelParams) -> tuple[np.ndarray, np.ndarray]:
    """LOS and NLOS path loss, with distances clamped to the 1 m reference."""
    dc = np.maximum(d, 1.0)
    return path_loss(dc, True, ch), path_loss(dc, False, ch)


# ---------------------------------------------------------------------------
# Block-level sampling shared by the estimators
# ---------------------------------------------------------------------------


class _FieldBlock:
    """Inter-cluster devices of one block, flat across trials."""

    __slots__ = ("trial", "d", "u_los", "counts", "power_los", "power_nlos", "size", "channel")

    def __init__(self, rng, cfg: NetworkConfig, n: int, gains, cum_probs):
        ch = cfg.channel
        half = cfg.region_half_width
        lam_area = cfg.parent_density * (2.0 * half) ** 2
        n_clusters = rng.poisson(lam_area, n)
        total_c = int(n_clusters.sum())
        centers = rng.uniform(-half, half, (total_c, 2))
        counts = np.minimum(rng.poisson(cfg.mean_active, total_c), cfg.cluster_tx_count)
        total_d = int(counts.sum())
        # device-sized temporaries are released as soon as they are used:
        # a block keeps five arrays of its device count and peaks near seven
        pos = rng.normal(0.0, cfg.scatter_std, (total_d, 2))
        pos += np.repeat(centers, counts, axis=0)
        d = np.hypot(pos[:, 0], pos[:, 1])
        del pos
        loss_los, loss_nlos = _link_loss(d, ch)
        self.u_los = rng.random(total_d)
        gain = _gain_draw(rng.random(total_d), cum_probs, gains)
        self.power_los = gain * _fading(rng, ch.nakagami_los, total_d) * loss_los
        del loss_los
        self.power_nlos = gain * _fading(rng, ch.nakagami_nlos, total_d) * loss_nlos
        del loss_nlos, gain
        self.trial = np.repeat(np.repeat(np.arange(n), n_clusters), counts)
        self.d = d
        self.counts = counts
        self.size = n
        self.channel = ch

    def interference(self, blockage: BlockageMode,
                     force_los: bool) -> tuple[np.ndarray, np.ndarray]:
        """Per-trial sums of LOS-link and NLOS-link interference power."""
        flag = _los_flags(self.d, self.u_los, blockage, self.channel, force_los)
        i_los = np.bincount(self.trial, weights=self.power_los * flag, minlength=self.size)
        i_nlos = np.bincount(self.trial, weights=self.power_nlos * (~flag), minlength=self.size)
        return i_los, i_nlos


class _TypicalBlock:
    """Candidate transmitters of the receiver's own cluster for one block."""

    __slots__ = ("d", "u_los", "rank", "n_intra", "power_los", "power_nlos",
                 "fading_los", "fading_nlos", "size", "channel")

    def __init__(self, rng, cfg: NetworkConfig, n: int, gains, cum_probs):
        ch = cfg.channel
        sigma = cfg.scatter_std
        m = cfg.cluster_tx_count
        v = rng.rayleigh(sigma, n)
        ang = rng.uniform(0.0, 2.0 * math.pi, n)
        center = np.stack([v * np.cos(ang), v * np.sin(ang)], axis=1)
        self.n_intra = np.minimum(rng.poisson(max(cfg.mean_active - 1.0, 0.0), n), m - 1)
        offsets = rng.normal(0.0, sigma, (n, m, 2))
        pos = center[:, None, :] + offsets
        d = np.hypot(pos[..., 0], pos[..., 1])
        self.u_los = rng.random((n, m))
        scores = rng.random((n, m))
        gain = _gain_draw(rng.random((n, m)), cum_probs, gains)
        self.fading_los = _fading(rng, ch.nakagami_los, (n, m))
        self.fading_nlos = _fading(rng, ch.nakagami_nlos, (n, m))
        # rank[i, j] = position of candidate j in a uniform random permutation;
        # used to pick the random interferer subset among non-serving candidates.
        perm = np.argsort(scores, axis=1)
        self.rank = np.empty_like(perm)
        np.put_along_axis(self.rank, perm, np.broadcast_to(np.arange(m), (n, m)).copy(), axis=1)
        loss_los, loss_nlos = _link_loss(d, ch)
        self.d = d
        self.power_los = gain * self.fading_los * loss_los
        self.power_nlos = gain * self.fading_nlos * loss_nlos
        self.size = n
        self.channel = ch

    def flags(self, blockage: BlockageMode, force_los: bool) -> np.ndarray:
        return _los_flags(self.d, self.u_los, blockage, self.channel, force_los)

    def serving(self, model: AssociationModel, flag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Serving candidate index per trial and the association-failure mask."""
        n = self.size
        failed = np.zeros(n, dtype=bool)
        if model is AssociationModel.UNIFORM:
            idx = np.zeros(n, dtype=np.int64)
        elif model is AssociationModel.CLOSEST:
            idx = np.argmin(self.d, axis=1)
        else:
            masked = np.where(flag, self.d, np.inf)
            idx = np.argmin(masked, axis=1)
            failed = ~flag.any(axis=1)
        return idx, failed

    def intra_selection(self, serving_idx: np.ndarray) -> np.ndarray:
        """Mask of the active interferers: the first n_intra non-serving
        candidates in the random order."""
        rows = np.arange(self.size)
        serving_rank = self.rank[rows, serving_idx]
        threshold = self.n_intra + (serving_rank < self.n_intra)
        sel = self.rank < threshold[:, None]
        sel[rows, serving_idx] = False
        return sel

    def intra_interference(self, serving_idx: np.ndarray, flag: np.ndarray,
                           include_los: bool, include_nlos: bool) -> np.ndarray:
        sel = self.intra_selection(serving_idx)
        total = np.zeros(self.size)
        if include_los:
            total += np.sum(self.power_los * (sel & flag), axis=1)
        if include_nlos:
            total += np.sum(self.power_nlos * (sel & ~flag), axis=1)
        return total

    def serving_power(self, serving_idx: np.ndarray, flag: np.ndarray,
                      failed: np.ndarray, cfg: NetworkConfig, boresight: float) -> np.ndarray:
        rows = np.arange(self.size)
        s_flag = flag[rows, serving_idx]
        fading = np.where(s_flag, self.fading_los[rows, serving_idx],
                          self.fading_nlos[rows, serving_idx])
        loss = np.where(s_flag, *_link_loss(self.d[rows, serving_idx], cfg.channel))
        power = boresight * fading * loss
        power[failed] = 0.0
        return power


# ---------------------------------------------------------------------------
# Coverage estimation
# ---------------------------------------------------------------------------

Case = tuple[AssociationModel, SinrOptions, BlockageMode]


def _sinr_terms(cfg: NetworkConfig, boresight: float, options: SinrOptions,
                typical: _TypicalBlock, serving_idx: np.ndarray, failed: np.ndarray,
                flag: np.ndarray, field_terms) -> tuple[np.ndarray, np.ndarray]:
    """Per-trial serving power and SINR denominator of one case.

    ``field_terms`` is the (LOS, NLOS) inter-cluster interference pair; it is
    read only when the options include inter-cluster interference.
    """
    num = typical.serving_power(serving_idx, flag, failed, cfg, boresight)
    den = np.zeros(typical.size)
    if options.include_noise:
        den += cfg.noise_power
    if options.include_intra:
        den += typical.intra_interference(
            serving_idx, flag,
            options.include_los_interference, options.include_nlos_interference)
    if options.include_inter:
        i_los, i_nlos = field_terms
        if options.include_los_interference:
            den += i_los
        if options.include_nlos_interference:
            den += i_nlos
    return num, den


def estimate_coverage_many(cfg: NetworkConfig, gamma_th: float, cases: Sequence[Case],
                           n_trials: int, seed: int) -> list[CoverageEstimate]:
    """Estimate coverage for several (model, options, blockage) cases at once.

    All cases share the same sampled worlds per trial (common random
    numbers), which both cuts the cost of multi-curve figures and sharpens
    cross-case comparisons such as ordering checks.
    """
    if n_trials < 1:
        raise UsageError("n_trials must be >= 1")
    if gamma_th < 0.0:
        raise UsageError("gamma_th must be >= 0 (linear)")
    _check_window(cfg)
    for _, options, _ in cases:
        options.validate()

    table = cfg.gain_table()
    gains, cum_probs = _gain_law(table)
    need_inter = any(options.include_inter for _, options, _ in cases)

    def block_successes(rng, size: int) -> np.ndarray:
        typical = _TypicalBlock(rng, cfg, size, gains, cum_probs)
        field = _FieldBlock(rng, cfg, size, gains, cum_probs) if need_inter else None
        # cases with the same blockage law share its link flags, its field
        # sums and, per model, its association
        flags = functools.cache(typical.flags)
        interference = functools.cache(field.interference) if need_inter else None

        @functools.cache
        def serving(model, *law):
            return typical.serving(model, flags(*law))

        hits = np.zeros(len(cases), dtype=np.int64)
        for ci, (model, options, blockage) in enumerate(cases):
            law = (blockage, options.force_los)
            num, den = _sinr_terms(cfg, table.boresight_gain, options, typical,
                                   *serving(model, *law), flags(*law),
                                   interference(*law) if options.include_inter else None)
            hits[ci] = np.count_nonzero(num > gamma_th * den)
        return hits

    successes = np.sum(_map_blocks(block_successes, seed, n_trials), axis=0)
    results = []
    for ci in range(len(cases)):
        p = successes[ci] / n_trials
        hw = 1.96 * math.sqrt(max(p * (1.0 - p), 0.0) / n_trials)
        results.append(CoverageEstimate(p_hat=float(p), half_width_95=hw,
                                        n_trials=n_trials, seed=seed))
    return results


def estimate_coverage(cfg: NetworkConfig, model: AssociationModel, gamma_th: float,
                      n_trials: int, seed: int,
                      blockage: BlockageMode = IidExponential(),
                      options: SinrOptions = SinrOptions()) -> CoverageEstimate:
    """Fraction of trials whose SINR exceeds ``gamma_th`` (linear).

    Association failures under the nearest-unblocked strategy count as
    non-coverage.  Deterministic for fixed (seed, n_trials, cfg).
    """
    return estimate_coverage_many(cfg, gamma_th, [(model, options, blockage)],
                                  n_trials, seed)[0]


# ---------------------------------------------------------------------------
# Laplace-transform oracle
# ---------------------------------------------------------------------------


def _conditioned_candidates(rng, cfg: NetworkConfig, model: AssociationModel,
                            v: float, r_serving: float, size: int,
                            blockage: BlockageMode):
    """Draw ``size`` non-serving candidates given the serving distance.

    Nearest association conditions every other candidate to lie beyond the
    serving distance; nearest-unblocked association forbids only *unblocked*
    candidates inside it.  Both laws are realized by exact rejection on the
    plain Gaussian offsets, so the oracle stays independent of the
    analytical density formulas.  Returns flat distance and LOS-flag arrays.
    """
    sigma = cfg.scatter_std

    def distances(k: int) -> np.ndarray:
        offsets = rng.normal(0.0, sigma, (k, 2))
        return np.hypot(offsets[:, 0] + v, offsets[:, 1])

    d = distances(size)
    # nearest association draws the blockage of its final candidates only;
    # the other models draw it first, and a redrawn candidate draws its own
    nearest = model is AssociationModel.CLOSEST
    if not nearest:
        flag = _los_flags(d, rng.random(size), blockage, cfg.channel, False)
    if model is not AssociationModel.UNIFORM:
        for _ in range(10_000):
            bad = (d <= r_serving) if nearest else flag & (d <= r_serving)
            n_bad = int(np.count_nonzero(bad))
            if n_bad == 0:
                break
            d_new = distances(n_bad)
            d[bad] = d_new
            if not nearest:
                flag[bad] = _los_flags(d_new, rng.random(n_bad), blockage, cfg.channel, False)
        else:
            raise UsageError("rejection sampling stalled; serving distance too deep in the tail")
    if nearest:
        flag = _los_flags(d, rng.random(size), blockage, cfg.channel, False)
    return d, flag


def laplace_oracle(cfg: NetworkConfig, model: AssociationModel, which: str,
                   s, n, n_trials: int, seed: int, *,
                   v: float | None = None, r_serving: float | None = None,
                   blockage: BlockageMode = IidExponential()) -> LaplaceEstimate:
    """Monte Carlo estimate of E[exp(-s*n*I)] for one interference source.

    ``which`` selects the receiver's own cluster ("intra") or all other
    clusters ("inter").  The intra variant is conditional: ``v`` fixes the
    cluster-center distance and, for the nearest/nearest-unblocked models,
    ``r_serving`` fixes the serving distance.  ``s`` and ``n`` may be arrays
    of matching shape; the same sampled interference realizations are then
    reused for every (s, n) pair.
    """
    if which not in ("intra", "inter"):
        raise UsageError("which must be 'intra' or 'inter'")
    if n_trials < 1:
        raise UsageError("n_trials must be >= 1")
    s_arr, n_arr = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(n, dtype=float))
    if not np.all(np.isfinite(s_arr)):
        raise UsageError("s must be finite")
    if np.any(s_arr < 0.0):
        raise UsageError("s must be >= 0")
    if not np.all(n_arr >= 1.0):
        raise UsageError("n must be >= 1")
    sn = (s_arr * n_arr).ravel()

    ch = cfg.channel
    gains, cum_probs = _gain_law(cfg.gain_table())

    if which == "intra":
        if v is None:
            raise UsageError("intra oracle requires the cluster-center distance v")
        if not v >= 0.0:
            raise UsageError("v must be >= 0")
        if model is not AssociationModel.UNIFORM and (r_serving is None
                                                      or not r_serving >= 0.0):
            raise UsageError(f"{model.value} requires r_serving >= 0")
    else:
        _check_window(cfg)

    def block_sums(rng, size: int) -> tuple[np.ndarray, np.ndarray]:
        if which == "intra":
            # the non-serving candidates are i.i.d. given (v, r_serving), so
            # only the active ones are drawn, flat across the block
            counts = np.minimum(rng.poisson(max(cfg.mean_active - 1.0, 0.0), size),
                                cfg.cluster_tx_count - 1)
            n_active = int(counts.sum())
            d, flag = _conditioned_candidates(rng, cfg, model, v, r_serving or 0.0,
                                              n_active, blockage)
            gain = _gain_draw(rng.random(n_active), cum_probs, gains)
            g_los = _fading(rng, ch.nakagami_los, n_active)
            g_nlos = _fading(rng, ch.nakagami_nlos, n_active)
            loss_los, loss_nlos = _link_loss(d, ch)
            power = np.where(flag, gain * g_los * loss_los, gain * g_nlos * loss_nlos)
            interference = np.bincount(np.repeat(np.arange(size), counts), weights=power,
                                       minlength=size)
        else:
            field = _FieldBlock(rng, cfg, size, gains, cum_probs)
            i_los, i_nlos = field.interference(blockage, False)
            interference = i_los + i_nlos
        vals = np.exp(-sn[:, None] * interference[None, :])
        return vals.sum(axis=1), (vals * vals).sum(axis=1)

    total = np.zeros(sn.size)
    total_sq = np.zeros(sn.size)
    for block_total, block_sq in _map_blocks(block_sums, seed, n_trials):
        total += block_total
        total_sq += block_sq

    mean = total / n_trials
    if n_trials > 1:
        var = np.maximum(total_sq - total * total / n_trials, 0.0) / (n_trials - 1)
        se = np.sqrt(var / n_trials)
    else:
        se = np.full(sn.size, np.inf)
    mean = mean.reshape(s_arr.shape)
    se = se.reshape(s_arr.shape)
    if np.ndim(s) == 0 and np.ndim(n) == 0:
        return LaplaceEstimate(float(mean), float(se), n_trials, seed)
    return LaplaceEstimate(mean, se, n_trials, seed)


# ---------------------------------------------------------------------------
# Single-world API
# ---------------------------------------------------------------------------


class NetworkRealization:
    """One sampled world: the receiver's cluster plus the interfering field.

    It is trial 0 of a one-trial block of each block sampler.  Candidate
    arrays cover all M possible transmitters of the receiver's cluster;
    ``intra_indices`` lists which of them actively interfere (on a failed
    association, the first ``n_intra`` candidates of the random order).
    Both fading draws are kept per link so interference toggles (including
    ``force_los``) can be applied after the fact without resampling.
    """

    def __init__(self, cfg: NetworkConfig, model: AssociationModel,
                 blockage: BlockageMode, typical: _TypicalBlock, field: _FieldBlock):
        flag = typical.flags(blockage, False)
        idx, failed = typical.serving(model, flag)
        self._blockage = blockage
        self._typical = typical
        self._field = field
        self.association_failed = bool(failed[0])
        self.serving_index = -1 if self.association_failed else int(idx[0])
        if self.association_failed:
            self.intra_indices = np.flatnonzero(typical.rank[0] < typical.n_intra[0])
        else:
            self.intra_indices = np.flatnonzero(typical.intra_selection(idx)[0])
        self.candidate_los = flag[0]
        self.candidate_fading_los = typical.fading_los[0]
        self.candidate_fading_nlos = typical.fading_nlos[0]
        self.field_los = _los_flags(field.d, field.u_los, blockage, cfg.channel, False)
        self.field_counts = field.counts

    def candidate_distances(self) -> np.ndarray:
        return self._typical.d[0]

    def field_distances(self) -> np.ndarray:
        return self._field.d

    def check_invariants(self, cfg: NetworkConfig):
        m = cfg.cluster_tx_count
        assert self.intra_indices.size <= m - 1
        assert np.all(self.field_counts <= m)
        assert np.all(np.isfinite(self.candidate_distances()))
        assert np.all(np.isfinite(self.field_distances()))
        if not self.association_failed:
            assert 0 <= self.serving_index < m


def sample_realization(cfg: NetworkConfig, model: AssociationModel,
                       blockage: BlockageMode,
                       rng: np.random.Generator) -> NetworkRealization:
    """Sample one world from the caller's RNG stream.

    The receiver sits at the origin; its own cluster center is drawn from
    the Rayleigh law the conditioning implies, and every other cluster comes
    from the homogeneous parent process on the simulation window.  From
    ``Generator(Philox(key=seed << 64))`` this is exactly trial 0 of the
    estimators run with ``seed``.
    """
    _check_window(cfg)
    gains, cum_probs = _gain_law(cfg.gain_table())
    typical = _TypicalBlock(rng, cfg, 1, gains, cum_probs)
    field = _FieldBlock(rng, cfg, 1, gains, cum_probs)
    return NetworkRealization(cfg, model, blockage, typical, field)


def simulate_sinr(realization: NetworkRealization, cfg: NetworkConfig,
                  options: SinrOptions = SinrOptions()) -> float:
    """Linear SINR of one realization under the given denominator toggles.

    Returns 0.0 when the realization recorded an association failure (there
    is no serving link to receive from).  ``force_los`` reclassifies the
    links but keeps the sampled association.
    """
    options.validate()
    if realization.association_failed:
        return 0.0
    blockage = realization._blockage
    flag = realization._typical.flags(blockage, options.force_los)
    field_terms = None
    if options.include_inter:
        field_terms = realization._field.interference(blockage, options.force_los)
    num, den = _sinr_terms(cfg, cfg.gain_table().boresight_gain, options, realization._typical,
                           np.array([realization.serving_index]), np.zeros(1, dtype=bool),
                           flag, field_terms)
    if den[0] == 0.0:
        return math.inf
    return float(num[0] / den[0])
