"""Network model: configuration types, antenna gains, blockage, path loss,
and the serving/interferer distance densities for the three association
strategies.

Geometry is a Thomas-style cluster process: cluster centers form a planar
Poisson point process, devices scatter around their center with an isotropic
Gaussian offset (per-coordinate standard deviation ``scatter_std``).  The
receiver under study sits at the origin; its cluster center distance is
Rayleigh distributed and device distances are Rician given that center
distance.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from scipy.special import erfcx

from .errors import DegenerateSupportError, UsageError
from ._quadrature import CumulativeQuadrature
from .special import marcum_q1, rayleigh_pdf, rician_pdf

SPEED_OF_LIGHT = 299_792_458.0

__all__ = [
    "AssociationModel",
    "AntennaPattern",
    "GainTable",
    "ChannelParams",
    "NetworkConfig",
    "build_gain_table",
    "free_space_intercept",
    "los_probability",
    "path_loss",
    "serving_distance_pdf",
    "interferer_distance_pdf",
    "serving_distance_pdf_approx",
    "cluster_center_distance_pdf",
    "los_association_probability",
    "default_noise_power",
]


class AssociationModel(enum.Enum):
    """How the receiver picks its serving transmitter within the cluster."""

    UNIFORM = "uniform"
    CLOSEST = "closest"
    CLOSEST_LOS = "closest_los"


@dataclass(frozen=True)
class AntennaPattern:
    """Two-level sectored beam: main lobe over ``beamwidth_rad``, side lobe
    elsewhere.  Gains are linear power ratios."""

    main_lobe_gain: float
    side_lobe_gain: float
    beamwidth_rad: float

    def __post_init__(self):
        if not (self.side_lobe_gain > 0.0 and self.main_lobe_gain >= self.side_lobe_gain):
            raise ValueError("require main_lobe_gain >= side_lobe_gain > 0")
        if not (0.0 < self.beamwidth_rad < 2.0 * math.pi):
            raise ValueError("beamwidth_rad must lie in (0, 2*pi)")


@dataclass(frozen=True)
class GainTable:
    """The four interferer directivity-gain outcomes and their probabilities.

    An interfering link's gain is the product of both ends' (randomly
    oriented) sectored patterns, which yields exactly four (gain,
    probability) pairs.  ``boresight_gain`` is the aligned serving-link gain.
    """

    gains: tuple[float, float, float, float]
    probabilities: tuple[float, float, float, float]
    boresight_gain: float

    def __post_init__(self):
        if len(self.gains) != 4 or len(self.probabilities) != 4:
            raise ValueError("gain table has exactly four entries")
        if any(g <= 0.0 for g in self.gains):
            raise ValueError("gains must be positive")
        if any(p < 0.0 for p in self.probabilities):
            raise ValueError("probabilities must be nonnegative")
        p1, p2, p3, p4 = self.probabilities
        # exact complement identity: the last entry must carry all leftover mass
        if (1.0 - p1 - p2 - p3) != p4:
            raise ValueError("last probability must equal 1 - p1 - p2 - p3 exactly")
        if self.boresight_gain <= 0.0:
            raise ValueError("boresight_gain must be positive")

    @property
    def mean_gain(self) -> float:
        return float(sum(g * p for g, p in zip(self.gains, self.probabilities)))

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return np.asarray(self.gains), np.asarray(self.probabilities)


def build_gain_table(tx: AntennaPattern, rx: AntennaPattern, antenna_elements: int = 1) -> GainTable:
    """Combine the two ends' sectored patterns into the four-outcome table.

    Every per-device gain scales with the array size, so link gains (a
    product of two per-device gains) carry ``antenna_elements**2``.  The last
    probability is constructed as one minus the others so the table sums to
    one exactly.
    """
    if antenna_elements < 1:
        raise ValueError("antenna_elements must be >= 1")
    scale = float(antenna_elements) ** 2
    ft = tx.beamwidth_rad / (2.0 * math.pi)
    fr = rx.beamwidth_rad / (2.0 * math.pi)
    gains = (
        scale * tx.main_lobe_gain * rx.main_lobe_gain,
        scale * tx.side_lobe_gain * rx.main_lobe_gain,
        scale * tx.main_lobe_gain * rx.side_lobe_gain,
        scale * tx.side_lobe_gain * rx.side_lobe_gain,
    )
    b1 = ft * fr
    b2 = (1.0 - ft) * fr
    b3 = ft * (1.0 - fr)
    probs = (b1, b2, b3, 1.0 - b1 - b2 - b3)
    return GainTable(gains=gains, probabilities=probs, boresight_gain=gains[0])


@dataclass(frozen=True)
class ChannelParams:
    """Propagation constants: distinct path-loss laws and fading shapes for
    blocked and unblocked links, plus the blockage rate (1/meters)."""

    alpha_los: float
    alpha_nlos: float
    intercept_los: float
    intercept_nlos: float
    nakagami_los: int
    nakagami_nlos: int
    blockage_rate: float

    def __post_init__(self):
        if self.alpha_los > self.alpha_nlos:
            raise ValueError("alpha_los must not exceed alpha_nlos")
        if self.intercept_los <= 0.0 or self.intercept_nlos <= 0.0:
            raise ValueError("intercepts must be positive")
        for name in ("nakagami_los", "nakagami_nlos"):
            val = getattr(self, name)
            if not isinstance(val, int) or val < 1:
                raise ValueError(f"{name} must be an integer >= 1")
        if self.blockage_rate <= 0.0:
            raise ValueError("blockage_rate must be positive")


def free_space_intercept(carrier_hz: float) -> float:
    """Free-space power attenuation at the 1 m reference distance."""
    if carrier_hz <= 0.0:
        raise ValueError("carrier_hz must be positive")
    return (SPEED_OF_LIGHT / (4.0 * math.pi * carrier_hz)) ** 2


@dataclass(frozen=True)
class NetworkConfig:
    """Every scalar parameter of the network model.

    ``parent_density`` is in clusters per square meter.  ``mean_active`` is
    the mean number of simultaneously transmitting devices per cluster; the
    receiver's own cluster contributes ``mean_active - 1`` interferers.
    ``noise_power`` is thermal noise normalized by the (unit) transmit power.
    """

    parent_density: float
    scatter_std: float
    cluster_tx_count: int
    mean_active: float
    channel: ChannelParams
    tx_pattern: AntennaPattern
    rx_pattern: AntennaPattern
    antenna_elements: int = 1
    noise_power: float = 0.0
    carrier_hz: float = 28e9
    region_half_width: float = 500.0
    gamma_th_db: float = 20.0
    boresight_gain: float | None = None

    def __post_init__(self):
        if self.parent_density <= 0.0:
            raise ValueError("parent_density must be positive")
        if self.scatter_std <= 0.0:
            raise ValueError("scatter_std must be positive")
        if self.cluster_tx_count < 1:
            raise ValueError("cluster_tx_count must be >= 1")
        if not (1.0 <= self.mean_active <= self.cluster_tx_count):
            raise ValueError("mean_active must lie in [1, cluster_tx_count]")
        if self.antenna_elements < 1:
            raise ValueError("antenna_elements must be >= 1")
        if self.noise_power < 0.0:
            raise ValueError("noise_power must be >= 0")
        if self.region_half_width <= 0.0:
            raise ValueError("region_half_width must be positive")

    def gain_table(self) -> GainTable:
        table = build_gain_table(self.tx_pattern, self.rx_pattern, self.antenna_elements)
        if self.boresight_gain is not None:
            table = replace(table, boresight_gain=self.boresight_gain)
        return table

    def with_mean_active(self, mean_active: float) -> "NetworkConfig":
        return replace(self, mean_active=mean_active)


def los_probability(d, channel: ChannelParams):
    """Probability that a link of length d is unblocked: exp(-rate * d)."""
    d_arr = np.asarray(d, dtype=float)
    if np.any(d_arr < 0.0) or not np.all(np.isfinite(d_arr)):
        raise ValueError("distance must be finite and >= 0")
    out = np.exp(-channel.blockage_rate * d_arr)
    return float(out) if np.ndim(d) == 0 else out


def path_loss(d, is_los, channel: ChannelParams):
    """Power attenuation over distance d for the given blockage state.

    The pure power law diverges at d = 0, so zero distances are rejected;
    the Monte Carlo engine clamps distances to the 1 m reference instead.
    """
    d_arr = np.asarray(d, dtype=float)
    if np.any(d_arr <= 0.0) or not np.all(np.isfinite(d_arr)):
        raise ValueError("distance must be finite and > 0")
    los_arr = np.asarray(is_los, dtype=bool)
    out = np.where(
        los_arr,
        channel.intercept_los * d_arr ** (-channel.alpha_los),
        channel.intercept_nlos * d_arr ** (-channel.alpha_nlos),
    )
    if np.ndim(d) == 0 and np.ndim(is_los) == 0:
        return float(out)
    return out


def default_noise_power(bandwidth_hz: float, noise_figure_db: float = 10.0,
                        tx_power_dbm: float = 23.0) -> float:
    """Thermal noise over ``bandwidth_hz`` normalized by the transmit power.

    Standard link-budget convention: -174 dBm/Hz noise density plus a noise
    figure, referenced to the transmit power so the result plugs directly
    into the unit-power SINR.
    """
    if bandwidth_hz <= 0.0:
        raise ValueError("bandwidth_hz must be positive")
    noise_dbm = -174.0 + 10.0 * math.log10(bandwidth_hz) + noise_figure_db
    return 10.0 ** ((noise_dbm - tx_power_dbm) / 10.0)


# ---------------------------------------------------------------------------
# Distance densities
# ---------------------------------------------------------------------------

_QM_FLOOR = 1e-300


def cluster_center_distance_pdf(v, cfg: NetworkConfig):
    """Density of the receiver's own cluster-center distance (Rayleigh)."""
    return rayleigh_pdf(v, cfg.scatter_std * cfg.scatter_std)


@lru_cache(maxsize=512)
def _los_weighted_cdf(v: float, sigma: float, rate: float) -> CumulativeQuadrature:
    """Cached cumulative integral of exp(-rate*t) * Rician(t; v, sigma^2).

    Sits inside the nearest-unblocked-transmitter density, which in turn sits
    inside double integrals; caching the panel prefix sums makes repeated
    evaluation cheap.  The exact coverage bound asks for 120 center
    distances per configuration, so the cache holds four configurations.
    Purely functional, so concurrent builds are safe.
    """
    var = sigma * sigma
    hi = v + 14.0 * sigma

    def weighted(t):
        return np.exp(-rate * t) * rician_pdf(t, v, var)

    return CumulativeQuadrature(weighted, hi, segments=640, order=8)


def los_association_probability(v: float, cfg: NetworkConfig) -> float:
    """Probability that at least one of the M candidates has an unblocked link."""
    per_device = _los_weighted_cdf(float(v), cfg.scatter_std, cfg.channel.blockage_rate).total
    return 1.0 - (1.0 - per_device) ** cfg.cluster_tx_count


def serving_distance_pdf(model: AssociationModel, r, v, cfg: NetworkConfig):
    """Density of the serving-link distance given the cluster-center distance v.

    Uniform selection keeps the plain Rician law.  Nearest selection weights
    it by the probability that the other M-1 candidates lie farther out.
    Nearest-unblocked selection is a subdensity: its total mass is the
    probability that at least one candidate is unblocked.  ``r`` and ``v``
    broadcast against each other.
    """
    r_arr = np.asarray(r, dtype=float)
    v_arr = np.asarray(v, dtype=float)
    if np.any(r_arr < 0.0):
        raise ValueError("r must be >= 0")
    if np.any(v_arr < 0.0):
        raise ValueError("v must be >= 0")
    sigma = cfg.scatter_std
    var = sigma * sigma
    m = cfg.cluster_tx_count

    if model is AssociationModel.UNIFORM:
        out = rician_pdf(r_arr, v_arr, var)
    elif model is AssociationModel.CLOSEST:
        tail = marcum_q1(v_arr / sigma, r_arr / sigma)
        out = m * tail ** (m - 1) * rician_pdf(r_arr, v_arr, var)
    elif model is AssociationModel.CLOSEST_LOS:
        rate = cfg.channel.blockage_rate
        r_b, v_b = np.broadcast_arrays(r_arr, v_arr)
        cdf = np.empty(r_b.shape)
        for v_k in np.unique(v_b):
            at = v_b == v_k
            cdf[at] = _los_weighted_cdf(float(v_k), sigma, rate).value(r_b[at])
        weighted = np.exp(-rate * r_arr) * rician_pdf(r_arr, v_arr, var)
        out = m * (1.0 - cdf) ** (m - 1) * weighted
    else:  # pragma: no cover - exhaustive enum
        raise UsageError(f"unknown association model {model}")
    return float(out) if np.ndim(r) == 0 and np.ndim(v) == 0 else out


def interferer_distance_pdf(model: AssociationModel, s, v, r_serving, cfg: NetworkConfig,
                            interferer_is_los: bool = True):
    """Density of one intra-cluster interferer distance.

    With uniform association the interferers are exchangeable with the
    serving device, so the plain Rician law applies.  With nearest
    association the remaining candidates are conditioned to lie beyond the
    serving distance, giving a truncated, Marcum-Q-renormalized Rician.  With
    nearest-unblocked association only the unblocked interferers carry that
    truncation; blocked ones keep the full Rician law
    (``interferer_is_los=False``).  ``s``, ``v`` and ``r_serving`` broadcast
    against each other; only the truncated law reads ``r_serving``, so the
    others accept None.
    """
    s_arr = np.asarray(s, dtype=float)
    v_arr = np.asarray(v, dtype=float)
    r_arr = None if r_serving is None else np.asarray(r_serving, dtype=float)
    if np.any(s_arr < 0.0):
        raise ValueError("s must be >= 0")
    if np.any(v_arr < 0.0) or (r_arr is not None and np.any(r_arr < 0.0)):
        raise ValueError("v and r_serving must be >= 0")
    sigma = cfg.scatter_std
    out = rician_pdf(s_arr, v_arr, sigma * sigma)

    if model is AssociationModel.CLOSEST or (
            model is AssociationModel.CLOSEST_LOS and interferer_is_los):
        norm = marcum_q1(v_arr / sigma, r_arr / sigma)
        if np.any(norm < _QM_FLOOR):
            raise DegenerateSupportError(
                "serving distance so deep in the tail that the truncated "
                "interferer density has no support")
        out = np.where(s_arr > r_arr, out / norm, 0.0)
    return float(out) if np.ndim(out) == 0 else out


def serving_distance_pdf_approx(model: AssociationModel, r, cfg: NetworkConfig):
    """Serving-distance density with the cluster-center conditioning dropped.

    Folding the center offset into the device offset doubles the variance,
    so the base law is Rayleigh with scale 2 sigma^2; the three association
    strategies then reshape it exactly as in the conditional case.
    """
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr < 0.0):
        raise ValueError("r must be >= 0")
    sigma = cfg.scatter_std
    var2 = 2.0 * sigma * sigma
    m = cfg.cluster_tx_count

    if model is AssociationModel.UNIFORM:
        out = rayleigh_pdf(r_arr, var2)
    elif model is AssociationModel.CLOSEST:
        out = m * np.exp(-(m - 1) * r_arr * r_arr / (4.0 * sigma * sigma)) \
            * rayleigh_pdf(r_arr, var2)
    elif model is AssociationModel.CLOSEST_LOS:
        # 1 - integral_0^r exp(-rate*t) Rayleigh(t; 2 sigma^2) dt in closed form:
        # integrate by parts, then complete the square in the Gaussian.
        rate = cfg.channel.blockage_rate
        k = rate * sigma
        e = np.exp(-r_arr * (r_arr + 4.0 * k * sigma) / (4.0 * sigma * sigma))
        remaining = e + k * math.sqrt(math.pi) * (erfcx(k) - erfcx(0.5 * r_arr / sigma + k) * e)
        weighted = np.exp(-rate * r_arr) * rayleigh_pdf(r_arr, var2)
        out = m * remaining ** (m - 1) * weighted
    else:  # pragma: no cover - exhaustive enum
        raise UsageError(f"unknown association model {model}")
    return float(out) if np.ndim(r) == 0 else out
