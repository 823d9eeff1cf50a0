"""Configuration defaults and the line-oriented ``key = value`` config parser.

User-facing units follow the measurement-campaign conventions: gains in dB,
angles in degrees, densities per km^2, bandwidth in MHz, blockage given as an
average unblocked-link distance in meters.  Conversion to the linear/SI
quantities of :class:`~mmwcluster.model.NetworkConfig` happens exactly once,
here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

from .errors import ConfigError
from .model import (
    AntennaPattern,
    ChannelParams,
    NetworkConfig,
    default_noise_power,
    free_space_intercept,
)

__all__ = [
    "FrequencyPreset",
    "FREQUENCY_PRESETS",
    "default_config",
    "parse_config",
    "apply_override",
    "config_with_carrier",
]


@dataclass(frozen=True)
class FrequencyPreset:
    """Measured outdoor path-loss exponents and the array size assumed for a
    carrier frequency."""

    carrier_hz: float
    alpha_los: float
    alpha_nlos: float
    antenna_elements: int


FREQUENCY_PRESETS: tuple[FrequencyPreset, ...] = (
    FrequencyPreset(28e9, 2.0, 3.0, 10),
    FrequencyPreset(38e9, 2.0, 3.71, 20),
    FrequencyPreset(60e9, 2.25, 3.76, 40),
    FrequencyPreset(73e9, 2.0, 3.4, 80),
)


def _db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


# One entry per accepted key: (parser, description).  Values are collected as
# floats/strings first and assembled into a NetworkConfig at the end so that
# interdependent defaults (noise from bandwidth, intercept from carrier)
# resolve in one place.
_FLOAT_KEYS = {
    "parent_density_per_km2": "cluster density [1/km^2]",
    "scatter_std": "device scatter standard deviation [m]",
    "cluster_tx_count": "possible transmitters per cluster",
    "mean_active": "mean simultaneously active transmitters per cluster",
    "bandwidth_mhz": "bandwidth [MHz] (sets the default noise power)",
    "noise_figure_db": "receiver noise figure [dB]",
    "tx_power_dbm": "transmit power [dBm] (noise normalization)",
    "noise_power": "explicit normalized noise power (overrides the derived one; 0 = SIR)",
    "alpha_los": "unblocked path-loss exponent",
    "alpha_nlos": "blocked path-loss exponent",
    "nakagami_los": "unblocked fading shape (integer)",
    "nakagami_nlos": "blocked fading shape (integer)",
    "intercept_db": "path-loss intercept at 1 m [dB] (default: free space at carrier)",
    "tx_main_lobe_db": "transmitter main-lobe gain [dB]",
    "tx_side_lobe_db": "transmitter side-lobe gain [dB]",
    "tx_beamwidth_deg": "transmitter beamwidth [deg]",
    "rx_main_lobe_db": "receiver main-lobe gain [dB]",
    "rx_side_lobe_db": "receiver side-lobe gain [dB]",
    "rx_beamwidth_deg": "receiver beamwidth [deg]",
    "carrier_ghz": "carrier frequency [GHz]",
    "avg_los_distance": "average unblocked-link distance [m]",
    "antenna_elements": "antenna elements per device (integer)",
    "region_half_width": "simulation window half-width [m]",
    "gamma_th_db": "SINR threshold [dB]",
}

_DEFAULTS = {
    "parent_density_per_km2": 150.0,
    "scatter_std": 10.0,
    "cluster_tx_count": 40.0,
    "mean_active": 5.0,
    "bandwidth_mhz": 100.0,
    "noise_figure_db": 10.0,
    "tx_power_dbm": 23.0,
    "alpha_los": 2.0,
    "alpha_nlos": 4.0,
    "nakagami_los": 3.0,
    "nakagami_nlos": 2.0,
    "tx_main_lobe_db": 10.0,
    "tx_side_lobe_db": -10.0,
    "tx_beamwidth_deg": 30.0,
    "rx_main_lobe_db": 10.0,
    "rx_side_lobe_db": 0.0,
    "rx_beamwidth_deg": 90.0,
    "carrier_ghz": 28.0,
    "avg_los_distance": 30.0,
    "antenna_elements": 1.0,
    "region_half_width": 500.0,
    "gamma_th_db": 20.0,
}


def _assemble(values: dict[str, float]) -> NetworkConfig:
    def need_int(key: str) -> int:
        val = values[key]
        if val != int(val):
            raise ConfigError(f"{key} must be an integer, got {val}")
        return int(val)

    carrier_hz = values["carrier_ghz"] * 1e9
    if "intercept_db" in values:
        intercept = _db_to_linear(values["intercept_db"])
    else:
        intercept = free_space_intercept(carrier_hz)
    if "noise_power" in values:
        noise = values["noise_power"]
    else:
        noise = default_noise_power(values["bandwidth_mhz"] * 1e6,
                                    values["noise_figure_db"], values["tx_power_dbm"])
    if values["avg_los_distance"] <= 0.0:
        raise ConfigError("avg_los_distance must be positive")
    try:
        channel = ChannelParams(
            alpha_los=values["alpha_los"],
            alpha_nlos=values["alpha_nlos"],
            intercept_los=intercept,
            intercept_nlos=intercept,
            nakagami_los=need_int("nakagami_los"),
            nakagami_nlos=need_int("nakagami_nlos"),
            blockage_rate=math.sqrt(2.0) / values["avg_los_distance"],
        )
        tx = AntennaPattern(
            main_lobe_gain=_db_to_linear(values["tx_main_lobe_db"]),
            side_lobe_gain=_db_to_linear(values["tx_side_lobe_db"]),
            beamwidth_rad=math.radians(values["tx_beamwidth_deg"]),
        )
        rx = AntennaPattern(
            main_lobe_gain=_db_to_linear(values["rx_main_lobe_db"]),
            side_lobe_gain=_db_to_linear(values["rx_side_lobe_db"]),
            beamwidth_rad=math.radians(values["rx_beamwidth_deg"]),
        )
        return NetworkConfig(
            parent_density=values["parent_density_per_km2"] * 1e-6,
            scatter_std=values["scatter_std"],
            cluster_tx_count=need_int("cluster_tx_count"),
            mean_active=values["mean_active"],
            channel=channel,
            tx_pattern=tx,
            rx_pattern=rx,
            antenna_elements=need_int("antenna_elements"),
            noise_power=noise,
            carrier_hz=carrier_hz,
            region_half_width=values["region_half_width"],
            gamma_th_db=values["gamma_th_db"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def default_config() -> NetworkConfig:
    """The built-in default network setting."""
    return _assemble(dict(_DEFAULTS))


def parse_config(path: str | Path) -> NetworkConfig:
    """Parse a ``key = value`` config file; unknown keys are rejected.

    An empty file yields :func:`default_config`.  Lines starting with ``#``
    (or trailing ``#`` comments) are ignored.
    """
    values = dict(_DEFAULTS)
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _FLOAT_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = float(val)
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: {key} needs a number, got {val!r}") from None
        if not math.isfinite(values[key]):
            raise ConfigError(f"{path}:{lineno}: {key} must be finite, got {val!r}")
    return _assemble(values)


def apply_override(cfg: NetworkConfig, key: str, value: float) -> NetworkConfig:
    """Re-derive a config with one user-unit key changed (sweep axes and
    figure-preset overrides)."""
    value = float(value)
    if not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {value}")
    try:
        if key == "mean_active":
            return replace(cfg, mean_active=value)
        if key == "gamma_th_db":
            return replace(cfg, gamma_th_db=value)
        if key == "scatter_std":
            return replace(cfg, scatter_std=value)
        if key == "region_half_width":
            return replace(cfg, region_half_width=value)
        if key == "noise_power":
            return replace(cfg, noise_power=value)
        if key == "antenna_elements":
            return replace(cfg, antenna_elements=int(value))
        if key == "cluster_tx_count":
            return replace(cfg, cluster_tx_count=int(value))
        if key == "avg_los_distance":
            if value <= 0.0:
                raise ConfigError("avg_los_distance must be positive")
            return replace(cfg, channel=replace(cfg.channel,
                                                blockage_rate=math.sqrt(2.0) / value))
        if key == "carrier_hz":
            return config_with_carrier(cfg, value)
        if key in ("alpha_los", "alpha_nlos"):
            return replace(cfg, channel=replace(cfg.channel, **{key: value}))
        if key in ("nakagami_los", "nakagami_nlos"):
            return replace(cfg, channel=replace(cfg.channel, **{key: int(value)}))
        if key.startswith(("tx_", "rx_")):
            end, field = key.split("_", 1)
            pattern = cfg.tx_pattern if end == "tx" else cfg.rx_pattern
            if field == "main_lobe_db":
                pattern = replace(pattern, main_lobe_gain=_db_to_linear(value))
            elif field == "side_lobe_db":
                pattern = replace(pattern, side_lobe_gain=_db_to_linear(value))
            elif field == "beamwidth_deg":
                pattern = replace(pattern, beamwidth_rad=math.radians(value))
            else:
                raise ConfigError(f"unsupported override key {key!r}")
            return replace(cfg, **{f"{end}_pattern": pattern})
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc
    raise ConfigError(f"unsupported override key {key!r}")


def config_with_carrier(cfg: NetworkConfig, carrier_hz: float) -> NetworkConfig:
    """Retune to another carrier: free-space intercept always, plus measured
    exponents and array size when the carrier matches a known preset."""
    intercept = free_space_intercept(carrier_hz)
    channel = replace(cfg.channel, intercept_los=intercept, intercept_nlos=intercept)
    elements = cfg.antenna_elements
    for preset in FREQUENCY_PRESETS:
        if math.isclose(preset.carrier_hz, carrier_hz, rel_tol=1e-6):
            channel = replace(channel, alpha_los=preset.alpha_los,
                              alpha_nlos=preset.alpha_nlos)
            elements = preset.antenna_elements
            break
    return replace(cfg, carrier_hz=carrier_hz, channel=channel,
                   antenna_elements=elements)
