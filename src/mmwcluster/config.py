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
from typing import Callable

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
    "check_override_key",
    "config_with_carrier",
    "parse_number",
    "read_key_values",
    "OVERRIDE_KEYS",
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


def _integer(value: float) -> int:
    if value != int(value):
        raise ValueError(f"must be an integer, got {value}")
    return int(value)


def _blockage_rate(avg_los_distance: float) -> float:
    if avg_los_distance <= 0.0:
        raise ValueError("must be positive")
    return math.sqrt(2.0) / avg_los_distance


@dataclass(frozen=True)
class _Key:
    """A user-unit key: meaning, default (``None``: derived unless given), the
    ``NetworkConfig`` field paths it sets and the conversion into them.  A key
    without field paths only feeds a derived value (noise, intercept, carrier)."""

    description: str
    default: float | None
    fields: tuple[str, ...] = ()
    convert: Callable[[float], float] = float


_KEYS = {
    "parent_density_per_km2": _Key("cluster density [1/km^2]", 150.0,
                                   ("parent_density",), lambda density: density * 1e-6),
    "scatter_std": _Key("device scatter standard deviation [m]", 10.0, ("scatter_std",)),
    "cluster_tx_count": _Key("possible transmitters per cluster", 40.0,
                             ("cluster_tx_count",), _integer),
    "mean_active": _Key("mean simultaneously active transmitters per cluster", 5.0,
                        ("mean_active",)),
    "bandwidth_mhz": _Key("bandwidth [MHz] (sets the default noise power)", 100.0),
    "noise_figure_db": _Key("receiver noise figure [dB]", 10.0),
    "tx_power_dbm": _Key("transmit power [dBm] (noise normalization)", 23.0),
    "noise_power": _Key("explicit normalized noise power (overrides the derived one; 0 = SIR)",
                        None, ("noise_power",)),
    "alpha_los": _Key("unblocked path-loss exponent", 2.0, ("channel.alpha_los",)),
    "alpha_nlos": _Key("blocked path-loss exponent", 4.0, ("channel.alpha_nlos",)),
    "nakagami_los": _Key("unblocked fading shape (integer)", 3.0,
                         ("channel.nakagami_los",), _integer),
    "nakagami_nlos": _Key("blocked fading shape (integer)", 2.0,
                          ("channel.nakagami_nlos",), _integer),
    "intercept_db": _Key("path-loss intercept at 1 m [dB] (default: free space at carrier)",
                         None, ("channel.intercept_los", "channel.intercept_nlos"),
                         _db_to_linear),
    "tx_main_lobe_db": _Key("transmitter main-lobe gain [dB]", 10.0,
                            ("tx_pattern.main_lobe_gain",), _db_to_linear),
    "tx_side_lobe_db": _Key("transmitter side-lobe gain [dB]", -10.0,
                            ("tx_pattern.side_lobe_gain",), _db_to_linear),
    "tx_beamwidth_deg": _Key("transmitter beamwidth [deg]", 30.0,
                             ("tx_pattern.beamwidth_rad",), math.radians),
    "rx_main_lobe_db": _Key("receiver main-lobe gain [dB]", 10.0,
                            ("rx_pattern.main_lobe_gain",), _db_to_linear),
    "rx_side_lobe_db": _Key("receiver side-lobe gain [dB]", 0.0,
                            ("rx_pattern.side_lobe_gain",), _db_to_linear),
    "rx_beamwidth_deg": _Key("receiver beamwidth [deg]", 90.0,
                             ("rx_pattern.beamwidth_rad",), math.radians),
    "carrier_ghz": _Key("carrier frequency [GHz]", 28.0),
    "avg_los_distance": _Key("average unblocked-link distance [m]", 30.0,
                             ("channel.blockage_rate",), _blockage_rate),
    "antenna_elements": _Key("antenna elements per device (integer)", 1.0,
                             ("antenna_elements",), _integer),
    "region_half_width": _Key("simulation window half-width [m]", 500.0, ("region_half_width",)),
    "gamma_th_db": _Key("SINR threshold [dB]", 20.0, ("gamma_th_db",)),
}

#: Keys :func:`apply_override` (and so a sweep spec) accepts: every key that
#: sets fields directly, plus ``carrier_hz``, which applies the presets.
OVERRIDE_KEYS = frozenset(key for key, entry in _KEYS.items() if entry.fields) | {"carrier_hz"}


def _assemble(values: dict[str, float | None]) -> NetworkConfig:
    """Build a config from one user-unit value per key of ``_KEYS``."""
    fields: dict[str, dict] = {"": {}, "channel": {}, "tx_pattern": {}, "rx_pattern": {}}
    for key, entry in _KEYS.items():
        if entry.fields and values[key] is not None:
            try:
                converted = entry.convert(values[key])
            except (ValueError, OverflowError) as exc:
                raise ConfigError(f"{key}: {exc}") from None
            for path in entry.fields:
                owner, _, name = path.rpartition(".")
                fields[owner][name] = converted
    carrier_hz = values["carrier_ghz"] * 1e9
    try:
        if values["intercept_db"] is None:
            intercept = free_space_intercept(carrier_hz)
            fields["channel"].update(intercept_los=intercept, intercept_nlos=intercept)
        if values["noise_power"] is None:
            fields[""]["noise_power"] = default_noise_power(
                values["bandwidth_mhz"] * 1e6, values["noise_figure_db"], values["tx_power_dbm"])
        return NetworkConfig(**fields[""], carrier_hz=carrier_hz,
                             channel=ChannelParams(**fields["channel"]),
                             tx_pattern=AntennaPattern(**fields["tx_pattern"]),
                             rx_pattern=AntennaPattern(**fields["rx_pattern"]))
    except (ValueError, OverflowError) as exc:
        raise ConfigError(str(exc)) from exc


def parse_number(key: str, text: str | float) -> float:
    """``text`` as a finite float, or a ``ConfigError`` naming ``key``."""
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"{key} needs a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {text!r}")
    return value


def read_key_values(path: str | Path, handle: Callable[[str, str], None]) -> None:
    """Feed every ``key = value`` line of a file to ``handle(key, value)``,
    skipping blanks and ``#`` comments.  A line without ``=``, or a
    ``ValueError`` from ``handle``, becomes a ``ConfigError`` naming the line."""
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, val = line.partition("=")
        try:
            if not eq:
                raise ValueError(f"expected 'key = value', got {raw!r}")
            handle(key.strip(), val.strip())
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None


def default_config() -> NetworkConfig:
    """The built-in default network setting."""
    return _assemble({key: entry.default for key, entry in _KEYS.items()})


def parse_config(path: str | Path) -> NetworkConfig:
    """Parse a ``key = value`` config file; unknown keys are rejected.

    An empty file yields :func:`default_config`.  Lines starting with ``#``
    (or trailing ``#`` comments) are ignored.
    """
    values = {key: entry.default for key, entry in _KEYS.items()}

    def store(key: str, text: str) -> None:
        if key not in _KEYS:
            raise ValueError(f"unknown key {key!r}")
        values[key] = parse_number(key, text)

    read_key_values(path, store)
    return _assemble(values)


def check_override_key(key: str) -> None:
    """Raise ``ConfigError`` unless ``key`` is one of :data:`OVERRIDE_KEYS`."""
    if key not in OVERRIDE_KEYS:
        derived = " (it feeds a derived value: set it in the config file)" if key in _KEYS else ""
        raise ConfigError(f"unsupported override key {key!r}{derived}")


def apply_override(cfg: NetworkConfig, key: str, value: float) -> NetworkConfig:
    """Re-derive a config with one user-unit key changed (sweep axes and
    figure-preset overrides)."""
    value = parse_number(key, value)
    check_override_key(key)
    try:
        if key == "carrier_hz":
            return config_with_carrier(cfg, value)
        converted = _KEYS[key].convert(value)
        for path in _KEYS[key].fields:
            owner, _, name = path.rpartition(".")
            if owner:
                cfg = replace(cfg, **{owner: replace(getattr(cfg, owner), **{name: converted})})
            else:
                cfg = replace(cfg, **{name: converted})
        return cfg
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"{key}: {exc}") from exc


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
