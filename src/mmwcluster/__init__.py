"""Coverage probability and area spectral efficiency for clustered
device-to-device millimeter-wave networks.

Two independent engines are provided: a semi-analytical one built on
interference Laplace transforms evaluated by nested quadrature, and a direct
Monte Carlo simulator of the cluster process.  The CLI cross-validates them
and reproduces the reference parameter sweeps as CSV files.
"""

from .model import (
    AntennaPattern,
    AssociationModel,
    ChannelParams,
    GainTable,
    NetworkConfig,
    build_gain_table,
    cluster_center_distance_pdf,
    default_noise_power,
    free_space_intercept,
    interferer_distance_pdf,
    los_probability,
    path_loss,
    serving_distance_pdf,
    serving_distance_pdf_approx,
)
from .special import bessel_i0, bessel_i0_scaled, marcum_q1, rayleigh_pdf, rician_pdf
from .analytical import (
    CoverageFlags,
    ase,
    coverage,
    coverage_lower_bound,
    kernel_los,
    kernel_nlos,
    laplace_inter,
    laplace_intra,
    optimize_mean_active,
)
from .montecarlo import (
    BlockageMode,
    CoverageEstimate,
    IidExponential,
    LosBall,
    SinrOptions,
    estimate_coverage,
    laplace_oracle,
    sample_realization,
    simulate_sinr,
)
from .config import default_config, parse_config

__all__ = [
    "AntennaPattern",
    "AssociationModel",
    "BlockageMode",
    "ChannelParams",
    "CoverageEstimate",
    "CoverageFlags",
    "GainTable",
    "IidExponential",
    "LosBall",
    "NetworkConfig",
    "SinrOptions",
    "ase",
    "bessel_i0",
    "bessel_i0_scaled",
    "build_gain_table",
    "cluster_center_distance_pdf",
    "coverage",
    "coverage_lower_bound",
    "default_config",
    "default_noise_power",
    "estimate_coverage",
    "free_space_intercept",
    "interferer_distance_pdf",
    "kernel_los",
    "kernel_nlos",
    "laplace_inter",
    "laplace_intra",
    "laplace_oracle",
    "los_probability",
    "marcum_q1",
    "optimize_mean_active",
    "parse_config",
    "path_loss",
    "rayleigh_pdf",
    "rician_pdf",
    "sample_realization",
    "serving_distance_pdf",
    "serving_distance_pdf_approx",
    "simulate_sinr",
]

__version__ = "0.1.0"
