"""Deterministic simulator of direct load control on a stressed grid."""

from .consumption import (
    ApplianceSamples,
    EmpiricalCdf,
    filter_outliers,
    fit_cdf,
    sample_inverse,
)
from .engine import SimConfig, run
from .homes import HOME_CLASSES, Fleet, Home, build_dm
from .levels import CAP_FRACTION, PowerLevel, UtilityParams, utility
from .metrics import EdgeFractions, MetricsLog, sci, ulw
from .policies import (
    DistributionProfile,
    alg1_decisions,
    alg2_step,
    baseline_step,
    reset_hourly,
)
from .topology import SupplyModel, Topology, build_topology, stress_level

__version__ = "0.4.0"
