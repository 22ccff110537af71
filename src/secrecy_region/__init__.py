"""Secrecy rate regions of the two-user multi-antenna Gaussian broadcast
channel with confidential messages: pencil spectrum, dirty-paper achievable
region, correlated-noise outer bound and their consistency audits."""

from .channel import (
    ChannelPair,
    ChannelSpectrum,
    channel_from_dict,
    channel_to_dict,
    is_secrecy_feasible,
    linear_independence_margin,
    load_channel,
    rate_scale,
    spectrum,
)
from .errors import (
    BothZeroVectors,
    CovarianceInvalid,
    DegeneratePivot,
    DimensionMismatch,
    NumericsError,
    ParamOutOfRange,
    RhoOnUnitCircle,
    SweepTruncated,
)
from .linalg import (
    quadratic_form,
    top_rank_one_eig,
)
from .regions import (
    RatePair,
    RegionBoundary,
    SweepConfig,
    capacity_region,
    capacity_region_beta,
    equal_rate_point,
    gamma1,
    gamma2,
    max_rates,
    miso_wiretap_capacity,
    region_contains,
    time_sharing_region,
    xi1,
    xi2,
)
from .sato import (
    AuditReport,
    SatoEvaluation,
    audit_inner_outer,
    outer_region,
    sato_f1,
    sato_f2,
    tightness_rho,
)
from .sdpc import (
    CovariancePair,
    optimal_covariances,
    sdpc_rates,
    verify_identity_eq9,
)

__version__ = "0.1.0"

__all__ = [
    "AuditReport",
    "BothZeroVectors",
    "ChannelPair",
    "ChannelSpectrum",
    "CovarianceInvalid",
    "CovariancePair",
    "DegeneratePivot",
    "DimensionMismatch",
    "NumericsError",
    "ParamOutOfRange",
    "RatePair",
    "RegionBoundary",
    "RhoOnUnitCircle",
    "SatoEvaluation",
    "SweepConfig",
    "SweepTruncated",
    "audit_inner_outer",
    "capacity_region",
    "capacity_region_beta",
    "channel_from_dict",
    "channel_to_dict",
    "equal_rate_point",
    "gamma1",
    "gamma2",
    "is_secrecy_feasible",
    "linear_independence_margin",
    "load_channel",
    "max_rates",
    "miso_wiretap_capacity",
    "optimal_covariances",
    "outer_region",
    "quadratic_form",
    "rate_scale",
    "region_contains",
    "sato_f1",
    "sato_f2",
    "sdpc_rates",
    "spectrum",
    "tightness_rho",
    "time_sharing_region",
    "top_rank_one_eig",
    "verify_identity_eq9",
    "xi1",
    "xi2",
]
