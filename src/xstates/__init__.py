"""Analysis toolkit for two-qubit X states under the map rho -> rho^n / Tr rho^n."""

from .xstate import (
    EPS_PSD,
    EPS_TRACE,
    ChannelResult,
    InvalidStateError,
    StateClass,
    XParams,
    ZeroDenominatorError,
    apply_power_channel,
    classify,
    ppt,
    spectrum,
    validate,
    werner,
    werner_entanglement_threshold,
    werner_entanglement_threshold_lower,
)
from .dense import to_dense
from .tomography import (
    Direction,
    InvalidAngleError,
    TomogramTable,
    direction_pairs,
    marginals,
    tomogram,
)
from .information import (
    InfoReport,
    InvalidSpectrumError,
    ShannonReport,
    shannon_report_from_table,
    system_entropies,
    von_neumann_entropy,
    werner_mutual_information,
)
from .entanglement import concurrence, negativity

__version__ = "0.1.0"

__all__ = [
    "EPS_PSD",
    "EPS_TRACE",
    "ChannelResult",
    "Direction",
    "InfoReport",
    "InvalidAngleError",
    "InvalidSpectrumError",
    "InvalidStateError",
    "ShannonReport",
    "StateClass",
    "TomogramTable",
    "XParams",
    "ZeroDenominatorError",
    "apply_power_channel",
    "classify",
    "concurrence",
    "direction_pairs",
    "marginals",
    "negativity",
    "ppt",
    "shannon_report_from_table",
    "spectrum",
    "system_entropies",
    "to_dense",
    "tomogram",
    "validate",
    "von_neumann_entropy",
    "werner",
    "werner_entanglement_threshold",
    "werner_entanglement_threshold_lower",
    "werner_mutual_information",
]
