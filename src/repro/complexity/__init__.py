"""Complexity machinery: classes-as-data, instrumented oracles, the
paper's oracle-machine algorithms, and reduction validation."""

from .classes import (
    CC,
    ROW_LABELS,
    ROW_ORDER,
    TABLE1,
    TABLE2,
    Claim,
    Regime,
    Task,
    table,
)
from .hierarchy import (
    OracleSignature,
    is_subclass_of,
    log_bound,
    signature_consistent_with,
    strictness_caveat,
)
from .machines import ThetaResult, linear_inference, theta_inference
from .oracles import OracleProfile, Sigma2Oracle, profile
from .verify import ReductionReport, check_reduction

__all__ = [
    "CC",
    "ROW_LABELS",
    "ROW_ORDER",
    "TABLE1",
    "TABLE2",
    "Claim",
    "Regime",
    "Task",
    "table",
    "OracleSignature",
    "is_subclass_of",
    "log_bound",
    "signature_consistent_with",
    "strictness_caveat",
    "ThetaResult",
    "linear_inference",
    "theta_inference",
    "OracleProfile",
    "Sigma2Oracle",
    "profile",
    "ReductionReport",
    "check_reduction",
]
