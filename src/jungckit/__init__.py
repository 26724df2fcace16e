"""Two-map S-iteration toolkit with gated delta-squared acceleration,
stability certificates, damped-recursion verification and a batch CLI."""

from .aitken import accelerate_sequence
from .diagnostics import (
    ConvergenceReport,
    LimitEstimate,
    acceleration_ratio,
    build_convergence_report,
    estimate_limit,
    sequences_equivalent,
)
from .engine import JungckConfig, identity_residuals, run
from .errors import (
    ConfigError,
    ConfigParseError,
    ConfigValidationError,
    DimensionMismatchError,
    HypothesisViolatedError,
    IndexOutOfRangeError,
    InvalidArgumentError,
    JungckitError,
    LengthMismatchError,
    NonFiniteError,
    NotConvergingError,
    ScheduleViolationError,
    SequenceTooShortError,
    SingularOperatorError,
    SolveError,
    TraceMismatchError,
)
from .model import (
    GatePolicy,
    IterationTrace,
    Operator,
    OperatorPair,
    Schedule,
    as_state,
    make_operator_pair,
    spectral_norm,
)
from .scan import ScanResult, ScanSpec, run_scan
from .stability import (
    CertificateResult,
    PositivityReport,
    StabilityConstants,
    StabilityReport,
    certify,
    check_positivity_constraints,
    check_property_i,
    check_property_ii_iii,
    check_property_iv_v,
    compute_constants,
    cross_validate,
)
from .venter import (
    Verdict,
    VenterConfig,
    VenterTrace,
    venter_run,
    verify_property_i,
    verify_property_iv,
    verify_summability,
)

__version__ = "0.1.0"
