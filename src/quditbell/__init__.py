"""quditbell: qudit Bell-inequality analysis and entanglement-based
key-distribution simulation with multiport beam splitter measurements."""

from .algebra import (
    DegenerateStateError,
    DimensionMismatchError,
    EntangledState,
    InvalidDimensionError,
    REFERENCE_STATES,
    fourier_matrix,
    make_state,
    maximally_entangled,
    omega,
    psi3,
    psi4,
    psi5,
    roots_of_unity,
)
from .ditter import (
    InvalidPhaseError,
    LabelConvention,
    PhaseVector,
    ditter_unitaries,
    geometric_phases,
    outcome_distribution,
)
from .bell import (
    BasisAssignment,
    BellOperator,
    builtin_operator,
    canonical_basis,
    exponent_basis,
    lhv_max,
    optimize_basis,
    protocol_basis,
    theta_scan,
    violation,
)
from .protocol import (
    InsufficientDataError,
    ProtocolConfig,
    Transcript,
    TranscriptSummary,
    correlation_spectrum,
    estimate_violation,
    run_protocol,
    sample_rounds,
    sift,
    write_transcript_csv,
)
from .security import (
    CLONER_FIDELITY,
    NDEB_VIOLATIONS,
    NoViolationError,
    SecurityReport,
    channel_fidelity,
    comparison_report,
    criterion_table,
    noise_threshold,
    secure_channel_condition,
    security_criterion,
)

__version__ = "0.1.0"
