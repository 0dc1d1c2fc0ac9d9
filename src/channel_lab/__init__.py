"""Finite-dimensional quantum channels, their dilations, convergence
diagnostics for channel sequences, and a parameter-level Gaussian calculus.
"""

from .core import (
    DensityOperator,
    KrausChannel,
    PartialIsometry,
    StinespringIsometry,
    UnitaryOp,
    ValidationError,
    choi_matrix,
    compose_channels,
    max_action_deviation,
    partial_trace,
    tensor_channels,
    trace_norm,
)
from .dilation import (
    UnitaryDilation,
    complete_unitary,
    complementary_kraus,
    isometry_from_kraus,
    kraus_from_isometry,
    minimal_stinespring,
    purify,
    stinespring_from_unitary,
    to_kraus,
    tracked_complete_unitary,
    unitary_from_isometry,
)
from .gaussian import (
    GaussianChannel,
    GaussianState,
    apply_gaussian,
    attenuator,
    attenuator_output_distance,
    char_fn,
    dual_weyl_symbol,
    param_convergence_check,
    validate_channel,
    validate_state,
)
from . import _parallel  # noqa: F401  (unused here; the benchmark harness in bench/ still reads it)
from .report import Report
from .sequences import (
    ChannelSequence,
    PartialTraceForm,
    choi_defect,
    choi_defects,
    complementary_sequence,
    compose_sequence,
    compression_sequence,
    convergence_report,
    strong_defect,
    strongstar_defect,
    swap_counterexample,
    swap_report,
    tensor_sequence,
)

__version__ = "0.1.0"
