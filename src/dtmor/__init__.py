"""dtmor: balanced truncation and time-limited model order reduction for
discrete-time LTI systems, with low-rank Stein equation solvers and
computable output error bounds."""

from .balancing import (
    BalancedRealization,
    CertificateResult,
    HankelSpectrum,
    ReducedOrderModel,
    adaptive_order,
    balance,
    export_rom,
    square_root_truncate,
    stability_certificate,
)
from .bounds import (
    AsymptoticConstants,
    BoundReport,
    OutputErrorBound,
    asymptotic_constants,
    bound_output_tl,
    bound_theorem32,
    build_bound_report,
    error_expr_tlbt,
    numerical_radius,
    tl_h2_inner,
    tl_h2_norm,
)
from .dense_stein import (
    Gramian,
    solve_cross_sylvester,
    solve_projected_tl,
    solve_stein_sylvester,
    stein_residual_dense,
    tl_gramian_dense,
)
from .exceptions import (
    BalancingError,
    BreakdownError,
    ConvergenceError,
    DenseCapError,
    DimensionMismatchError,
    EstimationError,
    ModelReductionError,
    SingularMassMatrixError,
    SolvabilityError,
    SystemIOError,
)
from .lowrank import (
    ConvergenceRecord,
    KrylovState,
    ShiftStrategy,
    SolverConfig,
    next_shift,
    rksm,
    smith_arnoldi,
    stein_residual_norm,
    truncate_factor,
)
from .system import (
    DiscreteLTISystem,
    ExampleSpec,
    SimulationTrace,
    generate_example,
    impulse_sequence,
    read_system,
    simulate,
    write_system,
)

__version__ = "0.1.0"
