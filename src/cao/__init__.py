"""Curvature-adaptive optimization via periodic low-rank Hessian sketching."""

from .errors import (
    ConfigError,
    ContractViolationError,
    DegenerateStepError,
    DivergenceError,
    NumericOverflowError,
    OracleUnavailableError,
)
from .optim import (
    AdamState,
    CaoConfig,
    CaoState,
    SgdState,
    StepRecord,
    adam_step,
    cao_step,
    sgd_step,
)
from .precondition import (
    DampedPreconditioner,
    precondition,
    quadratic_form,
)
from .problems import (
    FULL_BATCH,
    Batch,
    Problem,
    ProblemMeta,
    fd_hvp,
    from_config,
    logreg,
    mlp_synthetic,
    quadratic,
    rosenbrock,
)
from .sketch import Sketch, block_lanczos, qr_orthonormalize, sketch_residual
from .theory import (
    TheoryReport,
    check_descent_lemma,
    check_pl_contraction,
    check_stationarity_rate,
    check_sufficient_descent,
    sufficient_stepsize,
)

__version__ = "0.1.0"
