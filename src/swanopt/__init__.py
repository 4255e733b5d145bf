"""Stateless optimizer library: row-normalized, Newton-Schulz-whitened
gradient descent with reference baselines, benchmark problems, and numerical
checks of the quadratic-case convergence theory."""

from .gradient_ops import (
    GradNormConfig,
    WhiteningConfig,
    grad_norm,
    grad_whitening,
    orthogonalize,
    rescale_update,
)
from .matrixops import (
    SymEigDecomp,
    make_spd,
    random_matrix,
    sample_stiefel,
    schatten1_norm,
    sym_eig,
)
from .optimizers import (
    OptimizerConfig,
    OptimizerState,
    adam_step,
    gd_optimal_step,
    init_state,
    linear_warmup_decay,
    newton_step,
    sgd_step,
    signed_step,
    swan_step,
    whitened_gd_optimal_step,
)
from .problems import (
    MlpProblem,
    QuadraticProblem,
    RastriginProblem,
    StbSystem,
    stb_hessian,
    stb_integrate,
)

__version__ = "0.1.0"
