"""Stochastic Bregman primal-dual splitting for convex-concave saddle problems."""

__version__ = "0.1.0"

from .bregman import (
    BregmanPoint,
    DomainError,
    Entropy,
    EuclideanEnergy,
    ShannonBoltzmann,
    bregman_divergence,
    kl_prox_simplex,
    linf_ball_prox,
    pinsker_slack,
    three_point_identity_check,
)
from .linalg import (
    ConvolutionMap,
    DenseMatrixMap,
    ForwardDifferenceMap,
    LinearMap,
    ShapeError,
    VerticalStackMap,
    operator_norm,
)
from .oracle import ORACLE_MODES, GradientOracle, OracleError
from .solver import (
    SaddleProblem,
    SolverState,
    StepSchedule,
    asymptotic_residual,
    default_step_sizes,
    ergodic_rate_constant,
    estimate_inequality_terms,
    initial_state,
    lagrangian_gap,
    run,
    sbpd_step,
    symmetrized_energy_slack,
)
from .problems import (
    OTInverseProblem,
    ReferenceSolution,
    SimplexTVProblem,
    build_ot_inverse,
    build_simplex_tv,
    compute_reference,
    simplex_tv_from_arrays,
)
from .experiment import ExperimentConfig, TraceRecord, read_trace, run_experiment
from .checks import run_check_suite
