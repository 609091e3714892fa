"""Numerical solver and verification suite for conformal metrics of constant
negative scalar curvature and boundary mean curvature on generalized solid
cones, with the existence/non-existence dichotomy at dim = (n-2)/2 probed by
measured blow-up exponents."""

from .elliptic import (
    IndefiniteOperatorError,
    LinearSolveReport,
    MMatrixWarning,
    NegativeEigenvectorError,
    NonConvergenceError,
    OperatorAssembly,
    assemble,
    principal_eigen,
    rayleigh_quotient,
    solve_mixed,
    write_coo_system,
)
from .geometry import (
    ConeModel,
    CurvatureReport,
    ModelSolution,
    VertexAsymptotics,
    conformal_rho2_curvatures,
    conformal_u_curvatures,
    euclidean_boundary_mean_curvature,
    euclidean_robin_potential,
    exact_model_solution,
    model_boundary_mean_curvature,
    product_scalar_curvature,
    target_H_to_c1,
    target_R_to_c0,
    vertex_asymptotics,
)
from .mesh import (
    BoundaryTag,
    Field,
    Mesh,
    ReducedDomain,
    build_mesh,
    read_field_table,
    truncation_family,
    write_field_table,
)
from .solver import (
    DEFAULT_DATA_SEQUENCE,
    AdmissibilityReport,
    BarrierFit,
    BlowupFit,
    BracketState,
    CapSearchError,
    LevelRecord,
    MonotonicityViolationError,
    NonlinearProblem,
    NoStabilizationError,
    OrderingViolationError,
    SolverReport,
    Verdict,
    barrier_psi_fit,
    check_sub_super,
    dichotomy_verdict,
    exhaustion_blowup_solve,
    fit_blowup_exponent,
    flat_cone_problem,
    maximal_solution,
    model_dirichlet_data,
    model_problem,
    monotone_iterate,
    newton_solve,
    pick_cap,
    solve_problem,
)

__version__ = "0.1.0"
