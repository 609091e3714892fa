"""Nonlinear solves of the constant-curvature problem on the truncated wedge.

The discrete problem mirrors the two-line system

    -Lap u + c u + c0 u^((n+2)/(n-2)) = 0            (interior)
    du/dnu + c2 u + c1 u^(n/(n-2))    = 0            (cone face)

with Dirichlet data on the truncation boundary, where c stands for the
(n-2)/(4(n-1))-scaled scalar-curvature potential and c2 for the scaled
boundary mean-curvature potential (on the flat cone, c = 0 and c2 is the
1/rho_polar profile of euclidean_robin_potential).

Two routes to the discrete solution are provided and cross-checked:

* newton_solve is a full-step Newton iteration on the discrete
  system.  The residual is a convex M-function (convex terms c0 u^p and
  c1 u^q, Jacobian a nonsingular M-matrix), so after its first step the
  iterates are supersolutions decreasing nodewise to the solution from any
  nonnegative start, and no line search is needed.  The same monotone
  theory covers a Jacobian frozen at an earlier supersolution iterate, or
  at a start lying above its first iterate (Shamanskii's modified Newton),
  so a certified factor is kept across steps while they contract fast,
  and every Jacobian of one operator is factored under the one
  fill-reducing ordering computed for the first.  A start given to it
  first runs two nonlinear Jacobi sweeps, which move it into Newton's
  basin near blow-up data; from the default start the sweeps run on the
  first iterate, the linear lift of the data.  Used as the inner solver
  for the exhaustion limits.

* monotone_iterate is the two-sided Newton bracket for convex M-functions
  (Ortega-Rheinboldt, ch. 13.3).  Its upper branch is Newton's iterates
  from the default start, supersolutions decreasing to the solution.  Its
  lower branch starts at zero, a subsolution, and steps with the factor
  Newton holds at each step once that factor was built at a
  supersolution, so it increases to the solution without passing it.  It
  stops once every free node's bracket is narrower than tol (1 + upper)
  there, which makes tol a proven bound on the error of the reported
  lower limit at each node.

Both run the one step, clip and refactor loop of _newton_steps, whose
factors come from elliptic._factor_spd, as principal_eigen's do.

On top of these sit the large-data exhaustion (Dirichlet data m -> infinity
with interior stabilization), the maximal-solution limit over shrinking
truncations with nodewise monotonicity checks, the lower barrier
C_* rho^(-(n-2)/2) feasibility fit, and the blow-up exponent fit that feeds
the completeness dichotomy verdict.
"""

from __future__ import annotations

import copy
import enum
import math
from dataclasses import dataclass

import numpy as np

from .elliptic import (
    NonConvergenceError,
    OperatorAssembly,
    SolverError,
    _factor_spd,
    assemble,
    solve_mixed,  # not called here: perfbench's tracer patches solver.solve_mixed
)
from .geometry import ConeModel, euclidean_robin_potential, exact_model_solution
from .mesh import Field, Mesh

__all__ = [
    "Verdict",
    "NonlinearProblem",
    "SolverReport",
    "LevelRecord",
    "BlowupFit",
    "BarrierFit",
    "OrderingViolationError",
    "NoStabilizationError",
    "MonotonicityViolationError",
    "flat_cone_problem",
    "model_problem",
    "model_dirichlet_data",
    "pick_cap",
    "monotone_iterate",
    "newton_solve",
    "solve_problem",
    "exhaustion_blowup_solve",
    "maximal_solution",
    "dichotomy_verdict",
    "fit_blowup_exponent",
    "barrier_psi_fit",
    "DEFAULT_DATA_SEQUENCE",
]

DEFAULT_DATA_SEQUENCE = tuple(float(2**k) for k in range(17))  # 1, 2, ..., 2^16
NEWTON_MAX_ITER = 60  # the step limit of newton_solve and of the monotone bracket
JACOBI_SWEEPS = 2  # nonlinear Jacobi sweeps on every start given to newton_solve
# the nodewise order checks across data values and across truncation levels
# allow a violation of at most ORDER_TOL * (1 + max|u|), solver tolerance
ORDER_TOL = 1e-8


class OrderingViolationError(SolverError):
    """Bracket or comparison ordering broke beyond tolerance: the discrete
    maximum principle failed; refine the mesh or raise the shifts."""


class NoStabilizationError(SolverError):
    """Interior probe values failed to settle before the data sequence ran out."""


class MonotonicityViolationError(SolverError):
    """Truncation-limit sequence failed to decrease beyond solver tolerance."""


class Verdict(enum.Enum):
    COMPLETE_TYPE = "COMPLETE_TYPE"
    BOUNDED_TYPE = "BOUNDED_TYPE"
    INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True, eq=False)
class NonlinearProblem:
    """Coefficients of the discrete problem on one mesh.

    c0 and c1, the equation's two constants, are floats that must be
    nonnegative and finite, else ValueError (zero is allowed for linear
    tests).  c, c2_lin and dirichlet_data are coerced by Field.of, so a
    scalar, node values or a Field on mesh may be given; c2_lin is read on
    ROBIN_CONE nodes and dirichlet_data on Dirichlet-tagged nodes.  The
    potentials are nonnegative, as on the flat cone (c = 0, c2_lin the
    cone's Robin potential), and so are the data: a negative c at any
    node, c2_lin at a Robin node or datum is a ValueError.  The
    discrete equations live on the free rows (interior and ROBIN_CONE
    nodes) and are evaluated there only: Dirichlet rows carry the data,
    not equations.  The problem is frozen, since its linear operator is
    assembled once from c and c2_lin: a changed coefficient is a new
    problem, dataclasses.replace(problem, c=...), checked and assembled
    afresh.
    """

    mesh: Mesh
    c0: float
    c1: float
    c: Field
    c2_lin: Field
    dirichlet_data: Field

    def __post_init__(self):
        for name in ("c0", "c1"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not (0.0 <= self.c0 < math.inf and 0.0 <= self.c1 < math.inf):
            raise ValueError(f"c0 and c1 must be nonnegative and finite, got {self.c0}, {self.c1}")
        for name in ("c", "c2_lin"):
            object.__setattr__(self, name, Field.of(self.mesh, getattr(self, name)))
        if np.min(self.c.values) < 0 or np.min(self.c2_lin.values[self.mesh.robin_mask]) < 0:
            raise ValueError("the potentials c and c2_lin must be nonnegative")
        object.__setattr__(self, "dirichlet_data", _checked_data(self.mesh, self.dirichlet_data))
        object.__setattr__(self, "_op0", None)

    @property
    def cone(self) -> ConeModel:
        return self.mesh.domain.cone

    @property
    def p_interior(self) -> float:
        n = self.cone.n
        return (n + 2.0) / (n - 2.0)

    @property
    def p_boundary(self) -> float:
        n = self.cone.n
        return n / (n - 2.0)

    @property
    def linear_operator(self) -> OperatorAssembly:
        """Operator with the linear potentials c, c2_lin."""
        if self._op0 is None:
            object.__setattr__(self, "_op0", assemble(self.mesh, self.c, self.c2_lin))
        return self._op0

    def with_data(self, data) -> "NonlinearProblem":
        """Same problem with other Dirichlet data, which alone are checked.

        The linear operator depends only on the mesh, c and c2_lin, so an
        already assembled one is shared with the new problem.
        """
        prob = copy.copy(self)
        object.__setattr__(prob, "dirichlet_data", _checked_data(self.mesh, data))
        return prob

    def absorption(self, uf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The integrated absorption terms at nonnegative free values uf,
        vm c0 u^p on every free row plus bm c1 u^q on the Robin rows (vm, bm
        the volume and boundary masses), and their derivatives in u: the
        one place the law's powers are formed.  A zero coefficient forms no
        power, and the c1 terms are formed on the Robin rows only."""
        op = self.linear_operator
        p, q, c0, c1 = self.p_interior, self.p_boundary, self.c0, self.c1
        if c0:
            vm = op.volume_mass[op.free]
            value, slope = vm * c0 * uf**p, vm * (p * c0 * uf ** (p - 1.0))
        else:
            value, slope = np.zeros(len(uf)), np.zeros(len(uf))
        if c1:
            rob = self.mesh.robin_rows
            bm, ur = op.boundary_mass[op.free][rob], uf[rob]
            value[rob] += bm * c1 * ur**q
            slope[rob] += bm * (q * c1 * ur ** (q - 1.0))
        return value, slope

    def integrated_residual(self, u: np.ndarray) -> np.ndarray:
        """Integrated-form residual of the discrete system on the free rows (the
        Newton objective), (A u) plus the absorption, at u clipped at zero
        (_free_residual); the Dirichlet entries of u enter only through the
        operator's coupling."""
        return _free_residual(self, np.maximum(u, 0.0))[0]

    def residual_parts(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Pointwise residual of the discrete system at (interior, Robin) nodes,
        the free rows of integrated_residual divided by their masses."""
        op = self.linear_operator
        F, rob = self.integrated_residual(u), self.mesh.robin_rows
        return (np.delete(F, rob) / np.delete(op.volume_mass[op.free], rob),
                F[rob] / op.boundary_mass[op.free][rob])

    def residual_sup(self, u: np.ndarray) -> float:
        r_int, r_rob = self.residual_parts(u)
        return float(max(np.max(np.abs(r_int)), np.max(np.abs(r_rob))))


def _checked_data(mesh: Mesh, data) -> Field:
    """Dirichlet data coerced by Field.of; a negative datum is a ValueError."""
    data = Field.of(mesh, data)
    if np.min(data.values[mesh.dirichlet_mask]) < 0:
        raise ValueError("Dirichlet data must be nonnegative")
    return data


def model_dirichlet_data(mesh: Mesh) -> Field:
    """Exact power solution rho^(-(n-2)/2) sampled on all nodes."""
    m = mesh.domain.cone.blowup_exponent
    return Field(mesh, mesh.rho ** (-m))


def flat_cone_problem(mesh: Mesh, c0, c1, dirichlet_data) -> NonlinearProblem:
    """Problem on the flat Euclidean background: c = 0, c2 the folded cone curvature."""
    cone = mesh.domain.cone
    c2 = np.zeros(mesh.n_nodes)
    rob = mesh.robin_mask
    c2[rob] = euclidean_robin_potential(cone, mesh.rho_polar[rob])
    return NonlinearProblem(mesh, c0, c1, c=0.0, c2_lin=c2, dirichlet_data=dirichlet_data)


def model_problem(mesh: Mesh) -> NonlinearProblem:
    """Flat-cone problem with the exact-solution coefficients and data.

    With c0 = c0_*, c1 = c1_* and Dirichlet data sampled from
    u_* = rho^(-(n-2)/2), the discrete solution converges to u_* at second
    order; the coefficient pair is the closed-form oracle behind the
    verify-model experiment.
    """
    cone = mesh.domain.cone
    if not cone.complete_regime:
        raise ValueError(
            "exact model solution has c0_star <= 0 (no-complete-solution regime); "
            f"d > (n-2)/2 required, got n={cone.n}, d={cone.d}"
        )
    sol = exact_model_solution(cone)
    return flat_cone_problem(mesh, sol.c0_star, sol.c1_star, model_dirichlet_data(mesh))


# ---------------------------------------------------------------------------
# cap selection
# ---------------------------------------------------------------------------


def pick_cap(problem: NonlinearProblem) -> float:
    """The constant supersolution S = max(data) that bounds the monotone
    bracket from above.

    A constant S is a supersolution when c + c0 S^(p-1) >= 0 at every node
    and c2 + c1 S^(q-1) >= 0 on the cone face, which the nonnegative
    potentials of every problem give for any S >= 0, and it lies above the
    data when S >= max(data).  The bracket's upper branch starts at the
    linear lift of the data, which lies in [0, max(data)], and decreases,
    so the data maximum is the smallest cap it keeps below; monotone_iterate
    checks that it does and refuses a cap under the data.
    """
    return float(np.max(problem.dirichlet_data.values[~problem.linear_operator.free]))


# ---------------------------------------------------------------------------
# Newton's iteration and its two-sided bracket
# ---------------------------------------------------------------------------


@dataclass
class SolverReport:
    """What one nonlinear solve did: its solution, the step count and final
    increment, the residual sup, and the Jacobian factorizations behind the
    solution with their summed fill (entries of L plus U, the measure of
    factor work that weighs a large mesh above a small one).
    exhaustion_blowup_solve also records in interior_change the
    probe change against the previous datum's solution (nan on the first
    datum, which has none).  The per-level measurements of a truncation
    family are in LevelRecord."""

    solution: Field
    final_increment: float
    iterations: int
    residual_sup: float
    factorizations: int = 0
    factor_fill: int = 0
    bracket: float = math.nan  # monotone bracket width max(upper - lower) at the stop
    interior_change: float = math.nan  # exhaustion probe change vs previous data level


def _free_residual(problem: NonlinearProblem, u: np.ndarray):
    """(F, Au, value, slope) at a nonnegative u: the integrated residual on
    the free rows, its linear part A u on the free rows, and the
    absorption's value and slope from the one problem.absorption call that
    forms F.  An overflowing term leaves F
    non-finite, without a warning, for the caller to check."""
    op = problem.linear_operator
    with np.errstate(over="ignore", invalid="ignore"):
        value, slope = problem.absorption(u[op.free])
        Au = op.apply_free(u)
        return Au + value, Au, value, slope


def _row_scale(op: OperatorAssembly, a: np.ndarray, u: np.ndarray, Au: np.ndarray,
               value: np.ndarray) -> np.ndarray:
    """The term sizes of each free row of the residual at a nonnegative u,
    (|A| u) + vm + value on the free rows, given a, the free block's
    diagonal, and Au and value from _free_residual.  The off-diagonal
    entries of A are nonpositive and its diagonal positive, so the free
    rows of |A| u are 2 a u - A u, and no copy of |A| is formed."""
    return 2.0 * a * u[op.free] - Au + op.volume_mass[op.free] + value


def _newton_update(u: np.ndarray, free: np.ndarray, factor, F: np.ndarray) -> np.ndarray:
    """The Newton step u - J^-1 F on the free rows with the factor of J,
    clipped at zero."""
    new = u.copy()
    new[free] += factor.solve(-F)
    return np.clip(new, 0.0, None)


def _jacobi_sweeps(problem: NonlinearProblem, u: np.ndarray) -> np.ndarray:
    """A nonnegative u after JACOBI_SWEEPS nonlinear Jacobi sweeps on the
    free rows of the integrated residual.

    Each free node solves its own row with its neighbours frozen,
    a_ii x + vm c0 x^p + bm c1 x^q = r (problem.absorption), where vm and
    bm are the node's volume and boundary masses and r = a_ii u_i - (A u)_i,
    the sum of -a_ij u_j over the neighbours, is nonnegative.  Every term
    of the row is nonnegative, so each of r / a_ii, (r / (vm c0))^(1/p) and
    (r / (bm c1))^(1/q) bounds the root from above, and two scalar Newton
    steps start from their minimum.  The row is convex and increasing in x,
    so the steps stay at or above the root.  This is the nonlinear Jacobi
    method for M-functions (Ortega-Rheinboldt, ch. 13; Rheinboldt 1970).
    A row whose terms overflow is left non-finite, without a warning, for
    Newton's residual check to refuse.
    """
    op = problem.linear_operator
    free, rob = op.free, problem.mesh.robin_rows
    p, q, c0, c1 = problem.p_interior, problem.p_boundary, problem.c0, problem.c1
    vm, bm = op.volume_mass[free], op.boundary_mass[free][rob]
    a = op.free_matrix.diagonal()
    u = u.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(JACOBI_SWEEPS):
            r = np.maximum(a * u[free] - op.apply_free(u), 0.0)
            x = r / a
            if c0:
                x = np.minimum(x, (r / (vm * c0)) ** (1.0 / p))
            if c1:
                x[rob] = np.minimum(x[rob], (r[rob] / (bm * c1)) ** (1.0 / q))
            for _ in range(2):
                value, slope = problem.absorption(x)
                x -= (a * x - r + value) / (a + slope)
            u[free] = x
    return u


@dataclass
class _NewtonState:
    """Newton's iteration after a step: the iterate u, the place its errors
    name (the mesh, omega_min and the data maximum), the factor that made
    the step, the row-normalized residual at u, the step's sup-norm
    increment, and the steps, factorizations and summed fill so far."""

    u: np.ndarray
    place: str
    factor: object = None
    res: float = math.inf
    inc: float = math.inf
    iterations: int = 0
    factorizations: int = 0
    fill: int = 0

    def report(self, problem: NonlinearProblem, u: np.ndarray, **extra) -> SolverReport:
        return SolverReport(solution=Field(problem.mesh, u), final_increment=self.inc,
                            iterations=self.iterations, residual_sup=problem.residual_sup(u),
                            factorizations=self.factorizations, factor_fill=self.fill, **extra)


def _newton_steps(problem: NonlinearProblem, u: np.ndarray, max_iter: int):
    """Full Newton steps from the nonnegative start u, which holds the data
    on the Dirichlet rows: yields the _NewtonState after each of at most
    max_iter steps, one state object updated in place.

    The one copy of the step, clip and refactor rules that newton_solve's
    docstring states.  A step after the first that rises raises
    OrderingViolationError, and a residual that is not finite raises
    NonConvergenceError, both naming the place; max_iter below 1 is a
    ValueError.

    From a start that is zero on the free rows the first step lands on
    the linear lift of the data, and ends with the Jacobi sweeps
    (_jacobi_sweeps) run on the lift.  At the lift A u = 0 on the free
    rows, so each row's first bound r / a_ii is the lift's own value, and
    Newton's map for a convex increasing row is nondecreasing in both its
    start and its right side r: every sweep ends at or below the last one
    and leaves a supersolution, as the lift is.  So the swept lift is
    still a supersolution iterate for every rule below, and for the
    monotone bracket's lower branch.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    mesh, op0 = problem.mesh, problem.linear_operator
    free = op0.free
    a = op0.free_matrix.diagonal()
    place = (f"on mesh {mesh.n_radial}x{mesh.n_angular}, omega_min {mesh.domain.omega_min:.6g}, "
             f"Dirichlet data max {pick_cap(problem):.6g}")
    state = _NewtonState(u, place)

    def normalized_residual(vec):
        # row-normalized residual: near blow-up data the raw rows span many
        # orders of magnitude and a global norm would let the interior be
        # sloppy, so each row is measured against its own term sizes
        # (_row_scale).  Returns the norm, the integrated residual it
        # measured and the absorption's slope at vec.  Every iterate and the
        # data are nonnegative, so |vec| is vec.
        F, Au, value, slope = _free_residual(problem, vec)
        if not np.all(np.isfinite(F)):
            raise NonConvergenceError(
                f"non-finite residual at iteration {state.iterations}: c0 u^p or c1 u^q "
                "overflows at the Newton iterate " + place,
                iterations=state.iterations,
            )
        return float(np.max(np.abs(F) / _row_scale(op0, a, vec, Au, value))), F, slope

    res, F, slope = normalized_residual(u)
    lift = not np.any(u[free])
    factor = None  # the kept Jacobian factor; None forces a fresh one
    for iterations in range(1, max_iter + 1):
        state.iterations = iterations
        if factor is None:
            factor = _factor_spd(op0, slope)
            state.factorizations += 1
            state.fill += factor.nnz
        trial = _newton_update(u, free, factor, F)
        if lift and iterations == 1:
            trial = _jacobi_sweeps(problem, trial)
        change = trial - u
        step, rise = float(np.max(np.abs(change))), float(np.max(change))
        # after the first step the iterates decrease nodewise, which the
        # kept factors rely on
        if iterations > 1 and rise > ORDER_TOL * (1.0 + float(np.max(np.abs(u)))):
            raise OrderingViolationError(
                f"Newton step {iterations} rose by {rise:.3e} where the iterates must "
                "decrease: the discrete maximum principle failed " + place
            )
        state.factor = factor
        # the start factor serves on only after a first step down; every
        # factor serves on while steps shrink 4x
        if step > 0.25 * state.inc or (iterations == 1 and rise > 0.0):
            factor = None
        u = trial
        res, F, slope = normalized_residual(u)
        state.u, state.res, state.inc = u, res, step
        yield state
        state.factor = None  # a dropped factor is freed before a fresh one is built


def newton_solve(
    problem: NonlinearProblem,
    u0: Field | None = None,
    tol: float = 1e-10,
    max_iter: int = NEWTON_MAX_ITER,
) -> SolverReport:
    """Full-step Newton iteration on the discrete system.

    Starts from the Dirichlet data with zero on the free nodes unless u0 is
    given, such as a coarser mesh's solution carried over by mesh.resample,
    in any form Field.of takes on the problem's mesh, so a Field on another
    mesh is a ValueError (Dirichlet rows of any start are overwritten by
    the data, and negative values are clipped to zero).  A given start
    then runs JACOBI_SWEEPS nonlinear Jacobi sweeps (_jacobi_sweeps), which
    change only where Newton starts: the theory below holds from any
    nonnegative start.  At the zero-interior start the Jacobian is the
    free block of problem.linear_operator, since p c0 0^(p-1) =
    q c1 0^(q-1) = 0, and the residual is the Dirichlet lift, so the
    first step lands bitwise on the linear lift u_L of the data,
    A u_L = 0 on the free rows.  The lift is a supersolution, since
    F(u_L) = c0 u_L^p + c1 u_L^q >= 0 (integrated), and, as c and c2_lin
    are nonnegative, lies in [0, max(data)].  At large data it lies far
    above the solution, so the first step runs the sweeps on it, which
    keep it a supersolution and bring it into Newton's basin (constant
    data 1e6 on the 8x8 (3,1) mesh at theta/2 took more than 60 steps
    without them, 15 with them).  Each step solves the
    linearization with potentials c + p c0 u^(p-1) and c2 + q c1 u^(q-1)
    and takes the whole step, clipped at zero.  No damping is needed: the residual is convex in u
    (p, q > 1, c0, c1 >= 0) and its Jacobian has nonpositive off-diagonals
    and is certified positive definite by the sparse LU, so it is a
    nonsingular M-matrix with a nonnegative inverse.  By the monotone
    convergence theorem for convex M-functions, the first step from any
    start lands on a supersolution and every later iterate decreases
    nodewise to the solution.

    A factor is kept for later steps under two fixed rules: the factor
    built at the start is kept only when the first step goes down nodewise
    (u_1 <= u_0), and a step that shrinks the sup-norm increment by less
    than 4x forces a fresh factor at the new iterate.  Reuse is safe: for a
    supersolution iterate u_k and a kept factor J(u_j) with u_k <= u_j,
    J(u_j) - J(u_k) is a nonnegative diagonal, so J(u_j)^-1 >= 0, and
    convexity gives u* <= u_k - J(u_j)^-1 F(u_k) <= u_k, again a
    supersolution.  For j >= 1 the iterates decrease, so u_k <= u_j; for
    j = 0 the first rule gives u_k <= u_1 <= u_0.  The zero start and
    other subsolutions go up on their first step and drop the start
    factor.  A coarser solution resampled onto a finer mesh lies above the
    finer solution, goes down, and its factor can carry every step.  Every
    kept factor was certified when it was built.  A start far above the
    solution sheds about 1/p of its excess per step, too slowly for the 4x
    rule, so it refactors at nearly every step of that phase; the sweeps
    bring a given start and the linear lift down first (the constant 2^16
    on the (3,1) desk base takes 15 steps with them, 57 without).  The
    decrease is checked: a step after the first
    that rises anywhere by more than ORDER_TOL * (1 + max|u|) raises
    OrderingViolationError, naming the mesh, omega_min and the data maximum.
    Converges when the row-normalized residual, formed on the free rows,
    is below 1e-11 and the sup-norm increment below tol * (1 + sup u); a
    residual that is not finite (c0 u^p or c1 u^q overflows) or max_iter
    steps raise NonConvergenceError, with the same naming.
    The report counts the steps, the factorizations and their summed fill.
    Every Jacobian shares the sparsity pattern of the free block of
    problem.linear_operator, so only the first factorization of that
    operator computes a minimum-degree ordering; later ones, including
    those of other data values sharing the operator through with_data,
    reuse it (see elliptic._factor_spd).
    """
    mesh = problem.mesh
    free = problem.linear_operator.free
    data = problem.dirichlet_data.values

    u = np.zeros(mesh.n_nodes) if u0 is None else Field.of(mesh, u0).values.copy()
    u[~free] = data[~free]
    u = np.clip(u, 0.0, None)
    if u0 is not None:
        u = _jacobi_sweeps(problem, u)
    for state in _newton_steps(problem, u, max_iter):
        if state.res <= 1e-11 and state.inc <= tol * (1.0 + float(np.max(np.abs(state.u)))):
            break
    else:
        raise NonConvergenceError(
            f"Newton did not converge in {max_iter} iterations "
            f"(normalized residual {state.res:.3e}, increment {state.inc:.3e}) {state.place}",
            iterations=max_iter,
            residual=state.res,
        )
    return state.report(problem, state.u)


def monotone_iterate(
    problem: NonlinearProblem,
    S: float,
    tol: float = 1e-8,
    max_iter: int = NEWTON_MAX_ITER,
) -> tuple[SolverReport, Field]:
    """Two-sided Newton bracket lower <= u* <= upper inside [0, S].

    The upper branch is Newton's iterates from its default start
    (_newton_steps, under newton_solve's rules): supersolutions from the
    first, the linear lift of the data after the Jacobi sweeps, decreasing
    to the solution u*.  The
    lower branch starts at zero, a subsolution for any data, and from the
    second step on takes l <- l - J^-1 F(l), clipped at zero, on the factor
    that made Newton's step.  That factor was built at a supersolution
    u_j >= u*, so J - J(u*) is a nonnegative diagonal and convexity keeps l
    a subsolution, nondecreasing and at most u*; the factor J(0) of the
    first step lies below J(u*) and is not used.  The lower limit is the
    report's solution, the upper one is returned next to it as
    certificate; the report's bracket is the final width max(upper -
    lower), its final increment Newton's last step.
    S below the Dirichlet data maximum is not a supersolution and raises
    ValueError.  Ordering is enforced nodewise at every step to
    1e-12 * max(1, S) (lower nondecreasing, upper nonincreasing from S,
    0 <= lower <= upper <= S), and a step that is not finite fails it;
    violations raise OrderingViolationError, a failed discrete maximum
    principle.  Stops when every free node's width upper_i - lower_i is
    at most tol * (1 + upper_i), or 16 eps lower_i, the rounding level of
    that node's value, so tol bounds the error of either branch at each
    node relative to the solution there, not to the data or to the
    largest free value (the Dirichlet rows hold the data in both branches,
    and at huge data the free values span many orders of magnitude); else,
    after max_iter steps, NonConvergenceError, as for an overflowing
    c0 u^p or c1 u^q.  Every error names the mesh, omega_min and the data
    maximum.
    """
    mesh = problem.mesh
    free = problem.linear_operator.free
    data = problem.dirichlet_data.values
    S = float(S)
    if S < pick_cap(problem):
        raise ValueError(f"cap S = {S:.6g} lies below the Dirichlet data maximum")
    otol = 1e-12 * max(1.0, S)
    lower = np.where(free, 0.0, data)
    upper = np.full(mesh.n_nodes, S)
    for state in _newton_steps(problem, lower, max_iter):
        new_lower = lower
        if state.iterations > 1:
            new_lower = _newton_update(lower, free, state.factor, _free_residual(problem, lower)[0])
        new_upper = state.u
        # written so that a nan fails every comparison
        if not (
            np.min(new_lower - lower) >= -otol
            and np.max(new_upper - upper) <= otol
            and np.max(new_lower - new_upper) <= otol
            and np.min(new_lower) >= -otol
            and np.max(new_upper) <= S + otol
        ):
            raise OrderingViolationError(
                f"bracket ordering violated beyond tolerance {otol:.1e} at iteration "
                f"{state.iterations}: discrete maximum principle failed " + state.place
            )
        lower, upper = new_lower, new_upper
        width = float(np.max(upper - lower))
        if np.all(upper[free] - lower[free]
                  <= np.maximum(tol * (1.0 + upper[free]), 16.0 * np.finfo(float).eps * lower[free])):
            break
    else:
        raise NonConvergenceError(
            f"monotone bracket did not reach tol {tol:g} within {max_iter} steps "
            f"(width {width:.3e}) {state.place}",
            iterations=max_iter,
            residual=width,
        )
    return state.report(problem, lower, bracket=width), Field(mesh, upper)


def solve_problem(
    problem: NonlinearProblem,
    method: str = "newton",
    tol: float = 1e-10,
    max_iter: int | None = None,
    u0: Field | None = None,
) -> SolverReport:
    """Dispatch to the requested nonlinear scheme with its standard setup.

    Newton starts from u0 when given (see newton_solve), else from the data
    with zero on the free nodes; the monotone bracket always starts from
    [0, pick_cap(problem)], so a u0 with method "monotone" is a
    ValueError.  max_iter=None keeps the schemes' limit, NEWTON_MAX_ITER.
    """
    limit = {} if max_iter is None else {"max_iter": max_iter}
    if method == "newton":
        return newton_solve(problem, u0=u0, tol=tol, **limit)
    if method == "monotone":
        if u0 is not None:
            raise ValueError("the monotone iteration starts from its bracket; it takes no u0")
        report, _ = monotone_iterate(problem, pick_cap(problem), tol=max(tol, 1e-12), **limit)
        return report
    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# exhaustion and maximal-solution limits
# ---------------------------------------------------------------------------


PROBE_RADIAL_MARGIN = 0.15   # fraction of the log-radial span kept clear of the ends
PROBE_ANGULAR_MARGIN = 0.10  # fraction of the wedge span kept clear of the inner face


def _radial_margin(mesh: Mesh) -> np.ndarray:
    """Nodes at least PROBE_RADIAL_MARGIN of the log-radial span from both radial ends."""
    xi = np.log(mesh.rho_polar)
    xi0, xi1 = np.log(mesh.radial_nodes[0]), np.log(mesh.radial_nodes[-1])
    dxi = PROBE_RADIAL_MARGIN * (xi1 - xi0)
    return (xi >= xi0 + dxi) & (xi <= xi1 - dxi)


def _interior_probe(mesh: Mesh, rho_cut: float | None = None) -> np.ndarray:
    """Free nodes with rho above the median on a fixed compact subset.

    The subset keeps a fixed physical margin away from every Dirichlet face,
    realizing the compact-set hypothesis of the interior bound: cells close
    to blow-up data never settle pointwise (their values creep like a small
    power of the data), while compact sets away from the data boundary are
    uniformly controlled.  Robin-face nodes at mid-radius stay in the probe.
    rho_cut overrides the median cut; the truncation-limit driver passes the
    base level's cut so the probe stays the same compact set at every depth.
    """
    om0 = mesh.domain.omega_min
    theta = mesh.domain.cone.theta
    margin = _radial_margin(mesh) & (mesh.omega >= om0 + PROBE_ANGULAR_MARGIN * (theta - om0))
    rho = mesh.rho
    free = mesh.free_mask
    if rho_cut is None:
        rho_cut = float(np.median(rho[free]))
    return free & margin & (rho > rho_cut)


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den nodewise, and 1 where den is zero."""
    return np.divide(num, den, out=np.ones_like(num), where=den > 0.0)


def _octave_shift(values: np.ndarray, coarse: Mesh, mesh: Mesh) -> np.ndarray:
    """Positive node values on coarse moved down one octave onto mesh, the
    next level of its truncation family.

    Per radial row, the value at angle omega is the coarse value at
    min(2 omega, theta), read by linear interpolation in (log omega, log
    value).  The shift is defined by angle, not by column index, so it
    carries a near-face profile to the new face whatever the node spacing.
    """
    at = np.log(np.minimum(2.0 * mesh.angular_nodes, mesh.domain.cone.theta))
    grid = np.log(coarse.angular_nodes)
    rows = np.log(values).reshape(coarse.n_radial, coarse.n_angular)
    return np.exp([np.interp(at, grid, row) for row in rows]).ravel()


def exhaustion_blowup_solve(
    problem: NonlinearProblem,
    data_sequence=DEFAULT_DATA_SEQUENCE,
    tol: float = 1e-3,
    inner_tol: float = 1e-10,
    probe_rho_cut: float | None = None,
    u0: Field | None = None,
    ratio: np.ndarray | None = None,
) -> list[SolverReport]:
    """Solve with constant Dirichlet data m_1 < m_2 < ... and watch the interior.

    Each datum is a Newton solve started from a secant prediction.  The
    first datum starts from u0 when given, else from Newton's default
    start, zero on the free nodes, whose first step is the linear lift of
    the datum.  The second starts at the first solution times
    max(ratio, 1) nodewise when ratio, node values of a predicted
    u(m_2) / u(m_1), is given, else at the first solution.  Every later
    datum starts at prev * max(prev / prevprev, 1) on the free nodes, the
    secant of the last two solutions in (log m, log u) for a ladder of
    constant ratio such as the doubling default (ratio 1 where prevprev is
    zero).  Next to a blow-up face a node grows like a power of the datum,
    and far from it the solution settles: both are local power laws, on
    which the secant is exact.  The clamp at 1 keeps every start at or
    above the previous solution.  Newton reaches the same solution from
    every nonnegative start, so the predictions move the step and factor
    counts, not the result.
    Successive solutions must be nodewise nondecreasing (discrete
    comparison): a drop above ORDER_TOL * (1 + max|u|) raises
    OrderingViolationError, naming the datum and omega_min.  Every report
    after the first carries in interior_change the sup-norm change on the
    interior probe set (free nodes with rho above probe_rho_cut, default
    the median, a fixed margin away from the Dirichlet faces); the first
    report's is nan.  The whole sequence always runs; stabilization is
    certified at the final datum (tol=math.inf waives it): its probe change
    must lie below tol * (1 + probe sup), else NoStabilizationError, which
    a one-datum sequence therefore always raises.
    """
    seq = [float(m) for m in data_sequence]
    if any(b <= a for a, b in zip(seq, seq[1:])) or not seq:
        raise ValueError("data_sequence must be strictly increasing and nonempty")
    mesh = problem.mesh
    probe = _interior_probe(mesh, probe_rho_cut)

    reports: list[SolverReport] = []
    prev = prevprev = None
    # each data value derives from the previous one, so the whole ladder
    # shares one assembled operator and frees it on return
    prob_m = problem
    for m in seq:
        prob_m = prob_m.with_data(m)
        if prev is None:
            start = u0
        else:
            gain = ratio if prevprev is None else _ratio(prev, prevprev)
            start = Field(mesh, prev if gain is None else prev * np.maximum(gain, 1.0))
        rep = newton_solve(prob_m, u0=start, tol=inner_tol)
        u = rep.solution.values
        if prev is not None:
            drop = float(np.max(prev - u))
            if drop > ORDER_TOL * (1.0 + float(np.max(np.abs(u)))):
                raise OrderingViolationError(
                    f"exhaustion solutions failed to increase with data (drop {drop:.3e} "
                    f"at datum {m:g}, omega_min {mesh.domain.omega_min:.6g})"
                )
            rep.interior_change = float(np.max(np.abs((u - prev)[probe])))
        reports.append(rep)
        prev, prevprev = u, prev
    change = reports[-1].interior_change
    if not change < tol * (1.0 + float(np.max(np.abs(prev[probe])))):
        raise NoStabilizationError(
            f"interior probe change {change} not below tol {tol:g} * (1 + probe sup) "
            f"at the final datum {seq[-1]:g} (omega_min {mesh.domain.omega_min:.6g})"
        )
    return reports


FIT_FACE_CLEARANCE = 8.0  # window stays this many face-angles above the truncation
FIT_WINDOW_TOP = 0.9      # window top as a fraction of sin(omega_base)
FIT_WINDOW_SPAN = 0.9     # frozen window height in decades of rho

# dichotomy verdict thresholds, relative to the blow-up exponent (n-2)/2
VERDICT_ALPHA_COMPLETE = 0.8   # COMPLETE_TYPE needs alpha >= this * (n-2)/2
VERDICT_ALPHA_BOUNDED = 0.2    # BOUNDED_TYPE needs alpha <= this * (n-2)/2
VERDICT_SUP_VARIATION = 0.05   # near-singular sup change allowed between the last two truncations
VERDICT_INDICATOR_DRIFT = 0.4  # relative completeness-indicator drift allowed


def _auto_window(mesh: Mesh, omega_min_base: float) -> tuple[float, float]:
    """Exponent-fit window (lo, hi) on the mid-radial slice.

    The top is fixed just below the base truncation angle; the bottom
    follows the shrinking truncation only until it reaches a fixed fraction
    of the top (so that deep truncations fit over a frozen window whose
    distance to the blow-up face keeps growing, where the asymptotic power
    law is clean).  On a shallow truncation lo can reach hi; that empty
    window is fit_blowup_exponent's to refuse.
    """
    rp = mesh.rho_polar[mesh.mid_radial_row][0]
    hi = FIT_WINDOW_TOP * math.sin(omega_min_base) * rp
    lo = max(
        FIT_FACE_CLEARANCE * math.sin(mesh.domain.omega_min) * rp,
        hi * 10.0**-FIT_WINDOW_SPAN,
    )
    return lo, hi


@dataclass
class LevelRecord:
    """One truncation level of maximal_solution.

    solution is the level's solution at the final datum and interior_change
    its probe change against the previous datum; iterations,
    factorizations and factor_fill are the totals over the level's Newton
    solves.  The near-singular band sup, its relative change against the
    previous level, and the exponent fit on the level's window (alpha, r2
    and completeness indicator) are nan where the level has no band, no
    previous level or no fit, and fit_samples is then 0.  A record holds
    measurements only; dichotomy_verdict judges a list of them.
    """

    solution: Field
    iterations: int
    factorizations: int
    interior_change: float
    factor_fill: int = 0
    near_gamma_sup: float = math.nan
    near_gamma_variation: float = math.nan
    fitted_exponent: float = math.nan
    fit_r2: float = math.nan
    fit_samples: int = 0
    completeness_indicator: float = math.nan


def maximal_solution(
    problems: list[NonlinearProblem],
    data_sequence=DEFAULT_DATA_SEQUENCE,
    tol: float = 1e-3,
    inner_tol: float = 1e-10,
) -> list[LevelRecord]:
    """Exhaustion limits over the shrinking truncations omega0, omega0/2, ...

    problems must live on meshes produced by truncation_family (same radial
    nodes, nested angular nodes).  Level 0 runs the full data sequence from
    Newton's zero-interior start, with its nondecreasing-in-data check at
    every datum and the data ladder's secant starts (see
    exhaustion_blowup_solve).  Each deeper level k solves only the last two
    data values, which are all the certificate and the cross-level
    comparison read, each started from a measured secant.  With shift the
    move down one octave (_octave_shift: per radial row, the value at angle
    omega is the coarse value at min(2 omega, theta), read in (log omega,
    log value)), the first datum starts at shift(u_(k-1)) times
    max(shift(R_(k-1)), 1), where R_(k-1) = u_(k-1) / shift(u_(k-2)) is the
    level-to-level ratio measured on the previous level, 1 on its
    Dirichlet rows.  Near the singular set the flat cone's solution follows
    u ~ K rho^(-a), a = (n-2)/2, so halving the truncation raises the
    near-face profile by about 2^a; level 1, with no measured ratio, scales
    by that 2^a.  The second datum starts at the first solution times
    max(shift(r_(k-1)), 1), where r_(k-1) is the previous level's own ratio
    u(m) / u(m/2) of its last two solutions.  Newton reaches the same
    solution from any nonnegative start, so the starts change the step and
    factor counts, not the result.  All levels share the final data
    height, and every free node of a coarser level is free on the deeper
    one.  On the coarser level's free nodes the deeper
    solution therefore solves the coarser level's discrete equations, with
    boundary values no larger on the coarser inner face, so by the discrete
    comparison principle the decrease across levels is exact up to solver
    tolerance.  Each level is checked against the previous one by the rule
    of the data ladder: a rise max(u_deep - u_coarse) on those nodes above
    ORDER_TOL * (1 + max|u_deep|) raises MonotonicityViolationError.  Each
    level's exhaustion orders its last two solutions and certifies
    stabilization at the final datum on the base level's probe set
    (NoStabilizationError otherwise).  Returns one LevelRecord per level,
    holding the level's solution, its Newton totals and the measurements
    that dichotomy_verdict reads; callers judge the family with
    dichotomy_verdict(levels).  A SolverError leaves with the failed
    level's index, 0 for the base, set as its level and a note naming the
    level, the level count and omega_min.
    """
    if not problems:
        raise ValueError("empty truncation family")
    base_mesh = problems[0].mesh
    omega_base = base_mesh.domain.omega_min
    law = 2.0 ** base_mesh.domain.cone.blowup_exponent

    levels: list[LevelRecord] = []
    seq = list(data_sequence)
    base_rho_cut = float(np.median(base_mesh.rho[base_mesh.free_mask]))
    # the ratios measured on the previous level: its solution against the
    # shifted one before it (None until a deep level has run), and its
    # solution against its previous datum's
    across = within = None
    try:
        for prob in problems:
            mesh = prob.mesh
            if levels:
                coarse = levels[-1].solution.mesh
                uc = levels[-1].solution.values
                shifted = _octave_shift(uc, coarse, mesh)
                gain = (law if across is None
                        else np.maximum(_octave_shift(across, coarse, mesh), 1.0))
                data, start = seq[-2:], Field(mesh, shifted * gain)
                second = None if within is None else _octave_shift(within, coarse, mesh)
            else:
                data, start, second = seq, None, None
            solves = exhaustion_blowup_solve(
                prob, data, tol=tol, inner_tol=inner_tol, probe_rho_cut=base_rho_cut,
                u0=start, ratio=second,
            )
            rec = LevelRecord(
                solution=solves[-1].solution,
                iterations=sum(r.iterations for r in solves),
                factorizations=sum(r.factorizations for r in solves),
                factor_fill=sum(r.factor_fill for r in solves),
                interior_change=solves[-1].interior_change,
            )
            u = rec.solution.values
            within = _ratio(u, solves[-2].solution.values) if len(solves) > 1 else None

            if levels:
                across = np.where(mesh.free_mask, _ratio(u, shifted), 1.0)
                # compare on the coarser level's free nodes, which are free on
                # this level too (its Dirichlet nodes carry data, not solutions)
                uc = uc.reshape(coarse.n_radial, coarse.n_angular)
                uf = u.reshape(mesh.n_radial, mesh.n_angular)[:, mesh.angular_offset_of(coarse):]
                rise = np.where(coarse.free_mask.reshape(uc.shape), uf - uc, -np.inf)
                if np.max(rise) > ORDER_TOL * (1.0 + float(np.max(np.abs(u)))):
                    k = np.unravel_index(np.argmax(rise), rise.shape)
                    raise MonotonicityViolationError(
                        "truncation-limit sequence increased beyond solver tolerance "
                        f"at node {k}: rise {np.max(rise):.3e} on the level with omega_min "
                        f"{mesh.domain.omega_min:.6g}, mesh {mesh.n_radial}x{mesh.n_angular}"
                    )

            # near-singular band fixed across levels: omega in [omega_base/2, omega_base],
            # restricted to the same compact radial margin as the interior probe so the
            # sup measures the field near the singular set, not the blow-up corners;
            # band nodes are nested across levels, so the previous level is the
            # last one that can have a band, and without one the variation is nan
            band = (
                mesh.free_mask
                & (mesh.omega >= 0.5 * omega_base)
                & (mesh.omega <= omega_base)
                & _radial_margin(mesh)
            )
            if np.any(band):
                rec.near_gamma_sup = float(np.max(u[band]))
                if levels:
                    prev_sup = levels[-1].near_gamma_sup
                    rec.near_gamma_variation = abs(rec.near_gamma_sup - prev_sup) / prev_sup

            try:
                fit = fit_blowup_exponent(rec.solution, _auto_window(mesh, omega_base))
                rec.fitted_exponent = fit.alpha
                rec.fit_r2 = fit.r2
                rec.fit_samples = fit.n_samples
                rec.completeness_indicator = fit.completeness
            except ValueError:
                pass

            levels.append(rec)
    except SolverError as exc:
        exc.level = len(levels)
        exc.add_note(f"at level {exc.level} of {len(problems)}, omega_min "
                     f"{problems[exc.level].mesh.domain.omega_min:.6g}")
        raise

    return levels


def dichotomy_verdict(levels: list[LevelRecord]) -> Verdict:
    """The completeness dichotomy read off the last two truncation levels.

    With m = (n-2)/2 the blow-up exponent of the cone, COMPLETE_TYPE needs
    the last level's fitted alpha >= VERDICT_ALPHA_COMPLETE * m and positive
    fitted completeness indicators on the last two levels that differ by at
    most VERDICT_INDICATOR_DRIFT times the larger one.  BOUNDED_TYPE needs
    alpha <= VERDICT_ALPHA_BOUNDED * m and a near-singular sup that changed
    by less than VERDICT_SUP_VARIATION against the previous level.  A
    missing measurement is nan and satisfies no comparison, so anything
    else, a last level without a fit or a single level included, is
    INCONCLUSIVE.  maximal_solution's callers call this on its levels.
    """
    last = levels[-1]
    alpha = last.fitted_exponent
    m_exp = last.solution.mesh.domain.cone.blowup_exponent
    ind_last = last.completeness_indicator
    ind_prev = levels[-2].completeness_indicator if len(levels) > 1 else math.nan
    if (
        alpha >= VERDICT_ALPHA_COMPLETE * m_exp
        and ind_last > 0
        and ind_prev > 0
        and abs(ind_last - ind_prev) <= VERDICT_INDICATOR_DRIFT * max(ind_last, ind_prev)
    ):
        return Verdict.COMPLETE_TYPE
    if alpha <= VERDICT_ALPHA_BOUNDED * m_exp and last.near_gamma_variation < VERDICT_SUP_VARIATION:
        return Verdict.BOUNDED_TYPE
    return Verdict.INCONCLUSIVE


# ---------------------------------------------------------------------------
# blow-up exponent fit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlowupFit:
    alpha: float
    r2: float
    completeness: float
    n_samples: int


def fit_blowup_exponent(solution: Field, rho_window: tuple[float, float]) -> BlowupFit:
    """Least-squares slope of log u against -log rho on the mid-radial slice.

    Also returns the completeness indicator min(u * rho^((n-2)/2)) over the
    window samples.  An empty window (not 0 < lo < hi) or one with fewer
    than 4 sample nodes raises ValueError.
    """
    mesh = solution.mesh
    lo, hi = float(rho_window[0]), float(rho_window[1])
    if not 0.0 < lo < hi:
        raise ValueError(f"invalid window ({lo}, {hi})")
    sl = mesh.mid_radial_row
    rho, u = mesh.rho[sl], solution.values[sl]
    sel = mesh.free_mask[sl] & (rho >= lo) & (rho <= hi) & (u > 0.0)
    if int(np.sum(sel)) < 4:
        raise ValueError(
            f"degenerate window: only {int(np.sum(sel))} sample nodes in ({lo:g}, {hi:g})"
        )
    x = -np.log(rho[sel])
    y = np.log(u[sel])
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 and ss_res == 0.0 else (1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0)
    m = mesh.domain.cone.blowup_exponent
    completeness = float(np.min(u[sel] * rho[sel] ** m))
    return BlowupFit(alpha=float(slope), r2=r2, completeness=completeness, n_samples=int(np.sum(sel)))


# ---------------------------------------------------------------------------
# barriers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BarrierFit:
    """Feasibility of the lower barrier C_* rho^(-(n-2)/2) on the near-singular band."""

    feasible: bool
    C1_margin: float
    C_star: float
    band_rho_max: float
    lower_bound_margin: float | None = None


def barrier_psi_fit(problem: NonlinearProblem, solution: Field | None = None) -> BarrierFit:
    """Fit the lower-barrier constants on the near-singular band.

    The band is the free nodes with rho at most the median over free nodes
    (reported as band_rho_max).  The two inequalities behind the barrier
    are, with the exact flat-model values rho*Lap(rho) = n-d-1,
    g(grad rho, nu) = h/sqrt(1+h^2) and rho*H = (n-d-1) h/sqrt(1+h^2):

      interior:  rho*Lap(rho) - n/2 + |R| rho^2/(n-1)  < -C1
      boundary:  -g(grad rho, nu) + rho*H/(n-1)        < -C1

    The interior margin is d - (n-2)/2 up to the rho^2 R correction, so a
    positive C1 exists exactly when d > (n-2)/2; at or below the threshold
    the fit reports infeasible (expected, not a fault).  C_star is the
    largest constant for which both inequalities absorb the c0, c1 terms on
    the band; when a solution is supplied, the report also carries the worst
    margin of u >= C_* rho^(-(n-2)/2) - C_* rho_out^(-(n-2)/2) on the band.
    """
    mesh = problem.mesh
    cone = mesh.domain.cone
    n, d, h = cone.n, cone.d, cone.h
    m = cone.blowup_exponent
    rho = mesh.rho
    free = mesh.free_mask
    band_rho_max = float(np.median(rho[free]))
    band = free & (rho <= band_rho_max)  # never empty: it holds the free minimum of rho

    # |R| recovered from the scaled potential c = (n-2) R / (4(n-1))
    R_sup = float(np.max(np.abs(problem.c.values[band]))) * 4.0 * (n - 1) / (n - 2)
    s = h / math.sqrt(1.0 + h * h)
    margin_165 = float(np.min(0.5 * n - (n - d - 1) - R_sup * rho[band] ** 2 / (n - 1)))
    margin_166 = s - (n - d - 1) * s / (n - 1)  # = d*h / ((n-1) sqrt(1+h^2))
    C1 = min(margin_165, margin_166)
    feasible = C1 > 0.0

    if feasible:
        c0, c1 = problem.c0, problem.c1
        bound_int = math.inf if c0 == 0 else ((n - 2) * margin_165 / (2.0 * c0)) ** ((n - 2) / 4.0)
        bound_bdy = math.inf if c1 == 0 else ((n - 2) * margin_166 / (2.0 * c1)) ** ((n - 2) / 2.0)
        C_star = min(bound_int, bound_bdy)
    else:
        C_star = 0.0

    lower_margin = None
    if solution is not None and feasible and math.isfinite(C_star):
        u = solution.values
        psi = C_star * rho[band] ** (-m) - C_star * band_rho_max ** (-m)
        lower_margin = float(np.min(u[band] - psi))

    return BarrierFit(feasible=feasible, C1_margin=C1, C_star=float(C_star),
                      band_rho_max=band_rho_max, lower_bound_margin=lower_margin)
