"""Nonlinear solves of the constant-curvature problem on the truncated wedge.

The discrete problem mirrors the two-line system

    -Lap u + c u + c0 u^((n+2)/(n-2)) = 0            (interior)
    du/dnu + c2 u + c1 u^(n/(n-2))    = 0            (cone face)

with Dirichlet data on the truncation boundary, where c stands for the
(n-2)/(4(n-1))-scaled scalar-curvature potential and c2 for the scaled
boundary mean-curvature potential (on the flat cone, c = 0 and c2 is the
1/rho_polar profile of euclidean_robin_potential).

Two routes to the discrete solution are provided and cross-checked:

* monotone_iterate runs the shifted two-branch Picard scheme: both brackets
  solve the same shifted linear operator with the remaining terms frozen on
  the right, the shift being the smallest value that keeps the frozen maps
  nondecreasing on [0, S]; the iterates then stay ordered (sub
  nondecreasing, super nonincreasing, sub <= super <= S nodewise).  The cap
  is the Dirichlet data maximum, so its contraction rate degrades as the
  data grow: it is the certificate scheme for moderate data, not the
  workhorse for blow-up-scale data.

* newton_solve is a full-step Newton iteration on the same discrete
  system.  The residual is a convex M-function (convex terms c0 u^p and
  c1 u^q, Jacobian a nonsingular M-matrix), so after its first step the
  iterates are supersolutions decreasing nodewise to the solution from any
  nonnegative start, and no line search is needed.  The same monotone
  theory covers a Jacobian frozen at an earlier supersolution iterate, or
  at a start lying above its first iterate (Shamanskii's modified Newton),
  so a certified factor is kept across steps while they contract fast,
  and every Jacobian of one operator is factored under the one
  fill-reducing ordering computed for the first.
  Used as the inner solver for the exhaustion limits.

On top of these sit the large-data exhaustion (Dirichlet data m -> infinity
with interior stabilization), the maximal-solution limit over shrinking
truncations with nodewise monotonicity checks, the lower barrier
C_* rho^(-(n-2)/2) feasibility fit, and the blow-up exponent fit that feeds
the completeness dichotomy verdict.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .elliptic import (
    NonConvergenceError,
    OperatorAssembly,
    SolverError,
    _back_solve,
    _dirichlet_lift,
    _factor_spd,
    assemble,
    solve_mixed,  # not called here: perfbench's tracer patches solver.solve_mixed
)
from .geometry import ConeModel, euclidean_robin_potential, exact_model_solution
from .mesh import Field, Mesh

__all__ = [
    "Verdict",
    "NonlinearProblem",
    "BracketState",
    "SolverReport",
    "LevelRecord",
    "AdmissibilityReport",
    "BlowupFit",
    "BarrierFit",
    "OrderingViolationError",
    "NoStabilizationError",
    "MonotonicityViolationError",
    "CapSearchError",
    "flat_cone_problem",
    "model_problem",
    "model_dirichlet_data",
    "pick_cap",
    "check_sub_super",
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
MONOTONE_MAX_ITER = 2000
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


class CapSearchError(SolverError):
    """No constant cap is a supersolution: a negative linear potential
    meets a vanishing nonlinear coefficient."""


class Verdict(enum.Enum):
    COMPLETE_TYPE = "COMPLETE_TYPE"
    BOUNDED_TYPE = "BOUNDED_TYPE"
    INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True, eq=False)
class NonlinearProblem:
    """Coefficient fields of the discrete problem on one mesh.

    Each field is coerced by Field.of, so a scalar, node values or a Field
    on mesh may be given; c1 and c2_lin are read on ROBIN_CONE nodes and
    dirichlet_data on Dirichlet-tagged nodes.  c0, c1 must be nonnegative
    (strictly positive on runs probing the existence theorem; zero is
    allowed for linear-regression tests).  The problem is frozen, since its
    linear operator is assembled once from c and c2_lin: a changed field
    is a new problem, dataclasses.replace(problem, c=...), checked and
    assembled afresh.
    """

    mesh: Mesh
    c0: Field
    c1: Field
    c: Field
    c2_lin: Field
    dirichlet_data: Field

    def __post_init__(self):
        for name in ("c0", "c1", "c", "c2_lin", "dirichlet_data"):
            object.__setattr__(self, name, Field.of(self.mesh, getattr(self, name)))
        if np.min(self.c0.values) < 0 or np.min(self.c1.values) < 0:
            raise ValueError("c0 and c1 must be nonnegative")
        if np.min(self.dirichlet_data.values[self.mesh.dirichlet_mask]) < 0:
            raise ValueError("Dirichlet data must be nonnegative")
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
        """Same problem with other Dirichlet data.

        The linear operator depends only on the mesh, c and c2_lin, so an
        already assembled one is shared with the new problem.
        """
        prob = NonlinearProblem(self.mesh, self.c0, self.c1, self.c, self.c2_lin, data)
        object.__setattr__(prob, "_op0", self._op0)
        return prob

    def _integrated(self, u: np.ndarray) -> np.ndarray:
        """Integrated-form residual of the discrete system at every node."""
        op = self.linear_operator
        un = np.maximum(u, 0.0)
        return (
            op.matrix @ u
            + op.volume_mass * self.c0.values * un**self.p_interior
            + op.boundary_mass * self.c1.values * un**self.p_boundary
        )

    def residual_parts(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Pointwise residual of the discrete system at (interior, Robin) nodes."""
        mesh = self.mesh
        op = self.linear_operator
        full = self._integrated(u)
        r_int = full[mesh.tags == 0] / op.volume_mass[mesh.tags == 0]
        r_rob = full[mesh.robin_mask] / op.boundary_mass[mesh.robin_mask]
        return r_int, r_rob

    def residual_sup(self, u: np.ndarray) -> float:
        r_int, r_rob = self.residual_parts(u)
        return float(max(np.max(np.abs(r_int)), np.max(np.abs(r_rob))))

    def integrated_residual(self, u: np.ndarray) -> np.ndarray:
        """Integrated-form residual on free nodes (the Newton objective)."""
        return self._integrated(u)[self.mesh.free_mask]


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
    return NonlinearProblem(
        mesh=mesh,
        c0=c0,
        c1=c1,
        c=0.0,
        c2_lin=c2,
        dirichlet_data=dirichlet_data,
    )


def model_problem(mesh: Mesh) -> NonlinearProblem:
    """Flat-cone problem with the exact-solution coefficients and data.

    With c0 = c0_*, c1 = c1_* and Dirichlet data sampled from
    u_* = rho^(-(n-2)/2), the discrete solution converges to u_* at second
    order; the coefficient pair is the closed-form oracle behind the
    verify-model experiment.
    """
    sol = exact_model_solution(mesh.domain.cone)
    if not sol.complete_regime:
        raise ValueError(
            "exact model solution has c0_star <= 0 (no-complete-solution regime); "
            f"d > (n-2)/2 required, got n={mesh.domain.cone.n}, d={mesh.domain.cone.d}"
        )
    return flat_cone_problem(mesh, sol.c0_star, sol.c1_star, model_dirichlet_data(mesh))


# ---------------------------------------------------------------------------
# cap selection and admissibility
# ---------------------------------------------------------------------------


def pick_cap(problem: NonlinearProblem) -> float:
    """The smallest constant S >= max(data) that is a supersolution.

    That needs c + c0 S^(p-1) >= 0 at every node and c2 + c1 S^(q-1) >= 0
    on the cone face.  With nonnegative potentials (every CLI path) S is the
    Dirichlet data maximum; a negative one raises it to (-c/c0)^(1/(p-1))
    or (-c2/c1)^(1/(q-1)), and meeting c0 = 0 or c1 = 0 raises
    CapSearchError.  monotone_iterate's shifts keep its frozen maps
    nondecreasing on [0, S] for any S, so they ask nothing of the cap.
    """
    mesh = problem.mesh
    rob = mesh.robin_mask
    S = float(np.max(problem.dirichlet_data.values[mesh.dirichlet_mask]))
    for pot, coef, power in (
        (problem.c.values, problem.c0.values, problem.p_interior),
        (problem.c2_lin.values[rob], problem.c1.values[rob], problem.p_boundary),
    ):
        neg = pot < 0.0
        if np.any(coef[neg] == 0.0):
            raise CapSearchError("a negative linear potential meets a vanishing c0 or c1")
        S = float(np.max((-pot[neg] / coef[neg]) ** (1.0 / (power - 1.0)), initial=S))
    return S


@dataclass(frozen=True)
class AdmissibilityReport:
    """Worst violated margins of the discrete sub/supersolution inequalities.

    Nonpositive worst_margin means admissible for the requested side.
    """

    side: str
    worst_margin: float
    interior_margin: float
    robin_margin: float
    dirichlet_margin: float


def check_sub_super(problem: NonlinearProblem, candidate, side: str) -> AdmissibilityReport:
    """Evaluate the discrete differential inequalities for a candidate
    bracket, given in any form Field.of takes on the problem's mesh."""
    if side not in ("sub", "super"):
        raise ValueError(f"side must be 'sub' or 'super', got {side!r}")
    u = Field.of(problem.mesh, candidate).values
    r_int, r_rob = problem.residual_parts(u)
    d_m = (u - problem.dirichlet_data.values)[problem.mesh.dirichlet_mask]
    sgn = 1.0 if side == "sub" else -1.0
    mi = float(np.max(sgn * r_int))
    mr = float(np.max(sgn * r_rob))
    md = float(np.max(sgn * d_m))
    return AdmissibilityReport(
        side=side,
        worst_margin=max(mi, mr, md),
        interior_margin=mi,
        robin_margin=mr,
        dirichlet_margin=md,
    )


# ---------------------------------------------------------------------------
# monotone two-branch iteration
# ---------------------------------------------------------------------------


@dataclass
class BracketState:
    """Ordered bracket of the two-branch iteration."""

    sub: Field
    super: Field
    S: float
    iteration: int


@dataclass
class SolverReport:
    """What one nonlinear solve did: its solution, the step count and final
    increment, the residual sup, and the Jacobian factorizations behind the
    solution.  exhaustion_blowup_solve also records in interior_change the
    probe change against the previous datum's solution (nan on the first
    datum, which has none).  The per-level measurements of a truncation
    family are in LevelRecord."""

    solution: Field
    final_increment: float
    iterations: int
    residual_sup: float
    factorizations: int = 0
    interior_change: float = math.nan  # exhaustion probe change vs previous data level


def monotone_iterate(
    problem: NonlinearProblem,
    sub0: Field,
    S: float,
    tol: float = 1e-8,
    max_iter: int = MONOTONE_MAX_ITER,
) -> tuple[SolverReport, BracketState]:
    """Two-branch shifted iteration from the bracket [sub0, S].

    Both branches repeatedly solve the same shifted linear operator against
    the frozen monotone right-hand sides.  The Dirichlet data never change,
    so their lift is formed once per call, and each step of each branch is
    one back-solve of its frozen right-hand side on the free nodes: bitwise
    the solve_mixed solution with the same sources.  The lower branch's
    limit (the minimal solution above sub0) is returned as the solution and
    the upper branch as certificate.  The shifts are the smallest values
    keeping the frozen maps t -> (shift - c) t - c0 t^p nondecreasing on
    [0, S], namely max(c + p c0 S^(p-1)) and its Robin analogue: this
    preserves the ordering argument verbatim while collapsing to a single
    direct solve when the problem is linear.  Ordering is enforced nodewise
    at every iteration to 1e-12 * max(1, S); violations raise
    OrderingViolationError since they signal a failed discrete maximum
    principle.  sub0 must be an admissible discrete subsolution with
    0 <= sub0 <= S, else ValueError.  Stops when the lower increment drops
    below tol in sup norm; a huge shift makes every step tiny, so the
    limit's residual must also lie within 10 * tol * (1 + S^p), else
    NonConvergenceError.  A cap so large that S^(p-1), S^(q-1) or S^p
    leaves the double range, or that the frozen source c0 u^p or c1 u^q
    overflows on the cap branch, also raises NonConvergenceError, naming
    the power or the source.
    """
    mesh = problem.mesh
    S = float(S)
    p, q = problem.p_interior, problem.p_boundary
    otol = 1e-12 * max(1.0, S)

    adm = check_sub_super(problem, sub0, "sub")
    if adm.worst_margin > 1e-10 * (1.0 + S):
        raise ValueError(
            f"sub0 is not an admissible discrete subsolution "
            f"(worst margin {adm.worst_margin:.3e})"
        )
    lower = np.asarray(sub0.values, float).copy()
    if np.min(lower) < -otol or np.max(lower) > S + otol:
        raise ValueError("sub0 must satisfy 0 <= sub0 <= S")

    def cap_power(e):
        # a float power past the double range raises OverflowError
        try:
            return S**e
        except OverflowError:
            raise NonConvergenceError(
                f"S^{e:g} overflows at the monotone cap S = {S:.3e}"
            ) from None

    rob = mesh.robin_mask
    shift_i = max(0.0, float(np.max(problem.c.values + p * problem.c0.values * cap_power(p - 1))))
    shift_b = max(
        0.0,
        float(np.max(problem.c2_lin.values[rob] + q * problem.c1.values[rob] * cap_power(q - 1))),
    )
    op = assemble(mesh, shift_i, shift_b)
    free = mesh.free_mask
    c0, c1 = problem.c0.values[free], problem.c1.values[free]
    cvals, c2vals = problem.c.values[free], problem.c2_lin.values[free]
    vmass, bmass = op.volume_mass[free], op.boundary_mass[free]
    data = problem.dirichlet_data.values
    lift = _dirichlet_lift(op, data)

    def step(u):
        # the frozen right-hand side on the free nodes, as solve_mixed forms it
        un = np.clip(u[free], 0.0, None)
        with np.errstate(over="ignore", invalid="ignore"):
            rhs = (shift_i - cvals) * un - c0 * un**p
            g = (shift_b - c2vals) * un - c1 * un**q
        for source, term in ((rhs, f"c0 u^{p:g}"), (g, f"c1 u^{q:g}")):
            if not np.all(np.isfinite(source)):
                raise NonConvergenceError(f"{term} overflows at the monotone cap S = {S:.3e}")
        x, _ = _back_solve(op, vmass * rhs + bmass * g - lift)
        new = data.copy()
        new[free] = x
        return new

    upper = np.full(mesh.n_nodes, S)
    inc = math.inf
    iterations = 0
    for iterations in range(1, max_iter + 1):
        new_lower = step(lower)
        new_upper = step(upper)
        if (
            np.min(new_lower - lower) < -otol
            or np.max(new_upper - upper) > otol
            or np.max(new_lower - new_upper) > otol
            or np.min(new_lower) < -otol
            or np.max(new_upper) > S + otol
        ):
            raise OrderingViolationError(
                "bracket ordering violated beyond tolerance "
                f"{otol:.1e} at iteration {iterations}: discrete maximum principle "
                "failed; refine the mesh or enlarge the shifts"
            )
        inc = float(np.max(np.abs(new_lower - lower)))
        lower, upper = new_lower, new_upper
        if inc < tol:
            break
    else:
        raise NonConvergenceError(
            f"monotone iteration did not reach tol {tol:g} within {max_iter} steps "
            f"(last increment {inc:.3e})",
            iterations=max_iter,
            residual=inc,
        )
    residual = problem.residual_sup(lower)
    if residual > 10.0 * tol * (1.0 + cap_power(p)):
        raise NonConvergenceError(
            f"monotone iteration stalled at increment {inc:.3e} after {iterations} steps: "
            f"residual {residual:.3e} exceeds 10 * tol * (1 + S^p)",
            iterations=iterations,
            residual=residual,
        )

    report = SolverReport(
        solution=Field(mesh, lower),
        final_increment=inc,
        iterations=iterations,
        residual_sup=residual,
        factorizations=1,  # the shifted operator, factored by its first solve
    )
    bracket = BracketState(
        sub=Field(mesh, lower), super=Field(mesh, upper), S=S, iteration=iterations
    )
    return report, bracket


# ---------------------------------------------------------------------------
# full-step Newton inner solver
# ---------------------------------------------------------------------------


def newton_solve(
    problem: NonlinearProblem,
    u0: Field | None = None,
    tol: float = 1e-10,
    max_iter: int = 60,
) -> SolverReport:
    """Full-step Newton iteration on the discrete system.

    Starts from the Dirichlet data with zero on the free nodes unless u0 is
    given, such as a coarser mesh's solution carried over by mesh.resample
    (Dirichlet rows of any start are overwritten by the data, and negative
    values are clipped to zero).  At the zero-interior start the Jacobian
    is the free block of problem.linear_operator, since
    p c0 0^(p-1) = q c1 0^(q-1) = 0, and the residual is the Dirichlet
    lift, so the first step lands bitwise on the linear lift u_L of the
    data, A u_L = 0 on the free rows.  The lift is a supersolution, since
    F(u_L) = c0 u_L^p + c1 u_L^q >= 0 (integrated), and lies in
    [0, max(data)] when c, c2_lin >= 0.  That step needs
    problem.linear_operator to be positive definite, else
    IndefiniteOperatorError: an API caller whose linear part is indefinite
    must pass u0.  Each step solves the linearization with potentials
    c + p c0 u^(p-1) and c2 + q c1 u^(q-1) and takes the whole step,
    clipped at zero.  No damping is needed: the residual is convex in u
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
    solution, such as the constant max(data), sheds about a factor
    p / (p-1) of its excess per step, too slowly for the 4x rule, so it
    refactors at nearly every step of that phase; the first step from zero
    lands below it.
    Converges when the row-normalized residual is below 1e-11 and the
    sup-norm increment below tol * (1 + sup u); a residual that is not
    finite (c0 u^p or c1 u^q overflows) raises NonConvergenceError.  The
    report counts the steps in iterations and the factorizations in
    factorizations.
    Every Jacobian shares the sparsity pattern of the free block of
    problem.linear_operator, so only the first factorization of that
    operator computes a minimum-degree ordering; later ones, including
    those of other data values sharing the operator through with_data,
    reuse it (see elliptic._factor_spd).  An indefinite linearization
    (possible only when c or c2_lin is negative) raises
    IndefiniteOperatorError.
    """
    mesh = problem.mesh
    p, q = problem.p_interior, problem.p_boundary
    op0 = problem.linear_operator
    free = mesh.free_mask
    data = problem.dirichlet_data.values

    u = np.zeros(mesh.n_nodes) if u0 is None else u0.values.copy()
    u[~free] = data[~free]
    u = np.clip(u, 0.0, None)
    factorizations = 0

    abs_matrix = abs(op0.matrix)
    vmass, bmass = op0.volume_mass[free], op0.boundary_mass[free]
    c0, c1 = problem.c0.values[free], problem.c1.values[free]

    def normalized_residual(vec):
        # row-normalized residual: near blow-up data the raw rows span many
        # orders of magnitude and a global norm would let the interior be
        # sloppy, so each row is measured against its own term sizes.
        # Returns the norm and the integrated residual it measured.  A power
        # may overflow on a Dirichlet row, and meet a zero mass there
        # (0 * inf), which both discard; on a free row the finite check
        # reports it.
        with np.errstate(over="ignore", invalid="ignore"):
            F = problem.integrated_residual(vec)
            if not np.all(np.isfinite(F)):
                raise NonConvergenceError(
                    "non-finite residual: c0 u^p or c1 u^q overflows at the Newton iterate",
                    iterations=iterations,
                )
            un = np.clip(vec, 0.0, None)
            scale = (
                abs_matrix @ np.abs(vec)
                + op0.volume_mass * (problem.c0.values * un**p + 1.0)
                + op0.boundary_mass * problem.c1.values * un**q
            )
        return float(np.max(np.abs(F) / scale[free])), F

    iterations = 0
    res, F = normalized_residual(u)
    inc = math.inf
    factor = None  # the kept Jacobian factor; None forces a fresh one
    for iterations in range(1, max_iter + 1):
        if factor is None:
            # u >= 0 after the clip at the start and after every step
            uf = u[free]
            jac_diag = vmass * (p * c0 * uf ** (p - 1.0)) + bmass * (q * c1 * uf ** (q - 1.0))
            factor = _factor_spd(op0, jac_diag)
            factorizations += 1
        trial = u.copy()
        trial[free] += factor.solve(-F)
        trial = np.clip(trial, 0.0, None)
        trial[~free] = data[~free]
        step = float(np.max(np.abs(trial - u)))
        # the start factor serves on only after a first step down; every
        # factor serves on while steps shrink 4x
        if step > 0.25 * inc or (iterations == 1 and not np.all(trial <= u)):
            factor = None
        u = trial
        res, F = normalized_residual(u)
        inc = step
        if res <= 1e-11 and inc <= tol * (1.0 + float(np.max(np.abs(u)))):
            break
    else:
        raise NonConvergenceError(
            f"Newton did not converge in {max_iter} iterations "
            f"(normalized residual {res:.3e}, increment {inc:.3e})",
            iterations=max_iter,
            residual=res,
        )

    return SolverReport(
        solution=Field(mesh, u),
        final_increment=inc,
        iterations=iterations,
        residual_sup=problem.residual_sup(u),
        factorizations=factorizations,
    )


def solve_problem(
    problem: NonlinearProblem,
    method: str = "newton",
    tol: float = 1e-10,
    max_iter: int | None = None,
    u0: Field | None = None,
) -> SolverReport:
    """Dispatch to the requested nonlinear scheme with its standard setup.

    Newton starts from u0 when given (see newton_solve), else from the data
    with zero on the free nodes; the monotone iteration always starts from
    the bracket [0, pick_cap(problem)], so a u0 with method "monotone" is a
    ValueError.  max_iter=None keeps the scheme's own iteration limit.
    """
    limit = {} if max_iter is None else {"max_iter": max_iter}
    if method == "newton":
        return newton_solve(problem, u0=u0, tol=tol, **limit)
    if method == "monotone":
        if u0 is not None:
            raise ValueError("the monotone iteration starts from its bracket; it takes no u0")
        S = pick_cap(problem)
        report, _ = monotone_iterate(
            problem, Field.zeros(problem.mesh), S, tol=max(tol, 1e-12), **limit
        )
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


def exhaustion_blowup_solve(
    problem: NonlinearProblem,
    data_sequence=DEFAULT_DATA_SEQUENCE,
    tol: float | None = 1e-3,
    inner_tol: float = 1e-10,
    probe_rho_cut: float | None = None,
    u0: Field | None = None,
) -> list[SolverReport]:
    """Solve with constant Dirichlet data m_1 < m_2 < ... and watch the interior.

    Each datum is a Newton solve started from the previous solution, which
    the discrete maximum principle already keeps below the new datum.  The
    first datum starts from u0 when given (any nonnegative field; Newton
    reaches the same solution from every such start), else from Newton's
    default start, zero on the free nodes, whose first step is the linear
    lift of the datum.
    Successive solutions must be nodewise nondecreasing (discrete
    comparison): a drop above ORDER_TOL * (1 + max|u|) raises
    OrderingViolationError.  Every report after the first carries in
    interior_change the sup-norm change on the interior probe set (free
    nodes with rho above probe_rho_cut, default the median, a fixed margin
    away from the Dirichlet faces); the first report's is nan.  The whole
    sequence always runs; with tol given, stabilization is certified at the
    final datum: its probe change must lie below tol * (1 + probe sup),
    else NoStabilizationError, which a one-datum sequence therefore always
    raises.  tol=None reports the changes without the certificate.
    """
    seq = [float(m) for m in data_sequence]
    if any(b <= a for a, b in zip(seq, seq[1:])) or not seq:
        raise ValueError("data_sequence must be strictly increasing and nonempty")
    mesh = problem.mesh
    probe = _interior_probe(mesh, probe_rho_cut)

    reports: list[SolverReport] = []
    prev = None
    # each data value derives from the previous one, so the whole ladder
    # shares one assembled operator and frees it on return
    prob_m = problem
    for m in seq:
        prob_m = prob_m.with_data(m)
        start = u0 if prev is None else Field(mesh, prev)
        rep = newton_solve(prob_m, u0=start, tol=inner_tol)
        u = rep.solution.values
        if prev is not None:
            drop = float(np.max(prev - u))
            if drop > ORDER_TOL * (1.0 + float(np.max(np.abs(u)))):
                raise OrderingViolationError(
                    f"exhaustion solutions failed to increase with data (drop {drop:.3e})"
                )
            rep.interior_change = float(np.max(np.abs((u - prev)[probe])))
        reports.append(rep)
        prev = u
    change = reports[-1].interior_change
    if tol is not None and not change < tol * (1.0 + float(np.max(np.abs(prev[probe])))):
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
    i_mid = mesh.n_radial // 2
    rp = mesh.radial_nodes[i_mid]
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
    its probe change against the previous datum; iterations and
    factorizations are the totals over the level's Newton solves.  The
    near-singular band sup, its relative change against the previous level,
    and the exponent fit on the level's window (alpha, r2 and completeness
    indicator) are nan where the level has no band, no previous level or
    no fit, and fit_samples is then 0.  A record holds measurements only;
    dichotomy_verdict judges a list of them.
    """

    solution: Field
    iterations: int
    factorizations: int
    interior_change: float
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
    every datum.  Each deeper level solves only the last two data values,
    which are all the certificate and the cross-level comparison read,
    warm-started from the previous level's solution moved down one octave:
    per radial row, the start at angle omega is the coarse solution at
    min(2 omega, theta), read by linear interpolation in (log omega, log u).
    The shift is defined by angle, not by column index, so it carries the
    near-face profile to the new face whatever the node spacing.  Newton
    reaches the same solution from any nonnegative start, so the warm start
    changes the step and factor counts, not the result.  All levels share
    the final data height, and every free node of a coarser level is free
    on the deeper one.  On the coarser level's free nodes the deeper
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
    dichotomy_verdict(levels).
    """
    if not problems:
        raise ValueError("empty truncation family")
    base_mesh = problems[0].mesh
    omega_base = base_mesh.domain.omega_min
    theta = base_mesh.domain.cone.theta

    levels: list[LevelRecord] = []
    seq = list(data_sequence)
    base_rho_cut = float(np.median(base_mesh.rho[base_mesh.free_mask]))
    for prob in problems:
        mesh = prob.mesh
        if levels:
            coarse = levels[-1].solution.mesh
            off = mesh.angular_offset_of(coarse)
            na_f, na_c = mesh.n_angular, coarse.n_angular
            uc = levels[-1].solution.values.reshape(coarse.n_radial, na_c)
            # the coarse profile moved down one octave, read in (log omega, log u)
            at = np.log(np.minimum(2.0 * mesh.angular_nodes, theta))
            grid = np.log(coarse.angular_nodes)
            shifted = np.exp([np.interp(at, grid, row) for row in np.log(uc)])
            data, start = seq[-2:], Field(mesh, shifted.ravel())
        else:
            data, start = seq, None
        solves = exhaustion_blowup_solve(
            prob, data, tol=tol, inner_tol=inner_tol, probe_rho_cut=base_rho_cut, u0=start
        )
        rec = LevelRecord(
            solution=solves[-1].solution,
            iterations=sum(r.iterations for r in solves),
            factorizations=sum(r.factorizations for r in solves),
            interior_change=solves[-1].interior_change,
        )
        u = rec.solution.values

        if levels:
            # compare on the coarser level's free nodes, which are free on
            # this level too (its Dirichlet nodes carry data, not solutions)
            uf = u.reshape(mesh.n_radial, na_f)[:, off:]
            rise = np.where(coarse.free_mask.reshape(uc.shape), uf - uc, -np.inf)
            if np.max(rise) > ORDER_TOL * (1.0 + float(np.max(np.abs(u)))):
                k = np.unravel_index(np.argmax(rise), rise.shape)
                raise MonotonicityViolationError(
                    "truncation-limit sequence increased beyond solver tolerance "
                    f"at node {k}: rise {np.max(rise):.3e}"
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
                rec.near_gamma_variation = abs(rec.near_gamma_sup - prev_sup) / max(
                    prev_sup, 1e-300
                )

        try:
            fit = fit_blowup_exponent(rec.solution, _auto_window(mesh, omega_base))
            rec.fitted_exponent = fit.alpha
            rec.fit_r2 = fit.r2
            rec.fit_samples = fit.n_samples
            rec.completeness_indicator = fit.completeness
        except ValueError:
            pass

        levels.append(rec)

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
    i_mid = mesh.n_radial // 2
    na = mesh.n_angular
    sl = slice(i_mid * na, (i_mid + 1) * na)
    rho = mesh.rho[sl]
    u = solution.values[sl]
    free = mesh.free_mask[sl]
    sel = free & (rho >= lo) & (rho <= hi) & (u > 0.0)
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
    band = free & (rho <= band_rho_max)
    if not np.any(band):
        raise ValueError("empty near-singular band")

    # |R| recovered from the scaled potential c = (n-2) R / (4(n-1))
    R_sup = float(np.max(np.abs(problem.c.values[band]))) * 4.0 * (n - 1) / (n - 2)
    s = h / math.sqrt(1.0 + h * h)
    margin_165 = float(np.min(0.5 * n - (n - d - 1) - R_sup * rho[band] ** 2 / (n - 1)))
    margin_166 = s - (n - d - 1) * s / (n - 1)  # = d*h / ((n-1) sqrt(1+h^2))
    C1 = min(margin_165, margin_166)
    feasible = C1 > 0.0

    if feasible:
        c0_sup = float(np.max(problem.c0.values[band]))
        rob = mesh.robin_mask & (rho <= band_rho_max)
        c1_sup = float(np.max(problem.c1.values[rob])) if np.any(rob) else float(
            np.max(problem.c1.values[mesh.robin_mask])
        )
        bound_int = math.inf if c0_sup == 0 else ((n - 2) * margin_165 / (2.0 * c0_sup)) ** ((n - 2) / 4.0)
        bound_bdy = math.inf if c1_sup == 0 else ((n - 2) * margin_166 / (2.0 * c1_sup)) ** ((n - 2) / 2.0)
        C_star = min(bound_int, bound_bdy)
    else:
        C_star = 0.0

    lower_margin = None
    if solution is not None and feasible and math.isfinite(C_star):
        u = solution.values
        psi = C_star * rho[band] ** (-m) - C_star * band_rho_max ** (-m)
        lower_margin = float(np.min(u[band] - psi))

    return BarrierFit(
        feasible=feasible,
        C1_margin=C1,
        C_star=float(C_star),
        band_rho_max=band_rho_max,
        lower_bound_margin=lower_margin,
    )
