"""Nonlinear solver suite: cap selection, monotone brackets, Newton,
exhaustion, truncation limits, barriers and exponent fits."""

import math
import re
import warnings
from dataclasses import FrozenInstanceError, dataclass, replace

import numpy as np
import pytest
import scipy.sparse.linalg

from coneyamabe import (
    ConeModel,
    Field,
    LevelRecord,
    ReducedDomain,
    Verdict,
    assemble,
    barrier_psi_fit,
    build_mesh,
    dichotomy_verdict,
    exact_model_solution,
    exhaustion_blowup_solve,
    fit_blowup_exponent,
    flat_cone_problem,
    maximal_solution,
    model_problem,
    monotone_iterate,
    newton_solve,
    pick_cap,
    principal_eigen,
    resample,
    solve_mixed,
    solve_problem,
    truncation_family,
)
from coneyamabe import solver
from coneyamabe.solver import (
    MonotonicityViolationError,
    NonConvergenceError,
    OrderingViolationError,
    SolverError,
)

RNG = np.random.default_rng(421731)


def make_mesh(n=3, d=1, h=1.0, omega_min=None, nn=16, grading=2.0):
    cone = ConeModel(n, d, h)
    if omega_min is None:
        omega_min = 0.3 * cone.theta  # moderate cap keeps the monotone scheme fast
    dom = ReducedDomain(cone, 0.5, 2.0, omega_min)
    return build_mesh(dom, nn, nn, grading)


# ---------------------------------------------------------------------------
# cap selection
# ---------------------------------------------------------------------------


def test_pick_cap_linear_problem_returns_data_max():
    mesh = make_mesh()
    prob = replace(flat_cone_problem(mesh, 0.0, 0.0, 1.0), c2_lin=Field.full(mesh, 0.0))
    assert pick_cap(prob) == 1.0


def test_a_problem_is_frozen_and_replace_builds_a_fresh_one():
    # the linear operator is assembled once from c and c2_lin, so a field
    # reassigned in place would leave it stale; the problem refuses that,
    # and replace checks and assembles the changed problem afresh
    mesh = make_mesh(nn=12)
    prob = flat_cone_problem(mesh, 1.0, 1.0, 1.0)
    first = newton_solve(prob).solution.values
    with pytest.raises(FrozenInstanceError):
        prob.c2_lin = Field.full(mesh, 0.0)
    with pytest.raises(FrozenInstanceError):
        prob.c0 = -1.0
    changed = newton_solve(replace(prob, c2_lin=0.0)).solution.values
    fresh = newton_solve(solver.NonlinearProblem(mesh, 1.0, 1.0, 0.0, 0.0, 1.0)).solution.values
    assert np.array_equal(changed, fresh)
    assert np.max(np.abs(changed - first)) > 0.01
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="nonnegative and finite"):
            replace(prob, c0=bad)
        with pytest.raises(ValueError, match="nonnegative and finite"):
            replace(prob, c1=bad)
    with pytest.raises(ValueError, match="Dirichlet data must be nonnegative"):
        replace(prob, dirichlet_data=-1.0)
    # with_data checks the new data only, as the constructor does
    with pytest.raises(ValueError, match="Dirichlet data must be nonnegative"):
        prob.with_data(np.where(mesh.dirichlet_mask, -1e-300, 1.0))


def test_a_negative_potential_is_refused():
    # the potentials are nonnegative, as on the flat cone, so a constant
    # cap is a supersolution and every linearization is an M-matrix: a
    # negative c at any node or c2_lin at a Robin node is refused by the
    # constructor and by replace, and c2_lin off the Robin nodes is unread
    mesh = make_mesh(nn=8)
    interior = int(np.flatnonzero(mesh.tags == 0)[0])
    robin = int(np.flatnonzero(mesh.robin_mask)[0])
    corner = int(np.flatnonzero(mesh.dirichlet_mask)[0])
    for node in (interior, robin, corner):
        pot = np.zeros(mesh.n_nodes)
        pot[node] = -1e-300
        with pytest.raises(ValueError, match="potentials c and c2_lin must be nonnegative"):
            solver.NonlinearProblem(mesh, 1.0, 1.0, pot, 0.0, 1.0)
        if node == robin:
            with pytest.raises(ValueError, match="potentials c and c2_lin must be nonnegative"):
                solver.NonlinearProblem(mesh, 1.0, 1.0, 0.0, pot, 1.0)
        else:
            solver.NonlinearProblem(mesh, 1.0, 1.0, 0.0, pot, 1.0)
    prob = flat_cone_problem(mesh, 1.0, 1.0, 1.0)
    for bad in (dict(c=-1.0), dict(c2_lin=-1.0)):
        with pytest.raises(ValueError, match="must be nonnegative"):
            replace(prob, **bad)
    # flat_cone_problem's Robin potential (n-2)(n-d-1)h / (2(n-1) rho_polar)
    # is nonnegative on every cone, zero at d = n-1
    for n, d, h in [(3, 1, 0.5), (3, 2, 1.0), (4, 1, 2.0), (6, 5, 1.0)]:
        prob = flat_cone_problem(make_mesh(n, d, h, nn=6), 1.0, 1.0, 1.0)
        assert np.min(prob.c2_lin.values[prob.mesh.robin_mask]) >= 0.0


def test_model_problem_needs_the_complete_regime():
    # at d <= (n-2)/2 the exact solution's c0_star is not positive
    with pytest.raises(ValueError, match="no-complete-solution regime"):
        model_problem(make_mesh(4, 1))


def test_pick_cap_model_problem_monotonicity_conditions_hold():
    mesh = make_mesh()
    prob = model_problem(mesh)
    S = pick_cap(prob)
    data_max = float(np.max(prob.dirichlet_data.values[mesh.dirichlet_mask]))
    assert S == data_max
    p, q = prob.p_interior, prob.p_boundary
    # the constant cap is a supersolution: c S + c0 S^p >= 0 and its Robin analogue
    assert np.min(prob.c.values * S + prob.c0 * S**p) >= 0.0
    rob = mesh.robin_mask
    assert np.min(prob.c2_lin.values[rob] * S + prob.c1 * S**q) >= 0.0
    assert check_sub_super(prob, Field.full(mesh, S), "super").worst_margin <= 0.0


def test_pick_cap_is_the_smallest_admissible_cap():
    # (3,1) with c0 = 1, c = 0: the cap is the data maximum 1, and the
    # bracket below it closes on Newton's solution
    mesh = make_mesh(nn=8, omega_min=ConeModel(3, 1, 1.0).theta / 4.0)
    prob = flat_cone_problem(mesh, 1.0, 1.0, 1.0)
    S = pick_cap(prob)
    assert S == 1.0
    rep, _ = monotone_iterate(prob, S, tol=1e-11, max_iter=100)
    ref = newton_solve(prob, tol=1e-11).solution.values
    assert np.max(np.abs(rep.solution.values - ref)) <= 1e-9


# ---------------------------------------------------------------------------
# admissibility checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdmissibilityReport:
    """Worst violated margins of the discrete sub/supersolution inequalities.

    Nonpositive worst_margin means admissible for the requested side.
    """

    worst_margin: float
    interior_margin: float
    robin_margin: float
    dirichlet_margin: float


def check_sub_super(problem, candidate, side: str) -> AdmissibilityReport:
    """The discrete differential inequalities of a candidate bracket, given
    in any form Field.of takes on the problem's mesh: the sub/supersolution
    oracle these tests check candidates with."""
    if side not in ("sub", "super"):
        raise ValueError(f"side must be 'sub' or 'super', got {side!r}")
    u = Field.of(problem.mesh, candidate).values
    r_int, r_rob = problem.residual_parts(u)
    d_m = (u - problem.dirichlet_data.values)[problem.mesh.dirichlet_mask]
    sgn = 1.0 if side == "sub" else -1.0
    mi = float(np.max(sgn * r_int))
    mr = float(np.max(sgn * r_rob))
    md = float(np.max(sgn * d_m))
    return AdmissibilityReport(worst_margin=max(mi, mr, md), interior_margin=mi,
                               robin_margin=mr, dirichlet_margin=md)


def test_zero_is_admissible_subsolution():
    mesh = make_mesh()
    prob = model_problem(mesh)
    rep = check_sub_super(prob, Field.full(mesh, 0.0), "sub")
    assert rep.worst_margin <= 0.0
    with pytest.raises(ValueError, match="side must be 'sub' or 'super'"):
        check_sub_super(prob, 0.0, "both")


def test_twice_power_solution_is_supersolution():
    mesh = make_mesh()
    prob = model_problem(mesh)
    two_us = Field(mesh, 2.0 * mesh.rho ** (-mesh.domain.cone.blowup_exponent))
    rep = check_sub_super(prob, two_us, "super")
    assert rep.worst_margin <= 0.0
    # the margin is strictly negative away from zero: superlinearity bites
    assert rep.interior_margin < -1e-3


def test_dirichlet_rows_are_never_evaluated():
    # Dirichlet rows carry data, not equations: data whose powers overflow
    # enter the residual only through the matrix product, so no warning
    # is raised and every free row is finite
    mesh = make_mesh(nn=12)
    prob = flat_cone_problem(mesh, 1.0, 1.0, 1e200)
    u = np.where(mesh.free_mask, 0.0, prob.dirichlet_data.values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        F = prob.integrated_residual(u)
    assert F.shape == (int(np.sum(mesh.free_mask)),)
    assert np.all(np.isfinite(F))


def test_a_zero_coefficient_forms_no_power():
    # with c0 = 0 the term c0 u^p is identically zero and is never formed:
    # at 1e70, u^5 would overflow (a warning here) and 0 * inf would be nan
    mesh = make_mesh(nn=8)
    prob = flat_cone_problem(mesh, 0.0, 1.0, 1e70)
    assert np.all(np.isfinite(prob.integrated_residual(np.full(mesh.n_nodes, 1e70))))
    # Newton's row scale and Jacobian, the Jacobi sweeps on its linear lift
    # and so the monotone bracket keep the rule: both solve the problem
    # instead of naming an overflow of the zero term (they ran out of steps
    # before the sweeps brought the lift down)
    u = newton_solve(prob).solution.values
    report, upper = monotone_iterate(prob, 1e70)
    assert np.all(np.isfinite(u)) and np.all(np.isfinite(upper.values))
    assert np.max(np.abs(report.solution.values - u)) <= 1e-8 * (1.0 + np.max(u))


# ---------------------------------------------------------------------------
# monotone iteration
# ---------------------------------------------------------------------------


def test_monotone_linear_problem_fixed_point_in_two_iterations():
    mesh = make_mesh()
    prob = replace(flat_cone_problem(mesh, 0.0, 0.0, 2.5), c2_lin=Field.full(mesh, 0.0))
    rep, _ = monotone_iterate(prob, S=2.5, tol=1e-9)
    assert np.allclose(rep.solution.values, 2.5, atol=1e-9)
    assert rep.iterations <= 2


def test_monotone_model_problem_converges_to_power_solution():
    errs = []
    for nn in (12, 24):
        mesh = make_mesh(nn=nn)
        prob = model_problem(mesh)
        S = pick_cap(prob)
        rep, upper = monotone_iterate(prob, S, tol=1e-10)
        exact = mesh.rho ** (-mesh.domain.cone.blowup_exponent)
        errs.append(np.max(np.abs(rep.solution.values - exact)))
        # bracket ordering persisted to the end
        assert np.max(rep.solution.values - upper.values) <= 1e-12 * (1 + S)
        assert np.min(rep.solution.values) >= -1e-12 * (1 + S)
        assert np.max(upper.values) <= S + 1e-12 * (1 + S)
    assert errs[1] < 0.4 * errs[0]  # second-order trend


def test_monotone_residual_bound():
    mesh = make_mesh(nn=12)
    prob = model_problem(mesh)
    S = pick_cap(prob)
    tol = 1e-9
    rep, _ = monotone_iterate(prob, S, tol=tol)
    assert rep.residual_sup <= 10.0 * tol * (1.0 + S ** prob.p_interior)


def test_monotone_comparison_doubling_c0_shrinks_solution():
    mesh = make_mesh(nn=12)
    prob = model_problem(mesh)
    S = pick_cap(prob)
    rep1, _ = monotone_iterate(prob, S, tol=1e-11)
    prob2 = flat_cone_problem(mesh, 2.0 * prob.c0, prob.c1, prob.dirichlet_data)
    rep2, _ = monotone_iterate(prob2, pick_cap(prob2), tol=1e-11)
    diff = rep1.solution.values - rep2.solution.values
    assert np.min(diff[mesh.free_mask]) >= -1e-9


def test_monotone_cap_independence():
    # doubling the cap never changes the converged solution beyond
    # tolerance: the cap only bounds the bracket, which starts below it
    mesh = make_mesh(nn=8)
    prob = model_problem(mesh)
    S = pick_cap(prob)
    rep1, _ = monotone_iterate(prob, S, tol=5e-11, max_iter=8000)
    rep2, _ = monotone_iterate(prob, 2 * S, tol=5e-11, max_iter=8000)
    assert np.max(np.abs(rep1.solution.values - rep2.solution.values)) <= 1e-8


def test_monotone_refuses_a_cap_below_the_data():
    # a cap under the Dirichlet data is not a supersolution: a caller error,
    # refused before the first step, not a failed maximum principle
    mesh = make_mesh(nn=10)
    prob = model_problem(mesh)
    with pytest.raises(ValueError, match="below the Dirichlet data maximum"):
        monotone_iterate(prob, pick_cap(prob) / 2)


def _wrapped_factors(monkeypatch, transform):
    """Make every solver._factor_spd factor return transform(its solve)."""
    factor_spd = solver._factor_spd

    class Wrapped:
        def __init__(self, factor):
            self._factor = factor
            self.nnz = factor.nnz

        def solve(self, b):
            return transform(self._factor.solve(b))

    monkeypatch.setattr(solver, "_factor_spd", lambda op, diag=None: Wrapped(factor_spd(op, diag)))


def test_only_the_eigensolver_factors_in_single_precision(monkeypatch):
    # principal_eigen's factor only preconditions a float64 residual, so
    # SuperLU factors it in float32; Newton's and the bracket's steps must
    # be exact M-matrix inverses for the ordering checks, so theirs are
    # float64
    dtypes = []
    splu = scipy.sparse.linalg.splu

    def recording(A, **kwargs):
        dtypes.append(A.dtype)
        return splu(A, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", recording)
    prob = model_problem(make_mesh(nn=10))
    principal_eigen(prob.linear_operator, "volume")
    assert dtypes == [np.float32]
    for solve in (lambda: newton_solve(prob), lambda: monotone_iterate(prob, pick_cap(prob))):
        dtypes.clear()
        solve()
        assert dtypes and set(dtypes) == {np.dtype(np.float64)}


def test_monotone_rejects_a_step_that_leaves_the_bracket(monkeypatch):
    # corrections raised by 2 put the first upper iterate above the cap S:
    # the discrete maximum principle behind the bracket has failed
    _wrapped_factors(monkeypatch, lambda x: x + 2.0)
    mesh = make_mesh(nn=10)
    prob = model_problem(mesh)
    with pytest.raises(OrderingViolationError, match="at iteration 1:"):
        monotone_iterate(prob, pick_cap(prob))


def test_monotone_stops_at_a_step_that_is_not_finite(monkeypatch):
    # a nan step is refused at the step it appears, by the residual check
    # of the Newton iterate, instead of running max_iter steps on an
    # increment that never passes
    _wrapped_factors(monkeypatch, lambda x: np.full_like(x, np.nan))
    mesh = make_mesh(nn=10)
    prob = model_problem(mesh)
    with pytest.raises(SolverError, match="at iteration 1:"):
        monotone_iterate(prob, pick_cap(prob))


def test_monotone_solve_assembles_only_the_problem_operator(monkeypatch, factors):
    # every Jacobian is a diagonal added at factorization: a monotone solve
    # of a fresh problem assembles the problem's own operator and nothing
    # else, and factors only Newton's Jacobians of it
    calls = []
    assemble_ = solver.assemble

    def counted(*args, **kwargs):
        calls.append(args)
        return assemble_(*args, **kwargs)

    monkeypatch.setattr(solver, "assemble", counted)
    prob = model_problem(make_mesh(nn=10))
    rep, _ = monotone_iterate(prob, pick_cap(prob), tol=1e-10)
    assert len(calls) == 1
    assert rep.factorizations == len(factors) == newton_solve(prob, tol=1e-10).factorizations


def test_monotone_solution_positive_on_free_nodes():
    mesh = make_mesh(nn=12)
    prob = model_problem(mesh)
    rep, _ = monotone_iterate(prob, pick_cap(prob), tol=1e-10)
    assert np.all(rep.solution.values[mesh.free_mask] > 0)


def test_monotone_branches_step_on_newtons_factors(factors):
    # the bracket is Newton's loop: its upper branch makes Newton's steps
    # from the default start, one back-solve each, and the lower branch one
    # more back-solve per step on the same factor.  The factor built at the
    # zero start, J(0), lies below J(u*) and serves the upper branch's first
    # step only; every later one was built at a supersolution iterate
    mesh = make_mesh(nn=12)
    prob = model_problem(mesh)
    rep, upper = monotone_iterate(prob, pick_cap(prob), tol=1e-10)
    assert rep.factorizations == len(factors) > 1
    assert factors[0].solves == 1
    assert sum(f.solves for f in factors) == 2 * rep.iterations - 1
    ref = newton_solve(model_problem(mesh), tol=1e-10).solution.values
    for branch in (rep.solution.values, upper.values):
        assert np.max(np.abs(branch - ref)) <= 1e-10 * (1.0 + np.max(ref))


def test_monotone_bracket_closes_at_every_free_node_at_huge_data():
    # at constant data 1e120 on the 8x8 (3,1) mesh at theta/8 the free
    # values run from about 19.3 to 5.8e24.  A stop floor set by the
    # largest of them, 16 eps max(lower), ended the bracket after 10 steps
    # with the smallest free node left between 2.7e-13 and 2.8e4; measured
    # per node, each width is within tol (1 + upper_i) or its own rounding
    # level, and the lower limit lies within tol (1 + u_i) of Newton's
    cone = ConeModel(3, 1, 1.0)
    mesh = make_mesh(omega_min=cone.theta / 8, nn=8)
    prob = flat_cone_problem(mesh, 1.0, 1.0, 1e120)
    tol = 1e-8
    rep, upper = monotone_iterate(prob, pick_cap(prob), tol=tol)
    free = mesh.free_mask
    lo, hi = rep.solution.values[free], upper.values[free]
    assert np.all(hi - lo <= np.maximum(tol * (1.0 + hi), 16.0 * np.finfo(float).eps * lo))
    ref = newton_solve(prob, tol=1e-13).solution.values[free]
    assert np.max(ref) > 1e20 * np.min(ref)
    assert np.all(np.abs(lo - ref) <= tol * (1.0 + ref))


@pytest.mark.parametrize("n, d, nn, data", [
    (3, 1, 8, 1e160), (3, 1, 8, 1e200), (3, 1, 8, 1e300), (6, 3, 32, 1e300)])
def test_newton_and_the_bracket_converge_at_huge_data(n, d, nn, data):
    # two Jacobi sweeps take the linear lift of huge data down by two p-th
    # roots only, and Newton sheds about 1/p of the rest per step: both
    # methods ran out of their 60 steps from 1e160 on.  Sweeping on while
    # some node still falls by half brings the lift into Newton's basin;
    # every free node's bracket then closes within tol (1 + upper_i), and
    # the lower limit lies within tol (1 + u_i) of Newton's solution
    mesh = make_mesh(n, d, omega_min=ConeModel(n, d, 1.0).theta / 8.0, nn=nn)
    prob = flat_cone_problem(mesh, 1.0, 1.0, data)
    ref = newton_solve(prob, tol=1e-13)
    assert ref.iterations <= 13
    tol = 1e-8
    rep, upper = monotone_iterate(prob, pick_cap(prob), tol=tol)
    free = mesh.free_mask
    lo, hi, u = rep.solution.values[free], upper.values[free], ref.solution.values[free]
    assert np.all(hi - lo <= tol * (1.0 + hi))
    assert np.all(np.abs(lo - u) <= tol * (1.0 + u))


# ---------------------------------------------------------------------------
# Newton and scheme equivalence
# ---------------------------------------------------------------------------


def test_newton_matches_monotone_on_model_problem():
    mesh = make_mesh(nn=16)
    prob = model_problem(mesh)
    rep_m, _ = monotone_iterate(prob, pick_cap(prob), tol=1e-11)
    rep_n = newton_solve(prob, tol=1e-11)
    assert np.max(np.abs(rep_m.solution.values - rep_n.solution.values)) <= 1e-10 * 10


def test_newton_model_convergence_order():
    errs = []
    for nn in (16, 32, 64):
        mesh = make_mesh(nn=nn, omega_min=0.15)
        prob = model_problem(mesh)
        rep = newton_solve(prob)
        exact = mesh.rho ** (-mesh.domain.cone.blowup_exponent)
        errs.append(np.max(np.abs(rep.solution.values - exact)))
    assert 1.7 <= math.log2(errs[0] / errs[1]) <= 2.3
    assert 1.7 <= math.log2(errs[1] / errs[2]) <= 2.3


def test_newton_larger_data_larger_solution():
    mesh = make_mesh(nn=12)
    base = flat_cone_problem(mesh, 1.0, 1.0, 1.0)
    u1 = newton_solve(base).solution.values
    u2 = newton_solve(base.with_data(2.0)).solution.values
    assert np.min(u2 - u1) >= -1e-9


def test_newton_stops_at_its_iteration_limit():
    # the model solve on this mesh converges at step 7 (8 before the Jacobi
    # sweeps on the linear lift); six steps must not return an unconverged
    # iterate
    mesh = make_mesh(omega_min=ConeModel(3, 1, 1.0).theta / 8.0, nn=12)
    assert newton_solve(model_problem(mesh)).iterations == 7
    with pytest.raises(NonConvergenceError) as caught:
        newton_solve(model_problem(mesh), max_iter=6)
    assert caught.value.iterations == 6


def test_newton_rejects_a_step_that_rises_after_the_first(monkeypatch):
    # after the first step the iterates decrease nodewise, which the kept
    # factors rely on; a later step that lifts one free node is refused,
    # naming the mesh, its truncation and the data maximum
    solves = []

    def lift_one_node(x):
        solves.append(None)
        if len(solves) > 1:
            x[0] = abs(x[0]) + 1.0
        return x

    _wrapped_factors(monkeypatch, lift_one_node)
    mesh = make_mesh(nn=12)
    prob = model_problem(mesh)
    data_max = float(np.max(prob.dirichlet_data.values[mesh.dirichlet_mask]))
    place = (f"on mesh 12x12, omega_min {mesh.domain.omega_min:.6g}, "
             f"Dirichlet data max {data_max:.6g}")
    with pytest.raises(OrderingViolationError,
                       match="^Newton step 2 rose by .*" + re.escape(place) + "$"):
        newton_solve(prob)


def test_newton_refuses_a_start_on_another_mesh():
    # a start is read through Field.of: a field on another mesh, even one
    # of the same shape, is a caller error, and so is a wrong node count
    prob = model_problem(make_mesh(nn=10))
    for other in (make_mesh(nn=12), make_mesh(nn=10)):
        with pytest.raises(ValueError, match="different mesh"):
            newton_solve(prob, u0=Field.full(other, 0.0))
    with pytest.raises(ValueError):
        newton_solve(prob, u0=np.zeros(12 * 12))
    # node values of the right length are a start like any other: they
    # solve bitwise as the same start given as a Field (a fresh problem
    # each, so that both factor under their own first ordering)
    mesh = prob.mesh
    ref = newton_solve(model_problem(mesh), u0=Field.full(mesh, 0.0)).solution.values
    got = newton_solve(model_problem(mesh), u0=np.zeros(mesh.n_nodes)).solution.values
    assert np.array_equal(got, ref)


@pytest.mark.parametrize("n, d", [(3, 1), (4, 2)])
def test_newton_first_step_from_the_default_start_is_the_linear_lift(monkeypatch, n, d):
    # the default start is the data with zero on the free nodes, where the
    # Jacobian is the linear free block and the residual the Dirichlet
    # lift: the first step lands bitwise on the linear problem's solution,
    # solved here with solve_mixed on a separate fresh problem, and hands
    # its free values to the Jacobi sweeps, which record them.  Newton forms the start's
    # residual from one absorption call on its free values, which records
    # the start
    starts, lifts = [], []
    absorption, sweeps = solver.NonlinearProblem.absorption, solver._jacobi_sweeps

    def recording(self, uf):
        starts.append(uf.copy())
        return absorption(self, uf)

    def sweeping(problem, uf, load):
        lifts.append(uf.copy())
        return sweeps(problem, uf, load)

    monkeypatch.setattr(solver.NonlinearProblem, "absorption", recording)
    monkeypatch.setattr(solver, "_jacobi_sweeps", sweeping)
    mesh = make_mesh(n, d, omega_min=ConeModel(n, d, 1.0).theta / 8.0, nn=24)
    newton_solve(model_problem(mesh))
    monkeypatch.undo()
    fresh = model_problem(mesh)
    data, free = fresh.dirichlet_data.values, mesh.free_mask
    lift = solve_mixed(fresh.linear_operator, 0.0, data).solution.values
    assert np.array_equal(starts[0], np.zeros(int(np.sum(free))))
    assert len(lifts) == 1
    assert lifts[0].tobytes() == lift[free].tobytes()
    # solve_mixed moves the data to the right side as the free-to-fixed
    # block applied to them, and the lift takes the data on the Dirichlet rows
    rhs = fresh.linear_operator.matrix[free][:, ~free] @ data[~free]
    assert np.any(rhs != 0.0)
    assert np.allclose(fresh.linear_operator.free_matrix @ lift[free], -rhs, rtol=0.0,
                       atol=1e-12 * np.max(np.abs(rhs)))
    assert lift[~free].tobytes() == data[~free].tobytes()


@pytest.mark.parametrize("n, d", [(3, 1), (4, 1)])
def test_newton_cold_start_at_blowup_data_matches_ladder(n, d):
    # the constant start 2^16, the data maximum, sits far above the
    # solution, where Newton refactors at nearly every step (the first step
    # from the default zero start, the linear lift, lands below that
    # phase); full Newton steps reach the same discrete solution as the
    # data ladder
    mesh = make_mesh(n, d, omega_min=ConeModel(n, d, 1.0).theta / 8.0, nn=12)
    rep = newton_solve(flat_cone_problem(mesh, 1.0, 1.0, 2.0**16),
                       u0=Field.full(mesh, 2.0**16))
    ladder = exhaustion_blowup_solve(flat_cone_problem(mesh, 1.0, 1.0, 1.0), tol=math.inf)[-1]
    u, ref = rep.solution.values, ladder.solution.values
    assert np.max(np.abs(u - ref)) <= 1e-9 * np.max(np.abs(ref))


def test_newton_cold_start_on_the_desk_family_within_max_iter():
    # a (3,1) cold start at the constant 2^16, the data maximum.  Newton
    # sheds only about a fifth of the excess per step, refactoring at
    # nearly every step of that phase, so the shallowest and the deepest
    # desk level took 57 and 54 of the default max_iter = 60 steps.  The
    # two nonlinear Jacobi sweeps on the start bring it down first, to 15
    # and 17 steps; either way Newton must converge within max_iter (else
    # NonConvergenceError)
    cone = ConeModel(3, 1, 1.0)
    base = build_mesh(ReducedDomain(cone, 0.5, 2.0, cone.theta / 8), 40, 32, 2.0)
    meshes = truncation_family(base, 22, nodes_per_octave=10)
    for mesh in (meshes[0], meshes[21]):
        rep = newton_solve(flat_cone_problem(mesh, 1.0, 1.0, 2.0**16),
                           u0=Field.full(mesh, 2.0**16))
        ladder = exhaustion_blowup_solve(flat_cone_problem(mesh, 1.0, 1.0, 1.0), tol=math.inf)[-1]
        u, ref = rep.solution.values, ladder.solution.values
        assert np.max(np.abs(u - ref)) <= 1e-9 * np.max(np.abs(ref))


def _warm_threshold_problem():
    # the 2^16 solve of a (4,1) ladder, started from the 2^15 solution
    mesh = make_mesh(4, 1, omega_min=ConeModel(4, 1, 1.0).theta / 8.0, nn=12)
    prob = flat_cone_problem(mesh, 1.0, 1.0, 2.0**15)
    return prob.with_data(2.0**16), newton_solve(prob).solution


class _CountingFactor:
    def __init__(self, lu):
        self.lu = lu
        self.nnz = lu.nnz
        self.solves = 0

    def solve(self, b):
        self.solves += 1
        return self.lu.solve(b)


@pytest.fixture
def factors(monkeypatch):
    """Every factor newton_solve builds, in order, counting its back-solves."""
    built = []
    factor = solver._factor_spd

    def counting(op, diag=None):
        built.append(_CountingFactor(factor(op, diag)))
        return built[-1]

    monkeypatch.setattr(solver, "_factor_spd", counting)
    return built


def test_newton_reuses_its_factor(factors):
    # once the iterate is a supersolution a kept factor serves several
    # steps, so there are fewer factorizations than Newton steps
    problem, start = _warm_threshold_problem()
    factors.clear()
    rep = newton_solve(problem, u0=start)
    assert len(factors) < rep.iterations
    assert rep.factorizations == len(factors)


def test_start_factor_is_used_once(factors):
    # the start need not be a supersolution, so its factor serves exactly
    # the first step; later factors carry the remaining steps
    problem, start = _warm_threshold_problem()
    factors.clear()
    rep = newton_solve(problem, u0=start)
    assert factors[0].solves == 1
    assert sum(f.solves for f in factors) == rep.iterations


def test_coarse_to_fine_start_agrees_with_the_default_start(factors):
    # the verify ladder's start: the 32^2 solution resampled onto 64^2 lies
    # above the 64^2 solution, so the first step goes down and the factor
    # built at the start carries every step.  It reaches the default
    # start's solution within Newton's tolerance, in fewer steps
    tol = 1e-8
    coarse, fine = (make_mesh(omega_min=ConeModel(3, 1, 1.0).theta / 8.0, nn=nn)
                    for nn in (32, 64))
    start = resample(solve_problem(model_problem(coarse), tol=tol).solution, fine)
    factors.clear()
    warm = solve_problem(model_problem(fine), tol=tol, u0=start)
    assert warm.factorizations == len(factors) == 1
    assert factors[0].solves == warm.iterations > 1
    cold = solve_problem(model_problem(fine), tol=tol)
    assert warm.iterations < cold.iterations
    u = cold.solution.values
    assert np.max(np.abs(warm.solution.values - u)) <= tol * (1.0 + np.max(np.abs(u)))


def test_solvers_refuse_a_step_limit_below_one():
    # both run _newton_steps, which needs at least one step to report
    prob = model_problem(make_mesh(nn=8))
    with pytest.raises(ValueError, match="max_iter must be at least 1, got 0"):
        newton_solve(prob, max_iter=0)
    with pytest.raises(ValueError, match="max_iter must be at least 1, got 0"):
        monotone_iterate(prob, pick_cap(prob), max_iter=0)


def test_monotone_solve_takes_no_start():
    mesh = make_mesh(nn=8)
    with pytest.raises(ValueError, match="bracket"):
        solve_problem(model_problem(mesh), method="monotone", u0=Field.full(mesh, 0.0))
    with pytest.raises(ValueError, match="unknown method 'bisection'"):
        solve_problem(model_problem(mesh), method="bisection")


def test_randomized_comparison_orderings():
    # ordered coefficients and data produce nodewise-ordered solutions
    mesh = make_mesh(nn=10)
    violations = 0
    for _ in range(25):
        c0a = RNG.uniform(0.2, 2.0)
        c1a = RNG.uniform(0.2, 2.0)
        da = RNG.uniform(0.2, 3.0)
        c0b = c0a * RNG.uniform(1.0, 3.0)
        c1b = c1a * RNG.uniform(1.0, 3.0)
        db = da * RNG.uniform(0.3, 1.0)
        ua = newton_solve(flat_cone_problem(mesh, c0a, c1a, da)).solution.values
        ub = newton_solve(flat_cone_problem(mesh, c0b, c1b, db)).solution.values
        if np.min(ua - ub) < -1e-9 * (1 + np.max(ua)):
            violations += 1
    assert violations == 0


# ---------------------------------------------------------------------------
# exhaustion and truncation limits
# ---------------------------------------------------------------------------


def test_exhaustion_monotone_and_stabilizes_on_model():
    mesh = make_mesh(nn=24, omega_min=None)
    prob = model_problem(mesh)
    reports = exhaustion_blowup_solve(prob, [2.0**k for k in range(10)], tol=0.02)
    changes = [r.interior_change for r in reports[1:]]
    # changes decrease once the data exceeds the interior scale
    peak = int(np.argmax(changes))
    tail = changes[peak:]
    assert all(b <= a * 1.05 for a, b in zip(tail, tail[1:]))
    # the blow-up limit dominates the exact power solution nodewise (the
    # large solution of the truncated domain sits above every solution with
    # finite boundary values); profile agreement is a truncation-limit
    # statement and is tested on the maximal-solution family below
    exact = mesh.rho ** (-mesh.domain.cone.blowup_exponent)
    last = reports[-1].solution.values
    assert np.min((last - exact)[mesh.free_mask]) >= -1e-6


def test_exhaustion_scaled_c0_gives_smaller_interior():
    mesh = make_mesh(nn=12)
    p1 = flat_cone_problem(mesh, 1.0, 1.0, 1.0)
    p4 = flat_cone_problem(mesh, 4.0, 1.0, 1.0)
    r1 = exhaustion_blowup_solve(p1, [1.0, 4.0, 16.0, 64.0], tol=math.inf)
    r4 = exhaustion_blowup_solve(p4, [1.0, 4.0, 16.0, 64.0], tol=math.inf)
    diff = r1[-1].solution.values - r4[-1].solution.values
    assert np.min(diff[mesh.free_mask]) >= -1e-9


def test_exhaustion_threshold_case_still_stabilizes():
    # the interior bound does not need the supercritical dimension
    mesh = make_mesh(n=4, d=1, nn=24)
    prob = flat_cone_problem(mesh, 1.0, 1.0, 1.0)
    reports = exhaustion_blowup_solve(prob, [2.0**k for k in range(12)], tol=0.05)
    changes = [r.interior_change for r in reports[1:]]
    peak = int(np.argmax(changes))
    tail = changes[peak:]
    assert all(b <= a * 1.05 for a, b in zip(tail, tail[1:]))


def test_exhaustion_requires_increasing_data():
    mesh = make_mesh(nn=10)
    prob = model_problem(mesh)
    with pytest.raises(ValueError):
        exhaustion_blowup_solve(prob, [4.0, 2.0])
    # and a truncation family needs a level
    with pytest.raises(ValueError, match="empty truncation family"):
        maximal_solution([])


def test_each_datum_of_a_shared_operator_ladder_solves_its_own_data():
    # the ladder derives each datum's problem by with_data, sharing one
    # assembled operator, and every solve forms its data's term
    # coupling @ data itself: at each datum the ladder returns bitwise the
    # solution of a fresh problem holding that datum alone, from the same
    # start.  The fresh second problem's operator is factored once first,
    # so that its Newton factors reuse a cached ordering as the ladder's do
    mesh = make_mesh(nn=12)
    first, second = exhaustion_blowup_solve(flat_cone_problem(mesh, 1.0, 1.0, 1.0),
                                            [1.0, 256.0], tol=math.inf)
    ref = newton_solve(flat_cone_problem(mesh, 1.0, 1.0, 1.0))
    assert first.solution.values.tobytes() == ref.solution.values.tobytes()
    fresh = flat_cone_problem(mesh, 1.0, 1.0, 256.0)
    solver._factor_spd(fresh.linear_operator)
    ref = newton_solve(fresh, u0=first.solution)
    assert second.solution.values.tobytes() == ref.solution.values.tobytes()
    assert np.max((second.solution.values - first.solution.values)[mesh.free_mask]) > 1.0


def test_exhaustion_rejects_a_solution_that_drops_with_the_data(monkeypatch):
    # a second-datum solution lowered by 0.5 on the free nodes breaks the
    # discrete comparison between data values
    newton = solver.newton_solve
    calls = []

    def lowered(problem, **kwargs):
        rep = newton(problem, **kwargs)
        calls.append(rep)
        if len(calls) == 2:
            free = problem.mesh.free_mask
            rep.solution = Field(problem.mesh, rep.solution.values - 0.5 * free)
        return rep

    monkeypatch.setattr(solver, "newton_solve", lowered)
    mesh = make_mesh(nn=12)
    prob = flat_cone_problem(mesh, 1.0, 1.0, 1.0)
    # the message names the datum and the truncation it failed at
    place = f"at datum 2, omega_min {mesh.domain.omega_min:.6g})"
    with pytest.raises(OrderingViolationError, match=re.escape(place)):
        exhaustion_blowup_solve(prob, [1.0, 2.0, 4.0], tol=math.inf)
    assert len(calls) == 2


def _small_family(n, d, levels, nodes_per_octave):
    cone = ConeModel(n, d, 1.0)
    base = build_mesh(ReducedDomain(cone, 0.5, 2.0, cone.theta / 8), 12, 12, 2.0)
    meshes = truncation_family(base, levels, nodes_per_octave=nodes_per_octave)
    return [flat_cone_problem(m, 1.0, 1.0, 1.0) for m in meshes]


def _check_raised_deeper_level_is_rejected(monkeypatch, relative):
    exhaustion = solver.exhaustion_blowup_solve
    calls = []

    def raised(problem, data, **kwargs):
        reports = exhaustion(problem, data, **kwargs)
        calls.append(problem.mesh)
        if len(calls) == 2:
            coarse, mesh = calls
            shared = mesh.free_mask & (mesh.omega > coarse.domain.omega_min)
            u = reports[-1].solution.values
            lift = 1e-6 * (1.0 + np.max(np.abs(u))) if relative else 1.0
            reports[-1].solution = Field(mesh, u + lift * shared)
        return reports

    monkeypatch.setattr(solver, "exhaustion_blowup_solve", raised)
    problems = _small_family(3, 1, 3, 4)
    # the message names the deeper level: its truncation and its 12x16 mesh
    deep = problems[1].mesh
    place = f"omega_min {deep.domain.omega_min:.6g}, mesh 12x16"
    with pytest.raises(MonotonicityViolationError, match=re.escape(place)):
        maximal_solution(problems, data_sequence=[2.0**k for k in range(6)], tol=1.0)
    assert len(calls) == 2


def test_maximal_solution_rejects_a_deeper_level_above_the_coarser(monkeypatch):
    # level 1 raised by 1.0 on the free nodes it shares with level 0 exceeds
    # the solver tolerance of the decrease across levels
    _check_raised_deeper_level_is_rejected(monkeypatch, relative=False)


def test_maximal_solution_rejects_a_deeper_level_raised_by_a_relative_1e_6(monkeypatch):
    # a raise of 1e-6 (1 + max|u|) on the shared free nodes is already above
    # the solver tolerance, so it is rejected as well
    _check_raised_deeper_level_is_rejected(monkeypatch, relative=True)


def test_levels_whose_window_holds_too_few_samples_report_no_fit():
    # on this family the windows of levels 4 and 5 hold fewer than the 4
    # samples a fit needs, so they report no exponent; level 6 fits 5
    problems = _small_family(4, 2, 7, 2)
    reports = maximal_solution(problems, data_sequence=[2.0**k for k in range(9)], tol=1.0)
    base_omega = problems[0].mesh.domain.omega_min
    for k in (4, 5):
        lo, hi = solver._auto_window(problems[k].mesh, base_omega)
        assert lo < hi
        assert math.isnan(reports[k].fitted_exponent) and reports[k].fit_samples == 0
    assert reports[6].fit_samples == 5


def test_maximal_solution_matches_power_solution_on_common_subdomain():
    cone = ConeModel(3, 1, 1.0)
    dom = ReducedDomain(cone, 0.5, 2.0, cone.theta / 8)
    base = build_mesh(dom, 24, 20, 2.0)
    meshes = truncation_family(base, 10, nodes_per_octave=8)
    sol = exact_model_solution(cone)
    problems = [
        flat_cone_problem(m, sol.c0_star, sol.c1_star, 1.0) for m in meshes
    ]
    reports = maximal_solution(problems, data_sequence=[2.0**k for k in range(15)], tol=0.02)
    # the truncation limit dominates the power solution everywhere and locks
    # onto it on a fixed near-singular band once the face has receded
    last = reports[-1]
    mesh_f = meshes[-1]
    uf = last.solution.values
    exact = mesh_f.rho ** (-cone.blowup_exponent)
    xi = np.log(mesh_f.rho_polar)
    xi0, xi1 = np.log(0.5), np.log(2.0)
    inner = (xi >= xi0 + 0.25 * (xi1 - xi0)) & (xi <= xi1 - 0.25 * (xi1 - xi0))
    sel = mesh_f.free_mask & inner
    assert np.min((uf - exact)[sel]) >= -1e-6
    om0 = base.domain.omega_min
    band = sel & (mesh_f.omega >= om0 / 8) & (mesh_f.omega <= om0 / 2)
    assert np.any(band)
    assert np.max(np.abs(uf - exact)[band] / exact[band]) < 0.08


def test_deeper_levels_solve_only_the_last_two_data(monkeypatch):
    # level 0 runs the whole K-value data ladder, every deeper level only the
    # last two values: K + 2 (L - 1) Newton solves for L levels
    calls = []
    newton = solver.newton_solve

    def counting(problem, **kwargs):
        calls.append(float(np.max(problem.dirichlet_data.values)))
        return newton(problem, **kwargs)

    monkeypatch.setattr(solver, "newton_solve", counting)
    cone = ConeModel(3, 1, 1.0)
    base = build_mesh(ReducedDomain(cone, 0.5, 2.0, cone.theta / 8), 12, 12, 2.0)
    meshes = truncation_family(base, 4, nodes_per_octave=4)
    problems = [flat_cone_problem(m, 1.0, 1.0, 1.0) for m in meshes]
    seq = [2.0**k for k in range(6)]
    maximal_solution(problems, data_sequence=seq, tol=1.0)
    assert calls == seq + seq[-2:] * 3


def test_one_ordering_per_level(orderings):
    # a level's Newton solves share one operator, so only its first
    # factorization computes a minimum-degree ordering; every later one,
    # on the level's other data value too, reuses it
    cone = ConeModel(3, 1, 1.0)
    base = build_mesh(ReducedDomain(cone, 0.5, 2.0, cone.theta / 8), 12, 12, 2.0)
    problems = [flat_cone_problem(m, 1.0, 1.0, 1.0)
                for m in truncation_family(base, 3, nodes_per_octave=4)]
    level = exhaustion_blowup_solve(problems[1], [2.0**7, 2.0**8], tol=math.inf)
    assert orderings == {"MMD_AT_PLUS_A": 1,
                         "NATURAL": sum(r.factorizations for r in level) - 1}
    orderings.clear()
    reports = maximal_solution(problems, data_sequence=[2.0**k for k in range(9)], tol=1.0)
    assert orderings == {"MMD_AT_PLUS_A": 3,
                         "NATURAL": sum(r.factorizations for r in reports) - 3}


def test_level_factorization_counts_on_the_threshold_family():
    # deterministic counts of the (4,1) desk family at 6 levels.  Level 0's
    # first solve starts from zero on the free nodes, and its first step
    # lands on the linear lift of its data; every later datum starts from
    # the data ladder's secant.  Each deep level starts from the coarse
    # solution moved down one octave and scaled by the measured
    # level-to-level ratio (2^a on level 1).  Newton runs two nonlinear
    # Jacobi sweeps on every such start.  The octave shift alone took
    # 34, 13, 7, 7, 7, 6, a start that copies the coarse first free
    # column onto the new octave 15, 12, 11, 11, 10 on levels 1-5, and the
    # secant starts without the sweeps 26, 8, 9, 4, 5, 5
    cone = ConeModel(4, 1, 1.0)
    base = build_mesh(ReducedDomain(cone, 0.5, 2.0, cone.theta / 8), 40, 32, 2.0)
    problems = [flat_cone_problem(m, 1.0, 1.0, 1.0) for m in truncation_family(base, 6)]
    reports = maximal_solution(problems, tol=0.03)
    assert [r.factorizations for r in reports] == [21, 5, 4, 4, 4, 4]


def test_every_start_lies_at_or_above_the_start_it_predicts_from(monkeypatch):
    # each datum after a level's first starts at or above the previous
    # datum's solution on the free nodes, and each deep level's first datum
    # at or above the coarse solution moved down one octave: the ratios the
    # secant starts scale by are clamped at 1, so a start is never lower
    # than the plain warm start, and it is finite
    calls = []
    newton = solver.newton_solve

    def spying(problem, u0=None, **kwargs):
        rep = newton(problem, u0=u0, **kwargs)
        calls.append((problem.mesh, None if u0 is None else u0.values, rep.solution.values))
        return rep

    monkeypatch.setattr(solver, "newton_solve", spying)
    problems = _small_family(3, 1, 4, 4)
    seq = [2.0**k for k in range(9)]
    maximal_solution(problems, data_sequence=seq, tol=1.0)
    firsts = [0] + [len(seq) + 2 * k for k in range(len(problems) - 1)]
    assert len(calls) == firsts[-1] + 2
    for k, (mesh, start, _) in enumerate(calls):
        free = mesh.free_mask
        if k in firsts[1:]:
            coarse, _, uc = calls[k - 1]
            shifted = solver._octave_shift(uc, coarse, mesh)
            assert np.all(np.isfinite(start)) and np.all(start[free] >= shifted[free])
        elif k:
            prev = calls[k - 1][2]
            assert np.all(np.isfinite(start)) and np.all(start[free] >= prev[free])


def _two_level_n3_family_at(exponent):
    # the (3,1) desk base and its next level at data 1..2^exponent
    cone = ConeModel(3, 1, 1.0)
    base = build_mesh(ReducedDomain(cone, 0.5, 2.0, cone.theta / 8), 40, 32, 2.0)
    problems = [flat_cone_problem(m, 1.0, 1.0, 1.0) for m in truncation_family(base, 2)]
    assert problems[1].mesh.n_angular == 42
    levels = maximal_solution(problems, data_sequence=[2.0**k for k in range(exponent + 1)],
                              tol=0.03, inner_tol=1e-8)
    u = levels[1].solution.values
    assert np.all(np.isfinite(u)) and np.max(u) <= 2.0**exponent


def test_a_two_level_n3_family_converges_at_blowup_data_2_28():
    # Started from the coarse solution moved down one octave alone, level
    # 1's first datum 2^27 sat below the solution in the face column;
    # Newton's first step overshot to 2.5e7 and ran out of its 60 steps on
    # mesh 40x42.  Scaled by the blow-up law's 2^a, the start lies above
    # the solution there
    _two_level_n3_family_at(28)


def test_a_two_level_n3_family_converges_at_blowup_data_2_32():
    # With the secant starts alone, level 1's first datum 2^31 ran out of
    # Newton's 60 steps on mesh 40x42 (normalized residual 0.97, increment
    # 15); the two nonlinear Jacobi sweeps on the start bring it into
    # Newton's basin
    _two_level_n3_family_at(32)


def test_factor_fill_sums_the_fill_of_every_factor(factor_fills):
    # the reports total the fill (L plus U entries) of every factorization
    # behind them: Newton's Jacobians per solve and level, and those of the
    # monotone bracket, which its two branches share
    problems = _small_family(3, 1, 3, 4)
    levels = maximal_solution(problems, data_sequence=[2.0**k for k in range(7)], tol=1.0)
    assert sum(r.factor_fill for r in levels) == sum(factor_fills) > 0
    assert sum(r.factorizations for r in levels) == len(factor_fills)
    factor_fills.clear()
    prob = model_problem(make_mesh(nn=8))
    rep, _ = monotone_iterate(prob, pick_cap(prob))
    assert rep.factor_fill == sum(factor_fills) > 0
    assert rep.factorizations == len(factor_fills)


def test_level_reports_keep_the_fit_quality():
    # every level that fits an exponent also reports the fit's r2, sample
    # count and completeness indicator; a level without a window reports
    # nan for the three measurements and 0 samples
    cone = ConeModel(3, 1, 1.0)
    base = build_mesh(ReducedDomain(cone, 0.5, 2.0, cone.theta / 8), 28, 24, 2.0)
    problems = [flat_cone_problem(m, 1.0, 1.0, 1.0)
                for m in truncation_family(base, 6, nodes_per_octave=8)]
    reports = maximal_solution(problems, data_sequence=[2.0**k for k in range(14)], tol=0.03)
    assert not math.isnan(reports[-1].fitted_exponent)
    for rep in reports:
        lo, hi = solver._auto_window(rep.solution.mesh, base.domain.omega_min)
        fields = (rep.fitted_exponent, rep.fit_r2, rep.fit_samples,
                  rep.completeness_indicator)
        if lo >= hi:
            assert rep.fit_samples == 0
            assert all(math.isnan(x) for x in (rep.fitted_exponent, rep.fit_r2,
                                               rep.completeness_indicator))
            continue
        fit = fit_blowup_exponent(rep.solution, (lo, hi))
        assert fields == (fit.alpha, fit.r2, fit.n_samples, fit.completeness)
        assert 0.9 < rep.fit_r2 <= 1.0 and rep.fit_samples >= 4


def test_maximal_solution_complete_verdict_coarse():
    cone = ConeModel(3, 1, 1.0)
    dom = ReducedDomain(cone, 0.5, 2.0, cone.theta / 8)
    base = build_mesh(dom, 28, 24, 2.0)
    meshes = truncation_family(base, 8, nodes_per_octave=8)
    problems = [flat_cone_problem(m, 1.0, 1.0, 1.0) for m in meshes]
    reports = maximal_solution(problems, data_sequence=[2.0**k for k in range(14)], tol=0.03)
    last = reports[-1]
    assert dichotomy_verdict(reports) == Verdict.COMPLETE_TYPE
    assert last.fitted_exponent == pytest.approx(0.5, abs=0.08)
    assert last.completeness_indicator > 0


@pytest.mark.parametrize("n, d, h, c0, c1", [
    (3, 1, 2.0, 1.0, 1.0),
    (3, 1, 0.5, 4.0, 4.0),
    (4, 2, 0.5, 4.0, 4.0),
    (4, 2, 1.0, 0.25, 1.0),
])
def test_completeness_indicator_reads_the_blowup_amplitude(n, d, h, c0, c1):
    # near the singular set the complete solution behaves like K rho^(-a),
    # a = (n-2)/2, with K = (a (d-a) / c0)^(1/(p-1)) for any cone slope h
    # and any c1.  The 8-level desk families (40x32 base, theta/8, data 2^16)
    # read 3.4-6.2% above K over these (n, d, h, c0, c1), so 10% covers them
    cone = ConeModel(n, d, h)
    base = build_mesh(ReducedDomain(cone, 0.5, 2.0, cone.theta / 8), 40, 32, 2.0)
    meshes = truncation_family(base, 8, nodes_per_octave=10)
    levels = maximal_solution([flat_cone_problem(m, c0, c1, 1.0) for m in meshes], tol=0.03)
    last = levels[-1]
    K = cone.blowup_amplitude(c0)
    assert dichotomy_verdict(levels) == Verdict.COMPLETE_TYPE
    assert abs(last.completeness_indicator / K - 1.0) <= 0.10


def test_maximal_solution_bounded_verdict_threshold():
    # at the threshold dimension the capped-data exhaustion flattens: the
    # truncation-face influence of finite data vanishes linearly with depth
    cone = ConeModel(4, 1, 1.0)
    dom = ReducedDomain(cone, 0.5, 2.0, cone.theta / 8)
    base = build_mesh(dom, 32, 24, 2.0)
    meshes = truncation_family(base, 18, nodes_per_octave=8)
    problems = [flat_cone_problem(m, 1.0, 1.0, 1.0) for m in meshes]
    reports = maximal_solution(problems, data_sequence=[2.0**k for k in range(13)], tol=0.04)
    last = reports[-1]
    assert last.fitted_exponent <= 0.2
    assert last.near_gamma_variation < 0.05
    assert dichotomy_verdict(reports) == Verdict.BOUNDED_TYPE


def test_threshold_case_is_not_complete_at_five_levels():
    # at 5 levels only the last level of the (4,1) desk family has a fit
    # window; the drift rule must not compare its fitted indicator with the
    # previous level's Newton quartile indicator, another quantity
    cone = ConeModel(4, 1, 1.0)
    base = build_mesh(ReducedDomain(cone, 0.5, 2.0, cone.theta / 8), 40, 32, 2.0)
    problems = [flat_cone_problem(m, 1.0, 1.0, 1.0) for m in truncation_family(base, 5)]
    reports = maximal_solution(problems, tol=0.03)
    assert math.isnan(reports[-2].completeness_indicator)
    assert dichotomy_verdict(reports) != Verdict.COMPLETE_TYPE


def _level(mesh, alpha=math.nan, indicator=math.nan, variation=math.nan):
    return LevelRecord(
        solution=Field.full(mesh, 0.0), iterations=0, factorizations=0, interior_change=0.0,
        near_gamma_variation=variation, fitted_exponent=alpha,
        completeness_indicator=indicator,
    )


@pytest.mark.parametrize("previous, last, verdict", [
    # indicator drift |last - prev| / max(last, prev) of 0.39 and 0.41
    (dict(indicator=1.0), dict(alpha=0.8, indicator=0.61), Verdict.COMPLETE_TYPE),
    (dict(indicator=1.0), dict(alpha=0.8, indicator=0.59), Verdict.INCONCLUSIVE),
    # the previous level has no fit window (the 5-level (4,1) desk family)
    (dict(), dict(alpha=0.8, indicator=1.0), Verdict.INCONCLUSIVE),
    (dict(), dict(alpha=0.2, variation=0.049), Verdict.BOUNDED_TYPE),
    (dict(), dict(alpha=0.2), Verdict.INCONCLUSIVE),
    (dict(), dict(alpha=0.2, variation=0.05), Verdict.INCONCLUSIVE),
    # the last level has no fit window
    (dict(indicator=1.0), dict(indicator=1.0, variation=0.0), Verdict.INCONCLUSIVE),
    # a single-level family
    (None, dict(alpha=0.8, indicator=1.0), Verdict.INCONCLUSIVE),
])
def test_dichotomy_verdict_on_synthetic_levels(previous, last, verdict):
    # alpha is given in units of the blow-up exponent m = (n-2)/2 = 3/2 of
    # the (5, 2) cone; the verdict reads the records only, so no solve is needed
    mesh = make_mesh(n=5, d=2, nn=4)
    if "alpha" in last:
        last = {**last, "alpha": last["alpha"] * mesh.domain.cone.blowup_exponent}
    levels = [_level(mesh, **last)]
    if previous is not None:
        levels.insert(0, _level(mesh, **previous))
    assert dichotomy_verdict(levels) == verdict


# ---------------------------------------------------------------------------
# exponent fit
# ---------------------------------------------------------------------------


def test_fit_blowup_exponent_synthetic_power():
    mesh = make_mesh(nn=24, omega_min=0.05)
    u = Field(mesh, mesh.rho**-0.5)
    rho_mid = mesh.rho[(mesh.n_radial // 2) * mesh.n_angular:][: mesh.n_angular]
    fit = fit_blowup_exponent(u, (float(rho_mid.min()) * 1.01, float(rho_mid.max()) * 0.99))
    assert fit.alpha == pytest.approx(0.5, abs=1e-12)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)
    assert fit.completeness > 0


def test_fit_blowup_exponent_degenerate_window():
    mesh = make_mesh(nn=12)
    u = Field(mesh, mesh.rho**-0.5)
    with pytest.raises(ValueError):
        fit_blowup_exponent(u, (1e-6, 2e-6))
    with pytest.raises(ValueError):
        fit_blowup_exponent(u, (0.5, 0.1))


# ---------------------------------------------------------------------------
# barriers
# ---------------------------------------------------------------------------


def test_barrier_feasibility_matches_dimension_threshold():
    for n in (3, 4, 5, 6):
        for d in range(1, n):
            mesh = make_mesh(n=n, d=d, nn=10)
            prob = flat_cone_problem(mesh, 1.0, 1.0, 1.0)
            fit = barrier_psi_fit(prob)
            assert fit.feasible == (d > (n - 2) / 2)
            if fit.feasible:
                assert fit.C_star > 0
                # interior margin is d - (n-2)/2 on the flat cone
                expected = min(d - (n - 2) / 2,
                               d * 1.0 / ((n - 1) * math.sqrt(2.0)))
                assert fit.C1_margin == pytest.approx(expected, rel=1e-12)


def test_barrier_c_star_is_one_for_model_coefficients():
    # with (c0*, c1*) the power solution saturates the barrier: C_* = 1
    for n, d in [(3, 1), (4, 2), (5, 2), (6, 3)]:
        mesh = make_mesh(n=n, d=d, nn=10)
        sol = exact_model_solution(mesh.domain.cone)
        prob = flat_cone_problem(mesh, sol.c0_star, sol.c1_star, 1.0)
        fit = barrier_psi_fit(prob)
        assert fit.C_star == pytest.approx(1.0, rel=1e-12)


def test_barrier_threshold_case_infeasible():
    mesh = make_mesh(n=4, d=1, nn=10)
    prob = flat_cone_problem(mesh, 1.0, 1.0, 1.0)
    fit = barrier_psi_fit(prob)
    assert not fit.feasible
    assert fit.C_star == 0.0


def test_converged_solution_dominates_barrier():
    mesh = make_mesh(nn=16)
    prob = model_problem(mesh)
    rep, _ = monotone_iterate(prob, pick_cap(prob), tol=1e-10)
    fit = barrier_psi_fit(prob, solution=rep.solution)
    assert fit.feasible
    assert fit.lower_bound_margin is not None
    assert fit.lower_bound_margin >= -1e-2 * fit.C_star  # discretization slack


def test_verify_model_report_fields():
    mesh = make_mesh(nn=12)
    prob = model_problem(mesh)
    rep = solve_problem(prob, method="newton")
    assert rep.residual_sup < 1e-6
