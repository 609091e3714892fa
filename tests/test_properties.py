"""Property tests of the nonlinear and eigenvalue solvers over random cones and meshes."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coneyamabe import (
    ConeModel,
    Field,
    ReducedDomain,
    assemble,
    build_mesh,
    exhaustion_blowup_solve,
    flat_cone_problem,
    maximal_solution,
    monotone_iterate,
    newton_solve,
    pick_cap,
    principal_eigen,
    rayleigh_quotient,
    solve_mixed,
    truncation_family,
)


def draw_mesh(draw):
    n = draw(st.integers(3, 5))
    d = draw(st.integers(1, n - 1))
    h = draw(st.floats(0.5, 2.0))
    nn = draw(st.integers(8, 14))
    cone = ConeModel(n, d, h)
    return build_mesh(ReducedDomain(cone, 0.5, 2.0, cone.theta / 8.0), nn, nn, 2.0)


@st.composite
def cone_problems(draw):
    mesh = draw_mesh(draw)
    data = 2.0 ** draw(st.integers(0, 14))
    return flat_cone_problem(mesh, 1.0, 1.0, data)


@st.composite
def ordered_problem_pairs(draw):
    # the second problem absorbs more (coefficients scaled by [1, 4] nodewise)
    # and sees lower Dirichlet data (scaled by [0.2, 1] nodewise)
    mesh = draw_mesh(draw)
    data = 2.0 ** draw(st.integers(0, 14))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c0, c1 = rng.uniform(0.2, 2.0, (2, mesh.n_nodes))
    k0, k1 = rng.uniform(1.0, 4.0, (2, mesh.n_nodes))
    lower = data * rng.uniform(0.2, 1.0, mesh.n_nodes)
    return (flat_cone_problem(mesh, c0, c1, data),
            flat_cone_problem(mesh, k0 * c0, k1 * c1, lower))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(problem=cone_problems(), seed=st.integers(0, 2**32 - 1))
def test_newton_solution_does_not_depend_on_the_start(problem, seed):
    # a random nonnegative start with one spike at 2^16 reaches the same
    # solution as the default start, the data with zero on the free nodes
    rng = np.random.default_rng(seed)
    data = float(np.max(problem.dirichlet_data.values))
    start = rng.uniform(0.0, 2.0 * data, problem.mesh.n_nodes)
    start[rng.integers(problem.mesh.n_nodes)] = 2.0**16
    ref = newton_solve(problem).solution.values
    u = newton_solve(problem, u0=Field(problem.mesh, start)).solution.values
    assert np.max(np.abs(u - ref)) <= 1e-9 * np.max(np.abs(ref))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(pair=ordered_problem_pairs())
def test_comparison_principle(pair):
    # larger absorption and lower boundary data give a nodewise smaller
    # solution: the discrete comparison principle behind every bracket
    a, b = pair
    u_a = newton_solve(a).solution.values
    u_b = newton_solve(b).solution.values
    assert np.all(u_a >= u_b - 1e-9 * (1.0 + np.max(u_a)))


@st.composite
def moderate_problems(draw):
    # nodewise coefficients and constant data of order one on a wedge of
    # moderate depth: the monotone shift p c0 S^(p-1) stays small, and so
    # does the iteration's step count
    n = draw(st.integers(3, 6))
    cone = ConeModel(n, draw(st.integers(1, n - 1)), draw(st.floats(0.5, 2.0)))
    omega_min = draw(st.floats(0.1, 0.4)) * cone.theta
    nn = draw(st.integers(8, 14))
    mesh = build_mesh(ReducedDomain(cone, 0.5, 2.0, omega_min), nn, nn, 2.0)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c0, c1 = rng.uniform(0.2, 2.0, (2, mesh.n_nodes))
    return flat_cone_problem(mesh, c0, c1, draw(st.floats(0.2, 3.0)))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(problem=moderate_problems())
def test_newton_equals_the_monotone_iteration(problem):
    # the bracket [0, pick_cap] iteration and Newton reach one discrete solution
    mono, _ = monotone_iterate(problem, Field.zeros(problem.mesh), pick_cap(problem), tol=1e-11)
    ref = newton_solve(problem, tol=1e-11).solution.values
    assert np.max(np.abs(mono.solution.values - ref)) <= 1e-9 * np.max(np.abs(ref))


@st.composite
def eigen_operators(draw):
    # nonnegative nodewise potentials, so the operator keeps its M-matrix
    # certificate; zero on a random part of the nodes
    mesh = draw_mesh(draw)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c, c2 = rng.uniform(0.0, 4.0, (2, mesh.n_nodes)) * (rng.random((2, mesh.n_nodes)) < 0.7)
    return assemble(mesh, Field(mesh, c), Field(mesh, c2))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(op=eigen_operators())
def test_principal_ground_state_is_positive_and_variational(op):
    # the ground state of an irreducible M-matrix pencil is positive on
    # every free node, and its Rayleigh quotient is the eigenvalue
    lam, vec = principal_eigen(op, "volume")
    assert np.all(vec.values[op.mesh.free_mask] > 0.0)
    assert rayleigh_quotient(op, vec) == pytest.approx(lam, rel=1e-8)


@st.composite
def truncations(draw):
    n = draw(st.integers(3, 5))
    return n, draw(st.integers(1, n - 1)), draw(st.floats(0.5, 2.0)), draw(st.integers(3, 4))


@settings(max_examples=4, deadline=None, derandomize=True, database=None)
@given(family=truncations())
@example(family=(3, 1, 1.0, 4))
@example(family=(4, 1, 1.0, 4))
@example(family=(4, 2, 1.0, 4))
def test_warm_started_levels_match_the_full_ladder(family):
    # deeper levels solve only the last two data values from the previous
    # level's solution; each must equal the cold data ladder on its own mesh
    n, d, h, levels = family
    cone = ConeModel(n, d, h)
    base = build_mesh(ReducedDomain(cone, 0.5, 2.0, cone.theta / 8.0), 12, 12, 2.0)
    problems = [flat_cone_problem(m, 1.0, 1.0, 1.0) for m in truncation_family(base, levels)]
    seq = [2.0**k for k in range(9)]
    reports = maximal_solution(problems, data_sequence=seq, tol=1.0)
    for prob, rep in zip(problems, reports):
        ref = exhaustion_blowup_solve(prob, seq, tol=None)[-1].solution.values
        u = rep.solution.values
        assert np.max(np.abs(u - ref)) <= 1e-9 * np.max(np.abs(ref))


LADDER = [2.0**k for k in range(9)]


@st.composite
def small_families(draw):
    # a 3-level truncation family with 4 nodes per octave on a random base
    mesh = draw_mesh(draw)
    return [flat_cone_problem(m, 1.0, 1.0, 1.0)
            for m in truncation_family(mesh, 3, nodes_per_octave=4)]


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(problems=small_families())
def test_exhaustion_increases_with_the_data(problems):
    # larger constant Dirichlet data give a nodewise larger solution on
    # every level: the discrete comparison principle behind the exhaustion
    for prob in problems:
        sols = [r.solution.values for r in exhaustion_blowup_solve(prob, LADDER, tol=None)]
        for lo, hi in zip(sols, sols[1:]):
            assert np.all(hi >= lo - 1e-9 * np.max(hi))


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(problems=small_families())
def test_nested_truncations_decrease(problems):
    # each level's solution restricted to the previous level's free nodes
    # is a discrete solution with smaller boundary values there, so it lies
    # nodewise below the previous level's, up to solver tolerance
    levels = maximal_solution(problems, data_sequence=LADDER, tol=1.0)
    for prev, rec in zip(levels, levels[1:]):
        coarse, fine = prev.solution.mesh, rec.solution.mesh
        off = fine.angular_offset_of(coarse)
        uc = prev.solution.values.reshape(coarse.n_radial, coarse.n_angular)
        uf = rec.solution.values.reshape(fine.n_radial, fine.n_angular)[:, off:]
        both = (coarse.free_mask.reshape(uc.shape)
                & fine.free_mask.reshape(fine.n_radial, fine.n_angular)[:, off:])
        assert np.all((uf - uc)[both] <= 1e-9 * np.max(uc))


@st.composite
def lift_problems(draw):
    # nonnegative nodewise c0, c1 and Dirichlet data, each zero on a random
    # part of the nodes, on the flat cone (c = 0, c2 >= 0)
    mesh = draw_mesh(draw)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c0, c1 = rng.uniform(0.0, 2.0, (2, mesh.n_nodes)) * (rng.random((2, mesh.n_nodes)) < 0.7)
    data = 2.0 ** draw(st.integers(0, 14)) * rng.random(mesh.n_nodes) * (rng.random(mesh.n_nodes) < 0.8)
    return flat_cone_problem(mesh, c0, c1, data)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(problem=lift_problems())
def test_the_default_start_is_a_supersolution(problem):
    # Newton's first iterate from its default start, the linear lift of the
    # data, lies in [0, max(data)] by the maximum principle, and the
    # nonlinear terms can only add to its zero linear residual: F(u_L) >= 0
    # on every free node, up to the rounding of the solve, a few ulps of the
    # row scale
    mesh = problem.mesh
    u = solve_mixed(problem.linear_operator, 0.0, problem.dirichlet_data).solution.values
    top = float(np.max(problem.dirichlet_data.values[mesh.dirichlet_mask]))
    assert np.all(u >= 0.0) and np.all(u <= top)
    op = problem.linear_operator
    scale = (abs(op.matrix) @ u)[mesh.free_mask]
    assert np.all(problem.integrated_residual(u) >= -8.0 * np.finfo(float).eps * scale)


@st.composite
def face_problems(draw):
    # unit data and coefficients on an 8x8 mesh of a random cone
    n = draw(st.integers(3, 7))
    cone = ConeModel(n, draw(st.integers(1, n - 1)), draw(st.floats(0.3, 3.0)))
    mesh = build_mesh(ReducedDomain(cone, 0.5, 2.0, cone.theta / 8.0), 8, 8, 2.0)
    return flat_cone_problem(mesh, 1.0, 1.0, 1.0)


@settings(max_examples=12, derandomize=True, database=None, deadline=None)
@given(problem=face_problems())
def test_growth_next_to_the_inner_face_tends_to_one_over_p(problem):
    # on a fixed grid the node next to the blow-up face solves, as the data
    # m grow, a balance whose solution grows like m^(1/p): each data
    # doubling multiplies it by 2^(1/p).  The ladder runs to 2^40, where the
    # law holds to 1e-2 on every interior radial row for n up to 7
    mesh = problem.mesh
    ladder = [2.0**k for k in range(41)]
    reports = exhaustion_blowup_solve(problem, ladder, tol=None)
    shape = (mesh.n_radial, mesh.n_angular)
    assert np.all(mesh.free_mask.reshape(shape)[1:-1, 1])
    below, top = (r.solution.values.reshape(shape)[1:-1, 1] for r in reports[-2:])
    assert np.all(np.abs(problem.p_interior * np.log2(top / below) - 1.0) <= 1e-2)
