"""Property tests of the nonlinear and eigenvalue solvers over random cones and meshes."""

import math

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
from coneyamabe import solver


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
    # the second problem absorbs more (coefficients scaled by [1, 4]) and
    # sees lower Dirichlet data (scaled by [0.2, 1] nodewise)
    mesh = draw_mesh(draw)
    data = 2.0 ** draw(st.integers(0, 14))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c0, c1 = rng.uniform(0.2, 2.0, 2)
    k0, k1 = rng.uniform(1.0, 4.0, 2)
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
    # random coefficients and constant data of order one on a wedge of
    # moderate depth
    n = draw(st.integers(3, 6))
    cone = ConeModel(n, draw(st.integers(1, n - 1)), draw(st.floats(0.5, 2.0)))
    omega_min = draw(st.floats(0.1, 0.4)) * cone.theta
    nn = draw(st.integers(8, 14))
    mesh = build_mesh(ReducedDomain(cone, 0.5, 2.0, omega_min), nn, nn, 2.0)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c0, c1 = rng.uniform(0.2, 2.0, 2)
    return flat_cone_problem(mesh, c0, c1, draw(st.floats(0.2, 3.0)))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(problem=moderate_problems())
def test_newton_equals_the_monotone_iteration(problem):
    # the bracket [0, pick_cap] and Newton reach one discrete solution
    mono, _ = monotone_iterate(problem, pick_cap(problem), tol=1e-11)
    ref = newton_solve(problem, tol=1e-11).solution.values
    assert np.max(np.abs(mono.solution.values - ref)) <= 1e-9 * np.max(np.abs(ref))


@st.composite
def bracket_problems(draw):
    # random cone, wedge depth, mesh, coefficients and constant data up to
    # 2^12, where Newton's default start still converges within its limit
    n = draw(st.integers(3, 6))
    cone = ConeModel(n, draw(st.integers(1, n - 1)), draw(st.floats(0.5, 2.0)))
    omega_min = draw(st.floats(0.1, 0.5)) * cone.theta
    n_radial, n_angular = draw(st.integers(6, 14)), draw(st.integers(6, 14))
    mesh = build_mesh(ReducedDomain(cone, 0.5, 2.0, omega_min), n_radial, n_angular, 2.0)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c0, c1 = rng.uniform(0.0, 4.0, 2)
    return flat_cone_problem(mesh, c0, c1, 2.0 ** draw(st.integers(0, 12)))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(problem=bracket_problems())
def test_monotone_bracket_holds_newtons_solution(problem):
    # the bracket is ordered, holds Newton's tight solution, and its width
    # is below its stop bound: tol bounds the error of either branch
    tol, S = 1e-8, pick_cap(problem)
    rep, upper = monotone_iterate(problem, S, tol=tol)
    lower, upper = rep.solution.values, upper.values
    ref = newton_solve(problem, tol=1e-13).solution.values
    slack = 1e-12 * max(1.0, S)
    assert np.all(lower <= ref + slack) and np.all(ref <= upper + slack)
    assert rep.bracket == np.max(upper - lower) <= tol * (1.0 + np.max(upper))


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
        ref = exhaustion_blowup_solve(prob, seq, tol=math.inf)[-1].solution.values
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
        sols = [r.solution.values for r in exhaustion_blowup_solve(prob, LADDER, tol=math.inf)]
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
    # nonnegative c0 and c1, each zero in 3 of 10 draws, and nodewise
    # Dirichlet data, zero on a random part of the nodes, on the flat cone
    # (c = 0, c2 >= 0)
    mesh = draw_mesh(draw)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c0, c1 = rng.uniform(0.0, 2.0, 2) * (rng.random(2) < 0.7)
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
def absorbing_problems(draw):
    # c0 and c1 each zero or positive, on a small mesh of a random cone
    mesh = draw_mesh(draw)
    c0, c1 = (draw(st.just(0.0) | st.floats(0.1, 4.0)) for _ in range(2))
    return flat_cone_problem(mesh, c0, c1, 1.0)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(problem=absorbing_problems(), seed=st.integers(0, 2**32 - 1))
def test_the_residual_and_its_jacobian_read_one_absorption_law(problem, seed):
    # the absorption's slope is the central difference of its value, and
    # the Jacobian that Newton factors, the free block plus that slope, is
    # the directional difference of the residual: the residual and every
    # Jacobian read the one law
    rng = np.random.default_rng(seed)
    op = problem.linear_operator
    free = op.free
    u = np.where(free, rng.uniform(0.5, 2.0, free.size), problem.dirichlet_data.values)
    value, slope = problem.absorption(u[free])
    t = 1e-5
    (up, _), (down, _) = (problem.absorption(u[free] * (1.0 + s)) for s in (t, -t))
    assert np.all(np.abs((up - down) / (2.0 * t * u[free]) - slope) <= 1e-6 * slope)
    h = np.where(free, rng.uniform(0.5, 1.0, free.size) * rng.choice([-1.0, 1.0], free.size), 0.0)
    F = problem.integrated_residual
    diff = (F(u + t * h) - F(u - t * h)) / (2.0 * t)
    jh = op.free_matrix @ h[free] + slope * h[free]
    scale = (abs(op.matrix) @ np.abs(h))[free] + slope * np.abs(h[free])
    assert np.all(np.abs(diff - jh) <= 1e-6 * scale)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(problem=absorbing_problems(), seed=st.integers(0, 2**32 - 1), top=st.integers(0, 16))
def test_newtons_row_scale_reads_abs_a_through_the_z_matrix_identity(problem, seed, top):
    # Newton measures each free row against (|A| u) + vm + absorption; for
    # the Z-matrix A and u >= 0 it forms |A| u as 2 a u - A u from the A u
    # the residual already holds.  At random nonnegative iterates, zeros
    # and large values included, the scale and the normalized residual
    # equal the abs(A)-based reference to 1e-13 relative
    rng = np.random.default_rng(seed)
    op = problem.linear_operator
    free = op.free
    u = 2.0 ** top * rng.random(free.size) * (rng.random(free.size) < 0.9)
    F, Au, value, _ = solver._free_residual(problem, u)
    scale = solver._row_scale(op, op.free_matrix.diagonal(), u, Au, value)
    ref = (abs(op.matrix) @ u)[free] + op.volume_mass[free] + value
    assert np.all(np.abs(scale - ref) <= 1e-13 * ref)
    res, res_ref = np.max(np.abs(F) / scale), np.max(np.abs(F) / ref)
    assert abs(res - res_ref) <= 1e-13 * res_ref


@st.composite
def operators_data_and_vectors(draw):
    # an operator with random nonnegative potentials on a random cone and a
    # mesh of independent radial and angular sizes, nonnegative data up to
    # 2^40 with zeros, and a signed u over many orders of magnitude
    n = draw(st.integers(3, 5))
    cone = ConeModel(n, draw(st.integers(1, n - 1)), draw(st.floats(0.5, 2.0)))
    mesh = build_mesh(ReducedDomain(cone, 0.5, 2.0, cone.theta / 8.0),
                      draw(st.integers(4, 14)), draw(st.integers(4, 14)), 2.0)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    op = assemble(mesh, rng.uniform(0.0, 2.0, mesh.n_nodes), rng.uniform(0.0, 1.0, mesh.n_nodes))
    data = 2.0 ** draw(st.integers(0, 40)) * rng.random(mesh.n_nodes) * (rng.random(mesh.n_nodes) < 0.8)
    u = 2.0 ** draw(st.integers(-20, 20)) * rng.normal(size=mesh.n_nodes)
    return op, data, u


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=operators_data_and_vectors())
def test_the_free_block_and_the_coupling_are_the_free_rows_of_the_matrix(case):
    # the operator keeps the free rows of its matrix as the free block and
    # the coupling into the Dirichlet columns: the Dirichlet lift
    # coupling @ data is bitwise the full matrix on the data with its free
    # entries zeroed, and free_matrix @ u[free] + coupling @ u (apply_free)
    # is (A u)[free] up to a few ulps of (|A| |u|)[free], the rounding of
    # the two sums' different orders
    op, data, u = case
    free = op.free
    A = op.matrix
    lift = op.coupling @ data
    assert lift.tobytes() == (A @ np.where(free, 0.0, data))[free].tobytes()
    scale = (abs(A) @ np.abs(u))[free]
    assert np.all(np.abs(op.apply_free(u) - (A @ u)[free]) <= 8.0 * np.finfo(float).eps * scale)
    mesh = op.mesh
    assert op.coupling.nnz == mesh.n_radial + 2 * mesh.n_angular - 4
    assert op.coupling.has_sorted_indices and op.coupling.indices.dtype == np.int32


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
    reports = exhaustion_blowup_solve(problem, ladder, tol=math.inf)
    shape = (mesh.n_radial, mesh.n_angular)
    assert np.all(mesh.free_mask.reshape(shape)[1:-1, 1])
    below, top = (r.solution.values.reshape(shape)[1:-1, 1] for r in reports[-2:])
    assert np.all(np.abs(problem.p_interior * np.log2(top / below) - 1.0) <= 1e-2)
