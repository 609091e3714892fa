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
    # solution as the default constant start max(data)
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
