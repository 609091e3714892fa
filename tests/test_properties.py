"""Property tests of the nonlinear solver over random cones and meshes."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from coneyamabe import ConeModel, Field, ReducedDomain, build_mesh, flat_cone_problem, newton_solve


@st.composite
def cone_problems(draw):
    n = draw(st.integers(3, 5))
    d = draw(st.integers(1, n - 1))
    h = draw(st.floats(0.5, 2.0))
    nn = draw(st.integers(8, 14))
    data = 2.0 ** draw(st.integers(0, 14))
    cone = ConeModel(n, d, h)
    mesh = build_mesh(ReducedDomain(cone, 0.5, 2.0, cone.theta / 8.0), nn, nn, 2.0)
    return flat_cone_problem(mesh, 1.0, 1.0, data)


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
