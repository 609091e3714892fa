"""Assembly, mixed solves, Rayleigh quotient and principal eigenvalue."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg

from coneyamabe import (
    ConeModel,
    Field,
    IndefiniteOperatorError,
    MMatrixWarning,
    NegativeEigenvectorError,
    NonConvergenceError,
    ReducedDomain,
    assemble,
    build_mesh,
    euclidean_robin_potential,
    exact_model_solution,
    flat_cone_problem,
    principal_eigen,
    rayleigh_quotient,
    solve_mixed,
    truncation_family,
)
from coneyamabe import elliptic
from coneyamabe.elliptic import _factor_spd
from coneyamabe.solver import NonlinearProblem

RNG = np.random.default_rng(7121331)


def make_mesh(n=3, d=1, h=1.0, omega_min=0.15, nn=16, grading=2.0, r0=0.5, r1=2.0):
    dom = ReducedDomain(ConeModel(n, d, h), r0, r1, omega_min)
    return build_mesh(dom, nn, nn, grading)


def lap_radial_power(n, d, alpha, rho):
    return alpha * (alpha + n - d - 2) * rho ** (alpha - 2)


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def test_constants_are_annihilated():
    # constants lie in the stiffness kernel by the row-sum construction;
    # the only nonzero left is matvec association-order roundoff, amplified
    # by the operator-form division by the (small) volume weights.  The
    # Robin part is the flux form of the half-cell rows: du/dnu + c2 u plus
    # half the angular cell height times rho_polar times the interior
    # residual at the same node, second-order consistent with the boundary
    # condition whenever u satisfies the interior equation
    mesh = make_mesh()
    u = np.full(mesh.n_nodes, 3.7)
    r_int, r_rob = NonlinearProblem(mesh, 0, 0, 0, 0, 0).residual_parts(u)
    assert np.max(np.abs(r_int)) < 1e-9
    assert np.max(np.abs(r_rob)) < 1e-9


def test_pointwise_application_of_rho_polar():
    # L(rho_polar) = -(n-d)/rho_polar for the reduced operator
    prev = None
    for nn in (16, 32, 64):
        mesh = make_mesh(nn=nn, grading=1.0)
        u = mesh.rho_polar.copy()
        n, d = 3, 1
        exact = (-(n - d) / mesh.rho_polar)[mesh.tags == 0]
        got, _ = NonlinearProblem(mesh, 0, 0, 0, 0, 0).residual_parts(u)
        err = np.max(np.abs(got - exact) / np.abs(exact))
        if prev is not None:
            assert math.log2(prev / err) > 1.8
        prev = err


def test_pointwise_application_of_power_solution_order():
    # discrete L u_* converges to the analytic transverse Laplacian at order >= 1.8
    errs = []
    for nn in (32, 64, 128):
        mesh = make_mesh(nn=nn, grading=1.0)
        cone = mesh.domain.cone
        m = cone.blowup_exponent
        u = mesh.rho**-m
        exact = -lap_radial_power(cone.n, cone.d, -m, mesh.rho)[mesh.tags == 0]
        got, _ = NonlinearProblem(mesh, 0, 0, 0, 0, 0).residual_parts(u)
        errs.append(np.max(np.abs(got - exact) / np.abs(exact)))
    assert math.log2(errs[0] / errs[1]) >= 1.8
    assert math.log2(errs[1] / errs[2]) >= 1.8


def test_symmetry_of_weighted_form():
    mesh = make_mesh(nn=12)
    c = Field(mesh, RNG.uniform(0.0, 2.0, mesh.n_nodes))
    c2 = Field(mesh, RNG.uniform(0.0, 1.0, mesh.n_nodes))
    op = assemble(mesh, Field(mesh, c.values + 0.5), Field(mesh, c2.values + 0.25))
    A = op.matrix
    for _ in range(20):
        u = RNG.normal(size=mesh.n_nodes)
        v = RNG.normal(size=mesh.n_nodes)
        uv = abs(u @ (A @ v) - v @ (A @ u))
        assert uv <= 1e-12 * np.linalg.norm(u) * np.linalg.norm(v) * np.abs(A.data).max()


def test_m_matrix_certificate_and_warning():
    mesh = make_mesh(nn=10)
    op = assemble(mesh)
    assert op.m_matrix_ok
    # off-diagonal entries are nonpositive by construction
    A = op.matrix.tocoo()
    off = A.row != A.col
    assert np.all(A.data[off] <= 0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        op2 = assemble(mesh, Field.full(mesh, -1.0))
    assert not op2.m_matrix_ok
    assert any(issubclass(w.category, MMatrixWarning) for w in caught)


def test_assemble_rejects_mismatched_fields():
    mesh = make_mesh(nn=8)
    other = make_mesh(nn=10)
    with pytest.raises(ValueError):
        assemble(mesh, Field.full(other, 0.0))
    with pytest.raises(ValueError):
        assemble(mesh, np.zeros(3))


def _reference_assembly(mesh, cvals, c2vals):
    """(matrix, free_matrix, stiffness) built the long way: the edge
    conductances into a COO matrix, the stiffness diagonal from scipy's row
    sum, the mass terms added by sp.diags and the free block sliced out."""
    p = mesh.domain.cone.n - mesh.domain.cone.d
    radial, angular = mesh.radial_nodes, mesh.angular_nodes
    nr, na = len(radial), len(angular)
    xi = np.log(radial)
    dxiw, domw = elliptic._half_widths(xi), elliptic._half_widths(angular)
    sin_domw = np.sin(angular) ** (p - 1) * domw
    k_rad = np.outer(np.sqrt(radial[:-1] * radial[1:]) ** (p - 1) / np.diff(xi), sin_domw)
    om_half = 0.5 * (angular[:-1] + angular[1:])
    k_ang = np.outer(radial ** (p - 1) * dxiw, np.sin(om_half) ** (p - 1) / np.diff(angular))
    idx = np.arange(nr * na).reshape(nr, na)
    pr, qr = idx[:-1, :].ravel(), idx[1:, :].ravel()
    pa, qa = idx[:, :-1].ravel(), idx[:, 1:].ravel()
    kr, ka = k_rad.ravel(), k_ang.ravel()
    off = sp.coo_matrix((np.concatenate([-kr, -kr, -ka, -ka]),
                         (np.concatenate([pr, qr, pa, qa]), np.concatenate([qr, pr, qa, pa]))),
                        shape=(mesh.n_nodes,) * 2).tocsr()
    stiffness = (off + sp.diags(-np.asarray(off.sum(axis=1)).ravel())).tocsr()
    volume_mass = np.outer(radial ** (p + 1) * dxiw, sin_domw).ravel()
    boundary_mass = np.zeros((nr, na))
    boundary_mass[1:-1, -1] = radial[1:-1] ** p * np.sin(angular[-1]) ** (p - 1) * dxiw[1:-1]
    matrix = (stiffness + sp.diags(volume_mass * cvals + boundary_mass.ravel() * c2vals)).tocsr()
    free = mesh.free_mask
    return matrix, matrix[free][:, free].tocsr(), stiffness


def _assembly_meshes():
    base = build_mesh(ReducedDomain(ConeModel(4, 1, 1.0), 0.5, 2.0, 0.15), 16, 12, 2.0)
    return {
        "(3,1) 4x4": make_mesh(nn=4),
        "(3,1) 33x17": build_mesh(ReducedDomain(ConeModel(3, 1, 1.0), 0.5, 2.0, 0.15), 33, 17, 2.0),
        "(4,1) level 6": truncation_family(base, 6)[-1],
        "(4,2) 20x13": build_mesh(ReducedDomain(ConeModel(4, 2, 1.0), 0.5, 2.0, 0.15), 20, 13, 2.0),
    }


@pytest.mark.parametrize("potentials", ["zero", "positive", "negative c"])
@pytest.mark.parametrize("name", list(_assembly_meshes()))
def test_assembly_is_bitwise_the_reference_build(name, potentials):
    # assemble writes both matrices straight into CSR; every array of them,
    # and the stiffness it forms on demand, equals the COO / row-sum /
    # sp.diags / slice build bit for bit, negative c (which warns) included
    mesh = _assembly_meshes()[name]
    rng = np.random.default_rng(5)
    c, c2 = {"zero": (0.0, 0.0),
             "positive": (rng.uniform(0.0, 2.0, mesh.n_nodes), rng.uniform(0.0, 1.0, mesh.n_nodes)),
             "negative c": (Field.full(mesh, -1.0).values, 0.3)}[potentials]
    if potentials == "negative c":
        with pytest.warns(MMatrixWarning):
            op = assemble(mesh, c, c2)
    else:
        op = assemble(mesh, c, c2)
    ref = _reference_assembly(mesh, Field.of(mesh, c).values, Field.of(mesh, c2).values)
    for got, want in zip((op.matrix, op.free_matrix, op.stiffness), ref):
        assert isinstance(got, sp.csr_matrix)
        for part in ("data", "indices", "indptr"):
            a, b = getattr(got, part), getattr(want, part)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_assembly_peak_stays_below_twice_the_operator():
    # the direct CSR build holds no intermediate matrix: at 128^2 the traced
    # peak of assemble stays below twice what the returned operator holds
    mesh = make_mesh(nn=128)
    c2 = flat_cone_problem(mesh, 1.0, 1.0, 1.0).c2_lin
    tracemalloc.start()
    try:
        op = assemble(mesh, 0.0, c2)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert op.free_matrix.nnz > 0
    assert peak < 2.0 * held


def test_assembly_holds_no_full_grid_matrix():
    # the operator keeps the free block and the Dirichlet coupling, and
    # forms the full five-point matrix on demand: at 128^2 (3,1), theta/8,
    # the traced bytes its result holds stay below 1.9 MB, which the full
    # matrix held beside the free block exceeds (2.62 MB)
    cone = ConeModel(3, 1, 1.0)
    mesh = make_mesh(omega_min=cone.theta / 8, nn=128)
    c2 = flat_cone_problem(mesh, 1.0, 1.0, 1.0).c2_lin
    tracemalloc.start()
    try:
        op = assemble(mesh, 0.0, c2)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 1.9e6
    for field in dataclasses.fields(op):
        value = getattr(op, field.name)
        assert not (sp.issparse(value) and value.shape[0] == mesh.n_nodes), field.name


def test_principal_eigen_forms_no_abs_copy_of_the_block():
    # the Gershgorin bound reads the row sums A 1 of the Z-matrix, so no
    # nnz-sized |A| is formed: at 200^2 the traced peak of principal_eigen
    # stays below 1.9 times the bytes of the free block, which an |A| copy
    # exceeds
    cone = ConeModel(3, 1, 1.0)
    mesh = make_mesh(omega_min=cone.theta / 8, nn=200)
    op = flat_cone_problem(mesh, 1.0, 1.0, 1.0).linear_operator
    A = op.free_matrix
    block = A.data.nbytes + A.indices.nbytes + A.indptr.nbytes
    tracemalloc.start()
    try:
        principal_eigen(op, "volume")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.9 * block


# ---------------------------------------------------------------------------
# mixed solves
# ---------------------------------------------------------------------------


def test_harmonic_extension_of_constant_data():
    mesh = make_mesh(nn=14)
    op = assemble(mesh)
    rep = solve_mixed(op, 0.0, 4.25)
    assert np.allclose(rep.solution.values, 4.25, atol=1e-9)
    assert rep.relative_residual <= 1e-10


def test_manufactured_solution_convergence():
    # u_m = x1 = rho_polar cos(omega) is harmonic; potential c = 1 makes
    # rhs = u_m; Robin data from du/dnu = -sin(theta) on the cone face
    errs = []
    for nn in (16, 32, 64):
        mesh = make_mesh(nn=nn)
        theta = mesh.domain.cone.theta
        op = assemble(mesh, Field.full(mesh, 1.0))
        um = mesh.rho_polar * np.cos(mesh.omega)
        g = np.full(mesh.n_nodes, -math.sin(theta))
        rep = solve_mixed(op, Field(mesh, um), Field(mesh, um), robin_rhs=Field(mesh, g))
        errs.append(np.max(np.abs(rep.solution.values - um)))
    order1 = math.log2(errs[0] / errs[1])
    order2 = math.log2(errs[1] / errs[2])
    assert 1.7 <= order1 <= 2.3
    assert 1.7 <= order2 <= 2.3


def test_linearized_model_problem_recovers_power_solution():
    # potentials linearized at u_*: c = c0* u_*^(4/(n-2)), Robin adds c1* u_*^(2/(n-2))
    errs = []
    for nn in (16, 32, 64):
        mesh = make_mesh(nn=nn)
        cone = mesh.domain.cone
        sol = exact_model_solution(cone)
        m = cone.blowup_exponent
        us = mesh.rho**-m
        c = sol.c0_star * us ** (4.0 / (cone.n - 2))
        c2 = np.zeros(mesh.n_nodes)
        rob = mesh.robin_mask
        c2[rob] = euclidean_robin_potential(cone, mesh.rho_polar[rob]) + sol.c1_star * us[rob] ** (
            2.0 / (cone.n - 2)
        )
        op = assemble(mesh, Field(mesh, c), Field(mesh, c2))
        rep = solve_mixed(op, 0.0, Field(mesh, us))
        errs.append(np.max(np.abs(rep.solution.values - us)))
    assert 1.7 <= math.log2(errs[0] / errs[1]) <= 2.3
    assert 1.7 <= math.log2(errs[1] / errs[2]) <= 2.3


def test_large_free_block_solve():
    # 90x90 has more than 5000 free nodes: the sparse factorization stays
    # accurate on a large reduced system
    mesh = make_mesh(nn=90)
    assert int(np.sum(mesh.free_mask)) > 5000
    theta = mesh.domain.cone.theta
    op = assemble(mesh, Field.full(mesh, 1.0))
    um = mesh.rho_polar * np.cos(mesh.omega)
    g = np.full(mesh.n_nodes, -math.sin(theta))
    rep = solve_mixed(op, Field(mesh, um), Field(mesh, um), robin_rhs=Field(mesh, g))
    assert rep.relative_residual <= 1e-11
    assert np.max(np.abs(rep.solution.values - um)) < 2e-5


def test_operator_shared_across_threads():
    # one assembly, concurrent solves with distinct right-hand sides
    from concurrent.futures import ThreadPoolExecutor

    mesh = make_mesh(nn=14)
    op = assemble(mesh, Field.full(mesh, 0.5))
    rhs_list = [Field(mesh, RNG.uniform(0.0, 1.0, mesh.n_nodes)) for _ in range(8)]
    serial = [solve_mixed(op, r, 0.0).solution.values for r in rhs_list]
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(lambda r: solve_mixed(op, r, 0.0).solution.values, rhs_list))
    for a, b in zip(serial, threaded):
        assert np.array_equal(a, b)


def test_dirichlet_rows_match_data_exactly():
    mesh = make_mesh(nn=12)
    op = assemble(mesh)
    data = Field(mesh, RNG.uniform(0.0, 2.0, mesh.n_nodes))
    rep = solve_mixed(op, 0.0, data)
    dmask = mesh.dirichlet_mask
    assert np.array_equal(rep.solution.values[dmask], data.values[dmask])


def test_a_solve_with_a_large_residual_is_refused():
    # every mixed solve checks its relative residual; a factor that returns
    # a wrong solution fails loudly instead of handing it on
    class Zero:
        def solve(self, b):
            return np.zeros_like(b)

    op = assemble(make_mesh(nn=8))
    op._free_factor = Zero()
    with pytest.raises(NonConvergenceError, match="direct solve residual 1.000e\\+00"):
        solve_mixed(op, 1.0, 0.0)


def test_indefinite_operator_detection():
    mesh = make_mesh(nn=12)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MMatrixWarning)
        op = assemble(mesh, Field.full(mesh, -500.0))
    with pytest.raises(IndefiniteOperatorError):
        solve_mixed(op, 1.0, 0.0)
    # raising c per the shifted-form existence result makes it solvable
    op2 = assemble(mesh, Field.full(mesh, 12.0))
    rep = solve_mixed(op2, 1.0, 0.0)
    assert rep.relative_residual <= 1e-10


@pytest.mark.parametrize("n,d", [(3, 1), (4, 1), (4, 2), (5, 3)])
@pytest.mark.parametrize("c", [0.0, -5.0, -50.0, -500.0])
def test_pivot_signs_match_dense_spectrum(n, d, c):
    # the factorization's pivot signs are the inertia of the free block:
    # solve_mixed fails exactly when eigvalsh finds a nonpositive eigenvalue
    mesh = make_mesh(n=n, d=d, nn=12)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MMatrixWarning)
        op = assemble(mesh, Field.full(mesh, c))
    free = mesh.free_mask
    lowest = np.linalg.eigvalsh(op.matrix[free][:, free].toarray())[0]
    if lowest <= 0.0:
        with pytest.raises(IndefiniteOperatorError):
            solve_mixed(op, 1.0, 0.0)
    else:
        assert solve_mixed(op, 1.0, 0.0).relative_residual <= 1e-10


def test_factor_on_the_cached_order_solves_like_the_mmd_factor(orderings):
    # the first factorization of an operator's free block orders it by
    # minimum degree and caches the order; a later one with another
    # diagonal factors on that order and still solves in the caller's
    # numbering, like the minimum-degree factor of a fresh operator
    mesh = make_mesh(n=4, d=1, nn=14)
    c, c2 = Field.full(mesh, 0.5), Field.full(mesh, 0.3)
    op = assemble(mesh, c, c2)
    A = op.free_matrix
    jac = RNG.uniform(0.0, 5.0, A.shape[0])
    J = A + sp.diags(jac)
    mmd = _factor_spd(assemble(mesh, c, c2), jac)
    _factor_spd(op)
    assert orderings == {"MMD_AT_PLUS_A": 2}
    assert np.array_equal(np.sort(op._free_order), np.arange(A.shape[0]))
    reused = _factor_spd(op, jac)
    assert orderings == {"MMD_AT_PLUS_A": 2, "NATURAL": 1}
    b = RNG.uniform(-1.0, 1.0, A.shape[0])
    x = mmd.solve(b)
    assert np.max(np.abs(reused.solve(b) - x)) <= 1e-12 * np.max(np.abs(x))
    assert np.linalg.norm(J @ reused.solve(b) - b) <= 1e-12 * np.linalg.norm(b)


def test_factor_on_the_cached_order_rejects_an_indefinite_matrix(orderings):
    # the certificate (perm_r == perm_c, a positive vector y with A y > 0)
    # runs on the cached-order path too
    mesh = make_mesh(nn=12)
    op = assemble(mesh)
    A = op.free_matrix
    _factor_spd(op)
    lowest = np.linalg.eigvalsh(A.toarray())[0]
    with pytest.raises(IndefiniteOperatorError):
        _factor_spd(op, np.full(A.shape[0], -2.0 * lowest))
    assert orderings == {"MMD_AT_PLUS_A": 1, "NATURAL": 1}


def test_every_factorization_of_an_operator_shares_its_ordering(orderings):
    # whoever factors an operator first (here solve_mixed) orders its free
    # block by minimum degree; a Jacobian-like factor and the eigenvalue
    # pencil of the same operator reuse that order, and a second operator
    # runs its own single ordering
    mesh = make_mesh(nn=12)
    c = Field.full(mesh, 0.5)
    op = assemble(mesh, c)
    solve_mixed(op, 1.0, 0.0)
    assert orderings == {"MMD_AT_PLUS_A": 1}
    _factor_spd(op, np.full(op.free_matrix.shape[0], 2.0))
    assert orderings == {"MMD_AT_PLUS_A": 1, "NATURAL": 1}
    lam_fresh, _ = principal_eigen(assemble(mesh, c), "volume")
    assert orderings == {"MMD_AT_PLUS_A": 2, "NATURAL": 1}
    lam_reused, _ = principal_eigen(op, "volume")
    assert orderings == {"MMD_AT_PLUS_A": 2, "NATURAL": 2}
    assert lam_reused == pytest.approx(lam_fresh, rel=1e-12)


def _splu_spd(A, permc_spec):
    return scipy.sparse.linalg.splu(A, permc_spec=permc_spec, **elliptic._SPLU_KEYWORDS)


def test_factors_solve_bitwise_like_splu_of_the_explicit_sum():
    # the free block plus a diagonal, formed on the block's own pattern
    # (and on the cached order, from the permuted block), is the matrix
    # (A_ff + diags(d)) permuted explicitly, so both factors solve bitwise
    # like SuperLU's factor of that matrix; the second and third diagonal
    # cover the call that builds the permuted block and one that reuses it
    mesh = make_mesh(n=4, d=1, nn=14)
    op = assemble(mesh, Field.full(mesh, 0.5), Field.full(mesh, 0.3))
    A = op.free_matrix
    b = RNG.uniform(-1.0, 1.0, A.shape[0])
    diags = [RNG.uniform(0.0, 5.0, A.shape[0]) for _ in range(3)]
    first = _factor_spd(op, diags[0])
    mmd = _splu_spd((A + sp.diags(diags[0])).tocsc(), "MMD_AT_PLUS_A")
    assert np.array_equal(first.solve(b), mmd.solve(b))
    order = op._free_order
    for jac in diags[1:]:
        ref = _splu_spd((A + sp.diags(jac)).tocsr()[order][:, order].tocsc(), "NATURAL")
        x = np.empty_like(b)
        x[order] = ref.solve(b[order])
        assert np.array_equal(_factor_spd(op, jac).solve(b), x)


def test_the_narrow_panel_keeps_the_fill_of_the_default_panel():
    # the panel width changes SuperLU's blocking, not its elimination: the
    # first factor of a truncation level's operator and a cached-order
    # factor have the fill of SuperLU's default panel on the same matrix
    base = build_mesh(ReducedDomain(ConeModel(4, 1, 1.0), 0.5, 2.0, 0.15), 16, 12, 2.0)
    op = flat_cone_problem(truncation_family(base, 3)[-1], 1.0, 1.0, 1.0).linear_operator
    A = op.free_matrix
    default_panel = {k: v for k, v in elliptic._SPLU_KEYWORDS.items() if k != "panel_size"}
    rng = np.random.default_rng(11)
    diags = [rng.uniform(0.0, 5.0, A.shape[0]) for _ in range(2)]
    first = _factor_spd(op, diags[0])
    ref = scipy.sparse.linalg.splu((A + sp.diags(diags[0])).tocsc(),
                                   permc_spec="MMD_AT_PLUS_A", **default_panel)
    assert first.nnz == ref.nnz
    order = op._free_order
    cached = _factor_spd(op, diags[1])
    ref = scipy.sparse.linalg.splu((A + sp.diags(diags[1])).tocsr()[order][:, order].tocsc(),
                                   permc_spec="NATURAL", **default_panel)
    assert cached.nnz == ref.nnz > A.nnz


def test_an_indefinite_shift_is_refused_on_both_paths(orderings):
    # a shift between the two lowest eigenvalues leaves one negative
    # eigenvalue: no positive y has A y > 0, so the certificate refuses the
    # minimum-degree factor and the cached-order factor alike
    mesh = make_mesh(nn=12)
    op = assemble(mesh)
    A = op.free_matrix
    lam = np.linalg.eigvalsh(A.toarray())
    shift = np.full(A.shape[0], -0.5 * (lam[0] + lam[1]))
    with pytest.raises(IndefiniteOperatorError):
        _factor_spd(op, shift)
    assert op._free_order is None
    _factor_spd(op)
    with pytest.raises(IndefiniteOperatorError):
        _factor_spd(op, shift)
    assert orderings == {"MMD_AT_PLUS_A": 2, "NATURAL": 1}


def test_a_free_block_with_a_positive_off_diagonal_is_refused(orderings):
    # the certificate holds for Z-matrices only; a tampered block with one
    # small positive off-diagonal pair stays positive definite, and the
    # Z-matrix check refuses it before SuperLU runs
    mesh = make_mesh(nn=12)
    op = assemble(mesh, Field.full(mesh, 1.0))
    A = op.free_matrix
    i, j = 0, A.indices[A.indptr[0]:A.indptr[1]].max()
    A[i, j] = A[j, i] = 1e-3 * abs(A[i, j])
    assert np.linalg.eigvalsh(A.toarray())[0] > 0.0
    with pytest.raises(IndefiniteOperatorError, match="off-diagonal"):
        _factor_spd(op)
    assert orderings == {}


def test_a_positive_vector_certifies_only_through_its_rows(monkeypatch):
    # y > 0 alone is not the certificate: A y must clear the matvec's
    # rounding in every row.  A factor whose solve returns the constant
    # vector, on which the interior rows of the stiffness sum to rounding
    # noise, is refused although the block is positive definite
    class ConstantSolve:
        def __init__(self, lu):
            self.perm_r, self.perm_c = lu.perm_r, lu.perm_c

        def solve(self, b):
            return np.ones_like(b)

    splu = scipy.sparse.linalg.splu
    monkeypatch.setattr(scipy.sparse.linalg, "splu",
                        lambda *args, **kwargs: ConstantSolve(splu(*args, **kwargs)))
    op = assemble(make_mesh(nn=12))
    assert np.linalg.eigvalsh(op.free_matrix.toarray())[0] > 0.0
    with pytest.raises(IndefiniteOperatorError):
        _factor_spd(op)


def test_an_exactly_singular_factor_is_refused(monkeypatch):
    # SuperLU raises RuntimeError on an exactly singular matrix; the factor
    # is then refused as not positive definite, naming SuperLU's message
    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(scipy.sparse.linalg, "splu", singular)
    with pytest.raises(IndefiniteOperatorError, match="exactly singular"):
        _factor_spd(assemble(make_mesh(nn=8)))


def test_linear_comparison_principle():
    # with the M-matrix certificate, larger rhs and data give larger solutions
    mesh = make_mesh(nn=10)
    op = assemble(mesh, Field.full(mesh, 0.5), Field.full(mesh, 0.3))
    for _ in range(10):
        f1 = RNG.uniform(0.0, 1.0, mesh.n_nodes)
        f2 = f1 + RNG.uniform(0.0, 1.0, mesh.n_nodes)
        d1 = RNG.uniform(0.0, 1.0, mesh.n_nodes)
        d2 = d1 + RNG.uniform(0.0, 1.0, mesh.n_nodes)
        u1 = solve_mixed(op, Field(mesh, f1), Field(mesh, d1)).solution.values
        u2 = solve_mixed(op, Field(mesh, f2), Field(mesh, d2)).solution.values
        assert np.all(u2 - u1 >= -1e-10)


# ---------------------------------------------------------------------------
# Rayleigh quotient and principal eigenvalue
# ---------------------------------------------------------------------------


def admissible_bump(mesh):
    z = np.zeros(mesh.n_nodes)
    z[mesh.free_mask] = 1.0
    # taper with a product bump to stay generic
    z *= np.sin(np.pi * (mesh.omega - mesh.omega.min()) / (mesh.omega.max() - mesh.omega.min() + 1e-12)) + 0.1
    z[mesh.dirichlet_mask] = 0.0
    return Field(mesh, z)


def test_rayleigh_quotient_nonnegative_without_potentials():
    mesh = make_mesh(nn=12)
    op = assemble(mesh)
    assert rayleigh_quotient(op, admissible_bump(mesh)) >= 0.0


def test_rayleigh_quotient_shifts_with_constant_potential():
    mesh = make_mesh(nn=12)
    K = 37.5
    z = admissible_bump(mesh)
    q0 = rayleigh_quotient(assemble(mesh), z)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MMatrixWarning)
        qK = rayleigh_quotient(assemble(mesh, Field.full(mesh, -K)), z)
    assert qK == pytest.approx(q0 - K, rel=1e-12)
    assert qK < 0.0


def test_rayleigh_quotient_guards():
    mesh = make_mesh(nn=10)
    op = assemble(mesh)
    with pytest.raises(ValueError):
        rayleigh_quotient(op, Field.full(mesh, 1.0))  # nonzero on Dirichlet nodes
    with pytest.raises(ValueError):
        rayleigh_quotient(op, Field.full(mesh, 0.0))


def test_principal_eigen_matches_dense_oracle_on_coarse_mesh():
    mesh = make_mesh(nn=8)
    c = Field(mesh, RNG.uniform(-0.5, 0.5, mesh.n_nodes))
    c2 = Field(mesh, RNG.uniform(0.0, 0.5, mesh.n_nodes))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MMatrixWarning)
        op = assemble(mesh, c, c2)
    free = mesh.free_mask
    A = op.matrix.toarray()[np.ix_(free, free)]
    for variant, mass in (("volume", op.volume_mass),
                          ("volume-plus-boundary", op.volume_mass + op.boundary_mass)):
        lam, vec = principal_eigen(op, variant)
        dense = scipy.linalg.eigh(A, np.diag(mass[free]), eigvals_only=True)
        assert abs(lam - dense[0]) <= 1e-8
        assert np.max(vec.values) == pytest.approx(1.0)
        assert np.all(vec.values[mesh.free_mask] > 0)
        assert np.all(vec.values[mesh.dirichlet_mask] == 0)


@pytest.mark.parametrize("variant", ["volume", "volume-plus-boundary"])
def test_principal_eigen_matches_shift_invert_lanczos_on_the_flat_cone(variant):
    # the single-precision factor only preconditions a float64 residual: at
    # 100^2 on (3,1), theta/8, the eigenvalue agrees with a float64 ARPACK
    # shift-invert solve of the free-node pencil to 1e-9 relative
    cone = ConeModel(3, 1, 1.0)
    mesh = make_mesh(omega_min=cone.theta / 8, nn=100)
    op = flat_cone_problem(mesh, 1.0, 1.0, 1.0).linear_operator
    mass = op.volume_mass + (op.boundary_mass if variant == "volume-plus-boundary" else 0.0)
    lam, vec = principal_eigen(op, variant)
    ref = scipy.sparse.linalg.eigsh(op.free_matrix.tocsc(), k=1, M=sp.diags(mass[op.free]).tocsc(),
                                    sigma=0.0, which="LM", return_eigenvectors=False)[0]
    assert abs(lam - ref) <= 1e-9 * abs(ref)
    assert np.all(vec.values[mesh.free_mask] > 0)


@pytest.mark.parametrize("shape", [
    lambda mesh: 1.0 + 0.01 * np.cos(np.pi * (mesh.rho - 0.5) / 1.5) * np.cos(mesh.omega),
    lambda mesh: 1.0 + 0.1 * mesh.rho ** 2,
], ids=["cosine", "rho squared"])
def test_principal_eigen_on_a_tightly_shifted_negative_potential(shape):
    # a negative c built so that A phi = -10 B phi for a phi > 0 near the
    # constants: phi is the ground state and -10 the eigenvalue.  c cancels
    # the Dirichlet coupling, so the Gershgorin bound lies near the
    # eigenvalue (-10.1 and -22.0) and A + mu B is nearly singular: its
    # condition number at 64^2 is 1.1e6 and 8e4 (the flat cone's is
    # 2.8e4), and the float32 factor still yields the eigenpair, here
    # checked against the construction and against a float64 ARPACK
    # shift-invert solve
    mesh = make_mesh(nn=64)
    free = mesh.free_mask
    op0 = assemble(mesh)
    vm = op0.volume_mass[free]
    phi = shape(mesh)[free]
    c = np.zeros(mesh.n_nodes)
    c[free] = (-10.0 * vm * phi - op0.free_matrix @ phi) / (vm * phi)
    assert np.max(c) <= 0.0
    with pytest.warns(MMatrixWarning):
        op = assemble(mesh, Field(mesh, c))
    lam, vec = principal_eigen(op, "volume")
    ref = scipy.sparse.linalg.eigsh(op.free_matrix.tocsc(), k=1, M=sp.diags(vm).tocsc(),
                                    sigma=-11.0, which="LM", return_eigenvectors=False)[0]
    assert abs(lam + 10.0) <= 1e-9 * 10.0
    assert abs(lam - ref) <= 1e-9 * abs(ref)
    assert np.max(np.abs(vec.values[free] - phi / np.max(phi))) <= 1e-4


def test_principal_eigen_refuses_an_unknown_variant():
    with pytest.raises(ValueError, match="unknown eigenvalue denominator variant 'boundary'"):
        principal_eigen(assemble(make_mesh(nn=8)), "boundary")


def test_principal_eigen_positive_for_zero_potentials():
    mesh = make_mesh(nn=10)
    op = assemble(mesh)
    lam, vec = principal_eigen(op, "volume")
    assert lam > 0.0
    assert np.all(vec.values[mesh.free_mask] > 0)


def test_principal_eigen_stops_at_its_iteration_limit(monkeypatch):
    # one sweep cannot see the quotient settle
    monkeypatch.setattr(elliptic, "EIGEN_MAX_ITER", 1)
    with pytest.raises(NonConvergenceError, match="did not settle in 1 iterations"):
        principal_eigen(assemble(make_mesh(nn=8)), "volume")


def test_principal_eigen_refuses_a_sign_changing_ground_state(monkeypatch):
    # a factor whose solve makes the step w = v - M^-1 r land on the same
    # vector of both signs every sweep, from the start v = 1: the quotient
    # settles at once, and the candidate's negative component is refused
    class SignChangingSolve:
        v = None

        def solve(self, b):
            w = np.ones_like(b)
            w[0] = -0.5
            v = np.ones_like(b) if self.v is None else self.v
            self.v = w
            return v - w

    monkeypatch.setattr(elliptic, "_factor_spd",
                        lambda op, diag=None, dtype=np.float64: SignChangingSolve())
    with pytest.raises(NegativeEigenvectorError, match="negative component -5.000e-01"):
        principal_eigen(assemble(make_mesh(nn=8)), "volume")


def test_principal_eigen_shift_by_constant():
    mesh = make_mesh(nn=10)
    lam0, _ = principal_eigen(assemble(mesh), "volume")
    K = lam0 + 5.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MMatrixWarning)
        lamK, _ = principal_eigen(assemble(mesh, Field.full(mesh, -K)), "volume")
    assert lamK == pytest.approx(lam0 - K, abs=1e-9)
    assert lamK < 0.0


def test_rayleigh_quotient_of_eigenvector_is_variational_minimum():
    mesh = make_mesh(nn=10)
    c = Field(mesh, RNG.uniform(0.0, 1.0, mesh.n_nodes))
    op = assemble(mesh, c)
    lam, vec = principal_eigen(op, "volume")
    assert rayleigh_quotient(op, vec) >= lam - 1e-10
    assert rayleigh_quotient(op, vec) == pytest.approx(lam, abs=1e-8)
    # any admissible competitor sits above the eigenvalue
    assert rayleigh_quotient(op, admissible_bump(mesh)) >= lam - 1e-10
