"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS line on success (run with -s to see them all);
a failed assertion marks the criterion FAIL.  Tolerances are pinned here,
nothing is deferred to later calibration.
"""

import math
import time
import warnings

import numpy as np
import pytest
import scipy.linalg

from coneyamabe import (
    ConeModel,
    Field,
    MMatrixWarning,
    ReducedDomain,
    Verdict,
    assemble,
    barrier_psi_fit,
    build_mesh,
    conformal_rho2_curvatures,
    dichotomy_verdict,
    euclidean_boundary_mean_curvature,
    exact_model_solution,
    flat_cone_problem,
    maximal_solution,
    model_boundary_mean_curvature,
    model_problem,
    monotone_iterate,
    newton_solve,
    pick_cap,
    principal_eigen,
    product_scalar_curvature,
    truncation_family,
    vertex_asymptotics,
)
from coneyamabe.elliptic import _eigen_matrices

RNG = np.random.default_rng(90125)

# twenty (n, d, h) cases spanning both curvature signs and the threshold
PARAMETER_TABLE = [
    (3, 1, 1.0), (3, 2, 1.0), (3, 1, 0.5), (3, 2, 2.0),
    (4, 1, 1.0), (4, 2, 1.0), (4, 3, 1.0), (4, 2, 0.7),
    (5, 1, 1.0), (5, 2, 1.5), (5, 3, 1.0), (5, 4, 0.3),
    (6, 1, 2.0), (6, 2, 1.0), (6, 3, 0.8), (6, 4, 1.0),
    (6, 5, 1.2), (7, 3, 1.0), (7, 5, 2.0), (8, 4, 0.9),
]


def _report(num, text):
    print(f"\nACCEPTANCE {num}: PASS - {text}")


def test_acceptance_1_curvature_formula_suite():
    t0 = time.monotonic()
    for n, d, h in PARAMETER_TABLE:
        cone = ConeModel(n, d, h)
        root = math.sqrt(1.0 + h * h)
        assert abs(product_scalar_curvature(n, d) - (n - 1) * (n - 2 - 2 * d)) <= 1e-12
        assert abs(model_boundary_mean_curvature(d, h) - (-d * h / root)) <= 1e-12
        assert abs(model_boundary_mean_curvature(d, h) + d * math.cos(cone.theta)) <= 1e-12
        for t in (0.25, 1.0, 3.0):
            expected = (n - d - 1) * h / (root * t)
            assert abs(euclidean_boundary_mean_curvature(n, d, h, t) - expected) <= 1e-12
        va = vertex_asymptotics(cone)
        assert abs(va.grad_rho_nu - h / root) <= 1e-12
        assert abs(va.rho_H - (n - d - 1) * h / root) <= 1e-12
        assert abs(va.rho_lap_rho - (n - d - 1)) <= 1e-12
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _report(1, f"20-case curvature table exact to 1e-12 in {elapsed:.3f}s")


def test_acceptance_2_conformal_cross_check():
    worst = 0.0
    for n, d, h in PARAMETER_TABLE:
        cone = ConeModel(n, d, h)
        va = vertex_asymptotics(cone)
        rep = conformal_rho2_curvatures(cone, 0.0, va.rho_lap_rho, va.rho_H, va.grad_rho_nu)
        dr = abs(rep.scalar - product_scalar_curvature(n, d))
        dh = abs(rep.mean - model_boundary_mean_curvature(d, h))
        worst = max(worst, dr, dh)
        assert dr <= 1e-12 and dh <= 1e-12
    _report(2, f"conformal rescaling reproduces (R, H) on the table, worst dev {worst:.2e}")


def test_acceptance_3_exact_solution_convergence():
    cone = ConeModel(3, 1, 1.0)
    dom = ReducedDomain(cone, 0.5, 2.0, 0.15)
    errors = []
    times = []
    for size in (32, 64, 128):
        mesh = build_mesh(dom, size, size, 2.0)
        prob = model_problem(mesh)
        t0 = time.monotonic()
        rep = newton_solve(prob)
        times.append(time.monotonic() - t0)
        exact = mesh.rho ** (-cone.blowup_exponent)
        errors.append(float(np.max(np.abs(rep.solution.values - exact))))
    orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    assert all(1.7 <= o <= 2.3 for o in orders)
    assert times[-1] < 60.0
    _report(3, f"errors {['%.3e' % e for e in errors]}, orders "
               f"{['%.3f' % o for o in orders]}, 128^2 in {times[-1]:.1f}s")


def test_acceptance_4_dichotomy_at_desk_scale():
    t0 = time.monotonic()

    def sweep(n, d):
        cone = ConeModel(n, d, 1.0)
        dom = ReducedDomain(cone, 0.5, 2.0, cone.theta / 8)
        base = build_mesh(dom, 40, 32, 2.0)
        meshes = truncation_family(base, 22, nodes_per_octave=10)
        problems = [flat_cone_problem(m, 1.0, 1.0, 1.0) for m in meshes]
        return maximal_solution(
            problems, data_sequence=[2.0**k for k in range(17)], tol=0.03
        )

    l31 = sweep(3, 1)
    r31 = l31[-1]
    assert abs(r31.fitted_exponent - 0.5) <= 0.05
    assert r31.completeness_indicator > 0
    assert dichotomy_verdict(l31) == Verdict.COMPLETE_TYPE

    l42 = sweep(4, 2)
    r42 = l42[-1]
    assert abs(r42.fitted_exponent - 1.0) <= 0.1
    assert r42.completeness_indicator > 0
    assert dichotomy_verdict(l42) == Verdict.COMPLETE_TYPE

    l41 = sweep(4, 1)
    r41 = l41[-1]
    assert r41.near_gamma_variation < 0.05
    assert r41.fitted_exponent <= 0.1
    assert dichotomy_verdict(l41) == Verdict.BOUNDED_TYPE

    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    _report(4, f"alpha(3,1)={r31.fitted_exponent:.3f}, alpha(4,2)={r42.fitted_exponent:.3f}, "
               f"alpha(4,1)={r41.fitted_exponent:.3f}, near-sup var {r41.near_gamma_variation:.4f}, "
               f"sweep {elapsed:.0f}s")


def test_acceptance_5_monotone_iteration_properties():
    # ordering is enforced inside monotone_iterate at 1e-12 * max(1, S) every
    # iteration (violations raise); final brackets and residuals re-checked here
    cases = []
    for n, d, nn, omega_factor in [(3, 1, 12, 0.3), (3, 1, 16, 0.35), (4, 2, 12, 0.3),
                                   (5, 3, 10, 0.3)]:
        cone = ConeModel(n, d, 1.0)
        dom = ReducedDomain(cone, 0.5, 2.0, omega_factor * cone.theta)
        mesh = build_mesh(dom, nn, nn, 2.0)
        cases.append(model_problem(mesh))
    # a linear problem exercises the degenerate cap
    cone = ConeModel(3, 1, 1.0)
    mesh = build_mesh(ReducedDomain(cone, 0.5, 2.0, 0.3 * cone.theta), 12, 12, 2.0)
    lin = flat_cone_problem(mesh, 0.0, 0.0, 1.5)
    cases.append(lin)

    tol = 1e-9
    for prob in cases:
        S = pick_cap(prob)
        rep, bracket = monotone_iterate(
            prob, Field.zeros(prob.mesh), S, tol=tol, max_iter=3000
        )
        otol = 1e-12 * max(1.0, S)
        assert np.max(bracket.sub.values - bracket.super.values) <= otol
        assert np.min(bracket.sub.values) >= -otol
        assert np.max(bracket.super.values) <= S + otol
        assert rep.residual_sup <= 10.0 * tol * (1.0 + S ** prob.p_interior)
    _report(5, f"{len(cases)} bracketed runs: ordering to 1e-12*(1+S) every iteration, "
               "residuals within 10*tol*(1+S^p)")


def test_acceptance_6_comparison_principle_suite():
    cone = ConeModel(3, 1, 1.0)
    mesh = build_mesh(ReducedDomain(cone, 0.5, 2.0, 0.3 * cone.theta), 10, 10, 2.0)
    mesh4 = build_mesh(ReducedDomain(ConeModel(4, 2, 1.0), 0.5, 2.0, 0.25), 10, 10, 2.0)
    violations = 0
    for trial in range(50):
        m = mesh if trial % 2 == 0 else mesh4
        c0a = RNG.uniform(0.2, 2.0)
        c1a = RNG.uniform(0.2, 2.0)
        da = RNG.uniform(0.2, 3.0)
        # ordered the adverse way: bigger coefficients, smaller data
        c0b = c0a * RNG.uniform(1.0, 4.0)
        c1b = c1a * RNG.uniform(1.0, 4.0)
        db = da * RNG.uniform(0.2, 1.0)
        ua = newton_solve(flat_cone_problem(m, c0a, c1a, da)).solution.values
        ub = newton_solve(flat_cone_problem(m, c0b, c1b, db)).solution.values
        if np.min(ua - ub) < -1e-9 * (1.0 + float(np.max(ua))):
            violations += 1
    assert violations == 0
    _report(6, "50 randomized coefficient/data orderings: zero violations")


def test_acceptance_7_eigenvalue_correctness():
    cone = ConeModel(3, 1, 1.0)
    mesh = build_mesh(ReducedDomain(cone, 0.5, 2.0, 0.2), 8, 8, 2.0)
    c = Field(mesh, RNG.uniform(-0.5, 1.0, mesh.n_nodes))
    c2 = Field(mesh, RNG.uniform(0.0, 1.0, mesh.n_nodes))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MMatrixWarning)
        op = assemble(mesh, c, c2)
    worst = 0.0
    for variant in ("volume", "volume-plus-boundary"):
        lam, vec = principal_eigen(op, variant)
        A, bdiag = _eigen_matrices(op, variant)
        dense = scipy.linalg.eigh(A.toarray(), np.diag(bdiag), eigvals_only=True)
        worst = max(worst, abs(lam - dense[0]))
        assert abs(lam - dense[0]) <= 1e-8
        assert np.all(vec.values[mesh.free_mask] > 0)

    # c = 0 with nonnegative boundary potential: nonnegative ground level
    prob = flat_cone_problem(mesh, 1.0, 1.0, 1.0)
    op0 = assemble(mesh, prob.c, prob.c2_lin)
    lam0, vec0 = principal_eigen(op0, "volume")
    assert lam0 >= -1e-10
    assert np.all(vec0.values[mesh.free_mask] > 0)
    _report(7, f"dense-oracle agreement {worst:.2e} <= 1e-8; "
               f"nonneg-potential eigenvalue {lam0:.4f} >= -1e-10; ground states positive")


def test_acceptance_8_barrier_feasibility():
    checked = 0
    for n in (3, 4, 5, 6):
        for d in range(1, n):
            cone = ConeModel(n, d, 1.0)
            mesh = build_mesh(ReducedDomain(cone, 0.5, 2.0, 0.2 * cone.theta), 8, 8, 2.0)
            prob = flat_cone_problem(mesh, 1.0, 1.0, 1.0)
            fit = barrier_psi_fit(prob)
            supercritical = d > (n - 2) / 2
            assert fit.feasible == supercritical
            # the interior sign: (n-d-1) - n/2 < 0 exactly when d > (n-2)/2
            assert ((n - d - 1) - n / 2.0 < 0) == supercritical
            if supercritical:
                assert fit.C_star > 0 and fit.C1_margin > 0
            else:
                assert fit.C_star == 0.0
            checked += 1
    _report(8, f"barrier margins feasible exactly when d > (n-2)/2 over {checked} cases")
