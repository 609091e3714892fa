"""Closed-form curvature formulas against independent oracles.

The expected values come from two sources: the published product-model /
cone-boundary formulas for fixed small (n, d, h), and a symbolic-by-hand
differentiation oracle for the power solution (validated against high-order
finite differences in ambient coordinates before being trusted at tight
tolerance).
"""

import math

import numpy as np
import pytest

from coneyamabe import (
    ConeModel,
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

RNG = np.random.default_rng(20240817)


# ---------------------------------------------------------------------------
# independent oracle: ambient-coordinate derivatives of radial powers
# ---------------------------------------------------------------------------


def ambient_lap_fd(func, x, h=1e-3):
    """High-order central finite-difference Laplacian in R^len(x)."""
    x = np.asarray(x, dtype=float)
    total = 0.0
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = 1.0
        f = lambda t: func(x + t * e)
        # fourth-order second-derivative stencil
        total += (-f(2 * h) + 16 * f(h) - 30 * f(0.0) + 16 * f(-h) - f(-2 * h)) / (12 * h * h)
    return total


def lap_radial_power(n, d, alpha, rho):
    """Transverse-radial Laplacian: Lap rho^a = a (a + n - d - 2) rho^(a-2)."""
    return alpha * (alpha + n - d - 2) * rho ** (alpha - 2)


def test_radial_power_laplacian_formula_vs_finite_differences():
    # validate the analytic Laplacian identity before trusting it at 1e-10 below
    for n, d, alpha in [(3, 1, -0.5), (4, 2, -1.0), (5, 2, 0.7), (6, 3, -2.0)]:
        x = RNG.uniform(0.5, 1.5, size=n)
        x[:d] = RNG.uniform(0.5, 1.5, size=d)

        def u(y):
            return np.sqrt(np.sum(y[d:] ** 2)) ** alpha

        rho = math.sqrt(np.sum(x[d:] ** 2))
        exact = lap_radial_power(n, d, alpha, rho)
        approx = ambient_lap_fd(u, x)
        assert abs(approx - exact) < 1e-5 * max(1.0, abs(exact))


# ---------------------------------------------------------------------------
# published values
# ---------------------------------------------------------------------------


def test_product_scalar_curvature_values():
    assert product_scalar_curvature(ConeModel(3, 1, 1.0)) == -2.0
    assert product_scalar_curvature(ConeModel(4, 1, 1.0)) == 0.0
    assert product_scalar_curvature(ConeModel(6, 1, 1.0)) == 10.0
    assert product_scalar_curvature(ConeModel(4, 2, 1.0)) == -6.0


def test_product_scalar_curvature_sign_rule():
    for n in range(3, 9):
        for d in range(1, n):
            val = product_scalar_curvature(ConeModel(n, d, 1.0))
            assert np.sign(val) == np.sign(n - 2 - 2 * d)


def test_model_mean_curvature_values():
    assert model_boundary_mean_curvature(ConeModel(3, 1, 1.0)) == pytest.approx(-0.7071067811865476, abs=1e-15)
    assert model_boundary_mean_curvature(ConeModel(3, 2, math.sqrt(3.0))) == pytest.approx(-math.sqrt(3.0), abs=1e-14)
    # orthogonal-intersection limit
    assert abs(model_boundary_mean_curvature(ConeModel(4, 3, 1e-9))) < 1e-8


def test_model_mean_curvature_equals_minus_d_cos_theta():
    for d in range(1, 5):
        for h in (0.1, 0.5, 1.0, 2.0, 7.3):
            cone = ConeModel(d + 2, d, h)
            got = model_boundary_mean_curvature(cone)
            assert got == pytest.approx(-d * math.cos(cone.theta), abs=1e-14)
            assert got <= 0.0


def test_euclidean_mean_curvature_values():
    cone = ConeModel(4, 2, 1.0)
    assert euclidean_boundary_mean_curvature(cone, 1.0) == pytest.approx(1 / math.sqrt(2), abs=1e-15)
    assert euclidean_boundary_mean_curvature(cone, 0.5) == pytest.approx(math.sqrt(2), abs=1e-15)
    # codimension-one singular set: flat boundary pieces
    assert euclidean_boundary_mean_curvature(ConeModel(5, 4, 2.0), 0.3) == 0.0


def test_euclidean_mean_curvature_one_over_t_scaling():
    cone = ConeModel(5, 2, 1.5)
    base = euclidean_boundary_mean_curvature(cone, 1.0)
    for t in (0.1, 0.25, 2.0, 8.0):
        assert euclidean_boundary_mean_curvature(cone, t) == pytest.approx(base / t, rel=1e-14)
    for t in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="t > 0"):
            euclidean_boundary_mean_curvature(cone, t)


def test_vertex_asymptotics_values():
    va = vertex_asymptotics(ConeModel(4, 2, 1.0))
    assert va.grad_rho_nu == pytest.approx(0.7071067811865476, abs=1e-15)
    assert va.rho_H == pytest.approx(0.7071067811865476, abs=1e-15)
    assert va.rho_lap_rho == 1.0

    va = vertex_asymptotics(ConeModel(3, 2, 1.0))
    assert va.rho_H == 0.0
    assert va.rho_lap_rho == 0.0

    va = vertex_asymptotics(ConeModel(5, 2, 2.0))
    assert va.grad_rho_nu == pytest.approx(2 / math.sqrt(5), abs=1e-15)
    assert va.rho_H == pytest.approx(4 / math.sqrt(5), abs=1e-15)
    assert va.rho_lap_rho == 2.0
    assert 0.0 < va.grad_rho_nu < 1.0


# ---------------------------------------------------------------------------
# conformal transformation laws
# ---------------------------------------------------------------------------


def test_conformal_rho2_reproduces_model_curvatures():
    # the rho^(-2) rescaling of the flat cone must reproduce the product
    # scalar curvature and the model mean curvature exactly
    for n in range(3, 8):
        for d in range(1, n):
            for h in (0.3, 1.0, 2.5):
                cone = ConeModel(n, d, h)
                va = vertex_asymptotics(cone)
                rep = conformal_rho2_curvatures(cone, 0.0, va.rho_lap_rho, va.rho_H, va.grad_rho_nu)
                assert rep.scalar == pytest.approx(product_scalar_curvature(cone), abs=1e-12)
                assert rep.mean == pytest.approx(model_boundary_mean_curvature(cone), abs=1e-12)


def test_conformal_rho2_explicit_cases():
    cone = ConeModel(4, 2, 1.0)
    va = vertex_asymptotics(cone)
    rep = conformal_rho2_curvatures(cone, 0.0, va.rho_lap_rho, va.rho_H, va.grad_rho_nu)
    assert rep.scalar == pytest.approx(-6.0, abs=1e-12)
    assert rep.mean == pytest.approx(-math.sqrt(2), abs=1e-12)

    # both expressions vanish identically for these inputs
    rep0 = conformal_rho2_curvatures(cone, 0.0, cone.n / 2.0, 0.0, 0.0)
    assert rep0.scalar == 0.0 and rep0.mean == 0.0

    cone31 = ConeModel(3, 1, 1.0)
    va = vertex_asymptotics(cone31)
    rep = conformal_rho2_curvatures(cone31, 0.0, va.rho_lap_rho, va.rho_H, va.grad_rho_nu)
    assert rep.scalar == pytest.approx(-2.0, abs=1e-12)
    assert rep.mean == pytest.approx(-0.7071067811865476, abs=1e-12)


def test_conformal_u_identity_factor():
    for R, H in [(0.0, 0.0), (-2.0, -0.7), (10.0, 3.0), (-6.0, 1.4142)]:
        rep = conformal_u_curvatures(ConeModel(5, 2, 1.0), 1.0, 0.0, 0.0, R, H)
        assert rep.scalar == pytest.approx(R, abs=1e-14)
        assert rep.mean == pytest.approx(H, abs=1e-14)


def _power_solution_point(cone, rho):
    """u = rho^(-(n-2)/2) with its exact Laplacian and normal derivative on the face."""
    n, d, h = cone.n, cone.d, cone.h
    m = (n - 2) / 2.0
    u = rho**-m
    lap = lap_radial_power(n, d, -m, rho)
    du_dnu = -m * rho ** (-m - 1) * h / math.sqrt(1 + h * h)
    H_euc = euclidean_boundary_mean_curvature(cone, rho)
    return u, lap, du_dnu, H_euc


def test_conformal_u_recovers_model_curvatures_from_power_solution():
    # evaluating the u-conformal laws on u_* must reproduce the product
    # scalar curvature and the model mean curvature at any boundary point
    for n, d, h, rho in [(3, 1, 1.0, 1.0), (4, 2, 1.0, 2.0), (5, 3, 0.7, 0.6), (6, 4, 2.0, 1.7)]:
        cone = ConeModel(n, d, h)
        u, lap, du_dnu, H_euc = _power_solution_point(cone, rho)
        rep = conformal_u_curvatures(cone, u, lap, du_dnu, 0.0, H_euc)
        assert rep.scalar == pytest.approx(product_scalar_curvature(cone), rel=1e-12)
        assert rep.mean == pytest.approx(model_boundary_mean_curvature(cone), rel=1e-12)


def test_conformal_u_reference_points():
    cone = ConeModel(3, 1, 1.0)
    u, lap, du_dnu, H_euc = _power_solution_point(cone, 1.0)
    assert (u, lap) == (1.0, 0.25)
    rep = conformal_u_curvatures(cone, u, lap, du_dnu, 0.0, H_euc)
    assert rep.scalar == pytest.approx(-2.0, abs=1e-12)
    assert rep.mean == pytest.approx(-0.7071067811865476, abs=1e-12)

    # interior-only check at rho = 2 for n = 4: scalar of the rescaled metric
    u424 = 0.5  # rho^(-1) at rho = 2
    lap = lap_radial_power(4, 2, -1.0, 2.0)
    cone42 = ConeModel(4, 2, 1.0)
    rep = conformal_u_curvatures(cone42, u424, lap, 0.0, 0.0, 0.0)
    assert rep.scalar == pytest.approx(-6.0, rel=1e-12)

    with pytest.raises(ValueError):
        conformal_u_curvatures(cone42, 0.0, 0.0, 0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# exact power solution
# ---------------------------------------------------------------------------


def test_exact_model_solution_values():
    cone = ConeModel(3, 1, 1.0)
    sol = exact_model_solution(cone)
    assert cone.blowup_exponent == 0.5
    assert sol.c0_star == pytest.approx(0.25, abs=1e-15)
    assert sol.c1_star == pytest.approx(1.0 / (4.0 * math.sqrt(2)), abs=1e-15)
    assert cone.complete_regime

    cone = ConeModel(4, 1, 1.0)
    sol = exact_model_solution(cone)
    assert cone.blowup_exponent == 1.0
    assert sol.c0_star == 0.0
    assert not cone.complete_regime

    # formulas (n-2)(2d+2-n)/4 and d(n-2)h/(2(n-1)sqrt(1+h^2)) at n=4, d=2, h=1
    cone = ConeModel(4, 2, 1.0)
    sol = exact_model_solution(cone)
    assert cone.blowup_exponent == 1.0
    assert sol.c0_star == pytest.approx(1.0, abs=1e-15)
    assert sol.c1_star == pytest.approx(4.0 / (6.0 * math.sqrt(2)), abs=1e-15)


def test_exact_model_solution_complete_iff_supercritical_dimension():
    for n in range(3, 8):
        for d in range(1, n):
            cone = ConeModel(n, d, 1.3)
            sol = exact_model_solution(cone)
            assert cone.complete_regime == (d > (n - 2) / 2) == (sol.c0_star > 0.0)
            assert sol.c1_star > 0.0


def test_power_solution_satisfies_both_equations_at_random_points():
    # residual of the two-line system at 100 random cone points, via the
    # validated analytic derivative formulas
    for n, d, h in [(3, 1, 1.0), (4, 2, 1.0), (5, 2, 0.6), (6, 4, 1.7)]:
        cone = ConeModel(n, d, h)
        sol = exact_model_solution(cone)
        m = cone.blowup_exponent
        p = (n + 2.0) / (n - 2.0)
        q = n / (n - 2.0)
        rhos = RNG.uniform(0.05, 10.0, size=100)
        for rho in rhos:
            u = rho**-m
            lap = lap_radial_power(n, d, -m, rho)
            interior = -lap + sol.c0_star * u**p
            assert abs(interior) < 1e-10 * max(1.0, rho ** (-(n + 2) / 2))
            du_dnu = -m * rho ** (-m - 1) * h / math.sqrt(1 + h * h)
            H_term = (n - 2) / (2.0 * (n - 1)) * euclidean_boundary_mean_curvature(cone, rho) * u
            boundary = du_dnu + H_term + sol.c1_star * u**q
            assert abs(boundary) < 1e-10 * max(1.0, rho ** (-n / 2))


def test_blowup_amplitude_closed_form_and_threshold():
    # K = (a (d-a) / c0)^(1/(p-1)), a = (n-2)/2, p = (n+2)/(n-2): 2^(-1/2)
    # for (3,1) and 1 for (4,2) at c0 = 1, independent of the slope h; zero
    # at and below the threshold d = (n-2)/2
    for h in (0.5, 1.0, 2.0):
        assert ConeModel(3, 1, h).blowup_amplitude(1.0) == pytest.approx(2**-0.5, rel=1e-15)
        assert ConeModel(4, 2, h).blowup_amplitude(1.0) == pytest.approx(1.0, rel=1e-15)
    assert ConeModel(4, 2, 1.0).blowup_amplitude(4.0) == pytest.approx(0.5, rel=1e-15)
    for n, d, c0 in [(3, 2, 0.3), (5, 2, 2.0), (6, 3, 1.0), (7, 4, 0.7)]:
        a, p = 0.5 * (n - 2), (n + 2.0) / (n - 2.0)
        K = (a * (d - a) / c0) ** (1.0 / (p - 1.0))
        assert ConeModel(n, d, 1.0).blowup_amplitude(c0) == pytest.approx(K, rel=1e-14)
    for n, d in [(4, 1), (5, 1), (6, 2), (8, 3)]:
        assert d <= 0.5 * (n - 2)
        assert ConeModel(n, d, 1.0).blowup_amplitude(1.0) == 0.0
    for c0 in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="c0"):
            ConeModel(3, 1, 1.0).blowup_amplitude(c0)


# ---------------------------------------------------------------------------
# converters and helpers
# ---------------------------------------------------------------------------


def test_target_curvature_converters():
    # converting the power solution's own curvatures back must recover (c0*, c1*)
    for n, d, h in [(3, 1, 1.0), (5, 3, 0.8), (6, 4, 2.0)]:
        cone = ConeModel(n, d, h)
        sol = exact_model_solution(cone)
        R = -4.0 * (n - 1) / (n - 2) * sol.c0_star
        H = -2.0 * (n - 1) / (n - 2) * sol.c1_star
        assert target_R_to_c0(cone, R) == pytest.approx(sol.c0_star, rel=1e-14)
        assert target_H_to_c1(cone, H) == pytest.approx(sol.c1_star, rel=1e-14)


def test_euclidean_robin_potential_matches_curvature_on_face():
    # (n-2)/(2(n-1)) H_euclid with sqrt(1+h^2) rho = rho_polar on the face
    for n, d, h in [(3, 1, 1.0), (5, 2, 0.5), (6, 3, 2.0)]:
        cone = ConeModel(n, d, h)
        for rho_polar in (0.5, 1.0, 3.7):
            rho = rho_polar * math.sin(cone.theta)
            expected = (n - 2) / (2.0 * (n - 1)) * euclidean_boundary_mean_curvature(cone, rho)
            assert euclidean_robin_potential(cone, rho_polar) == pytest.approx(expected, rel=1e-14)


def test_cone_model_invariants():
    cone = ConeModel(4, 2, 3.0)
    assert 0.0 < cone.theta < math.pi / 2
    assert 1.0 / math.tan(cone.theta) == pytest.approx(cone.h, rel=1e-15)
    # every bad value is a ValueError: n = 2, d = 0, d = -1, d = n, h <= 0 and
    # non-integer or non-finite dimensions
    for bad in [(2, 1, 1.0), (4, 0, 1.0), (4, -1, 1.0), (4, 4, 1.0), (4, 2, 0.0), (4, 2, -1.0),
                (3.5, 1, 1.0), (4, 1.5, 1.0), (math.inf, 1, 1.0), (4, math.inf, 1.0),
                (math.nan, 1, 1.0), (4, math.nan, 1.0), ("4", 2, 1.0), (4, 2, math.inf), (4, 2, math.nan)]:
        with pytest.raises(ValueError):
            ConeModel(*bad)
    with pytest.raises(ValueError, match="n must be an integer"):
        ConeModel(3.5, 1, 1.0)
    assert ConeModel(4.0, 2.0, 1).n == 4 and isinstance(ConeModel(4.0, 2.0, 1).d, int)
