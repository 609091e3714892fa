"""Closed-form geometry of the generalized solid cone.

The model domain is the solid cone  x1 >= h * |(x_{d+1}, ..., x_n)|  in R^n
with the d-dimensional singular half-plane
Gamma = {x1 >= 0, x_{d+1} = ... = x_n = 0} removed.  The boundary cone meets
Gamma at the angle theta with h = cot(theta), and rho denotes Euclidean
distance to Gamma.

Everything in this module is an exact algebraic expression in (n, d, h):
the product-model scalar curvature (n-1)(n-2-2d), the model boundary mean
curvature -d*h/sqrt(1+h^2), the Euclidean cone curvature
(n-d-1)*h/(sqrt(1+h^2)*t) that blows up at the singular set, the vertex
limits of (grad rho . nu, rho*H, rho*Laplacian(rho)), the conformal
transformation laws for metrics rho^(-2) g and u^(4/(n-2)) g, and the exact
power solution u_*(rho) = rho^(-(n-2)/2) with its coefficient pair
(c0_*, c1_*).  These serve as the formula oracle for the mesh, operator and
solver modules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "ConeModel",
    "CurvatureReport",
    "VertexAsymptotics",
    "ModelSolution",
    "product_scalar_curvature",
    "model_boundary_mean_curvature",
    "euclidean_boundary_mean_curvature",
    "vertex_asymptotics",
    "conformal_rho2_curvatures",
    "conformal_u_curvatures",
    "exact_model_solution",
    "target_R_to_c0",
    "target_H_to_c1",
    "euclidean_robin_potential",
]


def _as_int(value, name):
    iv = int(value)
    if iv != value:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return iv


@dataclass(frozen=True)
class ConeModel:
    """Parameters (n, d, h) of the solid cone; theta is derived from h.

    n : ambient dimension, n >= 3
    d : dimension of the singular set, 1 <= d <= n-1
    h : cone slope, h > 0 (h = cot(theta))
    """

    n: int
    d: int
    h: float

    def __post_init__(self):
        n = _as_int(self.n, "n")
        d = _as_int(self.d, "d")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "h", float(self.h))
        if n < 3:
            raise ValueError(f"ambient dimension must satisfy n >= 3, got {n}")
        if not 1 <= d <= n - 1:
            raise ValueError(f"singular-set dimension must satisfy 1 <= d <= n-1, got d={d}, n={n}")
        if not (self.h > 0.0 and math.isfinite(self.h)):
            raise ValueError(f"cone slope must be finite and positive, got {self.h}")

    @property
    def theta(self) -> float:
        """Intersection angle in (0, pi/2); h = cot(theta) to machine precision."""
        return math.atan2(1.0, self.h)

    @property
    def blowup_exponent(self) -> float:
        """(n-2)/2, the rate of the complete conformal factor near the singular set."""
        return 0.5 * (self.n - 2)

    def blowup_amplitude(self, c0) -> float:
        """K = (a (d-a) / c0)^(1/(p-1)), a = (n-2)/2, p = (n+2)/(n-2).

        Near the singular set the complete solution behaves like K rho^(-a),
        whatever the slope h and the boundary coefficient c1.  K is 0.0 when
        d <= a, where no complete solution exists.  c0 must be positive and
        finite, else ValueError.
        """
        c0 = float(c0)
        if not (c0 > 0.0 and math.isfinite(c0)):
            raise ValueError(f"c0 must be finite and positive, got {c0}")
        a = self.blowup_exponent
        if self.d <= a:
            return 0.0
        return (a * (self.d - a) / c0) ** (0.5 * a)  # 1/(p-1) = (n-2)/4 = a/2


@dataclass(frozen=True)
class CurvatureReport:
    """Scalar curvature and boundary mean curvature of a metric."""

    scalar: float
    mean: float


@dataclass(frozen=True)
class VertexAsymptotics:
    """Limits along the boundary as the vertex is approached.

    grad_rho_nu  : limit of g(grad rho, nu), in (0, 1)
    rho_H        : limit of rho * H
    rho_lap_rho  : limit of rho * Laplacian(rho); equals n-d-1 exactly
                   on the flat model
    """

    grad_rho_nu: float
    rho_H: float
    rho_lap_rho: float


@dataclass(frozen=True)
class ModelSolution:
    """The exact power solution u_*(rho) = rho^(-exponent) on the flat cone.

    complete_regime is True exactly when c0_star > 0, i.e. d > (n-2)/2;
    otherwise u_* fails to define a complete conformal metric and the flag
    marks the no-complete-solution regime (not an error).
    """

    exponent: float
    c0_star: float
    c1_star: float
    complete_regime: bool


def product_scalar_curvature(n, d) -> float:
    """Scalar curvature (n-1)(n-2-2d) of the product model H^{d+1} x S^{n-d-1}.

    Its sign is the sign of n-2-2d, i.e. positive for d < (n-2)/2 and
    negative for d > (n-2)/2.
    """
    n = _as_int(n, "n")
    d = _as_int(d, "d")
    if n < 3:
        raise ValueError(f"n >= 3 required, got {n}")
    if not 0 <= d <= n - 1:
        raise ValueError(f"0 <= d <= n-1 required, got d={d}, n={n}")
    return float((n - 1) * (n - 2 - 2 * d))


def model_boundary_mean_curvature(d, h) -> float:
    """Mean curvature -d*h/sqrt(1+h^2) = -d*cos(theta) of the model boundary.

    Computed with respect to the rho^(-2)-scaled metric on the cone; always
    nonpositive, vanishing only in the orthogonal-intersection limit h -> 0.
    """
    d = _as_int(d, "d")
    if d < 1:
        raise ValueError(f"d >= 1 required, got {d}")
    h = float(h)
    if not (h > 0.0 and math.isfinite(h)):
        raise ValueError(f"h > 0 required, got {h}")
    return -d * h / math.sqrt(1.0 + h * h)


def euclidean_boundary_mean_curvature(n, d, h, t) -> float:
    """Euclidean mean curvature (n-d-1)*h / (sqrt(1+h^2) * t) of the cone face.

    t > 0 parametrizes the boundary ray (t equals the distance rho to the
    singular set at that boundary point); the curvature diverges like 1/t,
    except in the codimension-one case d = n-1 where it vanishes identically.
    """
    n = _as_int(n, "n")
    d = _as_int(d, "d")
    if n < 3 or not 1 <= d <= n - 1:
        raise ValueError(f"need n >= 3 and 1 <= d <= n-1, got n={n}, d={d}")
    h = float(h)
    t = float(t)
    if not (h > 0.0 and math.isfinite(h)):
        raise ValueError(f"h > 0 required, got {h}")
    if not (t > 0.0 and math.isfinite(t)):
        raise ValueError(f"t > 0 required, got {t}")
    return (n - d - 1) * h / (math.sqrt(1.0 + h * h) * t)


def vertex_asymptotics(cone: ConeModel) -> VertexAsymptotics:
    """Vertex limits (g(grad rho, nu), rho*H, rho*Lap(rho)) on the flat model.

    On the flat cone these are exact identities, not merely limits:
    grad rho . nu = h/sqrt(1+h^2), rho*H = (n-d-1)*h/sqrt(1+h^2) and
    rho*Lap(rho) = n-d-1 everywhere on the boundary away from the vertex.
    """
    n, d, h = cone.n, cone.d, cone.h
    s = h / math.sqrt(1.0 + h * h)
    return VertexAsymptotics(
        grad_rho_nu=s,
        rho_H=(n - d - 1) * s,
        rho_lap_rho=float(n - d - 1),
    )


def conformal_rho2_curvatures(
    cone: ConeModel,
    rho2_R_g: float,
    rho_lap_rho: float,
    rho_H: float,
    grad_rho_nu: float,
) -> CurvatureReport:
    """Curvatures of the conformally rescaled metric rho^(-2) g.

    scalar = rho^2 R_g + 2(n-1) (rho Lap rho - n/2)
    mean   = rho H_g - (n-1) g(grad rho, nu)

    The first argument slot expects rho^2 * R_g already scaled.  Fed the
    flat-model inputs, this reproduces the product-model scalar curvature
    and the model boundary mean curvature exactly.
    """
    n = cone.n
    scalar = rho2_R_g + 2.0 * (n - 1) * (rho_lap_rho - 0.5 * n)
    mean = rho_H - (n - 1) * grad_rho_nu
    return CurvatureReport(scalar=float(scalar), mean=float(mean))


def conformal_u_curvatures(n, u, lap_u, du_dnu, R_g, H_g) -> CurvatureReport:
    """Curvatures of the conformal metric u^(4/(n-2)) g at a point.

    scalar = -(4(n-1)/(n-2)) u^(-(n+2)/(n-2)) (Lap u - (n-2)/(4(n-1)) R_g u)
    mean   = u^(-n/(n-2)) ((2(n-1)/(n-2)) du/dnu + H_g u)

    The identity conformal factor (u = 1 with vanishing derivatives) returns
    (R_g, H_g) unchanged.
    """
    n = _as_int(n, "n")
    if n < 3:
        raise ValueError(f"n >= 3 required, got {n}")
    u = float(u)
    if not (u > 0.0 and math.isfinite(u)):
        raise ValueError(f"conformal factor must be positive, got {u}")
    m = n - 2
    scalar = -(4.0 * (n - 1) / m) * u ** (-(n + 2.0) / m) * (lap_u - m / (4.0 * (n - 1)) * R_g * u)
    mean = u ** (-n / float(m)) * ((2.0 * (n - 1) / m) * du_dnu + H_g * u)
    return CurvatureReport(scalar=float(scalar), mean=float(mean))


def exact_model_solution(cone: ConeModel) -> ModelSolution:
    """Coefficients for which u_*(rho) = rho^(-(n-2)/2) solves the flat-cone problem.

    Substituting u_* into the interior equation
        -Lap u + c0 u^((n+2)/(n-2)) = 0
    with the transverse Laplacian  Lap rho^a = a (a + n - d - 2) rho^(a-2)
    forces c0_star = (n-2)(2d+2-n)/4, positive exactly when d > (n-2)/2.
    The boundary condition with the Euclidean cone curvature folded in forces
        c1_star = d (n-2) h / (2 (n-1) sqrt(1+h^2)) > 0.
    """
    n, d, h = cone.n, cone.d, cone.h
    c0 = (n - 2) * (2 * d + 2 - n) / 4.0
    c1 = d * (n - 2) * h / (2.0 * (n - 1) * math.sqrt(1.0 + h * h))
    return ModelSolution(
        exponent=0.5 * (n - 2),
        c0_star=float(c0),
        c1_star=float(c1),
        complete_regime=c0 > 0.0,
    )


def target_R_to_c0(n, R_target) -> float:
    """Interior coefficient c0 so the solved metric has scalar curvature -|R_target|."""
    n = _as_int(n, "n")
    if n < 3:
        raise ValueError(f"n >= 3 required, got {n}")
    return (n - 2) * abs(float(R_target)) / (4.0 * (n - 1))


def target_H_to_c1(n, H_target) -> float:
    """Boundary coefficient c1 so the solved metric has mean curvature -|H_target|."""
    n = _as_int(n, "n")
    if n < 3:
        raise ValueError(f"n >= 3 required, got {n}")
    return (n - 2) * abs(float(H_target)) / (2.0 * (n - 1))


def euclidean_robin_potential(cone: ConeModel, rho_polar):
    """Linear Robin potential (n-2)(n-d-1)h / (2(n-1) rho_polar) on the cone face.

    This is (n-2)/(2(n-1)) times the Euclidean cone curvature, rewritten with
    sqrt(1+h^2) * rho = rho_polar on the face so the 1/rho singularity of the
    curvature becomes a smooth 1/rho_polar profile.  Accepts scalars or
    arrays of polar radii.
    """
    n, d, h = cone.n, cone.d, cone.h
    return (n - 2) * (n - d - 1) * h / (2.0 * (n - 1) * rho_polar)
