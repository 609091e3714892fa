"""Experiment configuration: flat key = value text with [sections].

Unknown sections or keys are rejected, and every numeric range is validated
before any computation starts.  The format is INI-style, for example:

    [cone]
    n = 4
    d = 2
    h = 1.0

    [coefficients]
    c0 = 1.0
    c1 = 1.0

    [mesh]
    n_radial = 40
    n_angular = 32
    grading = 2.0
    omega_min = 0.098
    rho_polar_min = 0.5
    rho_polar_max = 2.0

    [experiment]
    kind = dichotomy
    d_list = 1,2,3
    truncation_levels = 8

Coefficients accept either constants (c0, c1), radial profiles
(c0_profile / c1_profile as comma-separated "rho_polar:value" pairs,
interpolated piecewise-linearly in rho_polar), or target curvature
magnitudes (target_R / target_H) converted through the Eq.-(22)-style
normalizations c0 = (n-2)|R|/(4(n-1)), c1 = (n-2)|H|/(2(n-1)).
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import ConeModel, target_H_to_c1, target_R_to_c0
from .mesh import ReducedDomain

__all__ = ["ConfigError", "ExperimentConfig", "parse_config", "coefficient_values"]

EXPERIMENT_KINDS = ("curvature", "solve", "verify-model", "dichotomy", "eigen")
SOLVE_METHODS = ("newton", "monotone")
EIGEN_VARIANTS = ("volume", "volume-plus-boundary")

_SCHEMA = {
    "cone": {"n", "d", "h"},
    "coefficients": {"c0", "c1", "c0_profile", "c1_profile", "target_R", "target_H"},
    "mesh": {
        "n_radial",
        "n_angular",
        "grading",
        "omega_min",
        "rho_polar_min",
        "rho_polar_max",
        "nodes_per_octave",
    },
    "tolerances": {
        "nonlinear_tol",
        "max_iter",
        "exhaustion_tol",
        "data_max_exponent",
    },
    "experiment": {
        "kind",
        "method",
        "d_list",
        "mesh_sizes",
        "truncation_levels",
        "eigen_denominator",
        "dirichlet",
        "plot",
    },
}


class ConfigError(ValueError):
    """Malformed configuration file."""


@dataclass
class ExperimentConfig:
    n: int
    d: int
    h: float
    kind: str
    # coefficients: constants, profiles or targets (exactly one source per side)
    c0: float | None = 1.0
    c1: float | None = 1.0
    c0_profile: list[tuple[float, float]] | None = None
    c1_profile: list[tuple[float, float]] | None = None
    # mesh
    n_radial: int = 40
    n_angular: int = 32
    grading: float = 2.0
    omega_min: float | None = None  # default theta/8
    rho_polar_min: float = 0.5
    rho_polar_max: float = 2.0
    nodes_per_octave: int = 10
    # tolerances
    nonlinear_tol: float = 1e-8
    max_iter: int | None = None  # None: the solve method's own limit
    exhaustion_tol: float = 0.03
    data_max_exponent: int = 16
    # experiment details
    method: str = "newton"
    d_list: list[int] = field(default_factory=list)
    mesh_sizes: list[int] = field(default_factory=lambda: [32, 64, 128])
    truncation_levels: int = 22
    eigen_denominator: str | None = None
    dirichlet: str = "model"
    plot: bool = True

    @property
    def cone(self) -> ConeModel:
        return ConeModel(self.n, self.d, self.h)

    def domain(self) -> ReducedDomain:
        cone = self.cone
        omega_min = self.omega_min if self.omega_min is not None else cone.theta / 8.0
        return ReducedDomain(cone, self.rho_polar_min, self.rho_polar_max, omega_min)

    def data_sequence(self) -> tuple[float, ...]:
        return tuple(float(2**k) for k in range(self.data_max_exponent + 1))


def _parse_profile(text: str, key: str) -> list[tuple[float, float]]:
    pairs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" not in chunk:
            raise ConfigError(f"{key}: expected 'rho_polar:value' pairs, got {chunk!r}")
        a, b = chunk.split(":", 1)
        pairs.append((float(a), float(b)))
    if len(pairs) < 2:
        raise ConfigError(f"{key}: need at least two profile points")
    xs = [p[0] for p in pairs]
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise ConfigError(f"{key}: profile abscissae must be strictly increasing")
    if any(p[1] < 0 for p in pairs):
        raise ConfigError(f"{key}: profile values must be nonnegative")
    return pairs


def coefficient_values(
    constant: float | None, profile: list[tuple[float, float]] | None, rho_polar: np.ndarray
) -> np.ndarray:
    """Evaluate a constant-or-profile coefficient on polar radii."""
    if profile is not None:
        xs = np.array([p[0] for p in profile])
        ys = np.array([p[1] for p in profile])
        return np.interp(rho_polar, xs, ys)
    return np.full_like(np.asarray(rho_polar, dtype=float), float(constant))


def parse_config(path_or_text: str, from_text: bool = False) -> ExperimentConfig:
    """Parse and validate a configuration file (or literal text)."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cp.optionxform = str  # keys are case-sensitive (target_R, target_H)
    try:
        if from_text:
            cp.read_string(path_or_text)
        else:
            with open(path_or_text) as fh:
                cp.read_string(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc

    for section in cp.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key in cp[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")

    def get(section, key, cast, default=None):
        if cp.has_option(section, key):
            raw = cp.get(section, key)
            try:
                return cast(raw)
            except ConfigError:
                raise
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key}: {exc}") from exc
        return default

    for required in ("cone", "experiment"):
        if not cp.has_section(required):
            raise ConfigError(f"missing required section [{required}]")
    for key in ("n", "d", "h"):
        if not cp.has_option("cone", key):
            raise ConfigError(f"missing [cone] {key}")
    if not cp.has_option("experiment", "kind"):
        raise ConfigError("missing [experiment] kind")

    cfg = ExperimentConfig(
        n=get("cone", "n", int),
        d=get("cone", "d", int),
        h=get("cone", "h", float),
        kind=get("experiment", "kind", str),
    )

    try:
        cone = cfg.cone
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    if cfg.kind not in EXPERIMENT_KINDS:
        raise ConfigError(f"unknown experiment kind {cfg.kind!r}; choose from {EXPERIMENT_KINDS}")

    # coefficients: constants, profile, or target curvature, exclusively per side
    if cp.has_section("coefficients"):
        sides = (("c0", "target_R", target_R_to_c0), ("c1", "target_H", target_H_to_c1))
        for c, target, to_c in sides:
            have_c = cp.has_option("coefficients", c)
            have_p = cp.has_option("coefficients", f"{c}_profile")
            have_t = cp.has_option("coefficients", target)
            if have_c + have_p + have_t > 1:
                raise ConfigError(f"give only one of {c}, {c}_profile, {target}")
            if have_p:
                profile = _parse_profile(cp.get("coefficients", f"{c}_profile"), f"{c}_profile")
                setattr(cfg, f"{c}_profile", profile)
                setattr(cfg, c, None)
            elif have_t:
                setattr(cfg, c, to_c(cfg.n, get("coefficients", target, float)))
            elif have_c:
                setattr(cfg, c, get("coefficients", c, float))
        for c, _, _ in sides:
            val = getattr(cfg, c)
            if val is not None and val < 0:
                raise ConfigError(f"{c} must be nonnegative, got {val}")

    cfg.n_radial = get("mesh", "n_radial", int, cfg.n_radial)
    cfg.n_angular = get("mesh", "n_angular", int, cfg.n_angular)
    cfg.grading = get("mesh", "grading", float, cfg.grading)
    cfg.omega_min = get("mesh", "omega_min", float, cfg.omega_min)
    cfg.rho_polar_min = get("mesh", "rho_polar_min", float, cfg.rho_polar_min)
    cfg.rho_polar_max = get("mesh", "rho_polar_max", float, cfg.rho_polar_max)
    cfg.nodes_per_octave = get("mesh", "nodes_per_octave", int, cfg.nodes_per_octave)
    if cfg.n_radial < 4 or cfg.n_angular < 4:
        raise ConfigError("n_radial and n_angular must be at least 4")
    if cfg.grading < 1.0:
        raise ConfigError("grading must be >= 1")
    if not 0.0 < cfg.rho_polar_min < cfg.rho_polar_max:
        raise ConfigError("need 0 < rho_polar_min < rho_polar_max")
    if cfg.omega_min is not None and not 0.0 < cfg.omega_min < cone.theta:
        raise ConfigError(f"omega_min must lie in (0, theta = {cone.theta:.6g})")
    if cfg.nodes_per_octave < 2:
        raise ConfigError("nodes_per_octave must be >= 2")

    cfg.nonlinear_tol = get("tolerances", "nonlinear_tol", float, cfg.nonlinear_tol)
    cfg.max_iter = get("tolerances", "max_iter", int, cfg.max_iter)
    cfg.exhaustion_tol = get("tolerances", "exhaustion_tol", float, cfg.exhaustion_tol)
    cfg.data_max_exponent = get("tolerances", "data_max_exponent", int, cfg.data_max_exponent)
    if min(cfg.nonlinear_tol, cfg.exhaustion_tol) <= 0:
        raise ConfigError("tolerances must be positive")
    if (cfg.max_iter is not None and cfg.max_iter < 1) or not 0 <= cfg.data_max_exponent <= 40:
        raise ConfigError("max_iter must be >= 1 and data_max_exponent in [0, 40]")

    cfg.method = get("experiment", "method", str, cfg.method)
    if cfg.method not in SOLVE_METHODS:
        raise ConfigError(f"unknown method {cfg.method!r}; choose from {SOLVE_METHODS}")
    if cfg.kind == "dichotomy" and cfg.method != "newton":
        raise ConfigError("dichotomy runs its data ladder with Newton; method must be newton")
    raw_dlist = get("experiment", "d_list", str, "")
    if raw_dlist:
        cfg.d_list = [int(x) for x in raw_dlist.split(",") if x.strip()]
        if any(not 1 <= dd <= cfg.n - 1 for dd in cfg.d_list):
            raise ConfigError(f"d_list entries must lie in [1, n-1] = [1, {cfg.n - 1}]")
    raw_sizes = get("experiment", "mesh_sizes", str, "")
    if raw_sizes:
        cfg.mesh_sizes = [int(x) for x in raw_sizes.split(",") if x.strip()]
        if len(cfg.mesh_sizes) < 2 or any(s < 4 for s in cfg.mesh_sizes):
            raise ConfigError("mesh_sizes needs at least two sizes, all >= 4")
    cfg.truncation_levels = get("experiment", "truncation_levels", int, cfg.truncation_levels)
    if cfg.truncation_levels < 2:
        raise ConfigError("truncation_levels must be >= 2")
    cfg.eigen_denominator = get("experiment", "eigen_denominator", str, None)
    if cfg.kind == "eigen":
        if cfg.eigen_denominator is None:
            raise ConfigError(
                "eigen experiments must choose eigen_denominator explicitly "
                f"(one of {EIGEN_VARIANTS})"
            )
        if cfg.eigen_denominator not in EIGEN_VARIANTS:
            raise ConfigError(f"eigen_denominator must be one of {EIGEN_VARIANTS}")
    cfg.dirichlet = get("experiment", "dirichlet", str, cfg.dirichlet)
    if cfg.dirichlet != "model":
        try:
            val = float(cfg.dirichlet)
        except ValueError:
            raise ConfigError("dirichlet must be 'model' or a nonnegative constant") from None
        if val < 0 or not math.isfinite(val):
            raise ConfigError("constant dirichlet data must be nonnegative and finite")
    cfg.plot = get("experiment", "plot", lambda s: s.strip().lower() in ("1", "true", "yes"),
                   cfg.plot)
    return cfg


def echo_config(cfg: ExperimentConfig) -> list[tuple[str, str]]:
    """Canonical key/value echo of the configuration for the run summary."""
    items = []
    for key, val in vars(cfg).items():
        if val is None or (isinstance(val, list) and not val):
            continue
        if isinstance(val, list):
            val = ",".join(str(v) for v in val)
        items.append((f"config.{key}", str(val)))
    return items
