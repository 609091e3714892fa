"""Experiment configuration: flat key = value text with [sections].

Unknown sections or keys, malformed lists and non-finite numbers are
rejected, and every numeric range is validated before any computation
starts.  The format is INI-style, for example:

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

The coefficients are constants, the setting of constant negative scalar
and boundary mean curvature: each side takes either c0 / c1 directly or a
target curvature magnitude (target_R / target_H) converted through the
Eq.-(22)-style normalizations c0 = (n-2)|R|/(4(n-1)), c1 = (n-2)|H|/(2(n-1)).
A verify-model run outside the complete regime d > (n-2)/2, where no exact
solution exists, is a config error too.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field

from .geometry import ConeModel, exact_model_solution, target_H_to_c1, target_R_to_c0
from .mesh import ReducedDomain

__all__ = ["ConfigError", "ExperimentConfig", "parse_config"]

EXPERIMENT_KINDS = ("curvature", "solve", "verify-model", "dichotomy", "eigen")
SOLVE_METHODS = ("newton", "monotone")
EIGEN_VARIANTS = ("volume", "volume-plus-boundary")


class ConfigError(ValueError):
    """Malformed configuration file."""


def _finite_float(text: str) -> float:
    val = float(text)
    if not math.isfinite(val):
        raise ValueError(f"expected a finite number, got {text!r}")
    return val


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",")]


def _flag(text: str) -> bool:
    return text.strip().lower() in ("1", "true", "yes")


# section -> key -> parser of the raw text; every key but target_R and
# target_H is the ExperimentConfig field of the same name
_SCHEMA = {
    "cone": {"n": int, "d": int, "h": _finite_float},
    "coefficients": {
        "c0": _finite_float,
        "c1": _finite_float,
        "target_R": _finite_float,
        "target_H": _finite_float,
    },
    "mesh": {
        "n_radial": int,
        "n_angular": int,
        "grading": _finite_float,
        "omega_min": _finite_float,
        "rho_polar_min": _finite_float,
        "rho_polar_max": _finite_float,
        "nodes_per_octave": int,
    },
    "tolerances": {
        "nonlinear_tol": _finite_float,
        "max_iter": int,
        "exhaustion_tol": _finite_float,
        "data_max_exponent": int,
    },
    "experiment": {
        "kind": str,
        "method": str,
        "d_list": _int_list,
        "mesh_sizes": _int_list,
        "truncation_levels": int,
        "eigen_denominator": str,
        "dirichlet": str,
        "plot": _flag,
    },
}
_TARGETS = {"target_R": ("c0", target_R_to_c0), "target_H": ("c1", target_H_to_c1)}


@dataclass
class ExperimentConfig:
    n: int
    d: int
    h: float
    kind: str
    # coefficients: constants or targets (one source per side)
    c0: float = 1.0
    c1: float = 1.0
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


def parse_config(path: str) -> ExperimentConfig:
    """Parse and validate a configuration file."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cp.optionxform = str  # keys are case-sensitive (target_R, target_H)
    try:
        with open(path) as fh:
            cp.read_string(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc

    vals = {}
    for section in cp.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in cp[section].items():
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
            try:
                vals[key] = _SCHEMA[section][key](raw)
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key}: {exc}") from exc

    for required in ("cone", "experiment"):
        if not cp.has_section(required):
            raise ConfigError(f"missing required section [{required}]")
    for key in ("n", "d", "h"):
        if key not in vals:
            raise ConfigError(f"missing [cone] {key}")
    if "kind" not in vals:
        raise ConfigError("missing [experiment] kind")

    cfg = ExperimentConfig(**{k: v for k, v in vals.items() if k not in _TARGETS})
    try:
        cone = cfg.cone
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    if cfg.kind not in EXPERIMENT_KINDS:
        raise ConfigError(f"unknown experiment kind {cfg.kind!r}; choose from {EXPERIMENT_KINDS}")

    # coefficients: constant or target curvature, exclusively per side
    for target, (c, to_c) in _TARGETS.items():
        if target in vals:
            if c in vals:
                raise ConfigError(f"give only one of {c}, {target}")
            setattr(cfg, c, to_c(cfg.n, vals[target]))
    for c in ("c0", "c1"):
        val = getattr(cfg, c)
        if val < 0:
            raise ConfigError(f"{c} must be nonnegative, got {val}")

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

    if min(cfg.nonlinear_tol, cfg.exhaustion_tol) <= 0:
        raise ConfigError("tolerances must be positive")
    # the stabilization certificate compares the last two data values, 2^(k-1) and 2^k
    if (cfg.max_iter is not None and cfg.max_iter < 1) or not 1 <= cfg.data_max_exponent <= 40:
        raise ConfigError("max_iter must be >= 1 and data_max_exponent in [1, 40]")

    if cfg.method not in SOLVE_METHODS:
        raise ConfigError(f"unknown method {cfg.method!r}; choose from {SOLVE_METHODS}")
    if cfg.kind == "verify-model" and not exact_model_solution(cone).complete_regime:
        raise ConfigError(
            "verify-model needs the complete regime d > (n-2)/2 for the exact solution"
        )
    if cfg.kind == "dichotomy" and cfg.method != "newton":
        raise ConfigError("dichotomy runs its data ladder with Newton; method must be newton")
    if any(not 1 <= dd <= cfg.n - 1 for dd in cfg.d_list):
        raise ConfigError(f"d_list entries must lie in [1, n-1] = [1, {cfg.n - 1}]")
    if len(cfg.mesh_sizes) < 2 or any(s < 4 for s in cfg.mesh_sizes):
        raise ConfigError("mesh_sizes needs at least two sizes, all >= 4")
    if cfg.truncation_levels < 2:
        raise ConfigError("truncation_levels must be >= 2")
    if cfg.kind == "eigen":
        if cfg.eigen_denominator is None:
            raise ConfigError(
                "eigen experiments must choose eigen_denominator explicitly "
                f"(one of {EIGEN_VARIANTS})"
            )
        if cfg.eigen_denominator not in EIGEN_VARIANTS:
            raise ConfigError(f"eigen_denominator must be one of {EIGEN_VARIANTS}")
    if cfg.dirichlet != "model":
        try:
            val = float(cfg.dirichlet)
        except ValueError:
            raise ConfigError("dirichlet must be 'model' or a nonnegative constant") from None
        if val < 0 or not math.isfinite(val):
            raise ConfigError("constant dirichlet data must be nonnegative and finite")
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
