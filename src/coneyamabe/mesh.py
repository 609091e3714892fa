"""Graded tensor-product grids on the axisymmetric reduction of the cone.

Solutions invariant under translations along the singular plane and under
the transverse rotations depend only on (x1, r) with r the distance to the
singular plane.  In polar coordinates x1 = rho_polar*cos(omega),
r = rho_polar*sin(omega) the cone interior is the wedge 0 < omega < theta,
the singular set sits on the axis omega = 0, the cone face is the ray
omega = theta, and the distance to the singular set is exactly
rho = rho_polar*sin(omega).

Meshes are tensor products of a log-uniform radial grid and an angular grid
graded toward omega = 0; in the computational plane (log rho_polar, omega)
the domain is a rectangle.  A mesh holds its nodes and their boundary tags
only; the quadrature weights belong to the finite-volume rule in elliptic.
resample carries a field between two meshes of one domain, bilinearly in
that rectangle.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .geometry import ConeModel

__all__ = [
    "BoundaryTag",
    "ReducedDomain",
    "Mesh",
    "Field",
    "build_mesh",
    "truncation_family",
    "resample",
    "write_field_table",
    "read_field_table",
]


class BoundaryTag(enum.IntEnum):
    """Node classification; every boundary node carries exactly one tag."""

    INTERIOR = 0
    DIRICHLET_INNER_ANGULAR = 1  # omega = omega_min, the truncation toward the singular set
    DIRICHLET_RADIAL = 2         # rho_polar = rho_polar_min or rho_polar_max (and all corners)
    ROBIN_CONE = 3               # omega = theta, the cone face


@dataclass(frozen=True)
class ReducedDomain:
    """Truncated wedge omega_min <= omega <= theta, rho_polar in [min, max],
    with finite 0 < rho_polar_min < rho_polar_max and 0 < omega_min < theta."""

    cone: ConeModel
    rho_polar_min: float
    rho_polar_max: float
    omega_min: float

    def __post_init__(self):
        object.__setattr__(self, "rho_polar_min", float(self.rho_polar_min))
        object.__setattr__(self, "rho_polar_max", float(self.rho_polar_max))
        object.__setattr__(self, "omega_min", float(self.omega_min))
        if not 0.0 < self.rho_polar_min < self.rho_polar_max < np.inf:
            raise ValueError(
                f"need 0 < rho_polar_min < rho_polar_max < inf, got "
                f"[{self.rho_polar_min}, {self.rho_polar_max}]"
            )
        if not 0.0 < self.omega_min < self.cone.theta:
            raise ValueError(
                f"need 0 < omega_min < theta = {self.cone.theta:.6g}, got {self.omega_min}"
            )


@dataclass(frozen=True, eq=False)
class Mesh:
    """Tensor-product grid; node (i, j) has flat index i * n_angular + j.

    radial_nodes are strictly increasing and uniform in log(rho_polar);
    angular_nodes are strictly increasing in (0, theta].  Immutable after
    construction, safe to share read-only across threads.
    """

    domain: ReducedDomain
    radial_nodes: np.ndarray
    angular_nodes: np.ndarray
    tags: np.ndarray = field(repr=False)

    @property
    def n_radial(self) -> int:
        return len(self.radial_nodes)

    @property
    def n_angular(self) -> int:
        return len(self.angular_nodes)

    @property
    def n_nodes(self) -> int:
        return self.n_radial * self.n_angular

    def index(self, i, j):
        return i * self.n_angular + j

    @property
    def mid_radial_row(self) -> slice:
        """Flat indices of the mid-radial row i = n_radial // 2, the angular
        profile that the exponent fit and the profile plots read."""
        start = self.index(self.n_radial // 2, 0)
        return slice(start, start + self.n_angular)

    @property
    def rho_polar(self) -> np.ndarray:
        """Polar radius per node, flat ordering."""
        return np.repeat(self.radial_nodes, self.n_angular)

    @property
    def omega(self) -> np.ndarray:
        """Angular coordinate per node, flat ordering."""
        return np.tile(self.angular_nodes, self.n_radial)

    @property
    def rho(self) -> np.ndarray:
        """Distance to the singular set, rho_polar * sin(omega), per node."""
        return self.rho_polar * np.sin(self.omega)

    @property
    def dirichlet_mask(self) -> np.ndarray:
        return (self.tags == BoundaryTag.DIRICHLET_INNER_ANGULAR) | (
            self.tags == BoundaryTag.DIRICHLET_RADIAL
        )

    @property
    def robin_mask(self) -> np.ndarray:
        return self.tags == BoundaryTag.ROBIN_CONE

    @property
    def free_mask(self) -> np.ndarray:
        return ~self.dirichlet_mask

    @cached_property
    def robin_rows(self) -> np.ndarray:
        """Positions of the Robin nodes among the free nodes (flat order), the
        rows of a free-row vector that carry a boundary mass; read-only."""
        rows = np.flatnonzero(self.robin_mask[self.free_mask])
        rows.setflags(write=False)
        return rows

    def angular_offset_of(self, coarser: "Mesh") -> int:
        """Index offset embedding a coarser truncation's angular grid into this one.

        Meshes produced by truncation_family share radial nodes and the
        coarser mesh's angular nodes form the tail of the finer one; returns
        k such that self.angular_nodes[k:] == coarser.angular_nodes.
        """
        k = self.n_angular - coarser.n_angular
        if k < 0 or not np.array_equal(self.angular_nodes[k:], coarser.angular_nodes):
            raise ValueError("meshes are not nested truncations")
        if not np.array_equal(self.radial_nodes, coarser.radial_nodes):
            raise ValueError("meshes do not share radial nodes")
        return k


@dataclass
class Field:
    """Node-indexed scalar values on a mesh; Field.of coerces every input."""

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.mesh.n_nodes,):
            raise ValueError(
                f"field length {self.values.shape} does not match mesh with "
                f"{self.mesh.n_nodes} nodes"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field values must be finite")

    @classmethod
    def of(cls, mesh: Mesh, f) -> "Field":
        """f as a field on mesh: a scalar becomes a constant field, a Field
        must live on mesh and is returned as is, and anything else is read
        as node values (length n_nodes, finite, else ValueError)."""
        if isinstance(f, Field):
            if f.mesh is not mesh:
                raise ValueError("field is attached to a different mesh")
            return f
        if np.isscalar(f):
            return cls.full(mesh, f)
        return cls(mesh, f)

    @classmethod
    def full(cls, mesh: Mesh, value: float) -> "Field":
        return cls(mesh, np.full(mesh.n_nodes, float(value)))


def _assemble_mesh(domain: ReducedDomain, radial_nodes, angular_nodes) -> Mesh:
    nr, na = len(radial_nodes), len(angular_nodes)
    ii, jj = np.meshgrid(np.arange(nr), np.arange(na), indexing="ij")
    tags = np.full((nr, na), BoundaryTag.INTERIOR, dtype=np.int8)
    tags[(jj == 0)] = BoundaryTag.DIRICHLET_INNER_ANGULAR
    tags[(jj == na - 1)] = BoundaryTag.ROBIN_CONE
    tags[(ii == 0) | (ii == nr - 1)] = BoundaryTag.DIRICHLET_RADIAL  # corners go Dirichlet

    return Mesh(
        domain=domain,
        radial_nodes=np.asarray(radial_nodes, dtype=float),
        angular_nodes=np.asarray(angular_nodes, dtype=float),
        tags=tags.reshape(-1),
    )


def build_mesh(domain: ReducedDomain, n_radial: int, n_angular: int, grading: float = 2.0) -> Mesh:
    """Tensor mesh with n_radial x n_angular nodes.

    Radial nodes are uniform in log(rho_polar).  Angular node k sits at
    omega_min + (theta - omega_min) * (k/(n_angular-1))^grading, so grading 1
    is uniform and grading > 1 concentrates nodes toward the singular axis
    where the rho^(-(n-2)/2) profile must be resolved.  Shapes and gradings
    that break the node rules of _graded_nodes are a ValueError.
    """
    return _assemble_mesh(domain, *_graded_nodes(domain, n_radial, n_angular, grading))


def _graded_nodes(
    domain: ReducedDomain, n_radial: int, n_angular: int, grading: float
) -> tuple[np.ndarray, np.ndarray]:
    """Radial and angular nodes of build_mesh(domain, n_radial, n_angular, grading).

    A mesh needs n_radial, n_angular >= 4, grading >= 1 and strictly
    increasing nodes; anything else raises ValueError.  A steep grading can
    round adjacent angular nodes near omega_min to one value, and a narrow
    radial range adjacent radii.  Every check fails on nan.
    """
    if not (n_radial >= 4 and n_angular >= 4):
        raise ValueError(f"need n_radial, n_angular >= 4, got {n_radial}, {n_angular}")
    if not grading >= 1.0:
        raise ValueError(f"grading must be >= 1, got {grading}")
    theta = domain.cone.theta
    radial = np.exp(
        np.linspace(np.log(domain.rho_polar_min), np.log(domain.rho_polar_max), n_radial)
    )
    s = np.linspace(0.0, 1.0, n_angular)
    angular = domain.omega_min + (theta - domain.omega_min) * s**grading
    angular[0] = domain.omega_min
    angular[-1] = theta
    if not (np.all(np.diff(radial) > 0) and np.all(np.diff(angular) > 0)):
        raise ValueError(
            f"the nodes of the {n_radial}x{n_angular} mesh with grading {grading:g} "
            "are not strictly increasing"
        )
    return radial, angular


def truncation_family(
    base: Mesh, levels: int, nodes_per_octave: int = 10
) -> list[Mesh]:
    """Nested meshes for the shrinking truncations omega_min, omega_min/2, ...

    Level 0 is the base mesh.  Level k halves omega_min and prepends
    nodes_per_octave log-uniform angular nodes in the new octave
    [omega_min/2^k, omega_min/2^(k-1)), so every coarser mesh's nodes are
    shared exactly by all finer ones (nested on the common subdomain) and
    nodewise comparisons across truncations need no interpolation.
    """
    if levels < 1:
        raise ValueError("levels must be >= 1")
    if nodes_per_octave < 2:
        raise ValueError("nodes_per_octave must be >= 2")
    meshes = [base]
    angular = base.angular_nodes
    omega_min = base.domain.omega_min
    for _ in range(1, levels):
        new_min = 0.5 * omega_min
        octave = np.exp(np.linspace(np.log(new_min), np.log(omega_min), nodes_per_octave + 1))[:-1]
        angular = np.concatenate([octave, angular])
        domain = replace(base.domain, omega_min=new_min)
        meshes.append(_assemble_mesh(domain, base.radial_nodes, angular))
        omega_min = new_min
    return meshes


def _bracket(new: np.ndarray, old: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each new node, the old interval k holding it and its fraction
    t in [0, 1] along old[k]..old[k+1] (nodes outside are clamped)."""
    s = np.interp(new, old, np.arange(len(old), dtype=float))
    k = np.minimum(s.astype(int), len(old) - 2)
    return k, s - k


def resample(f: Field, mesh: Mesh) -> Field:
    """f carried onto mesh, bilinear in (log rho_polar, omega).

    Both meshes must share one domain (else ValueError), so the target's
    nodes lie in the source's rectangle and the result is a convex
    combination of f's values at the four corners of each node's cell:
    positive when f is, and exact for fields bilinear in the rectangle.
    """
    src = f.mesh
    if src.domain != mesh.domain:
        raise ValueError("cannot resample between meshes of different domains")
    kr, tr = _bracket(np.log(mesh.radial_nodes), np.log(src.radial_nodes))
    ka, ta = _bracket(mesh.angular_nodes, src.angular_nodes)
    u = f.values.reshape(src.n_radial, src.n_angular)
    rows = (1.0 - tr)[:, None] * u[kr] + tr[:, None] * u[kr + 1]
    return Field(mesh, ((1.0 - ta) * rows[:, ka] + ta * rows[:, ka + 1]).reshape(-1))


# rows formatted per write: one join per chunk keeps memory flat in the table size
_CHUNK_ROWS = 4096
# tag name per BoundaryTag value, indexed by the int8 codes of Mesh.tags
_TAG_NAMES = np.array([BoundaryTag(k).name for k in range(len(BoundaryTag))], dtype=object)


def _write_rows(fh, row_format: str, *columns) -> None:
    """Write row_format % row for every row of the equal-length columns.

    Each chunk of _CHUNK_ROWS rows is formatted from tolist() slices into
    one string and written at once; no whole-table string or list is built.
    """
    n = len(columns[0])
    for lo in range(0, n, _CHUNK_ROWS):
        rows = zip(*(col[lo:lo + _CHUNK_ROWS].tolist() for col in columns))
        fh.write("".join([row_format % row for row in rows]))


def write_field_table(fh, mesh: Mesh, values) -> None:
    """Plain-text tabular dump to the open text file fh, one node per row:
    rho_polar, omega, tag, value.

    Floats are printed at 17 significant digits, so read_field_table
    returns them bit-exactly.  Each radial and each angular node is
    formatted once, and per row only the value; rows are streamed in
    chunks of _CHUNK_ROWS, each formatted in one pass.  Format is
    documented in the README (debugging/plotting aid).
    """
    vals = np.asarray(values, float)
    if vals.shape != (mesh.n_nodes,):
        raise ValueError("values length does not match mesh")
    radial, angular = (np.array(["%.17g" % x for x in nodes.tolist()], dtype=object)
                       for nodes in (mesh.radial_nodes, mesh.angular_nodes))
    fh.write("rho_polar,omega,tag,value\n")
    _write_rows(fh, "%s,%s,%s,%.17g\n", np.repeat(radial, mesh.n_angular),
                np.tile(angular, mesh.n_radial), _TAG_NAMES[mesh.tags], vals)


def read_field_table(fh) -> tuple[np.ndarray, np.ndarray, list, np.ndarray]:
    """Inverse of write_field_table on the open text file fh: arrays
    (rho_polar, omega, tag names, values)."""
    header = fh.readline().strip()
    if header != "rho_polar,omega,tag,value":
        raise ValueError(f"unrecognized field table header: {header!r}")
    rp, om, tg, vals = [], [], [], []
    for line in fh:
        a, b, c, d = line.strip().split(",")
        rp.append(float(a))
        om.append(float(b))
        tg.append(c)
        vals.append(float(d))
    return np.array(rp), np.array(om), tg, np.array(vals)
