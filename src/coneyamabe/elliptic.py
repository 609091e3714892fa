"""Discrete mixed Dirichlet/Robin operator on the reduced wedge.

The axisymmetric reduction of the Laplacian is, in the computational
coordinates (xi, omega) with xi = log(rho_polar),

    L u = -(1/Wt) [ (A u_xi)_xi + (A u_omega)_omega ],
    A  = rho_polar^(n-d-1) sin^(n-d-1)(omega),
    Wt = rho_polar^(n-d+1) sin^(n-d-1)(omega),

which is the weighted divergence form
(1/W)[d_rho(W u_rho) + d_omega(W u_omega / rho_polar^2)] with
W = rho_polar^(n-d) sin^(n-d-1)(omega) rewritten in log-radius.  Both
directions carry the same coefficient A because log-polar coordinates are
conformal on the half-plane.

Assembly is vertex-centered finite volume: each grid edge contributes a
positive conductance, so off-diagonal entries are nonpositive and the matrix
is symmetric in the weighted inner product.  Robin rows at omega = theta are
half-cell balances (equivalent to second-order one-sided ghost elimination);
the potentials c and c2 enter as diagonal volume and surface mass terms,
mirroring the bilinear form B[u,v] + (c u, v) + (c2 u, v)_boundary, which is
uniquely solvable once c is large enough; a shifted operator is assembled
by adding its shift to the potentials.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import Field, Mesh, _half_widths

__all__ = [
    "OperatorAssembly",
    "LinearSolveReport",
    "MMatrixWarning",
    "NonConvergenceError",
    "IndefiniteOperatorError",
    "NegativeEigenvectorError",
    "assemble",
    "solve_mixed",
    "rayleigh_quotient",
    "principal_eigen",
    "write_coo_system",
]

EIGEN_TOL = 1e-10      # relative settling of the Rayleigh quotient in principal_eigen
EIGEN_MAX_ITER = 500


class MMatrixWarning(UserWarning):
    """The assembled operator lost the discrete-maximum-principle certificate."""


class NonConvergenceError(RuntimeError):
    def __init__(self, message, iterations=None, residual=None):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


class IndefiniteOperatorError(RuntimeError):
    """A factorization pivot was nonpositive: the matrix is not positive
    definite (raise the potential c)."""


class NegativeEigenvectorError(RuntimeError):
    """Ground-state candidate has negative components: discrete maximum principle lost."""


@dataclass(eq=False)
class OperatorAssembly:
    """Assembled operator; treat as immutable after construction.

    stiffness          : edge-conductance part (symmetric CSR, all nodes)
    volume_mass        : diagonal volume weights (mesh.node_weights)
    boundary_mass      : diagonal surface weights (nonzero on Robin nodes)
    c, c2              : linear potentials (full-length arrays; c2 read on Robin)
    m_matrix_ok        : row-sum certificate c >= 0 and c2 >= 0
    matrix             : integrated-form matrix, stiffness plus the volume and
                         surface mass terms of c and c2 (CSR, all nodes)
    free_matrix        : matrix restricted to the free nodes, rows and columns

    Only what depends on a factorization is filled in later: the
    minimum-degree elimination order of the free block, computed by the
    first _factor_spd of this operator, and solve_mixed's factor.
    """

    mesh: Mesh
    stiffness: sp.csr_matrix
    volume_mass: np.ndarray
    boundary_mass: np.ndarray
    c: np.ndarray
    c2: np.ndarray
    m_matrix_ok: bool
    matrix: sp.csr_matrix
    free_matrix: sp.csr_matrix

    _free_factor: object | None = None
    _free_order: np.ndarray | None = None


def assemble(mesh: Mesh, c: Field | None = None, c2: Field | None = None) -> OperatorAssembly:
    """Assemble the weighted divergence-form operator with Robin rows.

    c is the interior linear potential, c2 the Robin potential (both
    full-length fields; c2 is only read on ROBIN_CONE nodes).  Builds the
    full matrix and its free block, the two matrices every solve, residual
    and quotient reads.  Off-diagonal entries are nonpositive by
    construction; the certificate degrades only through negative c or c2,
    which is reported as a warning, not an error.
    """
    cvals = np.zeros(mesh.n_nodes) if c is None else _field_values(mesh, c)
    c2vals = np.zeros(mesh.n_nodes) if c2 is None else _field_values(mesh, c2)

    cone = mesh.domain.cone
    p = cone.n - cone.d
    radial = mesh.radial_nodes
    angular = mesh.angular_nodes
    nr, na = len(radial), len(angular)
    xi = np.log(radial)
    gxi = np.diff(xi)
    gom = np.diff(angular)
    dxiw = _half_widths(xi)
    domw = _half_widths(angular)

    # radial edges (i, j) -- (i+1, j): conductance A(midpoint) * cell width / gap,
    # with A = rho_polar^(p-1) sin^(p-1)(omega)
    rho_half = np.sqrt(radial[:-1] * radial[1:])
    k_rad = np.outer(rho_half ** (p - 1) / gxi, np.sin(angular) ** (p - 1) * domw)

    # angular edges (i, j) -- (i, j+1)
    om_half = 0.5 * (angular[:-1] + angular[1:])
    k_ang = np.outer(radial ** (p - 1) * dxiw, np.sin(om_half) ** (p - 1) / gom)

    ii = np.arange(nr)
    jj = np.arange(na)
    idx = (ii[:, None] * na + jj[None, :])

    pr = idx[:-1, :].ravel()
    qr = idx[1:, :].ravel()
    kr = k_rad.ravel()
    pa = idx[:, :-1].ravel()
    qa = idx[:, 1:].ravel()
    ka = k_ang.ravel()

    # off-diagonal conductances first; the diagonal is then set to minus the
    # row sum so constants sit in the kernel up to matvec-order roundoff
    rows = np.concatenate([pr, qr, pa, qa])
    cols = np.concatenate([qr, pr, qa, pa])
    vals = np.concatenate([-kr, -kr, -ka, -ka])
    off = sp.coo_matrix((vals, (rows, cols)), shape=(mesh.n_nodes,) * 2).tocsr()
    stiffness = (off + sp.diags(-np.asarray(off.sum(axis=1)).ravel())).tocsr()

    margin = float(min(np.min(cvals), np.min(c2vals[mesh.robin_mask])))
    ok = margin >= 0.0
    if not ok:
        warnings.warn(
            f"M-matrix certificate violated: min potential margin {margin:.3e} < 0; "
            "the discrete comparison principle is not guaranteed",
            MMatrixWarning,
            stacklevel=2,
        )

    volume_mass = mesh.node_weights.copy()
    boundary_mass = mesh.robin_weights.copy()
    matrix = (stiffness + sp.diags(volume_mass * cvals + boundary_mass * c2vals)).tocsr()
    free = mesh.free_mask
    return OperatorAssembly(
        mesh=mesh,
        stiffness=stiffness,
        volume_mass=volume_mass,
        boundary_mass=boundary_mass,
        c=cvals.copy(),
        c2=c2vals.copy(),
        m_matrix_ok=ok,
        matrix=matrix,
        free_matrix=matrix[free][:, free].tocsr(),
    )


def _field_values(mesh: Mesh, f) -> np.ndarray:
    if isinstance(f, Field):
        if f.mesh is not mesh:
            raise ValueError("field is attached to a different mesh")
        return f.values
    arr = np.asarray(f, dtype=float)
    if arr.shape != (mesh.n_nodes,):
        raise ValueError(f"field length {arr.shape} does not match mesh ({mesh.n_nodes} nodes)")
    return arr


@dataclass
class LinearSolveReport:
    solution: Field
    relative_residual: float
    iterations: int  # back-substitutions: 1 for the direct solve


class _OrderedFactor:
    """A factor of A[order][:, order] that solves in A's own numbering."""

    def __init__(self, lu, order: np.ndarray):
        self._lu = lu
        self._order = order

    def solve(self, b: np.ndarray) -> np.ndarray:
        x = np.empty_like(b)
        x[self._order] = self._lu.solve(b[self._order])
        return x


def _factor_spd(A: sp.spmatrix, op: OperatorAssembly):
    """Sparse LU of a symmetric matrix, certified positive definite.

    A must have the sparsity pattern of op's free block: that block itself,
    or the block plus a diagonal (a Newton Jacobian, a shifted eigenvalue
    pencil).  The first factorization of op orders A by minimum degree and
    caches the elimination order argsort(perm_c) on op; every later one
    factors A permuted into that order under the natural ordering, which
    skips SuperLU's ordering step.  So each operator runs one ordering,
    whichever caller factors it first, and the returned factor solves in
    A's own numbering either way.

    The symmetric ordering with diagonal pivots keeps perm_r == perm_c, so
    the diagonal of U holds the pivots of A = L D L^T and, by Sylvester's
    law of inertia, counts the nonpositive eigenvalues of A.  Raises
    IndefiniteOperatorError unless every pivot is positive.
    """
    order = op._free_order
    try:
        # the copy handed to SuperLU dies with the call, before the
        # certificate materializes U: kept alive, it lifts the peak RSS of
        # a dichotomy run by about 10% through heap fragmentation
        lu = spla.splu(A.tocsc() if order is None else A.tocsr()[order][:, order].tocsc(),
                       permc_spec="MMD_AT_PLUS_A" if order is None else "NATURAL",
                       diag_pivot_thresh=0.0, options={"SymmetricMode": True})
    except RuntimeError as exc:  # an exactly singular factor
        raise IndefiniteOperatorError(f"sparse factorization failed ({exc})") from exc
    # a row permutation means SuperLU met a zero diagonal pivot
    if not (np.array_equal(lu.perm_r, lu.perm_c) and np.all(lu.U.diagonal() > 0.0)):
        raise IndefiniteOperatorError("nonpositive pivot: the matrix is not positive definite")
    if order is not None:
        return _OrderedFactor(lu, order)
    op._free_order = np.argsort(lu.perm_c)
    return lu


def solve_mixed(op: OperatorAssembly, rhs, dirichlet_data, robin_rhs=None) -> LinearSolveReport:
    """Solve the mixed linear problem L u + c u = rhs with Robin data.

    rhs is the interior source f1, robin_rhs the boundary source f2 of the
    mixed weak form (default 0); Dirichlet rows return the supplied data
    exactly.  The data enter the free rows through op.matrix applied to
    the data with its free entries zeroed, which adds exactly the products
    of the free-to-fixed block.  op.free_matrix is factored once by
    _factor_spd on the operator's one ordering and the factor is cached on
    the assembly, so repeated solves with one operator are
    back-substitutions.  Raises IndefiniteOperatorError when the operator
    is not positive definite (the caller should raise c) and
    NonConvergenceError when the relative residual of the reduced system
    exceeds 1e-6.
    """
    mesh = op.mesh
    rvals = _field_values(mesh, rhs) if not np.isscalar(rhs) else np.full(mesh.n_nodes, float(rhs))
    dvals = (_field_values(mesh, dirichlet_data) if not np.isscalar(dirichlet_data)
             else np.full(mesh.n_nodes, float(dirichlet_data)))
    if robin_rhs is None:
        gvals = np.zeros(mesh.n_nodes)
    elif np.isscalar(robin_rhs):
        gvals = np.full(mesh.n_nodes, float(robin_rhs))
    else:
        gvals = _field_values(mesh, robin_rhs)

    free = mesh.free_mask
    b = op.volume_mass * rvals + op.boundary_mass * gvals
    b_f = (b - op.matrix @ np.where(free, 0.0, dvals))[free]
    if op._free_factor is None:
        op._free_factor = _factor_spd(op.free_matrix, op)
    x = op._free_factor.solve(b_f)

    u = np.empty(mesh.n_nodes)
    u[~free] = dvals[~free]
    u[free] = x

    bnorm = np.linalg.norm(b_f)
    relres = float(np.linalg.norm(b_f - op.free_matrix @ x) / bnorm) if bnorm > 0 else 0.0
    if relres > 1e-6:
        raise NonConvergenceError(
            f"direct solve residual {relres:.3e} exceeds tolerance", residual=relres
        )
    return LinearSolveReport(solution=Field(mesh, u), relative_residual=relres, iterations=1)


def rayleigh_quotient(op: OperatorAssembly, zeta) -> float:
    """(energy[zeta] + int c zeta^2 + int_Robin c2 zeta^2) / int zeta^2.

    zeta must vanish on every Dirichlet-tagged node; this is the variational
    quotient whose infimum the principal eigenvalue realizes.
    """
    z = _field_values(op.mesh, zeta)
    if np.any(z[op.mesh.dirichlet_mask] != 0.0):
        raise ValueError("zeta must vanish on all Dirichlet-tagged nodes")
    den = float(np.sum(op.volume_mass * z * z))
    if den == 0.0:
        raise ValueError("zeta is identically zero on the volume quadrature")
    return float(z @ (op.matrix @ z)) / den


def _eigen_matrices(op: OperatorAssembly, variant: str):
    free = op.mesh.free_mask
    if variant == "volume":
        bdiag = op.volume_mass[free]
    elif variant == "volume-plus-boundary":
        bdiag = (op.volume_mass + op.boundary_mass)[free]
    else:
        raise ValueError(f"unknown eigenvalue denominator variant {variant!r}")
    return op.free_matrix, bdiag


def principal_eigen(op: OperatorAssembly, variant: str) -> tuple[float, Field]:
    """Smallest eigenvalue and positive ground state of (A, B) by inverse iteration.

    A is the operator with potentials c, c2; B is the
    volume mass or, for the "volume-plus-boundary" variant, volume plus
    Robin surface mass.  The iteration inverts A + mu*B with mu chosen from
    a generalized Gershgorin lower bound so the shifted matrix is positive
    definite; it is factored once by _factor_spd, which certifies that.  The
    iteration stops once the quotient settles to EIGEN_TOL relative, else
    NonConvergenceError after EIGEN_MAX_ITER sweeps.  The eigenvector is
    normalized to sup = 1; a genuinely negative component raises
    NegativeEigenvectorError since the ground state of an irreducible
    M-matrix pencil must be positive.
    """
    A, bdiag = _eigen_matrices(op, variant)
    n = A.shape[0]
    # Gershgorin on B^(-1) A (similar to the pencil): with the row-sum
    # stiffness construction this is tight, lower ~ min potential
    diag = A.diagonal()
    offsum = np.asarray(np.abs(A).sum(axis=1)).ravel() - np.abs(diag)
    lower = float(np.min((diag - offsum) / bdiag))
    mu = 0.0 if lower > 0 else -lower + max(1e-8, 0.01 * abs(lower))

    factor = _factor_spd(A + sp.diags(mu * bdiag), op)

    v = np.ones(n)
    lam = math.inf
    lam_old = math.inf
    polish = 0
    for _ in range(EIGEN_MAX_ITER):
        w = factor.solve(bdiag * v)
        w /= np.max(np.abs(w))
        lam = float((w @ (A @ w)) / (w @ (bdiag * w)))
        v = w
        if polish:
            polish -= 1
            if polish == 0:
                break
        elif abs(lam - lam_old) <= EIGEN_TOL * (1.0 + abs(lam)):
            # a few extra sweeps: the quotient increment underestimates the
            # eigenvalue error when the spectral gap is small
            polish = 4
        lam_old = lam
    else:
        raise NonConvergenceError(
            f"inverse power iteration did not settle in {EIGEN_MAX_ITER} iterations",
            iterations=EIGEN_MAX_ITER,
        )

    if v[np.argmax(np.abs(v))] < 0:
        v = -v
    v /= np.max(v)
    if np.min(v) < -1e-10:
        raise NegativeEigenvectorError(
            f"ground-state candidate has negative component {np.min(v):.3e}"
        )
    full = np.zeros(op.mesh.n_nodes)
    full[op.mesh.free_mask] = v
    return lam, Field(op.mesh, full)


def write_coo_system(op: OperatorAssembly, target) -> None:
    """Dump the assembled integrated-form matrix as 'row,col,value' text."""
    coo = op.matrix.tocoo()
    order = np.lexsort((coo.col, coo.row))
    own = isinstance(target, (str, bytes))
    fh = open(target, "w", newline="\n") if own else target
    try:
        fh.write("row,col,value\n")
        for r, c, v in zip(coo.row[order], coo.col[order], coo.data[order]):
            fh.write(f"{r},{c},{v:.17g}\n")
    finally:
        if own:
            fh.close()
