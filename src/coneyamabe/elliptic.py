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

Assembly is vertex-centered finite volume on trapezoidal cells (half-gaps
on each side of a node, in xi and omega): each grid edge contributes a
positive conductance, so off-diagonal entries are nonpositive and the matrix
is symmetric in the weighted inner product.  The quadrature weight of a node
is the volume density Wt times its cell area, and a Robin-face node carries
the surface density rho_polar^(n-d) sin^(n-d-1)(theta) times its cell width
in xi.  Robin rows at omega = theta are half-cell balances (equivalent to
second-order one-sided ghost elimination);
the potentials c and c2 enter as diagonal volume and surface mass terms,
mirroring the bilinear form B[u,v] + (c u, v) + (c2 u, v)_boundary, which is
uniquely solvable once c is large enough.  A shift of the potentials is
never assembled: it is a diagonal that _factor_spd adds to the free block
of the operator at hand.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import Field, Mesh

__all__ = [
    "OperatorAssembly",
    "LinearSolveReport",
    "MMatrixWarning",
    "SolverError",
    "NonConvergenceError",
    "IndefiniteOperatorError",
    "NegativeEigenvectorError",
    "assemble",
    "solve_mixed",
    "rayleigh_quotient",
    "principal_eigen",
]

EIGEN_TOL = 1e-10      # relative settling of the Rayleigh quotient in principal_eigen
EIGEN_MAX_ITER = 500
# SuperLU's keywords for every factorization; _factor_spd says why
_SPLU_KEYWORDS = {"diag_pivot_thresh": 0.0, "panel_size": 1,
                  "options": {"SymmetricMode": True}}


class MMatrixWarning(UserWarning):
    """The assembled operator lost the discrete-maximum-principle certificate."""


class SolverError(RuntimeError):
    """A solve failed: the base of every solver-layer failure, which the
    command line reports with exit code 2."""


class NonConvergenceError(SolverError):
    def __init__(self, message, iterations=None, residual=None):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


class IndefiniteOperatorError(SolverError):
    """A factored matrix could not be certified positive definite (raise
    the potential c)."""


class NegativeEigenvectorError(SolverError):
    """Ground-state candidate has negative components: discrete maximum principle lost."""


@dataclass(eq=False)
class OperatorAssembly:
    """Assembled operator; treat as immutable after construction.

    stiffness          : edge-conductance part (symmetric CSR, all nodes)
    volume_mass        : diagonal volume weights, Wt times the trapezoidal
                         cell area, per node
    boundary_mass      : diagonal surface weights (nonzero on Robin nodes;
                         the Dirichlet-tagged corners carry none)
    c, c2              : linear potentials (full-length arrays; c2 read on Robin)
    m_matrix_ok        : row-sum certificate c >= 0 and c2 >= 0
    matrix             : integrated-form matrix, stiffness plus the volume and
                         surface mass terms of c and c2 (CSR, all nodes)
    free               : mask of the free nodes (interior and Robin), read-only;
                         every residual and solve on the operator reads it,
                         so it is formed once here rather than per call
    free_matrix        : matrix restricted to the free nodes, rows and columns

    Only what depends on a factorization is filled in later: the
    minimum-degree elimination order of the free block, computed by the
    first _factor_spd of this operator, the free block permuted into that
    order with the positions of its diagonal, built by the second, and
    solve_mixed's factor.  That factor is kept for reproducibility as well
    as speed: the first factor of an operator (minimum-degree ordering) and
    a later one (the cached order) are the same matrix but round
    differently, so refactoring per solve would make repeated or concurrent
    solves with one operator differ in the last bits.
    """

    mesh: Mesh
    stiffness: sp.csr_matrix
    volume_mass: np.ndarray
    boundary_mass: np.ndarray
    c: np.ndarray
    c2: np.ndarray
    m_matrix_ok: bool
    matrix: sp.csr_matrix
    free: np.ndarray
    free_matrix: sp.csr_matrix

    _free_factor: object | None = None
    _free_order: np.ndarray | None = None
    _free_permuted: tuple[sp.csc_matrix, np.ndarray] | None = None


def _half_widths(nodes: np.ndarray) -> np.ndarray:
    """Trapezoidal cell widths: half-gaps left+right, half-gap at the ends."""
    gaps = np.diff(nodes)
    w = np.empty(len(nodes))
    w[0] = 0.5 * gaps[0]
    w[-1] = 0.5 * gaps[-1]
    w[1:-1] = 0.5 * (gaps[:-1] + gaps[1:])
    return w


def assemble(mesh: Mesh, c=0.0, c2=0.0) -> OperatorAssembly:
    """Assemble the weighted divergence-form operator with Robin rows.

    c is the interior linear potential, c2 the Robin potential, each given
    in any form Field.of takes (c2 is only read on ROBIN_CONE nodes).
    Builds the full matrix and its free block, the two matrices every
    solve, residual and quotient reads.  Off-diagonal entries are nonpositive by
    construction; the certificate degrades only through negative c or c2,
    which is reported as a warning, not an error.
    """
    cvals, c2vals = Field.of(mesh, c).values, Field.of(mesh, c2).values

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
    sin_domw = np.sin(angular) ** (p - 1) * domw
    k_rad = np.outer(rho_half ** (p - 1) / gxi, sin_domw)

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

    # volume density in (xi, omega): Wt = rho_polar^(p+1) sin^(p-1)(omega)
    volume_mass = np.outer(radial ** (p + 1) * dxiw, sin_domw).ravel()
    # surface density per unit xi: rho_polar^p sin^(p-1)(theta), off the corners
    boundary_mass = np.zeros((nr, na))
    boundary_mass[1:-1, -1] = radial[1:-1] ** p * np.sin(angular[-1]) ** (p - 1) * dxiw[1:-1]
    boundary_mass = boundary_mass.ravel()
    matrix = (stiffness + sp.diags(volume_mass * cvals + boundary_mass * c2vals)).tocsr()
    free = mesh.free_mask
    free.setflags(write=False)
    return OperatorAssembly(
        mesh=mesh,
        stiffness=stiffness,
        volume_mass=volume_mass,
        boundary_mass=boundary_mass,
        c=cvals.copy(),
        c2=c2vals.copy(),
        m_matrix_ok=ok,
        matrix=matrix,
        free=free,
        free_matrix=matrix[free][:, free].tocsr(),
    )


@dataclass
class LinearSolveReport:
    solution: Field
    relative_residual: float


class _OrderedFactor:
    """A factor of A[order][:, order] that solves in A's own numbering."""

    def __init__(self, lu, order: np.ndarray):
        self._lu = lu
        self._order = order

    @property
    def nnz(self) -> int:
        """Fill of the factor: entries of L plus U."""
        return self._lu.nnz

    def solve(self, b: np.ndarray) -> np.ndarray:
        x = np.empty_like(b)
        x[self._order] = self._lu.solve(b[self._order])
        return x


def _diagonal_positions(A: sp.csc_matrix) -> tuple[np.ndarray, np.ndarray]:
    """Positions of A's diagonal entries in A.data, and a mask of the others."""
    off = A.indices != np.repeat(np.arange(A.shape[1]), np.diff(A.indptr))
    return np.flatnonzero(~off), off


def _factor_spd(op: OperatorAssembly, diag: np.ndarray | None = None):
    """Sparse LU of op.free_matrix + diag(diag), certified positive definite.

    diag is None for the free block itself, else a diagonal added to it (a
    Newton Jacobian, the monotone shift, a shifted eigenvalue pencil); the
    matrix is formed here on the block's own sparsity pattern.  The first
    factorization of op checks that the block's off-diagonal entries are
    nonpositive, orders the matrix by minimum degree and caches the
    elimination order argsort(perm_c) on op.  The next one caches the block
    permuted into that order (CSC) with the positions of its diagonal, and
    every later one copies its values, adds diag[order] on the diagonal and
    factors under the natural ordering, which skips SuperLU's ordering
    step.  The result is bitwise (block + diags(diag)) permuted into the
    order.  So each operator runs one ordering, whichever caller factors it
    first, and the returned factor solves in the block's own numbering
    either way, and exposes its fill (L plus U) as nnz.

    Both factorizations pass _SPLU_KEYWORDS: diagonal pivots in symmetric
    mode and a panel of one column.  An interleaved sweep of SuperLU's
    panel_size over {1, 2, 4, default 20} on the desk family's refactors
    (40x32 to 40x242) and on first factors at 128^2 to 256^2 (2-core Xeon
    host, one BLAS thread) put widths 1 and 2 within noise of each other
    and 25-35% below the default in time, with the same fill; a narrow
    panel also needs smaller work arrays.

    Every factored matrix is thus a symmetric Z-matrix, which is positive
    definite exactly when it is a nonsingular M-matrix, that is when some
    y > 0 has A y > 0.  The certificate takes y = A^-1 1 from the factor
    and requires y > 0 and A y > k eps |A| y in every row, where k is the
    longest row, so that the matvec's rounding cannot fake a positive row;
    it also requires perm_r == perm_c, since a row permutation means
    SuperLU met a zero diagonal pivot.  Raises IndefiniteOperatorError
    when the block is not a Z-matrix or the certificate fails.
    """
    order = op._free_order
    if order is None:
        A = op.free_matrix.tocsc()
        pos, off = _diagonal_positions(A)
        if np.any(A.data[off] > 0.0):
            raise IndefiniteOperatorError(
                "the free block has a positive off-diagonal entry: not a Z-matrix, "
                "so its positive definiteness cannot be certified"
            )
    else:
        if op._free_permuted is None:
            block = op.free_matrix[order][:, order].tocsc()
            op._free_permuted = block, _diagonal_positions(block)[0]
        block, pos = op._free_permuted
        A = sp.csc_matrix((block.data.copy(), block.indices, block.indptr), shape=block.shape)
    if diag is not None:
        A.data[pos] += diag if order is None else diag[order]
    try:
        lu = spla.splu(A, permc_spec="MMD_AT_PLUS_A" if order is None else "NATURAL",
                       **_SPLU_KEYWORDS)
    except RuntimeError as exc:  # an exactly singular factor
        raise IndefiniteOperatorError(f"sparse factorization failed ({exc})") from exc
    y = lu.solve(np.ones(A.shape[0]))
    k = float(np.max(np.diff(A.indptr)))
    if not (np.array_equal(lu.perm_r, lu.perm_c) and np.all(y > 0.0)
            and np.all(A @ y > k * np.finfo(float).eps * (abs(A) @ y))):
        raise IndefiniteOperatorError(
            "no positive vector certifies the matrix as an M-matrix: "
            "it is not positive definite"
        )
    if order is not None:
        return _OrderedFactor(lu, order)
    op._free_order = np.argsort(lu.perm_c)
    return lu


def solve_mixed(op: OperatorAssembly, rhs, dirichlet_data, robin_rhs=0.0) -> LinearSolveReport:
    """Solve the mixed linear problem L u + c u = rhs with Robin data.

    rhs is the interior source f1, robin_rhs the boundary source f2 of the
    mixed weak form; they and the Dirichlet data take any form Field.of
    takes, and Dirichlet rows return the supplied data exactly.  The free
    rows' right side is the integrated source minus the Dirichlet lift,
    op.matrix applied to the data with its free entries zeroed: CSR matvec
    sums each row in column order and the free columns add exact zeros, so
    the lift is bitwise the free-to-fixed block times the data.  The first
    solve with an operator factors its free block by _factor_spd and caches
    the factor on the operator, so later solves with it, serial or
    concurrent, are back-substitutions on that one factor.  Raises
    IndefiniteOperatorError when the operator is not positive definite
    (raise c) and NonConvergenceError when the relative residual of the
    reduced system exceeds 1e-6 or is not finite.
    """
    mesh = op.mesh
    rvals, dvals, gvals = (Field.of(mesh, f).values
                           for f in (rhs, dirichlet_data, robin_rhs))
    free = op.free
    b = op.volume_mass * rvals + op.boundary_mass * gvals
    b_f = b[free] - (op.matrix @ np.where(free, 0.0, dvals))[free]
    if op._free_factor is None:
        op._free_factor = _factor_spd(op)
    x = op._free_factor.solve(b_f)
    bnorm = np.linalg.norm(b_f)
    relres = float(np.linalg.norm(b_f - op.free_matrix @ x) / bnorm) if bnorm != 0.0 else 0.0
    if not relres <= 1e-6:
        raise NonConvergenceError(
            f"direct solve residual {relres:.3e} exceeds tolerance", residual=relres
        )
    u = dvals.copy()
    u[free] = x
    return LinearSolveReport(solution=Field(mesh, u), relative_residual=relres)


def rayleigh_quotient(op: OperatorAssembly, zeta) -> float:
    """(energy[zeta] + int c zeta^2 + int_Robin c2 zeta^2) / int zeta^2.

    zeta, in any form Field.of takes, must vanish on every Dirichlet-tagged
    node; this is the variational quotient whose infimum the principal
    eigenvalue realizes.
    """
    z = Field.of(op.mesh, zeta).values
    if np.any(z[op.mesh.dirichlet_mask] != 0.0):
        raise ValueError("zeta must vanish on all Dirichlet-tagged nodes")
    den = float(np.sum(op.volume_mass * z * z))
    if den == 0.0:
        raise ValueError("zeta is identically zero on the volume quadrature")
    return float(z @ (op.matrix @ z)) / den


def principal_eigen(op: OperatorAssembly, variant: str) -> tuple[float, Field]:
    """Smallest eigenvalue and positive ground state of (A, B) by inverse iteration.

    A is the operator with potentials c, c2; B is the
    volume mass or, for the "volume-plus-boundary" variant, volume plus
    Robin surface mass.  The iteration inverts A + mu*B with mu chosen from
    a generalized Gershgorin lower bound so the shifted matrix is positive
    definite; it is factored once by _factor_spd, which certifies that.  The
    iteration stops once the quotient settles to EIGEN_TOL relative, else
    NonConvergenceError after EIGEN_MAX_ITER sweeps.  Each sweep normalizes
    the iterate to sup |v| = 1; the certified factor has a nonnegative
    inverse and the iteration starts from ones, so the largest entry is +1
    and the eigenvector has sup = 1.  A genuinely negative component raises
    NegativeEigenvectorError since the ground state of an irreducible
    M-matrix pencil must be positive.  An unknown variant is a ValueError.
    """
    free = op.free
    if variant == "volume":
        bdiag = op.volume_mass[free]
    elif variant == "volume-plus-boundary":
        bdiag = (op.volume_mass + op.boundary_mass)[free]
    else:
        raise ValueError(f"unknown eigenvalue denominator variant {variant!r}")
    A = op.free_matrix
    n = A.shape[0]
    # Gershgorin on B^(-1) A (similar to the pencil): with the row-sum
    # stiffness construction this is tight, lower ~ min potential
    diag = A.diagonal()
    offsum = np.asarray(np.abs(A).sum(axis=1)).ravel() - np.abs(diag)
    lower = float(np.min((diag - offsum) / bdiag))
    mu = 0.0 if lower > 0 else -lower + max(1e-8, 0.01 * abs(lower))

    factor = _factor_spd(op, mu * bdiag)

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

    if np.min(v) < -1e-10:
        raise NegativeEigenvectorError(
            f"ground-state candidate has negative component {np.min(v):.3e}"
        )
    full = np.zeros(op.mesh.n_nodes)
    full[free] = v
    return lam, Field(op.mesh, full)
