"""Output checks that do not rest on the program's own verdicts or numbers.

Each check takes an operation's output directory, its config (as read by
read_cfg) and the solutions the benchmark captured from that operation's
solve_problem calls, and returns a list of problems; an empty list means
the output is correct.  The references are closed forms or independent
computations: the dimension threshold (n-2)/2, the exact power solution
u_* = rho^(-(n-2)/2), and scipy's ARPACK eigensolver.
"""

from __future__ import annotations

import configparser
import csv
import math
from pathlib import Path

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from coneyamabe import ConeModel, ReducedDomain, assemble, build_mesh, flat_cone_problem

FREE_TAGS = ("INTERIOR", "ROBIN_CONE")


def read_cfg(path) -> configparser.ConfigParser:
    cfg = configparser.ConfigParser(inline_comment_prefixes=("#",))
    with open(path) as fh:
        cfg.read_string(fh.read())
    return cfg


def read_rows(path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _ints(text: str) -> list[int]:
    return [int(x) for x in text.split(",")]


def check_dichotomy(out: Path, cfg, solves) -> list[str]:
    """Verdict COMPLETE_TYPE exactly when d > (n-2)/2, else BOUNDED_TYPE.

    Above the threshold the exponent is within 0.1 (n-2)/2 of (n-2)/2 (the
    acceptance tolerances 0.05 for (3,1) and 0.1 for (4,2)) and the
    completeness indicator is positive; at or below it alpha <= 0.1 and the
    near-singular sup varies by less than 0.05 between the last two levels.
    """
    n = cfg.getint("cone", "n")
    m = (n - 2) / 2
    rows = read_rows(out / "dichotomy.csv")
    problems = []
    d_list = _ints(cfg.get("experiment", "d_list"))
    if [int(r["d"]) for r in rows] != d_list:
        problems.append(f"dichotomy.csv rows for d = {[r['d'] for r in rows]}, expected {d_list}")
    levels = cfg.getint("experiment", "truncation_levels")
    for r in rows:
        d = int(r["d"])
        alpha = float(r["alpha"])
        tag = f"(n, d) = ({n}, {d})"
        if int(r["levels"]) != levels:
            problems.append(f"{tag}: {r['levels']} levels, expected {levels}")
        if d > m:
            if r["verdict"] != "COMPLETE_TYPE":
                problems.append(f"{tag}: verdict {r['verdict']}, expected COMPLETE_TYPE")
            if not abs(alpha - m) <= 0.1 * m:
                problems.append(f"{tag}: alpha {alpha} not within {0.1 * m:g} of {m:g}")
            if not float(r["completeness_last"]) > 0:
                problems.append(f"{tag}: completeness indicator {r['completeness_last']} <= 0")
        else:
            if r["verdict"] != "BOUNDED_TYPE":
                problems.append(f"{tag}: verdict {r['verdict']}, expected BOUNDED_TYPE")
            if not alpha <= 0.1:
                problems.append(f"{tag}: alpha {alpha} above 0.1")
            if not float(r["near_gamma_variation"]) < 0.05:
                problems.append(f"{tag}: near-singular sup varies by {r['near_gamma_variation']}")
    return problems


def check_verify(out: Path, cfg, solves) -> list[str]:
    """The error against u_* recomputed from the captured solutions and the
    node coordinates matches errors.csv, and the orders lie in [1.7, 2.3]."""
    n = cfg.getint("cone", "n")
    m = (n - 2) / 2
    sizes = _ints(cfg.get("experiment", "mesh_sizes"))
    rows = read_rows(out / "errors.csv")
    if [int(r["mesh"]) for r in rows] != sizes or len(solves) != len(sizes):
        return [f"errors.csv meshes {[r['mesh'] for r in rows]} and {len(solves)} captured "
                f"solutions, expected {sizes}"]
    problems = []
    errors = []
    for (mesh, u), r, size in zip(solves, rows, sizes):
        if u.shape != (size * size,):
            problems.append(f"mesh {size}: solution has {u.shape} values")
            continue
        rho = mesh.rho_polar * np.sin(mesh.omega)
        err = float(np.max(np.abs(u - rho ** (-m))))
        if not abs(err - float(r["err_inf"])) <= 1e-9 * err:
            problems.append(f"mesh {size}: recomputed error {err:.12g}, errors.csv {r['err_inf']}")
        errors.append(err)
    if problems:
        return problems
    for a, b, r in zip(errors, errors[1:], rows[1:]):
        order = math.log2(a / b)
        if not 1.7 <= order <= 2.3:
            problems.append(f"mesh {r['mesh']}: observed order {order:.4f} outside [1.7, 2.3]")
        if not abs(float(r["observed_order"]) - order) <= 1e-9:
            problems.append(f"mesh {r['mesh']}: errors.csv order {r['observed_order']}, "
                            f"recomputed {order:.12g}")
    return problems


def _field_table(path):
    rows = read_rows(path)
    rp = np.array([float(r["rho_polar"]) for r in rows])
    om = np.array([float(r["omega"]) for r in rows])
    free = np.array([r["tag"] in FREE_TAGS for r in rows])
    vals = np.array([float(r["value"]) for r in rows])
    return rp, om, free, vals


def check_model_solution(out: Path, cfg, solves) -> list[str]:
    """solution.csv lies within the mesh's second-order error of u_*:
    max |u - u_*| <= H^2 sup u_*, H the largest node gap in (log rho_polar,
    omega), rho = rho_polar sin(omega) read from the table."""
    n = cfg.getint("cone", "n")
    nr, na = cfg.getint("mesh", "n_radial"), cfg.getint("mesh", "n_angular")
    rp, om, _, vals = _field_table(out / "solution.csv")
    if vals.shape != (nr * na,):
        return [f"solution.csv has {vals.size} nodes, expected {nr * na}"]
    exact = (rp * np.sin(om)) ** (-(n - 2) / 2)
    gap = max(np.max(np.diff(np.log(np.unique(rp)))), np.max(np.diff(np.unique(om))))
    bound = gap**2 * float(np.max(exact))
    err = float(np.max(np.abs(vals - exact)))
    if not err <= bound:
        return [f"solution.csv: max |u - u_*| = {err:.3e} above the second-order bound {bound:.3e}"]
    return []


def reference_eigenvalue(cfg) -> float:
    """Smallest eigenvalue of the free-node pencil built from assemble's public
    fields, by ARPACK shift-invert around 0 (the operator is positive definite
    because c = 0 and the Robin potential is positive on the flat cone)."""
    cone = ConeModel(cfg.getint("cone", "n"), cfg.getint("cone", "d"), cfg.getfloat("cone", "h"))
    domain = ReducedDomain(cone, cfg.getfloat("mesh", "rho_polar_min"),
                           cfg.getfloat("mesh", "rho_polar_max"),
                           cfg.getfloat("mesh", "omega_min"))
    mesh = build_mesh(domain, cfg.getint("mesh", "n_radial"), cfg.getint("mesh", "n_angular"),
                      cfg.getfloat("mesh", "grading"))
    problem = flat_cone_problem(mesh, cfg.getfloat("coefficients", "c0"),
                                cfg.getfloat("coefficients", "c1"), 1.0)
    op = assemble(mesh, problem.c, problem.c2_lin)
    free = (mesh.tags == 0) | (mesh.tags == 3)  # INTERIOR, ROBIN_CONE
    potential = op.volume_mass * op.c + op.boundary_mass * op.c2
    A = (op.stiffness + sp.diags(potential)).tocsr()[free][:, free].tocsc()
    mass = op.volume_mass
    if cfg.get("experiment", "eigen_denominator") == "volume-plus-boundary":
        mass = mass + op.boundary_mass
    B = sp.diags(mass[free]).tocsc()
    return float(spla.eigsh(A, k=1, M=B, sigma=0.0, which="LM", return_eigenvectors=False)[0])


def check_eigen(out: Path, cfg, solves) -> list[str]:
    """eigen.csv agrees with the ARPACK reference to 1e-8 relative, and the
    eigenvector in eigenvector.csv is positive on every free node."""
    reference = reference_eigenvalue(cfg)
    problems = []
    lam = float(read_rows(out / "eigen.csv")[0]["eigenvalue"])
    if not abs(lam - reference) <= 1e-8 * abs(reference):
        problems.append(f"eigenvalue {lam!r} differs from the ARPACK reference {reference!r}")
    _, _, free, vec = _field_table(out / "eigenvector.csv")
    if not np.all(vec[free] > 0):
        problems.append(f"eigenvector has {int(np.sum(vec[free] <= 0))} nonpositive free values")
    return problems
