"""Command-line experiment runner.

Subcommands: curvature | solve | verify-model | dichotomy | eigen, each
driven by a config file (see config.py for the schema).  Every run writes
comma-separated tables with a header row, a structured key = value summary,
and (unless disabled) line plots of log10 u against log10 rho as standalone
SVG.  Exit codes: 0 success, 1 config or usage error, 2 solver failure
(any SolverError), 3 internal acceptance-check failure; a run that exits
2 or 3 still writes its summary, with the status and the error; a
failed dichotomy names its d and truncation level there, and a failed
eigen or verify-model run its mesh.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, ExperimentConfig, echo_config, parse_config
from .elliptic import SolverError, assemble, principal_eigen, rayleigh_quotient
from .geometry import (
    conformal_rho2_curvatures,
    euclidean_boundary_mean_curvature,
    exact_model_solution,
    model_boundary_mean_curvature,
    product_scalar_curvature,
    vertex_asymptotics,
)
from .mesh import Mesh, build_mesh, resample, truncation_family, write_field_table
from .solver import (
    NonlinearProblem,
    dichotomy_verdict,
    flat_cone_problem,
    maximal_solution,
    model_dirichlet_data,
    model_problem,
    solve_problem,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2
EXIT_CHECK = 3

class AcceptanceCheckError(RuntimeError):
    """An internal consistency check of the experiment failed."""


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


class Summary:
    """Ordered key = value lines; every number traceable to a report field."""

    def __init__(self):
        self.items: list[tuple[str, str]] = []

    def add(self, key, value):
        self.items.append((str(key), _fmt(value)))

    def extend(self, pairs):
        for k, v in pairs:
            self.add(k, v)

    def write(self, path: Path):
        with open(path, "w", newline="\n") as fh:
            for k, v in self.items:
                fh.write(f"{k} = {v}\n")


def write_svg_lines(path: Path, series, title, xlabel, ylabel) -> None:
    """Minimal standalone SVG line plot: series = [(x array, y array, label)]."""
    W, H, ML, MR, MT, MB = 640, 460, 70, 150, 40, 55
    xs = np.concatenate([np.asarray(s[0], float) for s in series])
    ys = np.concatenate([np.asarray(s[1], float) for s in series])
    finite = np.isfinite(xs) & np.isfinite(ys)
    if not np.any(finite):
        return
    x0, x1 = float(xs[finite].min()), float(xs[finite].max())
    y0, y1 = float(ys[finite].min()), float(ys[finite].max())
    if x1 - x0 < 1e-12:
        x0, x1 = x0 - 0.5, x1 + 0.5
    if y1 - y0 < 1e-12:
        y0, y1 = y0 - 0.5, y1 + 0.5

    def px(x):
        return ML + (x - x0) / (x1 - x0) * (W - ML - MR)

    def py(y):
        return H - MB - (y - y0) / (y1 - y0) * (H - MT - MB)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
              "#e377c2", "#7f7f7f", "#bcbd22", "#17becf"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<text x="{W/2:.1f}" y="22" text-anchor="middle" font-size="15" '
        f'font-family="sans-serif">{title}</text>',
        f'<rect x="{ML}" y="{MT}" width="{W-ML-MR}" height="{H-MT-MB}" '
        f'fill="none" stroke="#444"/>',
    ]
    for k in range(5):
        xv = x0 + k * (x1 - x0) / 4
        yv = y0 + k * (y1 - y0) / 4
        parts.append(
            f'<text x="{px(xv):.1f}" y="{H-MB+18}" text-anchor="middle" font-size="11" '
            f'font-family="sans-serif">{xv:.3g}</text>'
        )
        parts.append(
            f'<text x="{ML-8}" y="{py(yv)+4:.1f}" text-anchor="end" font-size="11" '
            f'font-family="sans-serif">{yv:.3g}</text>'
        )
        parts.append(
            f'<line x1="{ML}" y1="{py(yv):.1f}" x2="{W-MR}" y2="{py(yv):.1f}" '
            f'stroke="#ddd" stroke-width="0.5"/>'
        )
    parts.append(
        f'<text x="{(ML+W-MR)/2:.1f}" y="{H-12}" text-anchor="middle" font-size="13" '
        f'font-family="sans-serif">{xlabel}</text>'
    )
    parts.append(
        f'<text x="18" y="{(MT+H-MB)/2:.1f}" text-anchor="middle" font-size="13" '
        f'font-family="sans-serif" transform="rotate(-90 18 {(MT+H-MB)/2:.1f})">{ylabel}</text>'
    )
    for i, (sx, sy, label) in enumerate(series):
        sx = np.asarray(sx, float)
        sy = np.asarray(sy, float)
        ok = np.isfinite(sx) & np.isfinite(sy)
        pts = " ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in zip(sx[ok], sy[ok]))
        color = colors[i % len(colors)]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.6"/>')
        ytxt = MT + 16 + 16 * i
        parts.append(
            f'<line x1="{W-MR+8}" y1="{ytxt-4}" x2="{W-MR+30}" y2="{ytxt-4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{W-MR+34}" y="{ytxt}" font-size="11" font-family="sans-serif">{label}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------


def _build_problem(cfg: ExperimentConfig, mesh, data=None) -> NonlinearProblem:
    """Flat-cone problem with the configured coefficients; data overrides cfg.dirichlet."""
    if data is None:
        data = model_dirichlet_data(mesh) if cfg.dirichlet == "model" else float(cfg.dirichlet)
    return flat_cone_problem(mesh, cfg.c0, cfg.c1, data)


def run_curvature(cfg: ExperimentConfig, out: Path, summary: Summary) -> None:
    cone = cfg.cone
    va = vertex_asymptotics(cone)
    R = product_scalar_curvature(cone)
    H = model_boundary_mean_curvature(cone)
    conf = conformal_rho2_curvatures(cone, 0.0, va.rho_lap_rho, va.rho_H, va.grad_rho_nu)
    sol = exact_model_solution(cone)
    rows = [[
        cone.n, cone.d, cone.h, cone.theta, R, H,
        euclidean_boundary_mean_curvature(cone, 1.0),
        va.grad_rho_nu, va.rho_H, va.rho_lap_rho,
        conf.scalar, conf.mean,
        cone.blowup_exponent, sol.c0_star, sol.c1_star, int(cone.complete_regime),
    ]]
    write_csv(out / "curvature.csv", [
        "n", "d", "h", "theta", "R_product", "H_model", "H_euclidean_t1",
        "grad_rho_nu", "rho_H", "rho_lap_rho", "R_conformal", "H_conformal",
        "exponent", "c0_star", "c1_star", "complete_regime",
    ], rows)
    summary.add("curvature.R_product", R)
    summary.add("curvature.H_model", H)
    summary.add("curvature.c0_star", sol.c0_star)
    summary.add("curvature.c1_star", sol.c1_star)
    # conformal cross-check: the rescaled-metric formulas must agree with the
    # closed-form curvatures
    if abs(conf.scalar - R) > 1e-12 or abs(conf.mean - H) > 1e-12:
        raise AcceptanceCheckError(
            f"conformal cross-check failed: ({conf.scalar}, {conf.mean}) vs ({R}, {H})"
        )


def _completeness(mesh: Mesh, u: np.ndarray) -> float:
    """min of u * rho^((n-2)/2) over the lowest-rho quartile of free nodes."""
    rho = mesh.rho
    free = mesh.free_mask
    band = free & (rho <= np.quantile(rho[free], 0.25))
    return float(np.min(u[band] * rho[band] ** mesh.domain.cone.blowup_exponent))


def run_solve(cfg: ExperimentConfig, out: Path, summary: Summary) -> None:
    mesh = build_mesh(cfg.domain(), cfg.n_radial, cfg.n_angular, cfg.grading)
    problem = _build_problem(cfg, mesh)
    rep = solve_problem(problem, method=cfg.method, tol=cfg.nonlinear_tol,
                        max_iter=cfg.max_iter)
    with open(out / "solution.csv", "w", newline="\n") as fh:
        write_field_table(fh, mesh, rep.solution.values)
    summary.add("solve.method", cfg.method)
    summary.add("solve.iterations", rep.iterations)
    summary.add("solve.factor_fill", rep.factor_fill)
    summary.add("solve.final_increment", rep.final_increment)
    summary.add("solve.residual_sup", rep.residual_sup)
    if cfg.method == "monotone":
        summary.add("solve.bracket", rep.bracket)
    summary.add("solve.completeness_indicator", _completeness(mesh, rep.solution.values))
    if cfg.plot:
        sl = mesh.mid_radial_row
        rho, u = mesh.rho[sl], rep.solution.values[sl]
        ok = u > 0
        write_svg_lines(
            out / "profile.svg",
            [(np.log10(rho[ok]), np.log10(u[ok]), "mid-radial slice")],
            f"n={cfg.n} d={cfg.d}: solution profile",
            "log10 rho", "log10 u",
        )


@contextlib.contextmanager
def _failing_on(mesh: Mesh):
    """Name the mesh, as n_radial x n_angular, on a SolverError raised inside."""
    try:
        yield
    except SolverError as exc:
        exc.mesh = f"{mesh.n_radial}x{mesh.n_angular}"
        raise


def run_verify_model(cfg: ExperimentConfig, out: Path, summary: Summary) -> None:
    rows = []
    errors = []
    prev = None  # Newton's last solution, the next mesh's start
    for size in cfg.mesh_sizes:
        mesh = build_mesh(cfg.domain(), size, size, cfg.grading)
        problem = model_problem(mesh)
        t0 = time.perf_counter()
        start = None if prev is None else resample(prev, mesh)
        with _failing_on(mesh):
            rep = solve_problem(problem, method=cfg.method, tol=cfg.nonlinear_tol,
                                max_iter=cfg.max_iter, u0=start)
        dt = time.perf_counter() - t0
        if cfg.method == "newton":
            prev = rep.solution
        # the model data hold the exact solution on every node
        exact = problem.dirichlet_data.values
        err = float(np.max(np.abs(rep.solution.values - exact)))
        order = math.log2(errors[-1] / err) if errors else float("nan")
        errors.append(err)
        rows.append([size, mesh.n_nodes, err, order, rep.iterations, rep.residual_sup])
        summary.add(f"verify_model.err_{size}", err)
        summary.add(f"verify_model.seconds_{size}", dt)
        summary.add(f"verify_model.factorizations_{size}", rep.factorizations)
        summary.add(f"verify_model.factor_fill_{size}", rep.factor_fill)
        if errors[:-1]:
            summary.add(f"verify_model.order_{size}", order)
    write_csv(out / "errors.csv",
              ["mesh", "nodes", "err_inf", "observed_order", "iterations", "residual_sup"],
              rows)
    if cfg.plot:
        hs = [1.0 / s for s in cfg.mesh_sizes]
        write_svg_lines(
            out / "convergence.svg",
            [(np.log10(hs), np.log10(errors), "L-inf error")],
            f"n={cfg.n} d={cfg.d}: exact-solution convergence",
            "log10 h", "log10 error",
        )
    orders = [r[3] for r in rows[1:]]
    if any(not (1.7 <= o <= 2.3) for o in orders):
        raise AcceptanceCheckError(f"observed orders {orders} outside [1.7, 2.3]")


def _dichotomy_single(cfg: ExperimentConfig, d: int):
    sub = dataclasses.replace(cfg, d=d, d_list=[])
    base = build_mesh(sub.domain(), sub.n_radial, sub.n_angular, sub.grading)
    meshes = truncation_family(base, sub.truncation_levels, sub.nodes_per_octave)
    problems = [_build_problem(sub, m, data=1.0) for m in meshes]
    try:
        return maximal_solution(problems, data_sequence=sub.data_sequence(),
                                tol=sub.exhaustion_tol, inner_tol=sub.nonlinear_tol)
    except SolverError as exc:
        exc.d = d
        exc.add_note(f"at d = {d}")
        raise


def run_dichotomy(cfg: ExperimentConfig, out: Path, summary: Summary, threads: int = 1) -> None:
    d_values = cfg.d_list or [cfg.d]
    if threads == 1:
        # in the calling thread: a pool worker would get a malloc arena of its own
        results = [_dichotomy_single(cfg, d) for d in d_values]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(lambda d: _dichotomy_single(cfg, d), d_values))

    rows = []
    wrong = []
    for d, reports in zip(d_values, results):
        last, prev = reports[-1], reports[-2]
        cone = last.solution.mesh.domain.cone
        verdict = dichotomy_verdict(reports).value
        # under the theorem's hypotheses c0, c1 > 0 a complete solution exists
        # exactly in the cone's complete regime; INCONCLUSIVE contradicts neither side
        if verdict == ("BOUNDED_TYPE" if cone.complete_regime else "COMPLETE_TYPE"):
            wrong.append(f"d = {d} reads {verdict}")
        rows.append([
            cfg.n, d, cfg.h, len(reports), last.fitted_exponent,
            last.completeness_indicator, prev.completeness_indicator,
            last.near_gamma_sup, last.near_gamma_variation, verdict,
        ])
        summary.add(f"dichotomy.d{d}.alpha", last.fitted_exponent)
        summary.add(f"dichotomy.d{d}.alpha_r2", last.fit_r2)
        summary.add(f"dichotomy.d{d}.completeness", last.completeness_indicator)
        # K needs c0 > 0, and a c0 = 0 sweep finishes under a loose exhaustion_tol
        K = cone.blowup_amplitude(cfg.c0) if cfg.c0 > 0 else math.nan
        summary.add(f"dichotomy.d{d}.blowup_amplitude", K)
        summary.add(f"dichotomy.d{d}.near_gamma_variation", last.near_gamma_variation)
        summary.add(f"dichotomy.d{d}.verdict", verdict)
        summary.add(f"dichotomy.d{d}.newton_steps", sum(r.iterations for r in reports))
        summary.add(f"dichotomy.d{d}.factorizations", sum(r.factorizations for r in reports))
        summary.add(f"dichotomy.d{d}.factor_fill", sum(r.factor_fill for r in reports))
        if cfg.plot:
            series = []
            for k, rep in enumerate(reports):
                mesh = rep.solution.mesh
                sl = mesh.mid_radial_row
                rho, u = mesh.rho[sl], rep.solution.values[sl]
                ok = (u > 0) & mesh.free_mask[sl]
                series.append((np.log10(rho[ok]), np.log10(u[ok]), f"level {k}"))
            write_svg_lines(
                out / f"dichotomy_n{cfg.n}_d{d}.svg", series,
                f"n={cfg.n} d={d}: maximal-solution profiles",
                "log10 rho", "log10 u",
            )
    write_csv(out / "dichotomy.csv", [
        "n", "d", "h", "levels", "alpha", "completeness_last", "completeness_prev",
        "near_gamma_sup", "near_gamma_variation", "verdict",
    ], rows)
    if cfg.c0 > 0 and cfg.c1 > 0 and wrong:
        raise AcceptanceCheckError(
            f"{'; '.join(wrong)}, against the theorem's threshold "
            f"(n-2)/2 = {cone.blowup_exponent:g}"
        )


def run_eigen(cfg: ExperimentConfig, out: Path, summary: Summary) -> None:
    mesh = build_mesh(cfg.domain(), cfg.n_radial, cfg.n_angular, cfg.grading)
    problem = _build_problem(cfg, mesh)
    op = assemble(mesh, problem.c, problem.c2_lin)
    del problem  # the eigen factorization runs beside the operator alone
    with _failing_on(mesh):
        lam, vec = principal_eigen(op, cfg.eigen_denominator)
    rq = rayleigh_quotient(op, vec)
    rows = [[cfg.eigen_denominator, lam, rq,
             float(np.min(vec.values[mesh.free_mask])), int(op.m_matrix_ok)]]
    write_csv(out / "eigen.csv",
              ["variant", "eigenvalue", "rayleigh_quotient", "eigvec_min", "m_matrix_ok"],
              rows)
    with open(out / "eigenvector.csv", "w", newline="\n") as fh:
        write_field_table(fh, mesh, vec.values)
    summary.add("eigen.variant", cfg.eigen_denominator)
    summary.add("eigen.value", lam)
    summary.add("eigen.rayleigh_quotient", rq)
    summary.add("eigen.eigvec_min", float(np.min(vec.values[mesh.free_mask])))
    if cfg.eigen_denominator == "volume" and abs(rq - lam) > 1e-8 * (1 + abs(lam)):
        raise AcceptanceCheckError(
            f"Rayleigh quotient of the eigenvector ({rq}) disagrees with the eigenvalue ({lam})"
        )


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _thread_count(text: str) -> int:
    threads = int(text)
    if threads < 1:
        raise argparse.ArgumentTypeError("needs at least one thread")
    return threads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="coneyamabe",
        description="Constant-curvature conformal metrics on solid cones: "
                    "curvature tables, nonlinear solves, convergence and dichotomy experiments.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in [
        ("curvature", "closed-form curvature table for the configured cone"),
        ("solve", "single nonlinear solve on the configured mesh"),
        ("verify-model", "convergence study against the exact power solution"),
        ("dichotomy", "maximal-solution sweep over singular-set dimensions"),
        ("eigen", "principal eigenvalue of the linearized operator"),
    ]:
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="path to the config file")
        p.add_argument("--out", default=".", help="output directory (default: cwd)")
        p.add_argument("--threads", type=_thread_count, default=1,
                       help="concurrent runs for dichotomy sweeps")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # --help and --version exit 0; a usage error is a config error
        return EXIT_CONFIG if exc.code else EXIT_OK

    try:
        cfg = parse_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if cfg.kind != args.command:
        print(
            f"config error: experiment kind {cfg.kind!r} does not match "
            f"subcommand {args.command!r}",
            file=sys.stderr,
        )
        return EXIT_CONFIG

    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # an existing file, or a path through one
        print(f"usage error: --out {args.out} cannot be a directory: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    summary = Summary()
    summary.extend(echo_config(cfg))
    t0 = time.perf_counter()
    status, code, error, failed = "ok", EXIT_OK, None, {}
    try:
        if args.command == "curvature":
            run_curvature(cfg, out, summary)
        elif args.command == "solve":
            run_solve(cfg, out, summary)
        elif args.command == "verify-model":
            run_verify_model(cfg, out, summary)
        elif args.command == "dichotomy":
            run_dichotomy(cfg, out, summary, threads=args.threads)
        elif args.command == "eigen":
            run_eigen(cfg, out, summary)
    except AcceptanceCheckError as exc:
        status, code, error = "check-failed", EXIT_CHECK, str(exc)
        print(f"acceptance check failed: {error}", file=sys.stderr)
    except SolverError as exc:
        # the notes and keys of a failed dichotomy, eigen or verify-model
        # run say where it failed
        error = "; ".join([f"{type(exc).__name__}: {exc}", *getattr(exc, "__notes__", ())])
        status, code = "solver-failed", EXIT_SOLVER
        failed = {f"failed.{key}": getattr(exc, key) for key in ("d", "level", "mesh")
                  if getattr(exc, key) is not None}
        print(f"solver failure: {error}", file=sys.stderr)
    summary.add("status", status)
    if error is not None:
        summary.add("error", error)
    summary.extend(failed.items())
    summary.add("seconds", time.perf_counter() - t0)
    summary.write(out / "summary.txt")
    return code


if __name__ == "__main__":
    sys.exit(main())
