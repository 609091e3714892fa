"""Spans and counters around the calls into each layer of coneyamabe.

Everything here patches module and class attributes from outside the
package and restores them on exit; nothing under src/ records anything.
A span is (name, start, end, parent index, info); a layer's self time is its
span time minus the time its child spans cover.  The recorder keeps one span
stack, so it traces single-threaded runs (the workloads use --threads 1).
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import dataclass, field

import scipy.linalg
import scipy.sparse.linalg

from coneyamabe import cli, mesh, solver

# Name of the span around the tracer's own bookkeeping (factor fill counts).
# Its time is left out of every enclosing span's busy and self time.
BOOKKEEPING = "trace.bookkeeping"


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    info: float | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Recorder:
    """In-memory spans and counters of one traced round."""

    spans: list[Span] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)

    def open(self, name: str) -> Span:
        span = Span(name, time.perf_counter(), parent=self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def count(self, name: str) -> None:
        self.counts[name] = self.counts.get(name, 0) + 1

    def timed(self, name: str, fn, info=None):
        """fn wrapped in a span; info(args, result) is stored on the span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if info is not None:
                span.info = info(args, result)
            return result

        return wrapper

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.info]) + "\n")
            fh.write(json.dumps({"counts": self.counts}) + "\n")


class _TracedLU:
    """Proxy for a SuperLU factor whose back-solves are spans."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._lu, name)


def _traced_splu(rec: Recorder, splu):
    @functools.wraps(splu)
    def wrapper(*args, **kwargs):
        span = rec.open("splu")
        try:
            lu = splu(*args, **kwargs)
        finally:
            rec.close(span)
        book = rec.open(BOOKKEEPING)
        span.info = float(lu.L.nnz + lu.U.nnz)
        rec.close(book)
        return _TracedLU(lu, rec.timed("splu.solve", lu.solve))

    return wrapper


def _counted_property(rec: Recorder, name: str, prop: property) -> property:
    def getter(obj):
        rec.count(name)
        return prop.fget(obj)

    return property(getter, doc=prop.__doc__)


def _iterations(args, result) -> float:
    return float(result.iterations)


def layer_patches(rec: Recorder) -> list[tuple[object, str, object]]:
    """(owner, attribute, replacement) for every traced call site.

    The owners are the attributes through which the package makes the call:
    cli and solver bind their imports at module level, elliptic reaches
    scipy through the scipy.linalg and scipy.sparse.linalg module objects,
    and the solver's function-local `import scipy.sparse.linalg` resolves to
    that same module object.
    """
    patches = [
        (cli, "parse_config", rec.timed("config.parse", cli.parse_config)),
        (cli, "build_mesh", rec.timed("mesh.build", cli.build_mesh)),
        (cli, "truncation_family", rec.timed("mesh.build", cli.truncation_family)),
        (cli, "assemble", rec.timed("elliptic.assemble", cli.assemble)),
        (solver, "assemble", rec.timed("elliptic.assemble", solver.assemble)),
        (scipy.linalg, "cho_factor", rec.timed(
            "elliptic.dense_factor", scipy.linalg.cho_factor,
            info=lambda args, result: float(args[0].shape[0]))),
        (scipy.linalg, "cho_solve", rec.timed("elliptic.dense_solve", scipy.linalg.cho_solve)),
        (solver, "solve_mixed", rec.timed("elliptic.solve_mixed", solver.solve_mixed,
                                          info=_iterations)),
        (cli, "principal_eigen", rec.timed("elliptic.eigen", cli.principal_eigen)),
        (scipy.sparse.linalg, "splu", _traced_splu(rec, scipy.sparse.linalg.splu)),
        (solver, "newton_solve", rec.timed("solver.newton", solver.newton_solve,
                                           info=_iterations)),
        (solver.NonlinearProblem, "integrated_residual", rec.timed(
            "solver.residual", solver.NonlinearProblem.integrated_residual)),
        (solver, "exhaustion_blowup_solve", rec.timed(
            "solver.exhaustion", solver.exhaustion_blowup_solve)),
        (solver, "monotone_iterate", rec.timed(
            "solver.monotone", solver.monotone_iterate,
            info=lambda args, result: float(result[0].iterations))),
        (solver, "fit_blowup_exponent", rec.timed("solver.fit", solver.fit_blowup_exponent)),
    ]
    for owner, attr in ((cli, "write_csv"), (cli, "write_svg_lines"),
                        (cli, "write_field_table"), (cli.Summary, "write")):
        patches.append((owner, attr, rec.timed("cli.write", getattr(owner, attr))))
    for prop in ("dirichlet_mask", "robin_mask", "free_mask"):
        patches.append((mesh.Mesh, prop, _counted_property(
            rec, "mesh.mask_evals", vars(mesh.Mesh)[prop])))
    return patches


@contextlib.contextmanager
def patched(patches):
    """Install (owner, attribute, replacement) triples; restore them on exit."""
    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, new in patches:
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)


# ---------------------------------------------------------------------------
# per-layer metrics from one round's spans
# ---------------------------------------------------------------------------

# name -> unit, in the order the benchmark prints them
LAYER_UNITS = {
    "config.parse_s": "s",
    "mesh.build_s": "s",
    "mesh.mask_evals": "count",
    "elliptic.assemble_calls": "count",
    "elliptic.assemble_s": "s",
    "elliptic.dense_factor_calls": "count",
    "elliptic.dense_factor_s": "s",
    "elliptic.dense_factor_mb": "MB",
    "elliptic.dense_solve_calls": "count",
    "elliptic.dense_solve_s": "s",
    "elliptic.cg_solves": "count",
    "elliptic.cg_iters": "count",
    "elliptic.cg_s": "s",
    "elliptic.eigen_s": "s",
    "elliptic.eigen_iters": "count",
    "solver.newton_calls": "count",
    "solver.newton_iters": "count",
    "solver.newton_s": "s",
    "solver.newton_self_s": "s",
    "solver.residual_evals": "count",
    "solver.residual_s": "s",
    "solver.line_search_halvings": "count",
    "solver.lu_factor_calls": "count",
    "solver.lu_factor_s": "s",
    "solver.lu_fill_nnz": "count",
    "solver.lu_solve_s": "s",
    "solver.exhaustion_calls": "count",
    "solver.exhaustion_s": "s",
    "solver.monotone_iters": "count",
    "solver.monotone_s": "s",
    "solver.fit_s": "s",
    "cli.write_s": "s",
    "trace.overhead_s": "s",
}


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Every LAYER_UNITS metric except trace.overhead_s, from one round."""
    spans = rec.spans

    def under(i: int, name: str) -> bool:
        p = spans[i].parent
        while p >= 0:
            if spans[p].name == name:
                return True
            p = spans[p].parent
        return False

    def select(name, within=None):
        return [i for i, s in enumerate(spans)
                if s.name == name and (within is None or under(i, within))]

    # the tracer's own bookkeeping inside each span, left out of its busy time
    book = [0.0] * len(spans)
    for s in spans:
        if s.name == BOOKKEEPING:
            p = s.parent
            while p >= 0:
                book[p] += s.seconds
                p = spans[p].parent

    def seconds(i):
        return spans[i].seconds - book[i]

    def busy(idx):
        # outermost spans only, so a layer re-entering itself is not counted twice
        return sum(seconds(i) for i in idx if not under(i, spans[i].name))

    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.seconds

    mixed = select("elliptic.solve_mixed")
    cg = [i for i in mixed if (spans[i].info or 0) > 1]
    dense_factor = select("elliptic.dense_factor", within="elliptic.solve_mixed")
    newton = select("solver.newton")
    newton_lu = select("splu", within="solver.newton")
    newton_solves = select("splu.solve", within="solver.newton")
    newton_residuals = select("solver.residual", within="solver.newton")
    residuals = select("solver.residual")
    monotone = select("solver.monotone")
    assemble = select("elliptic.assemble")
    # Each Newton call evaluates the residual once at its start; each Newton
    # step (one back-solve) evaluates it once for the right-hand side and
    # once per line-search trial, and every trial after the first is a halving.
    halvings = len(newton_residuals) - len(newton) - 2 * len(newton_solves)
    return {
        "config.parse_s": busy(select("config.parse")),
        "mesh.build_s": busy(select("mesh.build")),
        "mesh.mask_evals": rec.counts.get("mesh.mask_evals", 0),
        "elliptic.assemble_calls": len(assemble),
        "elliptic.assemble_s": busy(assemble),
        "elliptic.dense_factor_calls": len(dense_factor),
        "elliptic.dense_factor_s": busy(dense_factor),
        # the densified matrix and the factor copy cho_factor returns
        "elliptic.dense_factor_mb": max(
            (2 * 8 * spans[i].info ** 2 / 2**20 for i in dense_factor), default=0.0),
        "elliptic.dense_solve_calls": len(select("elliptic.dense_solve")),
        "elliptic.dense_solve_s": busy(select("elliptic.dense_solve")),
        "elliptic.cg_solves": len(cg),
        "elliptic.cg_iters": int(sum(spans[i].info for i in cg)),
        "elliptic.cg_s": sum(seconds(i) for i in cg),
        "elliptic.eigen_s": busy(select("elliptic.eigen")),
        "elliptic.eigen_iters": len(select("splu.solve", within="elliptic.eigen")),
        "solver.newton_calls": len(newton),
        "solver.newton_iters": int(sum(spans[i].info for i in newton)),
        "solver.newton_s": busy(newton),
        "solver.newton_self_s": sum(spans[i].seconds - child_time[i] for i in newton),
        "solver.residual_evals": len(residuals),
        "solver.residual_s": busy(residuals),
        "solver.line_search_halvings": halvings,
        "solver.lu_factor_calls": len(newton_lu),
        "solver.lu_factor_s": busy(newton_lu),
        "solver.lu_fill_nnz": int(max((spans[i].info for i in newton_lu), default=0)),
        "solver.lu_solve_s": busy(newton_solves),
        "solver.exhaustion_calls": len(select("solver.exhaustion")),
        "solver.exhaustion_s": busy(select("solver.exhaustion")),
        "solver.monotone_iters": int(sum(spans[i].info for i in monotone)),
        "solver.monotone_s": busy(monotone),
        "solver.fit_s": busy(select("solver.fit")),
        "cli.write_s": busy(select("cli.write")),
    }
