"""Workloads, timed rounds and the result line of the benchmark.

A workload is a list of operations; an operation is one in-process call of
coneyamabe.cli.main on a config under perfbench/configs.  A round runs every
operation once, in the listed order, and a run repeats whole rounds.  The
configs are the inputs and they are fixed, so every seed runs the same work;
the order is fixed too, because it sets which arrays the allocator still
holds when the largest one is made, and with it the peak resident set.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy
import scipy

from coneyamabe import cli

from . import checks, tracing

CONFIGS = Path(__file__).resolve().parent / "configs"
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_PASSES = 20  # set-up-only passes per run, on top of the timed rounds


@dataclass
class Op:
    command: str       # CLI subcommand
    config: Path
    check: Callable    # checks.check_* (out_dir, cfg, solves) -> problems
    warmup: dict       # {section: {key: value}} turning the config into a miniature


@dataclass
class Workload:
    name: str
    ops: list[Op]


SMALL_MESH = {"mesh": {"n_radial": "12", "n_angular": "12"}}
SMALL_DICHOTOMY = {"mesh": {"n_radial": "12", "n_angular": "12"},
                   "experiment": {"truncation_levels": "2"},
                   "tolerances": {"data_max_exponent": "3", "exhaustion_tol": "1.0"}}

WORKLOADS = {
    "dichotomy": Workload("dichotomy", [
        Op("dichotomy", CONFIGS / "dichotomy_n4_d1.cfg", checks.check_dichotomy, SMALL_DICHOTOMY),
        Op("dichotomy", CONFIGS / "dichotomy_n4_d2.cfg", checks.check_dichotomy, SMALL_DICHOTOMY),
    ]),
    "verify": Workload("verify", [
        Op("verify-model", CONFIGS / "verify_n3_d1.cfg", checks.check_verify,
           {"experiment": {"mesh_sizes": "32,64"}}),
    ]),
    "certify": Workload("certify", [
        Op("solve", CONFIGS / "certify_dense_n3_d1.cfg", checks.check_model_solution, SMALL_MESH),
        Op("solve", CONFIGS / "certify_cg_n3_d1.cfg", checks.check_model_solution, SMALL_MESH),
        Op("eigen", CONFIGS / "certify_eigen_n3_d1.cfg", checks.check_eigen, SMALL_MESH),
    ]),
}


def write_variant(config: Path, overrides: dict, path: Path) -> Path:
    """Copy of config with {section: {key: value}} overrides, written to path."""
    cfg = checks.read_cfg(config)
    for section, values in overrides.items():
        for key, value in values.items():
            cfg.set(section, key, value)
    with open(path, "w") as fh:
        cfg.write(fh)
    return path


class SetupDone(Exception):
    """Raised at an operation's first solver-layer call in a set-up-only pass."""


class Entries:
    """Hooks on the calls through which cli enters the solver layer.

    They mark when an operation's set-up ends (its first such call), can stop
    the operation there, and keep the mesh and solution of every
    solve_problem call for the output checks.
    """

    NAMES = ("maximal_solution", "solve_problem", "assemble", "principal_eigen")

    def __init__(self):
        self.first: float | None = None
        self.abort = False
        self.solves: list = []

    def start(self) -> None:
        self.first = None
        self.solves = []

    def patches(self):
        return [(cli, name, self._wrap(name, getattr(cli, name))) for name in self.NAMES]

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.first is None:
                self.first = time.perf_counter()
                if self.abort:
                    raise SetupDone
            result = fn(*args, **kwargs)
            if name == "solve_problem":
                self.solves.append((args[0].mesh, result.solution.values))
            return result

        return wrapper


def call_cli(op: Op, config: Path, out: Path) -> int:
    """One operation, as a user runs it: `coneyamabe <command> --config ... --threads 1`."""
    try:
        return cli.main([op.command, "--config", str(config), "--out", str(out), "--threads", "1"])
    except SetupDone:
        raise
    except Exception:  # a crash is a failed operation, not the end of the run
        traceback.print_exc()
        return -1


@dataclass
class Round:
    wall: float
    setup: float
    failed: list[int]
    out: Path
    solves: dict[int, list]
    layers: dict[str, float] | None = None


def run_round(wl: Workload, out: Path, entries: Entries) -> Round:
    setup = 0.0
    failed = []
    solves = {}
    t0 = time.perf_counter()
    for i, op in enumerate(wl.ops):
        entries.start()
        start = time.perf_counter()
        if call_cli(op, op.config, out / f"op{i}") != 0:
            failed.append(i)
        setup += (entries.first or time.perf_counter()) - start
        solves[i] = entries.solves
    return Round(time.perf_counter() - t0, setup, failed, out, solves)


def setup_pass(wl: Workload, out: Path, entries: Entries) -> float:
    """Each operation up to its first solver-layer call; summed set-up seconds."""
    total = 0.0
    entries.abort = True
    try:
        for i, op in enumerate(wl.ops):
            entries.start()
            start = time.perf_counter()
            try:
                rc = call_cli(op, op.config, out / f"op{i}")
            except SetupDone:
                total += entries.first - start
            else:
                raise RuntimeError(f"{op.config.name} ended (exit {rc}) before its first solve")
    finally:
        entries.abort = False
    return total


def warm_up(wl: Workload, scratch: Path) -> None:
    """Imports, lazy scipy set-up and first-call costs, on miniature configs."""
    for i, op in enumerate(wl.ops):
        config = write_variant(op.config, op.warmup, scratch / f"warmup{i}.cfg")
        rc = call_cli(op, config, scratch / f"warmup{i}")
        print(f"warm-up {op.config.name}: exit {rc}")


def check_outputs(wl: Workload, rounds: list[Round]) -> list[str]:
    """Independent checks on the first round; later rounds' tables must be
    byte-identical to it, as the CLI promises for reruns."""
    first = rounds[0]
    problems = []
    for i, op in enumerate(wl.ops):
        if i in first.failed:
            continue
        out = first.out / f"op{i}"
        try:
            found = op.check(out, checks.read_cfg(op.config), first.solves[i])
        except (OSError, KeyError, ValueError, IndexError) as exc:
            found = [f"unreadable output: {type(exc).__name__}: {exc}"]
        problems += [f"{op.config.name}: {p}" for p in found]
        for r in rounds[1:]:
            if i in r.failed:
                continue
            for table in sorted(out.glob("*.csv")):
                other = r.out / f"op{i}" / table.name
                if not other.is_file() or other.read_bytes() != table.read_bytes():
                    problems.append(f"{op.config.name}: {table.name} differs between rounds")
    return problems


def measure(wl: Workload, seed: int, seconds: float, traced: bool, scratch: Path) -> dict:
    """Warm up, time rounds for `seconds`, check the outputs; return the result line.

    Untraced, a run repeats whole rounds while the next one is expected to
    end within `seconds` (at least one).  Traced, it alternates an untraced
    and a traced round the same way; per-layer figures are the medians over
    the traced rounds, and trace.overhead_s is the median traced wall time
    minus the median untraced one.
    """
    entries = Entries()
    rounds: list[Round] = []
    traced_rounds: list[Round] = []
    recorders: list[tracing.Recorder] = []
    with tracing.patched(entries.patches()):
        warm_up(wl, scratch)
        setups = [setup_pass(wl, scratch / "setup", entries)
                  for _ in range(0 if traced else SETUP_PASSES)]
        start = time.perf_counter()
        while True:
            rounds.append(run_round(wl, scratch / f"round{len(rounds)}", entries))
            if traced:
                rec = tracing.Recorder()
                with tracing.patched(tracing.layer_patches(rec)):
                    r = run_round(wl, scratch / f"traced{len(traced_rounds)}", entries)
                r.layers = tracing.layer_metrics(rec)
                traced_rounds.append(r)
                recorders.append(rec)
            elapsed = time.perf_counter() - start
            per_round = elapsed / len(rounds)
            if elapsed + per_round > seconds:
                break
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    all_rounds = rounds + traced_rounds
    problems = check_outputs(wl, all_rounds)
    for p in problems:
        print(f"CHECK FAILED {p}")
    walls = [r.wall for r in rounds]
    print(f"{wl.name}: seed {seed}, {len(rounds)} untraced round(s), walls "
          + ", ".join(f"{w:.3f}" for w in walls) + " s")
    result = {
        "correct": not problems,
        "attempted": len(wl.ops) * len(all_rounds),
        "failed": sum(len(r.failed) for r in all_rounds),
    }
    if traced:
        layers = {name: statistics.median(r.layers[name] for r in traced_rounds)
                  for name in traced_rounds[0].layers}
        layers["trace.overhead_s"] = (statistics.median(r.wall for r in traced_rounds)
                                      - statistics.median(walls))
        for k, rec in enumerate(recorders):
            rec.dump(scratch.parent / f"trace-{wl.name}-seed{seed}-{k}.jsonl")
        result["metrics"] = {name: {"value": layers[name], "unit": unit}
                             for name, unit in tracing.LAYER_UNITS.items()}
    else:
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups + [r.setup for r in rounds]),
            "peak_rss_mb": peak_mb,
        }
        result["metrics"] = {name: {"value": values[name], "unit": unit}
                             for name, unit in END_TO_END_UNITS.items()}
    return result


@contextlib.contextmanager
def scratch_dir(root: Path, name: str):
    """A fresh output directory under .perfbench_runs, removed afterwards."""
    path = root / ".perfbench_runs" / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def describe_host() -> None:
    print(f"python {sys.version.split()[0]}, numpy {numpy.__version__}, "
          f"scipy {scipy.__version__}, BLAS threads {blas_threads()}")


def blas_threads() -> str:
    """Thread counts reported by the OpenBLAS libraries numpy and scipy loaded."""
    found = []
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(libdir.glob("*openblas*")):
            handle = ctypes.CDLL(str(lib))
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                if hasattr(handle, symbol):
                    found.append(f"{pkg.__name__}={getattr(handle, symbol)()}")
                    break
    return ", ".join(found) or "unknown"
