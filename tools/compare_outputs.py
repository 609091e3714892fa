"""Compare the outputs of the perfbench configs between a parent checkout and this one.

Usage, from the root of this checkout:

    python3 tools/compare_outputs.py --parent PATH

Runs `coneyamabe <kind> --config ... --threads 1` on every file of this
checkout's perfbench/configs in both checkouts, each in a fresh process
importing the package from its own src/, and writes the outputs to a
temporary directory.  For every output file it then prints `identical`, or
what differs: for a CSV table the columns only one side has and the
largest relative difference of every numeric column both have (a differing
row count is one line), for summary.txt that of every `key = value` line
whose value changed (keys whose last dotted part starts with `seconds` are
skipped, since timing differs on every run), and for both every
non-numeric cell or value that differs.
Any other file that differs is reported with its count of differing lines.
Last comes a table of each run's peak resident memory, one line per
config with a column per side: the child's own ru_maxrss, read when
os.wait4 reaps it, in MB (1024 kB), or `exit N` for a run that failed.
One run in a fresh process carries none of the benchmark loop's repeated
rounds, so the figure is the memory of the program, free of the round
count and of the captures the loop holds.
This is a report, not a gate: it exits 0 whatever it finds.  Standard
library only.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def rel_diff(a: float, b: float) -> float:
    """|a - b| relative to the larger magnitude; 0 for equal values (nan too)."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def _number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def _compare_values(label: str, a: str, b: str, report: list[str]) -> float | None:
    """Relative difference of two numeric cells, or None after reporting two
    differing non-numeric ones."""
    x, y = _number(a), _number(b)
    if x is not None and y is not None:
        return rel_diff(x, y)
    if a != b:
        report.append(f"  {label}: {a!r} != {b!r}")
    return None


def _table(path: Path) -> tuple[list[str], list[dict[str, str]]]:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return reader.fieldnames or [], list(reader)


def compare_csv(parent: Path, change: Path) -> list[str]:
    (head_p, rows_p), (head_c, rows_c) = _table(parent), _table(change)
    if len(rows_p) != len(rows_c):
        return [f"  row count differs: {len(rows_p)} against {len(rows_c)} rows"]
    report = [f"  column {name}: only in the {side}"
              for side, head, other in (("parent", head_p, head_c), ("change", head_c, head_p))
              for name in head if name not in other]
    shared = [name for name in head_p if name in head_c]
    worst: dict[str, float] = {}  # numeric columns only
    cells: list[str] = []
    for k, (rp, rc) in enumerate(zip(rows_p, rows_c), start=1):
        for name in shared:
            d = _compare_values(f"row {k} column {name}", rp[name], rc[name], cells)
            if d is not None:
                worst[name] = max(worst.get(name, 0.0), d)
    return report + [f"  column {name}: largest relative difference {d:.3g}"
                     for name, d in worst.items()] + cells


def _summary(path: Path) -> dict[str, str]:
    pairs = (line.split(" = ", 1) for line in path.read_text().splitlines() if " = " in line)
    return {key: value for key, value in pairs
            if not key.rsplit(".", 1)[-1].startswith("seconds")}


def compare_summary(parent: Path, change: Path) -> list[str]:
    sp, sc = _summary(parent), _summary(change)
    report = []
    for key in sorted(sp.keys() | sc.keys()):
        if key not in sc or key not in sp:
            report.append(f"  {key}: only in the {'parent' if key in sp else 'change'}")
        elif sp[key] != sc[key]:
            d = _compare_values(key, sp[key], sc[key], report)
            if d is not None:
                report.append(f"  {key}: {sp[key]} -> {sc[key]}, relative difference {d:.3g}")
    return report or ["  equal apart from seconds keys"]


def compare_dirs(parent: Path, change: Path) -> list[str]:
    """One report block per output file found under either directory."""
    files = sorted({p.relative_to(parent) for p in parent.rglob("*") if p.is_file()}
                   | {p.relative_to(change) for p in change.rglob("*") if p.is_file()})
    report = []
    for rel in files:
        a, b = parent / rel, change / rel
        if not (a.is_file() and b.is_file()):
            report.append(f"{rel}: only in the {'parent' if a.is_file() else 'change'}")
        elif a.read_bytes() == b.read_bytes():
            report.append(f"{rel}: identical")
        elif rel.suffix == ".csv":
            report += [f"{rel}: differs", *compare_csv(a, b)]
        elif rel.name == "summary.txt":
            report += [f"{rel}: differs", *compare_summary(a, b)]
        else:
            la, lb = a.read_text().splitlines(), b.read_text().splitlines()
            n = sum(x != y for x, y in zip(la, lb)) + abs(len(la) - len(lb))
            report.append(f"{rel}: differs in {n} of {max(len(la), len(lb))} lines")
    return report


def run_configs(checkout: Path, configs: list[Path], out: Path) -> list[str]:
    """Each config through checkout's CLI in a fresh process: per config,
    that process's peak resident memory in MB, or `exit N` if it failed."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    peaks = []
    for cfg in configs:
        kind = re.search(r"^kind\s*=\s*(\S+)", cfg.read_text(), re.M).group(1)
        cmd = [sys.executable, "-m", "coneyamabe.cli", kind, "--config", str(cfg),
               "--out", str(out / cfg.stem), "--threads", "1"]
        proc = subprocess.Popen(cmd, cwd=checkout, env=env,
                                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        # this child's own rusage: RUSAGE_CHILDREN keeps only the largest of all
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        peaks.append(f"exit {proc.returncode}" if proc.returncode else
                     f"{usage.ru_maxrss / 1024.0:.1f}")
    return peaks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent commit checkout")
    args = parser.parse_args(argv)
    parent = args.parent.resolve()
    if not (parent / "src" / "coneyamabe").is_dir():
        parser.error(f"parent checkout {parent} has no src/coneyamabe")
    configs = sorted((ROOT / "perfbench" / "configs").glob("*.cfg"))
    sides = {"parent": parent, "change": ROOT}
    with tempfile.TemporaryDirectory() as tmp:
        peaks = {side: run_configs(checkout, configs, Path(tmp) / side)
                 for side, checkout in sides.items()}
        for line in compare_dirs(Path(tmp) / "parent", Path(tmp) / "change"):
            print(line)
    width = max(len(cfg.stem) for cfg in configs)
    print(f"{'config':<{width}}  " + "  ".join(f"{side + ' MB':>10}" for side in sides))
    for k, cfg in enumerate(configs):
        print(f"{cfg.stem:<{width}}  " + "  ".join(f"{peaks[side][k]:>10}" for side in sides))
    return 0


if __name__ == "__main__":
    sys.exit(main())
