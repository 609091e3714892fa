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
count and of the captures the loop holds.  A last `import floor` row is
the peak of a fresh child that only imports coneyamabe.cli, mostly
scipy's import: a config's peak minus the floor is what its run
allocates, printed next to each peak as `above floor`.  On Linux a child
keeps the peak of the process that started it (exec carries ru_maxrss
over), so the figures hold when this tool is started from a shell, not
from a large python process.
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


def _peak(checkout: Path, args: list[str]) -> str:
    """Peak resident memory in MB of a fresh python running args with
    checkout's src/ on its path, or `exit N` if it failed."""
    proc = subprocess.Popen([sys.executable, *args], cwd=checkout,
                            env=dict(os.environ, PYTHONPATH=str(checkout / "src")),
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    # this child's own rusage: RUSAGE_CHILDREN keeps only the largest of all
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return f"exit {proc.returncode}" if proc.returncode else f"{usage.ru_maxrss / 1024.0:.1f}"


def import_floor(checkout: Path) -> str:
    """The peak of a fresh process that only imports checkout's
    coneyamabe.cli: the part of every run's peak that no solve controls."""
    return _peak(checkout, ["-c", "import coneyamabe.cli"])


def run_configs(checkout: Path, configs: list[Path], out: Path) -> list[str]:
    """Each config through checkout's CLI in a fresh process: per config,
    that process's peak resident memory in MB, or `exit N` if it failed."""
    peaks = []
    for cfg in configs:
        kind = re.search(r"^kind\s*=\s*(\S+)", cfg.read_text(), re.M).group(1)
        peaks.append(_peak(checkout, ["-m", "coneyamabe.cli", kind, "--config", str(cfg),
                                      "--out", str(out / cfg.stem), "--threads", "1"]))
    return peaks


def peak_table(names: list[str], peaks: dict[str, list[str]]) -> list[str]:
    """The peak table: a row per config name and a last `import floor` row;
    per side, a column of its peaks (each side's list ends with its floor)
    and one of each config's peak minus that floor, the MB its run
    allocates above the import, blank for a failed run."""
    rows = [*names, "import floor"]
    width = max(len(row) for row in rows)
    lines = [f"{'config':<{width}}" + "".join(f"  {side + ' MB':>10}  {'above floor':>11}"
                                              for side in peaks)]
    for k, row in enumerate(rows):
        cells = []
        for column in peaks.values():
            peak, floor = _number(column[k]), _number(column[-1])
            above = "" if peak is None or floor is None or k == len(names) else f"{peak - floor:+.1f}"
            cells.append(f"  {column[k]:>10}  {above:>11}")
        lines.append(f"{row:<{width}}" + "".join(cells))
    return lines


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
        peaks = {side: run_configs(checkout, configs, Path(tmp) / side) + [import_floor(checkout)]
                 for side, checkout in sides.items()}
        for line in compare_dirs(Path(tmp) / "parent", Path(tmp) / "change"):
            print(line)
    for line in peak_table([cfg.stem for cfg in configs], peaks):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
