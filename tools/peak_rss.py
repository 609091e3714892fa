"""Peak resident memory of one run of each perfbench config, in a fresh process.

Usage, from the root of this checkout:

    python3 tools/peak_rss.py [--parent PATH] [--config FILE ...]

Runs `coneyamabe <kind> --config ... --threads 1` once per config file
(every file of this checkout's perfbench/configs unless --config names
some), each in a fresh interpreter importing the package from this
checkout's src/, and with --parent once more from the parent checkout's
src/.  Outputs go to a temporary directory.  Each child reports its own
ru_maxrss after its run, since RUSAGE_CHILDREN keeps only the largest of
all children; the tool prints it in MB (1024 kB), one line per config
with a column per side.  One run in a fresh process carries none of the
benchmark loop's repeated rounds, so the figure is the memory of the
program, free of the round count and of the captures the loop holds.
This is a report, not a gate: it exits 0 whatever it finds, and a run
that fails prints its exit code in place of its figure.  Standard library
only.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MARK = "peak_rss_kb"
# the child: one command through cli.main, then its own peak on stderr
CHILD = (
    "import resource, sys\n"
    "from coneyamabe.cli import main\n"
    "code = main(sys.argv[1:])\n"
    f"print('{MARK}', code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n"
)


def run_peak(checkout: Path, cfg: Path, out: Path) -> str:
    """One run of cfg with checkout's package: its peak in MB, or its exit code."""
    kind = re.search(r"^kind\s*=\s*(\S+)", cfg.read_text(), re.M).group(1)
    cmd = [sys.executable, "-c", CHILD, kind, "--config", str(cfg), "--out", str(out),
           "--threads", "1"]
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    found = re.findall(rf"^{MARK} (-?\d+) (\d+)$", proc.stderr, re.M)
    if not found or found[-1][0] != "0":
        return f"exit {found[-1][0] if found else proc.returncode}"
    return f"{int(found[-1][1]) / 1024.0:.1f}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, help="parent commit checkout")
    parser.add_argument("--config", type=Path, action="append",
                        help="a config file to run (repeatable); default: perfbench/configs")
    args = parser.parse_args(argv)
    sides = {"change": ROOT}
    if args.parent is not None:
        parent = args.parent.resolve()
        if not (parent / "src" / "coneyamabe").is_dir():
            parser.error(f"parent checkout {parent} has no src/coneyamabe")
        sides = {"parent": parent, "change": ROOT}
    configs = [c.resolve() for c in args.config] if args.config else \
        sorted((ROOT / "perfbench" / "configs").glob("*.cfg"))
    width = max(len(c.stem) for c in configs)
    print(f"{'config':<{width}}  " + "  ".join(f"{side + ' MB':>10}" for side in sides))
    with tempfile.TemporaryDirectory() as tmp:
        for cfg in configs:
            cells = [run_peak(checkout, cfg, Path(tmp) / side / cfg.stem)
                     for side, checkout in sides.items()]
            print(f"{cfg.stem:<{width}}  " + "  ".join(f"{cell:>10}" for cell in cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
