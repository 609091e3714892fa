"""Benchmark of coneyamabe: one workload per run, one JSON result line.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload dichotomy|verify|certify \
        --seed N --seconds S --trace 0|1

The package is imported from the checkout's src/ directory.  --trace 0
prints the end-to-end metrics (wall_s, setup_s, peak_rss_mb); --trace 1
prints the per-layer metrics of a traced round and the tracing overhead.
See perfbench/README.md for the workloads and what each metric measures.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("dichotomy", "verify", "certify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "coneyamabe" / "__init__.py").is_file():
        print(f"perfbench: no coneyamabe sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    # One BLAS thread for every run: the host's two cores are shared with
    # other work, and a second BLAS thread only adds run-to-run spread.  Set
    # before numpy is imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

    from perfbench import bench

    bench.describe_host()
    wl = bench.WORKLOADS[args.workload]
    with bench.scratch_dir(ROOT, f"{args.workload}-{os.getpid()}") as scratch:
        result = bench.measure(wl, args.seed, args.seconds, bool(args.trace), scratch)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
