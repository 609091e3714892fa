"""Run the benchmark on several seeds and summarise each metric's spread.

    python3 perfbench/spread.py --workload verify --runs 10 [--first-seed 1]
        [--seconds 20] [--trace 0|1]

Each run is a fresh `python3 perfbench/run.py` process, one after the
other.  For every metric it prints the median, the first and third
quartiles (statistics.quantiles(values, n=4)) and the quartile distance as
a share of the median, which is what BENCHMARK.json's bounds are held to.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(result)
        values = " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {values}", flush=True)

    print(f"\n{args.workload}, {len(results)} runs, failed share "
          f"{sum(r['failed'] for r in results)}/{sum(r['attempted'] for r in results)}")
    print(f"{'metric':32s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'(q3-q1)/med':>12s}")
    for name, first in results[0]["metrics"].items():
        vals = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        share = (q3 - q1) / med if med else float("nan")
        print(f"{name:32s} {med:12.6g} {q1:12.6g} {q3:12.6g} {share:12.4f}  {first['unit']}")
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
