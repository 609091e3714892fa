"""Record alternated perfbench runs of a parent checkout and this checkout.

Usage, from the root of this checkout:

    python3 tools/bench_record.py --parent PATH --out BENCH_<n>.json

For every workload that BENCHMARK.json declares, it runs the benchmark
command with `--trace 0` once in each checkout per pair, PAIRS pairs,
alternating which side runs first, then one traced run (`--trace 1`) per
side; the run length is BENCHMARK.json's run_seconds.  The JSON file holds
each side's raw result lines, the median and quartiles (perfbench's
exclusive method) of every end-to-end metric, the operations attempted and
failed over all runs, the per-layer figures of the traced runs, and the
host.  For every end-to-end metric it also records the pairs the change won
(ties count for neither side), whether the gain rule holds (the change wins
at least nine tenths of the pairs and its median beats the parent's by more
than the parent's interquartile range), and whether the change's median is
worse than the parent's by more than the metric's BENCHMARK.json bound.
A run whose result is not `correct` stops the recording.  Standard library
only; each run imports the package from its own checkout's src/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10  # the fewest alternated pairs a claimed gain is judged on


def run_bench(bench: dict, checkout: Path, workload: str, seed: int, trace: int) -> dict:
    """One benchmark run; its JSON result line plus the host line it printed."""
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}\n"
                         + proc.stderr[-2000:])
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{checkout}: {' '.join(cmd)} reported an incorrect result")
    result["host_line"] = lines[0]
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile (perfbench's exclusive method)."""
    return tuple(statistics.quantiles(values, n=4)) if len(values) > 1 else (values[0],) * 3


def summarize(runs: list[dict]) -> dict:
    """Operations attempted and failed, and the median and quartiles of every metric."""
    out = {"attempted": sum(r["attempted"] for r in runs),
           "failed": sum(r["failed"] for r in runs)}
    for name, metric in runs[0]["metrics"].items():
        q1, median, q3 = quartiles([r["metrics"][name]["value"] for r in runs])
        out[name] = {"unit": metric["unit"], "median": median, "q1": q1, "q3": q3}
    return out


def wins(parent: list[float], change: list[float], better: str) -> int:
    """Pairs in which the change read strictly better; ties count for neither side."""
    sign = 1.0 if better == "lower" else -1.0
    return sum(sign * (c - p) < 0.0 for p, c in zip(parent, change))


def gain_holds(parent: list[float], change: list[float], better: str) -> bool:
    """The gain rule: the change wins at least nine tenths of the pairs and
    its median is better than the parent's by more than the distance
    between the parent's quartiles."""
    sign = 1.0 if better == "lower" else -1.0
    q1, median, q3 = quartiles(parent)
    gap = sign * (median - quartiles(change)[1])
    return 10 * wins(parent, change, better) >= 9 * len(parent) and gap > q3 - q1


def beyond_bound(parent: list[float], change: list[float], better: str, bound: float) -> bool:
    """Whether the change's median is worse than the parent's by more than
    bound, relative to the parent's median."""
    sign = 1.0 if better == "lower" else -1.0
    p, c = quartiles(parent)[1], quartiles(change)[1]
    return sign * (c - p) > bound * abs(p)


def judge(end_to_end: list[dict], parent: list[dict], change: list[dict]) -> dict:
    """Pairs won, the gain rule and the bound check for every end-to-end metric."""
    out = {}
    for metric in end_to_end:
        name, better = metric["name"], metric["better"]
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        out[name] = {"pairs_change_won": wins(p, c, better),
                     "gain_rule": gain_holds(p, c, better),
                     "beyond_bound": beyond_bound(p, c, better, metric["bound"])}
    return out


def git_state(checkout: Path) -> str:
    proc = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=checkout,
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def host() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"platform": platform.platform(), "cpu_model": model, "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "loadavg_start": os.getloadavg()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent commit checkout")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    for side, checkout in sides.items():
        if not (checkout / bench["command"][-1]).is_file():
            parser.error(f"{side} checkout {checkout} has no {bench['command'][-1]}")

    record = {
        "host": host(),
        "settings": {"pairs": PAIRS, "seconds": bench["run_seconds"],
                     "git": {side: git_state(path) for side, path in sides.items()}},
        "workloads": {},
    }
    started = time.time()
    for workload in (w["name"] for w in bench["workloads"]):
        runs = {side: [] for side in sides}
        for seed in range(PAIRS):
            order = list(sides) if seed % 2 == 0 else list(sides)[::-1]
            for side in order:
                runs[side].append(run_bench(bench, sides[side], workload, seed, 0))
                print(f"{workload} pair {seed} {side}: "
                      + ", ".join(f"{k} {v['value']:.4g}"
                                  for k, v in runs[side][-1]["metrics"].items()), flush=True)
        traced = {side: run_bench(bench, path, workload, PAIRS, 1)
                  for side, path in sides.items()}
        record["workloads"][workload] = {
            "verdicts": judge(bench["end_to_end"], runs["parent"], runs["change"]),
            **{side: {"summary": summarize(runs[side]), "runs": runs[side],
                      "traced": traced[side]} for side in sides},
        }
    record["host"]["loadavg_end"] = os.getloadavg()
    record["elapsed_s"] = time.time() - started
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
