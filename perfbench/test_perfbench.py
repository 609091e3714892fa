"""Each output check rejects a perturbed output, and the metric names the
benchmark prints are exactly those in BENCHMARK.json.

Run from the repository root: PYTHONPATH=src python3 -m pytest perfbench
"""

import csv
import json
from pathlib import Path

import pytest

from perfbench import bench, checks, tracing

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = bench.CONFIGS

# the certify configs on meshes small enough for a unit test
SMALL = {"mesh": {"n_radial": "24", "n_angular": "24"}}


def small_config(tmp_path: Path, name: str, overrides=SMALL) -> Path:
    return bench.write_variant(CONFIGS / name, overrides, tmp_path / name)


def run_op(op: bench.Op, out: Path):
    entries = bench.Entries()
    with tracing.patched(entries.patches()):
        entries.start()
        assert bench.call_cli(op, op.config, out) == 0
    return entries.solves


def edit_rows(path: Path, edit) -> None:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        fields, rows = reader.fieldnames, list(reader)
    for row in rows:
        edit(row)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def scale_value(row, factor=1 + 1e-2):
    row["value"] = repr(float(row["value"]) * factor)


# dichotomy.csv rows of the two workload configs, as the program writes them
DICHOTOMY_ROWS = {
    "dichotomy_n4_d1.cfg": "4,1,1,22,0.0397560885563,0.0339937722211,0.0369331878726,"
                           "14.3829839622,0.00199012399453,BOUNDED_TYPE",
    "dichotomy_n4_d2.cfg": "4,2,1,8,1.05583523874,1.03947823058,1.06403144875,"
                           "35.8121588598,0.0321904135844,COMPLETE_TYPE",
}
DICHOTOMY_HEADER = ("n,d,h,levels,alpha,completeness_last,completeness_prev,"
                    "near_gamma_sup,near_gamma_variation,verdict")


@pytest.mark.parametrize("name", sorted(DICHOTOMY_ROWS))
def test_dichotomy_check_rejects_a_wrong_verdict(tmp_path, name):
    cfg = checks.read_cfg(CONFIGS / name)
    table = tmp_path / "dichotomy.csv"
    table.write_text(DICHOTOMY_HEADER + "\n" + DICHOTOMY_ROWS[name] + "\n")
    assert checks.check_dichotomy(tmp_path, cfg, []) == []

    flip = {"BOUNDED_TYPE": "COMPLETE_TYPE", "COMPLETE_TYPE": "BOUNDED_TYPE"}
    edit_rows(table, lambda row: row.update(verdict=flip[row["verdict"]]))
    assert checks.check_dichotomy(tmp_path, cfg, []) != []


def test_verify_check_rejects_a_scaled_solution(tmp_path):
    config = small_config(tmp_path, "verify_n3_d1.cfg", {"experiment": {"mesh_sizes": "32,64"}})
    op = bench.Op("verify-model", config, checks.check_verify, {})
    solves = run_op(op, tmp_path / "out")
    cfg = checks.read_cfg(config)
    assert checks.check_verify(tmp_path / "out", cfg, solves) == []

    scaled = [(mesh, u * (1 + 1e-2)) for mesh, u in solves]
    assert checks.check_verify(tmp_path / "out", cfg, scaled) != []


@pytest.mark.parametrize("name", ["certify_dense_n3_d1.cfg", "certify_cg_n3_d1.cfg"])
def test_model_solution_check_rejects_a_scaled_solution(tmp_path, name):
    config = small_config(tmp_path, name)
    op = bench.Op("solve", config, checks.check_model_solution, {})
    run_op(op, tmp_path / "out")
    cfg = checks.read_cfg(config)
    assert checks.check_model_solution(tmp_path / "out", cfg, []) == []

    edit_rows(tmp_path / "out" / "solution.csv", scale_value)
    assert checks.check_model_solution(tmp_path / "out", cfg, []) != []


def test_eigen_check_rejects_a_shifted_eigenvalue_and_a_negative_mode(tmp_path):
    config = small_config(tmp_path, "certify_eigen_n3_d1.cfg")
    op = bench.Op("eigen", config, checks.check_eigen, {})
    run_op(op, tmp_path / "out")
    cfg = checks.read_cfg(config)
    assert checks.check_eigen(tmp_path / "out", cfg, []) == []

    table = tmp_path / "out" / "eigen.csv"
    good = table.read_text()
    edit_rows(table, lambda row: row.update(eigenvalue=repr(float(row["eigenvalue"]) * (1 + 1e-6))))
    assert checks.check_eigen(tmp_path / "out", cfg, []) != []

    table.write_text(good)
    edit_rows(tmp_path / "out" / "eigenvector.csv",
              lambda row: scale_value(row, -1.0) if row["tag"] == "INTERIOR" else None)
    assert checks.check_eigen(tmp_path / "out", cfg, []) != []


@pytest.mark.parametrize("traced", [False, True])
def test_printed_metrics_are_those_in_benchmark_json(tmp_path, traced):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}
    config = small_config(tmp_path, "certify_dense_n3_d1.cfg")
    wl = bench.Workload("tiny", [bench.Op("solve", config, checks.check_model_solution, {})])
    scratch = tmp_path / "scratch"
    scratch.mkdir()

    result = bench.measure(wl, seed=0, seconds=0.0, traced=traced, scratch=scratch)

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted
    assert json.loads(json.dumps(result)) == result
