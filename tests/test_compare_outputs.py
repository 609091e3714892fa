"""The directory comparison of tools/compare_outputs.py."""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "compare_outputs", Path(__file__).resolve().parent.parent / "tools" / "compare_outputs.py")
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


def test_compare_dirs_reports_each_output_file(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for side, alpha, verdict, steps in ((parent, "0.5", "COMPLETE_TYPE", "7"),
                                        (change, "0.50000000001", "BOUNDED_TYPE", "8")):
        (side / "run").mkdir(parents=True)
        (side / "run" / "same.svg").write_text("<svg/>\n")
        (side / "run" / "dichotomy.csv").write_text(
            f"n,alpha,verdict\n4,{alpha},{verdict}\n3,1.0,COMPLETE_TYPE\n")
        (side / "run" / "summary.txt").write_text(
            f"status = ok\nseconds = {steps}.5\nverify_model.seconds_32 = 0.{steps}\n"
            f"newton_steps = {steps}\n")
    (parent / "run" / "plot.svg").write_text("<svg>\n<g/>\n")
    (change / "run" / "plot.svg").write_text("<svg>\n<h/>\n")
    (change / "run" / "extra.csv").write_text("a\n1\n")
    report = compare_outputs.compare_dirs(parent, change)
    assert report == [
        "run/dichotomy.csv: differs",
        "  column n: largest relative difference 0",
        "  column alpha: largest relative difference 2e-11",
        "  row 1 column verdict: 'COMPLETE_TYPE' != 'BOUNDED_TYPE'",
        "run/extra.csv: only in the change",
        "run/plot.svg: differs in 1 of 2 lines",
        "run/same.svg: identical",
        "run/summary.txt: differs",
        "  newton_steps: 7 -> 8, relative difference 0.125",
    ]


def test_compare_csv_reads_shared_columns_across_changed_headers(tmp_path):
    # a column added or removed is named, every shared column is compared
    # by name wherever it stands, and a row count that differs is one line
    parent, change, longer = tmp_path / "p.csv", tmp_path / "c.csv", tmp_path / "l.csv"
    parent.write_text("n,alpha,old,verdict\n4,0.5,1,COMPLETE_TYPE\n3,2.0,1,BOUNDED_TYPE\n")
    change.write_text("n,verdict,alpha,reason\n4,COMPLETE_TYPE,0.5,x\n3,COMPLETE_TYPE,2.2,y\n")
    longer.write_text("n,alpha\n4,0.5\n3,2.0\n2,1.0\n")
    assert compare_outputs.compare_csv(parent, change) == [
        "  column old: only in the parent",
        "  column reason: only in the change",
        "  column n: largest relative difference 0",
        "  column alpha: largest relative difference 0.0909",
        "  row 2 column verdict: 'BOUNDED_TYPE' != 'COMPLETE_TYPE'",
    ]
    assert compare_outputs.compare_csv(parent, longer) == [
        "  row count differs: 2 against 3 rows"]


CONFIG = """
[cone]
n = 3
d = 1
h = 1.0
[experiment]
kind = solve
plot = false
{extra}
[mesh]
n_radial = 8
n_angular = 8
"""


def test_run_configs_reports_each_runs_own_peak_or_exit_code(tmp_path):
    # each config runs in a fresh interpreter reaped by os.wait4, which
    # reads that child's own peak, in MB; a run that fails (here a config
    # error, exit 1) shows its exit code instead
    small, broken = tmp_path / "small.cfg", tmp_path / "broken.cfg"
    small.write_text(CONFIG.format(extra=""))
    broken.write_text(CONFIG.format(extra="method = chord"))
    mb, failed = compare_outputs.run_configs(compare_outputs.ROOT, [small, broken],
                                             tmp_path / "out")
    assert 10.0 < float(mb) < 10000.0
    assert failed == "exit 1"
