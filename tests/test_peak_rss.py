"""Smoke test of tools/peak_rss.py on small generated configs."""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "peak_rss", Path(__file__).resolve().parent.parent / "tools" / "peak_rss.py")
peak_rss = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(peak_rss)

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


def test_peak_rss_reports_one_figure_per_config(tmp_path, capsys):
    # one fresh interpreter per config prints its own peak, in MB; a run
    # that fails (here a config error, exit 1) shows its exit code instead,
    # and the tool itself exits 0 either way
    small, broken = tmp_path / "small.cfg", tmp_path / "broken.cfg"
    small.write_text(CONFIG.format(extra=""))
    broken.write_text(CONFIG.format(extra="method = chord"))
    assert peak_rss.main(["--config", str(small), "--config", str(broken)]) == 0
    header, first, second = capsys.readouterr().out.splitlines()
    assert header.split() == ["config", "change", "MB"]
    name, mb = first.split()
    assert name == "small" and 10.0 < float(mb) < 10000.0
    assert second.split() == ["broken", "exit", "1"]
