"""The pure decision functions of tools/bench_record.py."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_record", Path(__file__).resolve().parent.parent / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

PARENT = [3.0, 3.1, 3.2, 3.3, 3.4, 3.5, 3.6, 3.7, 3.8, 3.9]  # quartiles 3.175, 3.725


def test_wins_count_strictly_better_pairs():
    change = [2.0] * 8 + [3.8, 4.0]  # the ninth pair ties
    assert bench_record.wins(PARENT, change, "lower") == 8
    assert bench_record.wins(PARENT, change, "higher") == 1


def test_gain_rule_needs_nine_tenths_of_the_pairs():
    nine = [p - 1.0 for p in PARENT[:9]] + [PARENT[9] + 1.0]
    eight = [p - 1.0 for p in PARENT[:8]] + [p + 1.0 for p in PARENT[8:]]
    assert bench_record.gain_holds(PARENT, nine, "lower")
    assert not bench_record.gain_holds(PARENT, eight, "lower")


def test_gain_rule_needs_a_median_gap_beyond_the_parent_iqr():
    # every pair is won, but the medians differ by 0.5 against an IQR of 0.55
    close = [p - 0.5 for p in PARENT]
    far = [p - 0.6 for p in PARENT]
    assert not bench_record.gain_holds(PARENT, close, "lower")
    assert bench_record.gain_holds(PARENT, far, "lower")
    assert not bench_record.gain_holds(PARENT, far, "higher")


@pytest.mark.parametrize("shift, better, expected", [
    (0.30, "lower", False),   # median 3.75 against 3.45: +8.7%, inside 10%
    (0.40, "lower", True),    # +11.6%
    (-0.40, "lower", False),  # better, never beyond the bound
    (-0.40, "higher", True),
])
def test_beyond_bound_compares_medians_relative_to_the_parent(shift, better, expected):
    change = [p + shift for p in PARENT]
    assert bench_record.beyond_bound(PARENT, change, better, 0.10) is expected


def test_judge_reads_every_end_to_end_metric():
    def runs(values):
        return [{"metrics": {"wall_s": {"value": v}}} for v in values]

    verdict = bench_record.judge([{"name": "wall_s", "better": "lower", "bound": 0.25}],
                                 runs(PARENT), runs([p - 1.0 for p in PARENT]))
    assert verdict == {"wall_s": {"pairs_change_won": 10, "gain_rule": True,
                                  "beyond_bound": False}}
