"""``tools/bench_pairs.py``'s summary, on fixed numbers (no benchmark run)."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools"
    / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [("q_per_s", "higher"), ("run_s", "lower")]


def _pairs(parent, change):
    return [(None if p is None else {"q_per_s": p, "run_s": 1 / p},
             None if c is None else {"q_per_s": c, "run_s": 1 / c})
            for p, c in zip(parent, change)]


def _rows(parent, change):
    return {r["name"]: r for r in bench_pairs.summarize(
        _pairs(parent, change), METRICS)}


def test_quartiles_interpolate_between_runs():
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0,
                                                                 4.0)
    assert bench_pairs.quartiles([1.0, 2.0]) == (1.25, 1.5, 1.75)
    assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_clear_gain_holds_in_both_directions():
    parent = [20, 21, 22, 23, 24, 25, 26, 27, 28, 29]
    change = [30, 31, 32, 33, 34, 35, 36, 37, 38, 39]
    rows = _rows(parent, change)
    for name in ("q_per_s", "run_s"):
        assert rows[name]["wins"] == 10 and rows[name]["pairs"] == 10
        assert rows[name]["holds"]
    assert rows["q_per_s"]["parent"] == (22.25, 24.5, 26.75)
    assert rows["q_per_s"]["change"] == (32.25, 34.5, 36.75)


@pytest.mark.parametrize("parent, change, wins, holds", [
    # 8 of 10 wins: the medians are far apart, but 8 < 9
    ([20] * 8 + [40, 40], [30] * 10, 8, False),
    # 10 of 10 wins by a hair: the gap (0.5) is inside the parent's IQR (4.5)
    (list(range(20, 30)), [v + 0.5 for v in range(20, 30)], 10, False),
    # a tie counts for neither side; 9 of 10 is enough
    ([20] * 10, [20] + [30] * 9, 9, True),
], ids=["too-few-wins", "gap-inside-iqr", "tie-is-no-win"])
def test_rule_needs_both_the_wins_and_the_gap(parent, change, wins, holds):
    row = _rows(parent, change)["q_per_s"]
    assert row["wins"] == wins
    assert row["holds"] is holds


def test_a_failed_run_is_no_win_and_no_sample():
    parent = [20] * 10
    change = [30] * 9 + [None]
    row = _rows(parent, change)["q_per_s"]
    assert row["wins"] == 9 and row["pairs"] == 10
    assert row["change"] == (30, 30, 30)
    assert row["holds"]
    # one failure more and 8 of 10 is too few
    row = _rows(parent, [30] * 8 + [None, None])["q_per_s"]
    assert row["wins"] == 8 and not row["holds"]
    assert _rows([None] * 2, [30] * 2)["q_per_s"]["parent"] is None
