"""``tools/bench_pairs.py``'s claim and regression rules on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PARENT = [0.760, 0.762, 0.764, 0.764, 0.765, 0.763, 0.766, 0.761, 0.764, 0.767]


def test_nine_wins_and_a_gap_beyond_the_iqr_make_a_claim():
    decide = load_tool().decide
    change = [0.71] * 9 + [0.767]    # the last pair is a tie
    d = decide(PARENT, change, "lower", 0.25)
    assert d["wins"] == 9 and d["pairs"] == 10
    assert d["parent"] == pytest.approx((0.76225, 0.764, 0.76475))
    assert d["claim"] and not d["regression"]
    # the same numbers read as rates: a lower rate is worse
    d = decide(PARENT, change, "higher", 0.25)
    assert d["wins"] == 0 and not d["claim"] and not d["regression"]


def test_a_tie_counts_for_neither_side():
    decide = load_tool().decide
    change = [0.71] * 8 + PARENT[8:]
    assert decide(PARENT, change, "lower", 0.25)["wins"] == 8
    assert not decide(PARENT, change, "lower", 0.25)["claim"]
    assert decide(PARENT, list(PARENT), "higher", 0.25)["wins"] == 0


def test_a_gain_within_the_parents_iqr_is_no_claim():
    decide = load_tool().decide
    # every pair won, by 0.001, less than the parent's IQR of 0.0025
    d = decide(PARENT, [p - 0.001 for p in PARENT], "lower", 0.25)
    assert d["wins"] == 10 and not d["claim"]


def test_a_median_worse_by_more_than_the_bound_is_a_regression():
    decide = load_tool().decide
    rates = [100.0, 101.0, 99.0, 100.0]
    assert decide(rates, [79.0] * 4, "higher", 0.2)["regression"]
    assert not decide(rates, [81.0] * 4, "higher", 0.2)["regression"]
    assert decide([1.0] * 3, [1.3] * 3, "lower", 0.25)["regression"]
    assert not decide([1.0] * 3, [1.2] * 3, "lower", 0.25)["regression"]


def test_a_spread_wider_than_the_bound_is_unresolved():
    decide = load_tool().decide
    # call_p50_ms spreading about 2x from run to run, bound 0.25
    parent = [0.045, 0.090, 0.050, 0.085, 0.047, 0.088]
    change = [0.048, 0.080, 0.052, 0.091, 0.046, 0.087]
    d = decide(parent, change, "lower", 0.25)
    assert d["unresolved"] and not d["regression"] and not d["claim"]
    # unless every run of the change reads better than every run of the parent
    assert not decide(parent, [0.040] * 6, "lower", 0.25)["unresolved"]
    assert not decide(PARENT, PARENT[::-1], "lower", 0.25)["unresolved"]
