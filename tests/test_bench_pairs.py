"""``tools/bench_pairs.py``'s claim and regression rules and its JSON report, on fixed numbers."""

import importlib.util
import json
import os
import platform
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


def test_the_report_holds_the_runs_the_settings_and_the_verdicts():
    tool = load_tool()
    metrics = [{"name": "verdicts_per_s", "better": "higher", "bound": 0.2},
               {"name": "call_p90_ms", "better": "lower", "bound": 0.25}]
    values = {"parent": {"verdicts_per_s": [100.0, 102.0, 98.0],
                         "call_p90_ms": [0.70, 0.72, 0.71]},
              "change": {"verdicts_per_s": [110.0, 111.0, 109.0],
                         "call_p90_ms": [0.90, 0.91, 0.92]}}
    sources = {"parent": "0" * 64, "change": "f" * 64}
    out = tool.report("wall_grid", 0, 30.0, {"parent": "abc", "change": None}, sources,
                      metrics, values, {"parent": [2, 10], "change": [1, 10]})
    # the line is plain JSON: it survives a round trip unchanged
    assert json.loads(json.dumps(out)) == out
    assert {k: out[k] for k in ("workload", "seed", "seconds", "pairs", "commits",
                                "sources")} == {
        "workload": "wall_grid", "seed": 0, "seconds": 30.0, "pairs": 3,
        "commits": {"parent": "abc", "change": None}, "sources": sources}
    assert out["cpu_count"] == os.cpu_count()
    assert out["python"] == platform.python_version()
    rate = out["metrics"]["verdicts_per_s"]
    assert rate["parent"] == [100.0, 102.0, 98.0] and rate["change"] == [110.0, 111.0, 109.0]
    assert rate["parent_quartiles"] == pytest.approx([99.0, 100.0, 101.0])
    assert rate["change_quartiles"] == pytest.approx([109.5, 110.0, 110.5])
    assert (rate["wins"], rate["claim"], rate["regression"], rate["unresolved"]) == (
        3, True, False, False)
    p90 = out["metrics"]["call_p90_ms"]
    assert (p90["better"], p90["bound"]) == ("lower", 0.25)
    assert (p90["wins"], p90["claim"], p90["regression"], p90["unresolved"]) == (
        0, False, True, False)
    assert out["raised_share"] == {"parent": 0.2, "change": 0.1}


def test_a_directory_that_is_no_checkout_has_no_commit(tmp_path):
    tool = load_tool()
    assert tool.commit_of(tmp_path) is None
    assert tool.commit_of(TOOL.parent) is None   # inside a checkout, not its root


def write_tree(root, files):
    for rel, data in files.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_bytes(data)


def test_the_source_digest_reads_the_bytes_of_src_and_bench(tmp_path):
    source_digest = load_tool().source_digest
    files = {"src/orbitcoh/spectral.py": b"x = 1\n", "src/orbitcoh/gf2.py": b"y = 2\n",
             "bench/run.py": b"print()\n"}
    one, two = tmp_path / "one", tmp_path / "two"
    write_tree(one, files)
    write_tree(two, {**files, "README.md": b"not source\n", "tests/test_x.py": b"pass\n"})
    assert source_digest(one) == source_digest(two)
    assert len(source_digest(one)) == 64
    # one changed byte gives another digest
    write_tree(two, {"src/orbitcoh/gf2.py": b"y = 3\n"})
    assert source_digest(two) != source_digest(one)
    # and so does a file moved between the two directories
    write_tree(two, {"src/orbitcoh/gf2.py": b"y = 2\n"})
    assert source_digest(two) == source_digest(one)
    (two / "bench" / "run.py").rename(two / "src" / "orbitcoh" / "run.py")
    assert source_digest(two) != source_digest(one)
