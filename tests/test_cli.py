"""The ``orbitcoh`` command line, run in a subprocess as a user runs it."""

import fcntl
import json
import os
import subprocess
import sys

from orbitcoh import actions, cli, spectral
from orbitcoh.algebra import wall_presentation
from orbitcoh.wall import is_identity_or_twist

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def orbitcoh(*args):
    return subprocess.run([sys.executable, "-m", "orbitcoh.cli", *args],
                          capture_output=True, text=True, env=cli_env(), timeout=120)


def test_actions_text_marks_the_undecided_survivors():
    run = orbitcoh("actions", "1", "3")
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[0] == "Q(1,3): 27 candidates, 4 survive, 2 undecided"
    assert len(lines) == 1 + 27
    undecided = [line for line in lines if "[undecided]" in line]
    assert len(undecided) == 2
    assert all(": survives [undecided]: " in line for line in undecided)
    assert "x -> x, c -> c, d -> d: survives: " in run.stdout


def test_actions_json_matches_the_library():
    run = orbitcoh("actions", "2", "3", "--json")
    assert run.returncode == 0, run.stderr
    out = json.loads(run.stdout)
    report = actions.classify_free_actions(2, 3)
    assert out["candidates"] == len(report.records)
    assert [(r["status"], r["stage"], r["reason"]) for r in out["records"]] == [
        (r.status, r.stage, r.reason) for r in report.records]
    assert [r["images"] for r in out["records"]] == [
        {name: str(img) for name, img in r.candidate.images} for r in report.records]
    assert [r["undecided"] for r in out["records"]] == [
        r.stage is None and not is_identity_or_twist(r.candidate) for r in report.records]
    assert out["undecided"] == sum(r["undecided"] for r in out["records"])
    assert out["survivors"] == len(report.survivors())


def test_actions_json_of_q13_keeps_the_generator_order_and_flags_each_survivor():
    run = orbitcoh("actions", "1", "3", "--json")
    assert run.returncode == 0, run.stderr
    records = json.loads(run.stdout)["records"]
    assert len(records) == 27
    # a JSON object keeps its key order: the images come as x, c, d
    assert all(list(r["images"]) == ["x", "c", "d"] for r in records)
    # the four survivors by the images they move: the identity alone is
    # trivial in degrees >= 2
    trivial = {", ".join(f"{g} -> {i}" for g, i in r["images"].items() if g != i):
               r["trivial_in_degrees_ge_2"] for r in records if r["status"] == "survives"}
    assert trivial == {"": True, "d -> d + x*c": False, "c -> c + x": False,
                       "c -> c + x, d -> d + x*c": False}


def test_actions_json_triviality_is_checked_on_survivors_alone():
    # the CLI computes the flag itself: is_trivial_in_degrees_ge_2 on a
    # survivor, null on a record that was eliminated
    for m in range(4):
        for n in range(6):
            records = actions.classify_free_actions(m, n).records
            assert [r["trivial_in_degrees_ge_2"] for r in cli._actions(m, n)["records"]] == [
                actions.is_trivial_in_degrees_ge_2(r.candidate) if r.stage is None else None
                for r in records], (m, n)


def test_actions_answers_even_n():
    run = orbitcoh("actions", "1", "2", "--json")
    assert run.returncode == 0, run.stderr
    out = json.loads(run.stdout)
    assert (out["fiber"], out["candidates"], out["survivors"], out["undecided"]) == (
        "Q(1,2)", 27, 1, 0)
    [survivor] = [r for r in out["records"] if r["status"] == "survives"]
    assert survivor["images"] == {"x": "x", "c": "c + x", "d": "d"}
    [identity] = [r for r in out["records"] if r["images"] == {"x": "x", "c": "c", "d": "d"}]
    assert identity["stage"] == "fixed_point_obstruction"


def test_spectral_json_matches_the_library():
    run = orbitcoh("spectral", "--wall", "1", "3", "--json")
    assert run.returncode == 0, run.stderr
    out = json.loads(run.stdout)
    fiber = wall_presentation(1, 3)
    verdicts = spectral.analyze_all(fiber, fiber.top_degree)
    assert out["dim_x"] == 8
    assert [(c["case"], c["outcome"], c["reason"], c["detail"]) for c in out["cases"]] == [
        (v.case_id, v.outcome, v.reason, v.detail) for v in verdicts]
    assert [c["case"] for c in out["cases"] if c["outcome"] == "survives"] == ["A"]
    assert {c["case"]: c["differentials"] for c in out["cases"]}["A"] == "d3(d)=t^3"
    # the guard finding's fields
    keys = ("guard", "page", "bidegree", "relation", "values", "degrees")
    for case, verdict in zip(out["cases"], verdicts):
        found = verdict.finding
        if found is None:
            assert [case[k] for k in keys] == [None] * 6
            continue
        assert (case["guard"], case["page"]) == (found.guard, found.page)
        assert case["bidegree"] == (found.bidegree and list(found.bidegree))
        assert case["degrees"] == (found.degrees and list(found.degrees))
        if found.guard == "leibniz":
            # the relation and both values appear in the detail text as well
            assert f"relation {case['relation']} is violated" in case["detail"]
            assert case["detail"].endswith("t^{0}*({1}) and t^{0}*({2})".format(
                case["page"], *case["values"]))
        else:
            assert case["relation"] is case["values"] is None
    assert {c["guard"] for c in out["cases"]} == {"leibniz", "vanishing", None}


def test_a_reader_that_closes_early_ends_the_output_quietly():
    # A 4 KiB pipe holds less than the 6 KB listing, so the writer is still
    # blocked on it when the reader closes after the first line.
    read_end, write_end = os.pipe()
    fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
    proc = subprocess.Popen([sys.executable, "-m", "orbitcoh.cli", "actions", "5", "31"],
                            stdout=write_end, stderr=subprocess.PIPE, env=cli_env())
    os.close(write_end)
    first = b""
    try:
        while not first.endswith(b"\n"):
            byte = os.read(read_end, 1)
            if not byte:
                break
            first += byte
    finally:
        os.close(read_end)
    _, err = proc.communicate(timeout=120)
    assert first == b"Q(5,31): 63 candidates, 8 survive, 6 undecided\n"
    assert err == b""
    assert proc.returncode == 0


def test_spectral_text_lists_every_case():
    run = orbitcoh("spectral", "--wall", "1", "3")
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[0] == "Q(1,3): 20 cases, dim X = 8"
    assert "A: d3(d)=t^3 -> survives" in lines
    assert "Z: no differential -> eliminated (vanishing_violation: " \
           "nonzero classes in every degree 9..16)" in lines


def test_spectral_reports_a_refused_case_and_exits_1():
    # Q(m even, n odd) raises on case D4 until ROADMAP Open item 1 is done;
    # the command lists the refusal instead of dying on it
    run = orbitcoh("spectral", "--wall", "2", "3", "--json")
    assert run.returncode == 1, run.stderr
    assert run.stderr == ""
    cases = json.loads(run.stdout)["cases"]
    assert len(cases) == 20
    assert [c["case"] for c in cases if c["outcome"] == "survives"] == ["A", "C", "D3"]
    assert [(c["case"], c["reason"], c["detail"]) for c in cases if c["outcome"] == "error"] == [
        ("D4", "SpectralModelError", "declared target t^3 for d is not a nonzero class on page 3")]


def test_bad_arguments_exit_2():
    for args in (("actions", "-1", "3"), ("spectral", "--wall", "-1", "3"), ()):
        run = orbitcoh(*args)
        assert run.returncode == 2
        assert run.stderr.startswith("usage: orbitcoh")
