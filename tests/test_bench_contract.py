"""What the benchmark reads of orbitcoh, by name.

``bench/layers.py`` lists ``(owner, attr)`` pairs and the tracer replaces
``vars(owner)[attr]``, and ``bench/workloads.py``'s correctness gate reads
report and record fields; a rename under ``src/`` would break the benchmark
without failing any other test.  Seed 1, which only renames and reorders,
must move no verdict of the spectral workloads either.
"""

import collections
import dataclasses
import importlib.util
import sys
from pathlib import Path

from orbitcoh import actions, spectral
from orbitcoh.algebra import wall_presentation

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module    # a dataclass looks its module up there
    spec.loader.exec_module(module)
    return module


def test_every_traced_span_is_a_plain_attribute():
    layers = load_bench("layers")
    assert layers.SPANS
    for owner, attr, name in layers.SPANS:
        assert attr in vars(owner), name
        raw = vars(owner)[attr]
        fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
        assert callable(fn), name


def test_traced_run_counts_turned_pages_and_restores_every_span():
    # the observers read the arguments of the wrapped functions (turn_page's
    # page.cells, page.r and diff.active), which only a traced call exercises
    harness, layers = load_bench("harness"), load_bench("layers")
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in layers.SPANS]
    fiber = wall_presentation(1, 3)
    tracer = harness.Tracer()
    layers.instrument(tracer)
    try:
        assignments = spectral.enumerate_assignments(fiber)
        assert len(assignments) == 20
        for asgn in assignments:
            spectral.run_case(fiber, fiber.top_degree, asgn)
        actions.classify_free_actions(0, 1)
    finally:
        tracer.restore()
    for owner, attr, raw in originals:
        assert vars(owner)[attr] is raw, attr
    metrics = layers.per_layer_metrics(tracer)
    assert metrics["spectral.turn_page.calls"][0] > 0
    assert metrics["spectral.cells_turned"][0] > 0


def test_actions_gate_reads_images_and_status():
    # the gate finds the identity among the records' ``candidate.images``
    # pairs and reads its ``status``
    workloads = load_bench("workloads")
    report = actions.classify_free_actions(1, 3)
    assert workloads._check_actions(report) == []
    eliminated = tuple(dataclasses.replace(r, stage="ring_endomorphism") for r in report.records)
    assert workloads._check_actions(dataclasses.replace(report, records=eliminated)) == [
        "Q(1,3): the identity candidate was eliminated"]


def test_seed_1_moves_no_verdict_of_the_spectral_workloads():
    # seed 1 shuffles the calls and renames and reorders the fiber_sweep
    # generators; each fiber keeps its (degree, exponent) pairs, and with them
    # its (outcome, reason) rows and its refusals by exception type
    workloads = load_bench("workloads")
    for workload in ("wall_grid", "fiber_sweep"):
        seen = []
        for seed in (0, 1):
            inputs = workloads.make_inputs(workload, seed)
            keys = {}
            for spec in inputs.specs:
                label = workloads.build_fiber(spec)[0]
                keys[label] = (spec[:1] + tuple(sorted((deg, exp) for _, deg, exp in spec[1:]))
                               if spec[0] == "fiber" else spec)
            done = workloads.run_pass(workload, inputs, check=True)
            assert done.problems == [], (workload, seed)
            seen.append(collections.Counter((keys[label], outcome, reason)
                                            for label, _, outcome, reason in done.rows))
        assert seen[0] == seen[1], workload
        assert sum(seen[0].values()) == {"wall_grid": 100, "fiber_sweep": 472}[workload]
