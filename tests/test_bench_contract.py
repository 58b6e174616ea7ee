"""What the benchmark reads of orbitcoh, by name.

``bench/layers.py`` lists ``(owner, attr)`` pairs and the tracer replaces
``vars(owner)[attr]``, and ``bench/workloads.py``'s correctness gate reads
report and record fields; a rename under ``src/`` would break the benchmark
without failing any other test.
"""

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
