"""The benchmark's traced run wraps orbitcoh functions by attribute name.

``bench/layers.py`` lists ``(owner, attr)`` pairs and the tracer replaces
``vars(owner)[attr]``; a rename under ``src/`` would break the traced run
without failing any other test.
"""

import importlib.util
from pathlib import Path

from orbitcoh import actions, spectral
from orbitcoh.algebra import wall_presentation

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
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
