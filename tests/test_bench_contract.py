"""The benchmark's traced run wraps orbitcoh functions by attribute name.

``bench/layers.py`` lists ``(owner, attr)`` pairs and the tracer replaces
``vars(owner)[attr]``; a rename under ``src/`` would break the traced run
without failing any other test.
"""

import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_span_is_a_plain_attribute():
    layers = load_layers()
    assert layers.SPANS
    for owner, attr, name in layers.SPANS:
        assert attr in vars(owner), name
        raw = vars(owner)[attr]
        fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
        assert callable(fn), name
