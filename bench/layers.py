"""Which public functions of each orbitcoh module the traced run wraps.

The benchmark wraps them from outside, through module and class
attributes; nothing under ``src/`` knows it is being traced.  Besides one
span per call, a few wrappers count the size of the work they see.
"""

from __future__ import annotations

import numpy as np

from orbitcoh import actions, algebra, gf2, spectral

SPANS = (
    (gf2, "rref", "gf2.rref"),
    (gf2, "solve", "gf2.solve"),
    (gf2, "subquotient", "gf2.subquotient"),
    (gf2, "kernel_basis", "gf2.kernel_basis"),
    (gf2, "image_basis", "gf2.image_basis"),
    (gf2, "rank", "gf2.rank"),
    (gf2.Subspace, "from_vectors", "gf2.Subspace.from_vectors"),
    (gf2.Subspace, "add", "gf2.Subspace.add"),
    (gf2.Subspace, "reduce", "gf2.Subspace.reduce"),
    (algebra.AlgebraPresentation, "normal_form", "algebra.normal_form"),
    (algebra.AlgebraPresentation, "reduce_mono", "algebra.reduce_mono"),
    (algebra.AlgebraPresentation, "degree_basis", "algebra.degree_basis"),
    (algebra.AlgebraPresentation, "to_vector", "algebra.to_vector"),
    (algebra.Element, "__mul__", "algebra.Element.mul"),
    (spectral, "enumerate_assignments", "spectral.enumerate_assignments"),
    (spectral, "build_e2", "spectral.build_e2"),
    (spectral, "extend_by_leibniz", "spectral.extend_by_leibniz"),
    (spectral, "differential_value", "spectral.differential_value"),
    (spectral, "turn_page", "spectral.turn_page"),
    (spectral, "run_case", "spectral.run_case"),
    (actions, "enumerate_candidates", "actions.enumerate_candidates"),
    (actions, "apply_candidate", "actions.apply_candidate"),
    (actions, "is_ring_endomorphism", "actions.is_ring_endomorphism"),
    (actions, "is_involutive", "actions.is_involutive"),
    (actions, "bredon_obstruction", "actions.bredon_obstruction"),
    (actions, "is_trivial_in_degrees_ge_2", "actions.is_trivial_in_degrees_ge_2"),
    (actions, "classify_free_actions", "actions.classify_free_actions"),
)


def _count_rref(counters, args):
    shape = np.shape(args[0])
    counters["gf2.rref.cells"] += shape[0] * shape[1] if len(shape) == 2 else 0


def instrument(tracer):
    """Wrap every function in ``SPANS``; undo with ``tracer.restore()``."""
    # A batched solve needs one elimination per distinct ``rows`` matrix
    # within one turn of a page; the ratio counts those against the calls.
    turn_rows: set[int] = set()

    def count_turn(counters, args):
        page, diff = args[0], args[1]
        turn_rows.clear()
        if diff.active:
            counters["spectral.turn_page.active"] += 1
            counters["spectral.cells_turned"] += len(page.cells)

    def count_solve(counters, args):
        rows = np.asarray(args[0])
        key = hash((rows.shape, rows.tobytes()))
        if key not in turn_rows:
            turn_rows.add(key)
            counters["gf2.solve.distinct"] += 1

    observers = {"gf2.rref": _count_rref, "gf2.solve": count_solve,
                 "spectral.turn_page": count_turn}
    for owner, attr, name in SPANS:
        tracer.wrap(owner, attr, name, observe=observers.get(name),
                    attr_of=(lambda args: args[0].r) if name == "spectral.turn_page" else None)


def per_layer_metrics(tracer) -> dict[str, tuple[float, str]]:
    """``name -> (value, unit)``: calls and self time of every span name, plus
    the work-size counters derived from them."""
    stats = tracer.per_name()
    c = tracer.counters
    out = {}
    for name, (calls, self_s) in stats.items():
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.self_s"] = (self_s, "s")

    def ratio(num, den):
        return num / den if den else 0.0

    out["gf2.rref.mean_cells"] = (ratio(c["gf2.rref.cells"], stats["gf2.rref"][0]), "cells")
    out["gf2.solve.distinct_ratio"] = (
        ratio(c["gf2.solve.distinct"], stats["gf2.solve"][0]), "ratio")
    out["spectral.cells_turned"] = (c["spectral.cells_turned"], "count")
    out["spectral.turn_page.active_ratio"] = (
        ratio(c["spectral.turn_page.active"], stats["spectral.turn_page"][0]), "ratio")
    out["spectral.run_case.errors"] = (c["spectral.run_case.errors"], "count")
    return out
