"""Workload inputs, timed passes and the correctness gate.

A workload's inputs are plain data made from the seed.  One *pass* builds
every presentation afresh (so per-presentation caches start cold, as on a
user's first call) and makes each public call once, timing each call.

- ``wall_grid``: ``run_case`` over all 20 assignments of five Wall fibers
  Q(m, n), one from each top-degree band.  These are the paper's inputs;
  large cells and wide windows make gf2 dominate.
- ``fiber_sweep``: ``run_case`` over every assignment of 81 two-generator
  truncated fibers and of the spheres S^1..S^8.  Many tiny fibers, so
  per-call overhead and small ``Subspace`` operations dominate.  It keeps
  the calls that raise ``SpectralModelError``.
- ``actions_grid``: ``classify_free_actions(m, n)`` on the 100 pairs with
  m in 0..5, odd n and top degree at most 70.  ``Element`` arithmetic in
  algebra dominates and gf2 is about 1%.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from time import perf_counter

from orbitcoh import actions, algebra, spectral

# The paper's grid: one Wall fiber Q(m, n) from each top-degree band near
# 8, 14, 20, 24 and 32.
WALL_FIBERS = ((1, 3), (3, 5), (1, 9), (5, 9), (1, 15))

SWEEP_DEGREES = (1, 2, 3)
SWEEP_EXPONENTS = (2, 3, 4)
SWEEP_SPHERES = tuple(range(1, 9))
GENERATOR_NAMES = "abefghkuvwyz"

# Q(m, n) for m <= 5 and odd n up to top degree m + 2n + 1 = 70: 100 pairs.
ACTION_PAIRS = tuple((m, n) for m in range(6) for n in range(1, 70, 2) if m + 2 * n + 1 <= 70)


@dataclass(frozen=True)
class Inputs:
    """What one workload hands to the program.

    ``order`` shuffles the sequence of public calls (``None`` keeps the
    natural order: fiber by fiber, assignments in enumeration order).
    """

    specs: tuple[tuple, ...]
    order: int | None


def make_inputs(workload: str, seed: int) -> Inputs:
    """The workload's inputs for ``seed``: the same seed gives the same inputs.

    Seed 0 is the natural, unshuffled workload.  Other seeds vary only what
    leaves the amount of work unchanged, since inputs of unequal cost would
    spread every end-to-end metric across seeds: the order of the calls
    and, in ``fiber_sweep``, the names and order of each fiber's generators
    (isomorphic presentations).
    """
    rng = random.Random(seed)
    order = None if seed == 0 else rng.getrandbits(64)
    if workload == "wall_grid":
        return Inputs(tuple(("wall", m, n) for m, n in WALL_FIBERS), order)
    if workload == "fiber_sweep":
        fibers = []
        for d1, e1, d2, e2 in itertools.product(SWEEP_DEGREES, SWEEP_EXPONENTS,
                                                SWEEP_DEGREES, SWEEP_EXPONENTS):
            gens = [(d1, e1), (d2, e2)]
            names = ["a", "b"]
            if seed != 0:
                rng.shuffle(gens)
                names = rng.sample(GENERATOR_NAMES, 2)
            fibers.append(("fiber",) + tuple(
                (name, deg, exp) for name, (deg, exp) in zip(names, gens)))
        return Inputs(tuple(fibers) + tuple(("sphere", n) for n in SWEEP_SPHERES), order)
    if workload == "actions_grid":
        pairs = [("actions", m, n) for m, n in ACTION_PAIRS]
        if seed != 0:
            rng.shuffle(pairs)
        return Inputs(tuple(pairs), None)
    raise ValueError(f"unknown workload {workload!r}")


def build_fiber(spec: tuple) -> tuple[str, algebra.AlgebraPresentation, int]:
    """A fresh presentation for a spectral input: ``(label, fiber, dim_x)``."""
    kind = spec[0]
    if kind == "wall":
        _, m, n = spec
        fiber = algebra.wall_presentation(m, n)
        return f"Q({m},{n})", fiber, fiber.top_degree
    if kind == "sphere":
        fiber = algebra.sphere_presentation(spec[1])
        return f"S^{spec[1]}", fiber, spec[1]
    gens = spec[1:]
    label = " ".join(f"{name}{deg}^{exp}" for name, deg, exp in gens)
    rules = [(tuple(exp if j == i else 0 for j in range(len(gens))), ())
             for i, (_, _, exp) in enumerate(gens)]
    fiber = algebra.AlgebraPresentation([(name, deg) for name, deg, _ in gens],
                                        rules, name=label)
    return label, fiber, fiber.top_degree


def warm_up():
    """One ``run_case`` on S^1, the first call of a session."""
    fiber = algebra.sphere_presentation(1)
    return spectral.run_case(fiber, 1, spectral.enumerate_assignments(fiber)[-1])


@dataclass
class Pass:
    """Timings and outcomes of one pass over a workload."""

    elapsed: float = 0.0
    prepare: float = 0.0
    latencies: list[float] = field(default_factory=list)
    probes: list[float] = field(default_factory=list)
    verdicts: int = 0
    rows: list[tuple] = field(default_factory=list)
    failures: list[tuple[str, str, str, str]] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def work(self) -> float:
        """Seconds spent preparing and in the calls, without bookkeeping or probes."""
        return self.prepare + sum(self.latencies)


def run_pass(workload: str, inputs: Inputs, tracer=None, check: bool = False,
             probe=None) -> Pass:
    """Make every public call of the workload once, timing each call.

    ``prepare`` times what a user does before the calls (building the
    presentations and enumerating their assignments; nothing for
    ``actions_grid``); ``elapsed`` is the whole pass, bookkeeping and
    probes included.  ``probe``, if given, is timed before ``prepare``,
    after it and after every call, into ``probes``.

    A call that raises is a failed operation: its exception type and case
    are recorded and it stays in the workload.  Rows for the verdict digest
    are collected as the calls return, and a result is dropped once it is
    recorded, so that no pass holds more than a user's session would.
    ``check`` runs the correctness gate, which calls into orbitcoh itself
    and so must stay off while ``tracer`` records; ``tracer.call`` is set
    to each call's index so that its spans share it.
    """
    out = Pass()
    start = perf_counter()
    if probe is not None:
        out.probes.append(probe())
    if workload == "actions_grid":
        if probe is not None:
            out.probes.append(probe())
        for spec in inputs.specs:
            if tracer is not None:
                tracer.call = out.attempted
            t0 = perf_counter()
            report = actions.classify_free_actions(spec[1], spec[2])
            out.latencies.append(perf_counter() - t0)
            if probe is not None:
                out.probes.append(probe())
            out.verdicts += len(report.records)
            out.rows.extend((report.m, report.n, r.candidate.describe(), r.status, r.stage)
                            for r in report.records)
            if check:
                out.problems.extend(_check_actions(report))
        out.elapsed = perf_counter() - start
        return out

    t0 = perf_counter()
    fibers = [build_fiber(spec) for spec in inputs.specs]
    calls = [(k, a) for k, (_, fiber, _) in enumerate(fibers)
             for a in spectral.enumerate_assignments(fiber)]
    out.prepare = perf_counter() - t0
    if probe is not None:
        out.probes.append(probe())
    if inputs.order is not None:
        random.Random(inputs.order).shuffle(calls)
    survivors: list[list] = [[] for _ in fibers]
    for k, assignment in calls:
        label, fiber, dim_x = fibers[k]
        if tracer is not None:
            tracer.call = out.attempted
        t0 = perf_counter()
        try:
            verdict = spectral.run_case(fiber, dim_x, assignment)
        except Exception as exc:  # a crash is a measured failure, not an abort
            out.latencies.append(perf_counter() - t0)
            if probe is not None:
                out.probes.append(probe())
            kind = type(exc).__name__
            out.failures.append((label, assignment.case_id, kind, str(exc)))
            out.rows.append((label, assignment.case_id, "raised", kind))
            continue
        out.latencies.append(perf_counter() - t0)
        if probe is not None:
            out.probes.append(probe())
        out.verdicts += 1
        out.rows.append((label, verdict.case_id, verdict.outcome, verdict.reason))
        if check and verdict.outcome == "survives":
            # keep the E_inf totals, not the page, so that no call runs with
            # an earlier call's pages still alive
            totals = [verdict.e_infinity.total_dimension(j) for j in range(dim_x + 1)]
            survivors[k].append((verdict.case_id, totals))
        del verdict
    out.elapsed = perf_counter() - start
    if check:
        for spec, fiber, found in zip(inputs.specs, fibers, survivors):
            out.problems.extend(_check_spectral(spec[0], fiber, found))
    return out


def _euler(dims) -> int:
    return sum(d if j % 2 == 0 else -d for j, d in enumerate(dims))


def _check_actions(report) -> list[str]:
    """The identity candidate survives on every Q(m, n)."""
    pres = report.presentation
    for rec in report.records:
        if all(img == pres.gen(name) for name, img in rec.candidate.images):
            if rec.status != "survives":
                return [f"Q({report.m},{report.n}): the identity candidate was {rec.status}"]
            return []
    return [f"Q({report.m},{report.n}): no identity candidate"]


def _check_spectral(kind: str, built, survivors) -> list[str]:
    """Case A alone survives on a Wall fiber; every survivor has
    chi(E_inf) = chi(fiber)/2; every sphere S^n gives RP^n.

    ``survivors`` holds ``(case_id, E_inf total dimensions in 0..dim_x)``.
    """
    label, fiber, dim_x = built
    problems = []
    if kind == "wall" and [case for case, _ in survivors] != ["A"]:
        problems.append(f"{label}: survivors {[case for case, _ in survivors]}, "
                        "expected only case A")
    chi_fiber = _euler(len(fiber.degree_basis(q)) for q in range(fiber.top_degree + 1))
    for case, totals in survivors:
        if 2 * _euler(totals) != chi_fiber:
            problems.append(f"{label} case {case}: chi(E_inf) = {_euler(totals)}, "
                            f"chi(fiber) = {chi_fiber}")
        if kind == "sphere" and totals != [1] * (dim_x + 1):
            problems.append(f"{label} case {case}: totals {totals}, expected RP^{dim_x}")
    if kind == "sphere" and not survivors:
        problems.append(f"{label}: no survivor, expected RP^{dim_x}")
    return problems
