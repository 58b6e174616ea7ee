"""Measurement arithmetic for the orbitcoh benchmark.

Everything here is independent of the workloads: the speed probe and the
scaling of times to its reference speed, a tracer that wraps functions
from outside and records one span per call, the self-time arithmetic over
those spans, the latency percentile, the error rate, the verdict digest
and the machine note.  ``test_harness.py`` checks each.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import random
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np


# The probe's typical time between calls on a 2-vCPU VM of a shared 2.0 GHz
# Xeon host (about 2.1 ms when the host is idle, 4 to 4.5 ms between calls);
# times scaled to it read as that machine's usual wall-clock times.
REF_PROBE_S = 0.0042


class SpeedProbe:
    """A fixed piece of work, timed between the workload's calls.

    A shared host runs this process slower by up to 2x, in spells from
    milliseconds to minutes, and the process's CPU time grows with its
    wall time, so CPU time does not help.  The probe does the same kinds of
    work as orbitcoh (XOR row reduction on small numpy uint8 matrices,
    products of sparse polynomials kept as sets of exponent tuples) in code
    of its own, so a change to orbitcoh cannot change it, and its time
    tracks the host's speed at that moment: over eleven wall_grid passes
    the slowdown of the two probes around a call correlated at 0.87 with
    the call's own slowdown, with slope 0.95.  The garbage collector is off
    while it runs, so the program's heap does not show.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._mats = [(rng.random(shape) < 0.5).astype(np.uint8)
                      for shape in ((16, 24), (32, 48))]
        pick = random.Random(0)
        self._polys = [{tuple(pick.randrange(4) for _ in range(3)) for _ in range(40)}
                       for _ in range(2)]

    def __call__(self) -> float:
        """Seconds the probe's work takes now."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            self._work()
            return perf_counter() - t0
        finally:
            if enabled:
                gc.enable()

    def _work(self) -> int:
        rank = 0
        for m in self._mats:
            a = m.copy()
            row = 0
            for col in range(a.shape[1]):
                if row == a.shape[0]:
                    break
                hits = np.nonzero(a[row:, col])[0]
                if hits.size == 0:
                    continue
                hit = row + int(hits[0])
                if hit != row:
                    a[[row, hit]] = a[[hit, row]]
                for i in np.nonzero(a[:, col])[0]:
                    if i != row:
                        a[i] ^= a[row]
                row += 1
            rank += row
        product: set = set()
        p, q = self._polys
        for m1 in p:
            for m2 in q:
                m = tuple(min(x + y, 5) for x, y in zip(m1, m2))
                if m in product:
                    product.discard(m)
                else:
                    product.add(m)
        return rank + len(product)


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` at the reference speed, given the probe times around it."""
    return seconds * REF_PROBE_S * 2.0 / (before + after)


def scale_segments(durations, probes) -> list[float]:
    """Scale consecutive timed segments; ``probes[i]`` and ``probes[i + 1]``
    were taken just before and just after ``durations[i]``."""
    durations = list(durations)
    if len(probes) != len(durations) + 1:
        raise ValueError("need one probe before each segment and one after the last")
    return [scaled(t, probes[i], probes[i + 1]) for i, t in enumerate(durations)]


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation between ranks.

    Matches ``statistics.quantiles(values, n=100, method="inclusive")``.
    """
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no samples")
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly above the ``q``-th percentile rank."""
    return n - 1 - int((n - 1) * q / 100.0)


def error_rate(failed: int, attempted: int) -> float:
    """Share of attempted calls that raised instead of returning a verdict."""
    if attempted < 1:
        raise ValueError("no calls attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("failed calls must lie between 0 and the attempted count")
    return failed / attempted


def digest(rows) -> str:
    """Order-sensitive hash of verdict rows (each a tuple of JSON scalars)."""
    h = hashlib.sha256()
    for row in rows:
        h.update(json.dumps(list(row), separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def self_times(parent, start, end) -> np.ndarray:
    """Span duration minus the durations of its direct children.

    ``parent[i]`` is the index of span ``i``'s enclosing span, or -1 for a
    root.  Spans come from one thread, so children nest inside their parent
    and never overlap one another.
    """
    dur = np.subtract(end, start, dtype=np.float64)
    # shifted by one, the roots' parent -1 lands in bin 0, which is dropped;
    # a traced pass can hold millions of spans, so no masked copies
    child = np.bincount(np.asarray(parent, dtype=np.intp) + 1, weights=dur,
                        minlength=len(dur) + 1)
    dur -= child[1:]
    return dur


def machine_note() -> dict:
    """Where a result was measured: core count, CPU model, interpreter, numpy."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "platform": sys.platform}


class Tracer:
    """Span recorder for functions patched in through module and class attributes.

    Each span stores its name, parent span, the workload call it belongs to
    (``call``, shared by every span of one public call), start, end and an
    optional integer attribute.  Spans are kept in flat arrays in memory and
    written out by ``save``.
    """

    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.call_of = array("i")
        self.attr = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: Counter = Counter()
        self.call = -1
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, observe=None, attr_of=None):
        """Replace ``owner.attr`` by a recording wrapper until ``restore``.

        ``observe(counters, args)`` may add counts; ``attr_of(args)`` gives
        the span's integer attribute.  Both run outside the span's interval.
        """
        raw = vars(owner)[attr]
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind else raw
        nid = len(self.names)
        self.names.append(name)
        name_of, parent, call_of, attrs = self.name_of, self.parent, self.call_of, self.attr
        start, end, stack, counters = self.start, self.end, self._stack, self.counters
        errors = name + ".errors"

        def traced(*args, **kwargs):
            if observe is not None:
                observe(counters, args)
            i = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            call_of.append(self.call)
            attrs.append(attr_of(args) if attr_of is not None else -1)
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            except Exception:
                counters[errors] += 1
                raise
            finally:
                end[i] = perf_counter()
                stack.pop()

        traced.__name__ = getattr(fn, "__name__", attr)
        traced.__qualname__ = getattr(fn, "__qualname__", attr)
        traced.__doc__ = getattr(fn, "__doc__", None)
        setattr(owner, attr, kind(traced) if kind else traced)
        self._patches.append((owner, attr, raw))

    def restore(self):
        """Put every wrapped attribute back as it was."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def __len__(self) -> int:
        return len(self.start)

    def per_name(self) -> dict[str, tuple[int, float]]:
        """``name -> (calls, self seconds)`` for every wrapped name."""
        names = np.asarray(self.name_of)
        own = self_times(self.parent, self.start, self.end)
        calls = np.bincount(names, minlength=len(self.names))
        secs = np.bincount(names, weights=own, minlength=len(self.names))
        return {n: (int(calls[i]), float(secs[i])) for i, n in enumerate(self.names)}

    def save(self, path: str):
        """Write every span and the name table to an ``.npz`` file."""
        np.savez_compressed(
            path, names=np.array(self.names), name=np.asarray(self.name_of),
            parent=np.asarray(self.parent), call=np.asarray(self.call_of),
            attr=np.asarray(self.attr), start=np.asarray(self.start),
            end=np.asarray(self.end))
