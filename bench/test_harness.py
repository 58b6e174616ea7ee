"""Tests for the benchmark's own arithmetic (no orbitcoh calls)."""

import statistics
import types

import numpy as np
import pytest

import harness


class TestSelfTimes:
    def test_nested_spans(self):
        # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3]
        parent = [-1, 0, 1, 0]
        start = [0.0, 1.0, 2.0, 5.0]
        end = [10.0, 4.0, 3.0, 9.0]
        assert harness.self_times(parent, start, end).tolist() == [3.0, 2.0, 1.0, 4.0]

    def test_sum_of_self_times_is_root_time(self):
        rng = np.random.default_rng(0)
        parent, start, end = [], [], []

        def grow(p, lo, hi, depth):
            i = len(start)
            parent.append(p)
            start.append(lo)
            end.append(hi)
            cuts = np.sort(rng.uniform(lo, hi, 4)) if depth < 3 else []
            for a, b in zip(cuts[::2], cuts[1::2]):
                grow(i, a, b, depth + 1)

        grow(-1, 0.0, 1.0, 0)
        grow(-1, 2.0, 2.5, 0)
        own = harness.self_times(parent, start, end)
        assert (own >= 0).all()
        assert own.sum() == pytest.approx(1.5)

    def test_empty(self):
        assert harness.self_times([], [], []).tolist() == []


class TestTracer:
    def test_spans_nest_and_restore(self):
        mod = types.SimpleNamespace()
        mod.inner = lambda x: x + 1
        mod.outer = lambda x: mod.inner(x) * mod.inner(x)
        original = mod.outer
        tracer = harness.Tracer()
        tracer.wrap(mod, "inner", "m.inner")
        tracer.wrap(mod, "outer", "m.outer")
        tracer.call = 7
        assert mod.outer(1) == 4
        tracer.restore()
        assert mod.outer is original
        assert list(tracer.parent) == [-1, 0, 0]
        assert list(tracer.call_of) == [7, 7, 7]
        stats = tracer.per_name()
        assert stats["m.inner"][0] == 2 and stats["m.outer"][0] == 1
        assert sum(s for _, s in stats.values()) == pytest.approx(tracer.end[0] - tracer.start[0])

    def test_classmethod_and_errors(self):
        class Thing:
            @classmethod
            def make(cls, n):
                if n < 0:
                    raise ValueError(n)
                return cls()

        tracer = harness.Tracer()
        # a classmethod's wrapper sees ``cls`` first, as the function does
        tracer.wrap(Thing, "make", "Thing.make", attr_of=lambda args: args[1])
        assert isinstance(Thing.make(3), Thing)
        with pytest.raises(ValueError):
            Thing.make(-2)
        tracer.restore()
        assert list(tracer.attr) == [3, -2]
        assert tracer.counters["Thing.make.errors"] == 1
        assert isinstance(vars(Thing)["make"], classmethod)

    def test_save(self, tmp_path):
        tracer = harness.Tracer()
        mod = types.SimpleNamespace(f=lambda: None)
        tracer.wrap(mod, "f", "f")
        mod.f()
        tracer.restore()
        path = tmp_path / "spans.npz"
        tracer.save(str(path))
        with np.load(path) as data:
            assert data["names"].tolist() == ["f"]
            assert data["parent"].tolist() == [-1]
            assert data["end"][0] >= data["start"][0]


class TestPercentile:
    @pytest.mark.parametrize("n", [1, 2, 10, 100, 472])
    def test_matches_statistics_inclusive(self, n):
        values = list(np.random.default_rng(n).exponential(size=n))
        if n > 1:
            cuts = statistics.quantiles(values, n=100, method="inclusive")
            assert harness.percentile(values, 50) == pytest.approx(cuts[49])
            assert harness.percentile(values, 90) == pytest.approx(cuts[89])
        assert harness.percentile(values, 0) == min(values)
        assert harness.percentile(values, 100) == max(values)

    def test_interpolates(self):
        assert harness.percentile([4, 1, 3, 2], 50) == 2.5
        assert harness.percentile(range(101), 90) == 90

    def test_no_samples(self):
        with pytest.raises(ValueError):
            harness.percentile([], 50)

    def test_samples_beyond(self):
        # p90 of 100 samples sits between the 90th and 91st: ten lie above it
        assert harness.samples_beyond(100, 90) == 10
        assert harness.samples_beyond(472, 90) == 48
        assert harness.samples_beyond(10, 90) == 1


class TestSpeedScaling:
    def test_scaled_by_mean_of_surrounding_probes(self):
        ref = harness.REF_PROBE_S
        assert harness.scaled(0.5, ref, ref) == pytest.approx(0.5)
        # the host ran at half speed around the call: half of it counts
        assert harness.scaled(0.5, 2 * ref, 2 * ref) == pytest.approx(0.25)
        assert harness.scaled(0.5, ref, 3 * ref) == pytest.approx(0.25)

    def test_segments_use_the_probes_on_either_side(self):
        ref = harness.REF_PROBE_S
        probes = [ref, ref, 3 * ref, 3 * ref]
        assert harness.scale_segments([1.0, 2.0, 3.0], probes) == pytest.approx(
            [1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            harness.scale_segments([1.0, 2.0], probes)

    def test_probe_times_fixed_work(self):
        probe = harness.SpeedProbe()
        assert probe._work() == probe._work()
        assert 0 < probe() < 1.0


class TestErrorRate:
    def test_share_of_attempted(self):
        assert harness.error_rate(40, 472) == 40 / 472
        assert harness.error_rate(0, 100) == 0.0

    @pytest.mark.parametrize("failed,attempted", [(1, 0), (-1, 5), (6, 5)])
    def test_rejects_impossible_counts(self, failed, attempted):
        with pytest.raises(ValueError):
            harness.error_rate(failed, attempted)


class TestDigest:
    rows = [("Q(1,3)", "A", "survives", None), ("Q(1,3)", "B1", "eliminated",
                                                 "vanishing_violation")]

    def test_stable(self):
        # pinned: digests recorded by earlier runs must stay comparable
        assert harness.digest(self.rows) == "991ae4a73a6d4f59"
        assert harness.digest([list(r) for r in self.rows]) == "991ae4a73a6d4f59"

    def test_sensitive_to_order_and_content(self):
        base = harness.digest(self.rows)
        assert harness.digest(self.rows[::-1]) != base
        changed = [self.rows[0], ("Q(1,3)", "B1", "eliminated", "leibniz_inconsistent")]
        assert harness.digest(changed) != base
        # row boundaries matter: the same fields split differently hash apart
        assert harness.digest([("a", "b"), ("c",)]) != harness.digest([("a",), ("b", "c")])


def test_machine_note_fields():
    note = harness.machine_note()
    assert {"nproc", "cpu", "python", "numpy"} <= set(note)
    assert note["numpy"] == np.__version__
