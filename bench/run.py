"""orbitcoh benchmark: time to verdict and verdict throughput.

Usage, from the root of a checkout:

    python3 bench/run.py --workload wall_grid --seed 0 --seconds 30 --trace 0

Workloads: ``wall_grid``, ``fiber_sweep`` and ``actions_grid`` (see
``workloads.py``).  One process, one thread, a closed loop: each public
call starts when the previous one has returned.  The run repeats whole
passes over the workload and stops at the pass boundary nearest to
``--seconds``, after at least ``MIN_PASSES``.

Call times are given at a reference speed.  The shared host slows this
process by up to 2x in spells from milliseconds to minutes, some longer
than a run, so no choice among raw wall-clock times is steady from run to
run.  A speed
probe (``harness.SpeedProbe``, fixed code of the benchmark's own) is
timed before and after every call, and each call's wall-clock time is
scaled by ``REF_PROBE_S`` over the mean of the two probe times around it.
The unscaled times are printed beside the scaled ones and kept in the
record.

``call_p50_ms`` and ``call_p90_ms`` are percentiles over every call of
every pass.  ``verdicts_per_s`` divides the verdicts of all passes by
the time they spent preparing the calls (building presentations,
enumerating assignments) and in the calls; the benchmark's own
bookkeeping and the probes are left out.

``setup_s`` is the median over ``SETUP_PROBES`` fresh interpreters,
scaled by ``REF_SPAWN_S`` over the median start-up time of a reference
interpreter (``REFERENCE_CHILD``) spawned after each of them.  Start-up
is mostly the kernel starting a process and mapping files; it drifts by
up to 30% over minutes, and the speed probe does not follow it (scaling by
the probe widened the spread), but the reference interpreter does: over
ten minutes, medians taken over blocks of ten consecutive groups of seven
set-ups ranged over 1.32x unscaled and 1.08x scaled.  ``peak_rss_mb`` is the peak
resident set of this process.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` makes the same
untraced passes and then one traced pass, and reports the per-layer
metrics together with the tracing overhead: the untraced against the
traced ``verdicts_per_s``, both scaled.  Self times and ``trace.wall_s``
are wall clock.

The run prints a readable table, then one JSON line last.  It exits 1 if
the correctness gate fails and 2 if the orbitcoh sources are missing.
Results and spans go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

# one thread: set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import harness  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")
OUT = os.path.join(BENCH, "out")
SETUP_PROBES = 7
# A fresh interpreter that imports numpy and nothing of orbitcoh, and the
# median time it takes to be ready on the machine REF_PROBE_S describes.
REFERENCE_CHILD = ("-c", "import numpy; print('ready', flush=True)")
REF_SPAWN_S = 0.15
MIN_PASSES = 2


def spawn_until_ready(args: list[str]) -> float:
    """Seconds from spawning ``python args`` until it prints ``ready``."""
    t0 = perf_counter()
    with subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        try:
            proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"{args[0]} exited with code {proc.returncode} before ready")
    return elapsed


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Set-up times of ``SETUP_PROBES`` fresh interpreters, each followed by
    the start-up time of a reference interpreter."""
    setup, reference = [], []
    for _ in range(SETUP_PROBES):
        setup.append(spawn_until_ready([os.path.join(BENCH, "setup_probe.py"),
                                        workload, str(seed)]))
        reference.append(spawn_until_ready(list(REFERENCE_CHILD)))
    return setup, reference


def run_passes(workloads, workload: str, inputs, seconds: float, probe):
    """Untraced passes, timed with ``probe`` around every call, until the
    pass boundary nearest to ``seconds``.

    The first pass runs the correctness gate; the others must match its
    verdict digest.
    """
    passes = []
    start = perf_counter()
    while True:
        gc.collect()
        passes.append(workloads.run_pass(workload, inputs, check=not passes, probe=probe))
        typical = statistics.median(p.elapsed for p in passes)
        if len(passes) >= MIN_PASSES and perf_counter() - start + typical / 2 >= seconds:
            return passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("wall_grid", "fiber_sweep", "actions_grid"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "orbitcoh", "spectral.py")):
        print(f"error: no orbitcoh sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    import workloads

    probe = harness.SpeedProbe()
    setup_times, reference_times = measure_setup(args.workload, args.seed)

    inputs = workloads.make_inputs(args.workload, args.seed)
    workloads.warm_up()
    passes = run_passes(workloads, args.workload, inputs, args.seconds, probe)

    first = passes[0]
    problems = list(first.problems)
    calls = first.attempted
    digests = sorted({harness.digest(p.rows) for p in passes})
    if len(digests) != 1:
        problems.append(f"passes disagree on the verdicts: digests {digests}")
    speeds = [t for p in passes for t in p.probes]
    segments = [harness.scale_segments([p.prepare] + p.latencies, p.probes) for p in passes]
    latencies = [t for s in segments for t in s[1:]]
    untraced_vps = first.verdicts * len(passes) / sum(sum(s) for s in segments)
    raw_latencies = [t for p in passes for t in p.latencies]
    raw_vps = first.verdicts * len(passes) / sum(p.work for p in passes)
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failures) for p in passes)
    rate = harness.error_rate(failed, attempted)
    end_to_end = {
        "setup_s": (statistics.median(setup_times) * REF_SPAWN_S
                    / statistics.median(reference_times), "s"),
        "verdicts_per_s": (untraced_vps, "1/s"),
        "call_p50_ms": (harness.percentile(latencies, 50) * 1e3, "ms"),
        "call_p90_ms": (harness.percentile(latencies, 90) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    unscaled = {
        "setup_s": statistics.median(setup_times),
        "verdicts_per_s": raw_vps,
        "call_p50_ms": harness.percentile(raw_latencies, 50) * 1e3,
        "call_p90_ms": harness.percentile(raw_latencies, 90) * 1e3,
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "machine": harness.machine_note(),
        "inputs": [list(s) for s in inputs.specs], "call_order": inputs.order,
        "calls_per_pass": calls, "verdicts_per_pass": first.verdicts, "digest": digests[0],
        "setup_samples_s": setup_times, "reference_spawn_s": reference_times,
        "speed_probe": {"reference_s": harness.REF_PROBE_S, "count": len(speeds),
                        "min_s": min(speeds), "median_s": statistics.median(speeds),
                        "max_s": max(speeds)},
        "untraced": {"passes": len(passes), "calls": attempted,
                     "wall_s": sum(p.elapsed for p in passes),
                     "pass_wall_s": [p.elapsed for p in passes],
                     "pass_work_s": [p.work for p in passes],
                     "pass_prepare_s": [p.prepare for p in passes],
                     "verdicts_per_s": untraced_vps},
        "unscaled": unscaled,
        "error_rate": rate,
        "failures": [list(f) for f in first.failures],
        "call_s": [s[1:] for s in segments],
        "call_unscaled_s": [p.latencies for p in passes],
    }

    metrics = end_to_end
    if args.trace:
        import layers

        tracer = harness.Tracer()
        layers.instrument(tracer)
        gc.collect()
        try:
            traced = workloads.run_pass(args.workload, inputs, tracer, probe=probe)
        finally:
            tracer.restore()
        attempted += traced.attempted
        failed += len(traced.failures)
        if harness.digest(traced.rows) != digests[0]:
            problems.append("the traced pass changed the verdicts")
        metrics = layers.per_layer_metrics(tracer)
        self_sum = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_s"))
        if self_sum > traced.work:
            problems.append(f"self times sum to {self_sum:.6f} s, more than the traced "
                            f"wall time {traced.work:.6f} s")
        # the traced pass against the untraced ones, both scaled to the
        # reference speed; trace.wall_s and the self times are wall clock
        traced_vps = traced.verdicts / sum(
            harness.scale_segments([traced.prepare] + traced.latencies, traced.probes))
        metrics.update({
            "trace.untraced_verdicts_per_s": (untraced_vps, "1/s"),
            "trace.traced_verdicts_per_s": (traced_vps, "1/s"),
            "trace.overhead": (untraced_vps / traced_vps, "ratio"),
            "trace.untraced_pass_s": (first.verdicts / untraced_vps, "s"),
            "trace.wall_s": (traced.work, "s"),
            "trace.self_s_sum": (self_sum, "s"),
            "trace.spans": (len(tracer), "count"),
        })
        record["traced"] = {"passes": 1, "calls": traced.attempted, "wall_s": traced.work,
                            "verdicts_per_s": traced_vps, "self_s_sum": self_sum,
                            "spans": len(tracer)}
    os.makedirs(OUT, exist_ok=True)
    if args.trace:
        tracer.save(os.path.join(OUT, f"{args.workload}.spans.npz"))
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record["problems"] = problems
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1)

    note = record["machine"]
    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} untraced passes of "
          f"{calls} calls and {first.verdicts} verdicts each")
    print(f"machine: nproc={note['nproc']} cpu={note['cpu']!r} python={note['python']} "
          f"numpy={note['numpy']}")
    print(f"verdict digest: {digests[0]}")
    print(f"untraced: {record['untraced']['wall_s']:.3f} s over {len(passes)} passes; "
          f"speed probe {min(speeds) * 1e3:.3f}..{max(speeds) * 1e3:.3f} ms, median "
          f"{statistics.median(speeds) * 1e3:.3f} ms, reference {harness.REF_PROBE_S * 1e3} ms")
    if args.trace:
        t = record["traced"]
        print(f"traced:   {t['wall_s']:.3f} s for one pass, {t['spans']} spans, "
              f"self times sum to {t['self_s_sum']:.3f} s")
    notes = {"setup_s": f"median of {SETUP_PROBES} fresh interpreters",
             "call_p50_ms": f"over {len(latencies)} calls ({len(passes)} passes)",
             "call_p90_ms": f"over {len(latencies)} calls, "
                            f"{harness.samples_beyond(len(latencies), 90)} beyond it"}
    print(f"{'metric':<16} {'scaled':>14} {'unit':<6} {'unscaled':>14}")
    for name, (value, unit) in end_to_end.items():
        raw = f"{unscaled[name]:>14.4f}" if name in unscaled else " " * 14
        print(f"{name:<16} {value:>14.4f} {unit:<6} {raw} {notes.get(name, '')}")
    print(f"{'error_rate':<16} {rate:>14.4f} {'ratio':<6} {len(first.failures)} of {calls} "
          "calls raised in each pass")
    kinds: dict[str, list] = {}
    for f in first.failures:
        kinds.setdefault(f[2], []).append(f)
    for kind, found in sorted(kinds.items()):
        print(f"  {kind}: {len(found)} per pass, e.g. {found[0][0]} case {found[0][1]}: "
              f"{found[0][3]}")
    if args.trace:
        for name, (value, unit) in metrics.items():
            print(f"  {name:<44} {value:>14.6g} {unit}")
    for msg in problems:
        print(f"CHECK FAILED: {msg}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
