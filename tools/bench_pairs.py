"""Alternating benchmark runs of two checkouts, and the rules that compare them.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W [--pairs 10]
                                 [--seconds 30] [--seed 0]

PARENT and CHANGE are the roots of two checkouts of this repository.  Both
checkouts' bytecode is compiled first, since a fresh interpreter's
``setup_s`` depends on it.  Each pair runs ``python3 bench/run.py`` once in
each checkout, the parent first on odd pairs and the change first on even
ones, and reads the JSON line each run prints last.  A run that is not
``correct`` stops the tool with exit status 1.

For every end-to-end metric of ``BENCHMARK.json`` (its name, ``better``
and ``bound``, read from PARENT) the tool prints each side's median and
quartiles and the pairs the change wins; a tie counts for neither side.
Three verdicts are stated for each:

- claim: the change wins at least nine pairs in ten, and its median is
  better than the parent's by more than the parent's interquartile range;
- regression: the change's median is worse than the parent's by more than
  ``bound``, a fraction of the parent's median;
- unresolved: either side's interquartile range is wider than ``bound``
  times the parent's median, and some run of the change reads no better
  than some run of the parent, so the runs spread too widely to tell.

The share of calls that raised is compared too: a larger share on the
change side is a regression.  The last line printed is one JSON object
(``report``): the settings, each checkout's git commit (null where git
cannot read one), the machine's CPU count and Python version, and per
metric both sides' values, quartiles, wins and verdicts.  It is a report:
the exit status is 0 once every run is correct.  Standard library only.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``, inclusive method; one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def decide(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """The three verdicts for one metric, ``parent[i]`` and ``change[i]`` from pair i.

    ``better`` is ``"lower"`` or ``"higher"``.  Returns the quartiles of both
    sides, the change's wins, whether the claim holds, whether the change
    regresses by more than ``bound`` and whether the spread leaves that
    unresolved."""
    sign = 1 if better == "lower" else -1     # positive: the change is better
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    gain = sign * (p_med - c_med)
    spread = max(p_q3 - p_q1, c_q3 - c_q1)
    separated = all(sign * (p - c) > 0 for p in parent for c in change)
    return {"parent": (p_q1, p_med, p_q3), "change": (c_q1, c_med, c_q3),
            "wins": wins, "pairs": len(parent),
            "claim": wins >= math.ceil(0.9 * len(parent)) and gain > p_q3 - p_q1,
            "regression": -gain > bound * abs(p_med),
            "unresolved": spread > bound * abs(p_med) and not separated}


def commit_of(root: Path) -> str | None:
    """The commit checked out at ``root``, or None where ``root`` is no git
    checkout of its own or git cannot read it."""
    try:
        done = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                              capture_output=True, text=True)
    except OSError:
        return None
    lines = done.stdout.split()
    if done.returncode or len(lines) != 2 or Path(lines[0]).resolve() != root.resolve():
        return None
    return lines[1]


def report(workload: str, seed: int, seconds: float, commits: dict, metrics: list,
           values: dict, failed: dict) -> dict:
    """The JSON object of one comparison.

    ``metrics`` are ``BENCHMARK.json``'s end-to-end entries, ``values[side][name]``
    the side's value per pair, and ``failed[side]`` its (calls that raised,
    calls made)."""
    out = {"workload": workload, "seed": seed, "seconds": seconds,
           "pairs": len(values["parent"][metrics[0]["name"]]),
           "commits": commits, "cpu_count": os.cpu_count(),
           "python": platform.python_version(), "metrics": {}}
    for m in metrics:
        name = m["name"]
        d = decide(values["parent"][name], values["change"][name], m["better"], m["bound"])
        out["metrics"][name] = {
            "better": m["better"], "bound": m["bound"],
            "parent": values["parent"][name], "change": values["change"][name],
            "parent_quartiles": list(d["parent"]), "change_quartiles": list(d["change"]),
            **{key: d[key] for key in ("wins", "claim", "regression", "unresolved")}}
    out["raised_share"] = {side: raised / max(made, 1)
                           for side, (raised, made) in failed.items()}
    return out


def compile_checkout(root: Path) -> None:
    for part in ("src", "bench"):
        compileall.compile_dir(root / part, quiet=1)


def run_once(root: Path, workload: str, seconds: float, seed: int) -> dict:
    """One ``bench/run.py`` run in ``root``: its last JSON line."""
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds)],
                          cwd=root, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "stderr": done.stderr[-2000:]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    metrics = json.loads((args.parent / "BENCHMARK.json").read_text())["end_to_end"]
    roots = {"parent": args.parent, "change": args.change}
    for root in roots.values():
        compile_checkout(root)
    values = {side: {m["name"]: [] for m in metrics} for side in roots}
    failed = {side: [0, 0] for side in roots}    # calls that raised, calls made
    for pair in range(1, args.pairs + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for side in order:
            out = run_once(roots[side], args.workload, args.seconds, args.seed)
            if not out.get("correct"):
                print(f"pair {pair}: the {side} run is not correct: {out}")
                return 1
            for m in metrics:
                values[side][m["name"]].append(out["metrics"][m["name"]]["value"])
            failed[side][0] += out["failed"]
            failed[side][1] += out["attempted"]
        print(f"pair {pair} ({order[0]} first): " + "; ".join(
            f"{m['name']} {values['parent'][m['name']][-1]:.4g} -> "
            f"{values['change'][m['name']][-1]:.4g}" for m in metrics), flush=True)

    out = report(args.workload, args.seed, args.seconds,
                 {side: commit_of(root) for side, root in roots.items()},
                 metrics, values, failed)
    print(f"\n{args.workload}, seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s")
    print(f"{'metric':<16} {'better':<7} {'parent q1 median q3':>30} "
          f"{'change q1 median q3':>30} {'wins':>6}  claim  regression")
    for name, d in out["metrics"].items():
        sides = ["{:>9.4g} {:>9.4g} {:>9.4g}".format(*d[f"{side}_quartiles"])
                 for side in ("parent", "change")]
        print(f"{name:<16} {d['better']:<7} {sides[0]:>30} {sides[1]:>30} "
              f"{d['wins']:>3}/{out['pairs']:<2}  {'holds' if d['claim'] else 'no':<5}  "
              f"{'WORSE than ' + str(d['bound']) if d['regression'] else 'within bound'}"
              f"{', unresolved' if d['unresolved'] else ''}")
    shares = out["raised_share"]
    print(f"calls that raised: parent {shares['parent']:.4f}, change {shares['change']:.4f}"
          + ("  WORSE" if shares["change"] > shares["parent"] else ""))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
