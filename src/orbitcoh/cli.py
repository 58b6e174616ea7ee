"""The ``orbitcoh`` command line.

``orbitcoh spectral --wall M N [--json]``
    Every transgression case of the Borel spectral sequence with fiber
    H*(Q(M, N)) and dim X = M + 2N + 1, the top degree: its case label,
    differentials, outcome, reason and detail.  A case the engine refuses
    (``SpectralModelError``) is listed with outcome ``error`` and its
    message, and the exit status is then 1.  With ``--json`` each case
    also carries the fields of the guard that eliminated it
    (``spectral.GuardFinding``), null where the guard has none and all null
    for a survivor or a refusal: ``guard`` (``leibniz``, ``square_zero`` or
    ``vanishing``), ``page``, ``bidegree`` ([p, q]), ``relation`` (text,
    ``lhs = rhs``), ``values`` (the two sides' values as text, without the
    ``t^r`` factor) and ``degrees`` (the nonzero total degrees above dim X).

``orbitcoh actions M N [--json]``
    Every candidate involution of H*(Q(M, N)), with the JSON keys ``images``,
    ``status``, ``stage`` (the filter that eliminated it), ``reason`` and two
    computed here for a survivor, false and null otherwise: ``undecided``,
    marked in the text too, if neither the identity nor c -> c + x
    (``wall.is_identity_or_twist``), and ``trivial_in_degrees_ge_2``.

Run it as ``orbitcoh`` once the package is installed, or as
``python -m orbitcoh.cli`` with ``src`` on the module path.  A reader that
closes the pipe early (``orbitcoh actions 5 31 | head -n 1``) ends the
output, with nothing on stderr; see ``main`` for the exit status.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import actions, spectral, wall
from .algebra import wall_presentation


def _finding_fields(finding: spectral.GuardFinding | None) -> dict:
    """The finding's JSON keys: null where absent, relation and values as text."""
    if finding is None:
        return dict.fromkeys(("guard", "page", "bidegree", "relation", "values", "degrees"))
    return {"guard": finding.guard, "page": finding.page, "bidegree": finding.bidegree,
            "relation": finding.relation and finding.fiber.rule_text(finding.relation),
            "values": finding.values and finding.value_texts(),
            "degrees": finding.degrees}


def _spectral(m: int, n: int) -> dict:
    fiber = wall_presentation(m, n)
    dim_x = fiber.top_degree
    cases = []
    for assignment in spectral.enumerate_assignments(fiber):
        try:
            verdict = spectral.run_case(fiber, dim_x, assignment)
            outcome, reason, detail = verdict.outcome, verdict.reason, verdict.detail
            finding = verdict.finding
        except spectral.SpectralModelError as exc:
            outcome, reason, detail, finding = "error", type(exc).__name__, str(exc), None
        cases.append({"case": assignment.case_id,
                      "differentials": assignment.describe() or None,
                      "outcome": outcome, "reason": reason, "detail": detail,
                      **_finding_fields(finding)})
    return {"fiber": f"Q({m},{n})", "dim_x": dim_x, "cases": cases}


def _actions(m: int, n: int) -> dict:
    report = actions.classify_free_actions(m, n)
    records = [{"images": {name: str(img) for name, img in r.candidate.images},
                "status": r.status, "stage": r.stage, "reason": r.reason,
                "undecided": r.stage is None and not wall.is_identity_or_twist(r.candidate),
                "trivial_in_degrees_ge_2":
                    actions.is_trivial_in_degrees_ge_2(r.candidate) if r.stage is None else None}
               for r in report.records]
    return {"fiber": f"Q({m},{n})", "candidates": len(records),
            "survivors": len(report.survivors()),
            "undecided": sum(r["undecided"] for r in records), "records": records}


def _print_spectral(result: dict):
    print(f"{result['fiber']}: {len(result['cases'])} cases, dim X = {result['dim_x']}")
    for case in result["cases"]:
        line = f"{case['case']}: {case['differentials'] or 'no differential'} -> {case['outcome']}"
        if case["reason"]:
            line += f" ({case['reason']}: {case['detail']})"
        print(line)


def _print_actions(result: dict):
    print(f"{result['fiber']}: {result['candidates']} candidates, "
          f"{result['survivors']} survive, {result['undecided']} undecided")
    for rec in result["records"]:
        images = ", ".join(f"{name} -> {img}" for name, img in rec["images"].items())
        stage = f" at {rec['stage']}" if rec["stage"] else ""
        mark = " [undecided]" if rec["undecided"] else ""
        print(f"{images}: {rec['status']}{stage}{mark}: {rec['reason']}")


def main(argv=None) -> int:
    """Run one command; the exit status is 0, or 1 if ``spectral`` lists a
    refused case, or 2 for bad arguments (from ``argparse``).  A reader that
    closes stdout early does not change it."""
    parser = argparse.ArgumentParser(prog="orbitcoh", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    spec = sub.add_parser("spectral", help="transgression cases on a Wall fiber")
    spec.add_argument("--wall", nargs=2, type=int, metavar=("M", "N"), required=True)
    spec.add_argument("--json", action="store_true", help="print one JSON object")
    act = sub.add_parser("actions", help="candidate involutions of H*(Q(M, N))")
    act.add_argument("m", type=int, metavar="M")
    act.add_argument("n", type=int, metavar="N")
    act.add_argument("--json", action="store_true", help="print one JSON object")
    args = parser.parse_args(argv)
    try:
        result = _spectral(*args.wall) if args.command == "spectral" else _actions(args.m, args.n)
    except ValueError as exc:    # PresentationError too: bad M, N
        parser.error(str(exc))
    try:
        if args.json:
            print(json.dumps(result))
        elif args.command == "spectral":
            _print_spectral(result)
        else:
            _print_actions(result)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has closed the pipe: that is the end of the output; point
        # stdout at devnull so the flush at exit does not fail on it again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return int(any(case["outcome"] == "error" for case in result.get("cases", ())))


if __name__ == "__main__":
    raise SystemExit(main())
