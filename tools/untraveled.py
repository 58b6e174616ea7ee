"""The statements of ``src/orbitcoh/`` that the code's own traffic never runs.

The traffic, traced line by line with ``sys.settrace``:

- one seed-0 and one seed-1 pass of every benchmark workload
  (``bench/workloads.py``), with the correctness gate on;
- eight ``orbitcoh`` commands, run in-process (see ``COMMANDS``).

A statement counts as run when a line of its header ran (decorators and
the lines before its body, or the whole of a simple statement), or a
statement of its body did.  Docstrings and other bare strings are left
out, since no code runs for them.  A statement that shares its line with
a run one (``if x: return y``) counts as run.

Each module is listed with its count and the first line of every statement
that never ran.  It is a report, not a gate: it always exits 0.  Standard
library only; about 12 s on a 2-vCPU machine with Python 3.11.

    python3 tools/untraveled.py
"""

from __future__ import annotations

import ast
import contextlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "orbitcoh"

WORKLOADS = ("wall_grid", "fiber_sweep", "actions_grid")
SEEDS = (0, 1)
# commands whose output tests/test_cli.py checks, and two whose records the
# golden pins of tests/test_actions.py and tests/test_spectral.py check
COMMANDS = (
    "actions 1 3",
    "actions 1 3 --json",
    "actions 2 33 --json",
    "actions 1 2 --json",
    "spectral --wall 1 3 --json",
    "spectral --wall 5 9 --json",
    "spectral --wall 2 3 --json",
    "actions 5 31",
)


def traffic():
    """Every workload pass and CLI command; the imports happen here, so
    that a traced run sees the module bodies too."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import workloads
    from orbitcoh import cli

    for workload in WORKLOADS:
        for seed in SEEDS:
            done = workloads.run_pass(workload, workloads.make_inputs(workload, seed),
                                      check=True)
            if done.problems:
                print(f"{workload} seed {seed}: {done.problems}", file=sys.stderr)
    for command in COMMANDS:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(command.split())


def ran_lines(run) -> dict[str, set[int]]:
    """The lines of each ``src/orbitcoh/`` file that ``run()`` executes."""
    prefix = str(SRC)
    ran: dict[str, set[int]] = {}

    def call(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(prefix):
            return None
        lines = ran.setdefault(path, set())

        def line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return line
        return line

    sys.settrace(call)
    try:
        run()
    finally:
        sys.settrace(None)
    return ran


def _is_string(node) -> bool:
    """A docstring, or another bare string: no code runs for it."""
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _bodies(node):
    for name in ("body", "orelse", "finalbody"):
        yield getattr(node, name, [])
    for handler in getattr(node, "handlers", []):
        yield handler.body
    for case in getattr(node, "cases", []):
        yield case.body


def unrun(body, lines: set[int]) -> tuple[bool, list[ast.stmt]]:
    """Whether any statement of ``body`` ran, and the statements under it,
    at any depth, that never ran."""
    any_ran, missed = False, []
    for node in body:
        if _is_string(node):
            continue
        inner = [b for b in _bodies(node) if b]
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        last = max(node.lineno, inner[0][0].lineno - 1) if inner else node.end_lineno
        ran = any(n in lines for n in range(first, last + 1))
        for block in inner:
            block_ran, block_missed = unrun(block, lines)
            ran = ran or block_ran
            missed += block_missed
        if not ran:
            missed.append(node)
        any_ran = any_ran or ran
    return any_ran, missed


def report(ran: dict[str, set[int]]) -> str:
    out = []
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        tree = ast.parse(source)
        _, missed = unrun(tree.body, ran.get(str(path), set()))
        total = sum(isinstance(n, ast.stmt) and not _is_string(n) for n in ast.walk(tree))
        text = source.splitlines()
        out.append(f"{path.relative_to(ROOT)}: {len(missed)} of {total} statements never run")
        for node in sorted(missed, key=lambda n: n.lineno):
            out.append(f"  {node.lineno:4d}  {text[node.lineno - 1].strip()[:88]}")
    return "\n".join(out)


def main() -> int:
    print(report(ran_lines(traffic)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
