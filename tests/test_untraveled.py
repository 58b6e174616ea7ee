"""``tools/untraveled.py``'s two halves on small inputs: which lines a call
runs, and which statements count as never run."""

import ast
import importlib.util
import inspect
from pathlib import Path

from orbitcoh import gf2

TOOL = Path(__file__).resolve().parents[1] / "tools" / "untraveled.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("untraveled", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ran_lines_sees_rrefs_back_substitution_only_when_it_runs():
    tool = load_tool()
    source, first = inspect.getsourcelines(gf2.rref)
    back = first + next(k for k, line in enumerate(source) if "entry[1] ^= v" in line)
    path = str(Path(gf2.__file__).resolve())
    # [1, 1]: the second row reduces to zero; [3, 1]: row 1 clears bit 1 of row 3
    assert back not in tool.ran_lines(lambda: gf2.rank([1, 1]))[path]
    assert back in tool.ran_lines(lambda: gf2.rank([3, 1]))[path]


SOURCE = '''\
"""A module docstring."""
def f(x):
    """A docstring."""
    if x:
        return 1
    try:
        y = 2
    except ValueError:
        y = 3
    return y
'''


def test_a_compound_statement_ran_when_its_body_did():
    tool = load_tool()
    # f(0), had ``try:`` no line event of its own: it ran because its body did
    any_ran, missed = tool.unrun(ast.parse(SOURCE).body, {2, 4, 7, 10})
    assert any_ran
    assert [node.lineno for node in missed] == [5, 9]
    # nothing run: every statement but the two docstrings
    any_ran, missed = tool.unrun(ast.parse(SOURCE).body, set())
    assert not any_ran
    assert sorted(node.lineno for node in missed) == [2, 4, 5, 6, 7, 9, 10]
