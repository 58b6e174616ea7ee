"""The examples of README.md: every ``python`` block, run in order in one
namespace, and every ``$ orbitcoh`` block.

A statement's comment is the comment on its lines and on the comment-only
lines right after it.  A ``print`` call must print its comment, and a bare
``EndoCandidate(...)`` call must raise ``ValueError`` with its comment as
the message.  A command block shows lines of the command's output in their
order, with ``...`` for the lines it leaves out.
"""

import ast
import contextlib
import io
import re
import tokenize
from pathlib import Path

import pytest

from orbitcoh import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def command_blocks() -> list[tuple[list[str], list[str]]]:
    """``(arguments, lines shown)`` for each ``$ orbitcoh`` block, without ``...``."""
    blocks = []
    for block in re.findall(r"^```\n\$ orbitcoh (.*?)^```", README.read_text(), re.M | re.S):
        command, *shown = block.splitlines()
        blocks.append((command.split(), [line for line in shown if line != "..."]))
    return blocks


def commented_statements(source: str):
    """``(statement, comment)`` for each top-level statement of ``source``."""
    notes = {tok.start[0]: tok.string.lstrip("#").strip()
             for tok in tokenize.generate_tokens(io.StringIO(source).readline)
             if tok.type == tokenize.COMMENT}
    lines = source.splitlines()
    for stmt in ast.parse(source).body:
        end = stmt.end_lineno
        while end < len(lines) and lines[end].lstrip().startswith("#"):
            end += 1
        yield stmt, " ".join(notes[i] for i in range(stmt.lineno, end + 1) if i in notes)


def called_name(stmt) -> str | None:
    """The function a bare call statement calls by name, else None."""
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
        return getattr(stmt.value.func, "id", None)
    return None


def test_every_python_block_prints_and_raises_what_it_says():
    namespace, refusals = {}, 0
    for block in python_blocks():
        for stmt, comment in commented_statements(block):
            code = compile(ast.Module([stmt], []), str(README), "exec")
            if called_name(stmt) == "EndoCandidate":
                with pytest.raises(ValueError) as err:
                    exec(code, namespace)
                assert str(err.value) == comment
                refusals += 1
            elif called_name(stmt) == "print":
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    exec(code, namespace)
                assert comment and out.getvalue() == comment + "\n", ast.unparse(stmt)
            else:
                exec(code, namespace)
    assert refusals == 3


def test_every_command_block_shows_its_output_in_order():
    blocks = command_blocks()
    assert len(blocks) == 2
    for argv, shown in blocks:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) == 0
        lines = iter(out.getvalue().splitlines())
        for line in shown:
            # ``in`` consumes the output up to the match, so order counts
            assert line in lines, (argv, line)
