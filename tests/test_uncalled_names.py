"""The names under ``src/orbitcoh/`` that nothing under ``src/`` references.

Each is listed in ``KEPT`` with where it is still read and why it stays.  A
new function, class or method with no reference under ``src/`` fails this
file until it is deleted or listed (ROADMAP U).  A reference is a name, an
attribute or an imported name anywhere under ``src/`` outside the
definition's own body, so a recursive call is no caller.
"""

import ast
import collections
import re
from pathlib import Path

from test_bench_contract import load_bench

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "orbitcoh"

# ``module.name`` or ``module.Class.method`` -> (where it is read, why it stays)
KEPT = {
    "algebra.AlgebraPresentation.check_confluence":
        ("tests", "certifies unique normal forms; ROADMAP M completes what fails it"),
    "algebra.AlgebraPresentation.poincare_series":
        ("tests", "the series that the Groebner oracle and the round trip compare"),
    "algebra.dold_presentation": ("tests", "the Dold fibers P(m, n) of the golden pins"),
    "algebra.sphere_presentation": ("bench/workloads.py", "fiber_sweep's S^1..S^8"),
    "algebra.base_presentation": ("tests", "F2[t], the base, as an infinite presentation"),
    "algebra.parse_presentation": ("tests", "the gen/rel text format, read"),
    "algebra.format_presentation": ("tests", "the gen/rel text format, written"),
    "gf2.kernel_basis": ("bench/layers.py SPANS", "a traced span until ROADMAP U drops it"),
    "gf2.image_basis": ("bench/layers.py SPANS", "a traced span until ROADMAP U drops it"),
    "gf2.solve": ("bench/layers.py SPANS", "a traced span until ROADMAP U drops it"),
    "spectral.Cell.reps": ("ROADMAP G", "E_infinity as an algebra multiplies them"),
    "spectral.Page.total_dimension": ("bench/workloads.py", "the benchmark's correctness gate"),
    "spectral.build_e2": ("bench/layers.py SPANS", "a traced span"),
    "spectral.differential_value":
        ("bench/layers.py SPANS", "a traced span until ROADMAP U moves it to the tests"),
    "spectral.PageDifferential.apply": ("tests", "d_r on one vector, as the references read it"),
    "spectral.pages": ("README.md", "inspection page by page"),
    "spectral.analyze_all": ("README.md", "every case of a fiber, the first example"),
    "spectral.format_grid": ("tests", "a page as text"),
}


def identifiers(tree) -> collections.Counter:
    """How often each name is read in ``tree``: names, attributes and
    imported names."""
    found = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.name] += 1
    return found


def definitions(trees: dict):
    """``(qualified name, def node)`` for every top-level function and class
    and every method but the dunders, which Python calls implicitly."""
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield f"{module}.{node.name}", node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("__"):
                        yield f"{module}.{node.name}.{sub.name}", sub


def uncalled_names() -> set:
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    total = sum(map(identifiers, trees.values()), collections.Counter())
    return {qual for qual, node in definitions(trees)
            if total[name := qual.rsplit(".", 1)[1]] == identifiers(node)[name]}


def test_every_uncalled_name_is_listed():
    assert uncalled_names() == set(KEPT)


def traced_names() -> set:
    """The qualified names that ``bench/layers.py`` SPANS wraps."""
    names = set()
    for owner, attr, _ in load_bench("layers").SPANS:
        owner_name = (f"{owner.__module__}.{owner.__qualname__}" if isinstance(owner, type)
                      else owner.__name__)
        names.add(f"{owner_name.removeprefix('orbitcoh.')}.{attr}")
    return names


def read_by(path: Path) -> collections.Counter:
    return identifiers(ast.parse(path.read_text()))


def roadmap_section(letter: str) -> str:
    text = (ROOT / "ROADMAP.md").read_text()
    match = re.search(rf"^{letter}\. \*\*.*?(?=^[A-Z]\. \*\*|\Z)", text, re.M | re.S)
    assert match, letter
    return match.group()


def test_each_listed_name_is_read_where_it_says():
    traced = traced_names()
    bench_reads = read_by(ROOT / "bench" / "workloads.py")
    readme = (ROOT / "README.md").read_text()
    test_reads = sum((read_by(path) for path in (ROOT / "tests").glob("test_*.py")
                      if path.name != Path(__file__).name), collections.Counter())
    for qual, (where, why) in KEPT.items():
        name = qual.rsplit(".", 1)[1]
        if where == "bench/layers.py SPANS":
            assert qual in traced, qual
        elif where == "bench/workloads.py":
            assert bench_reads[name], qual
        elif where == "README.md":
            assert f"{name}(" in readme, qual
        elif where == "tests":
            assert test_reads[name], qual
        else:
            assert where.startswith("ROADMAP "), qual
            assert f"`{qual.split('.', 1)[1]}`" in roadmap_section(where.split()[1]), qual
        assert why, qual
