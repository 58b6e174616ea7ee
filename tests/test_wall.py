import ast
from pathlib import Path

import pytest

from orbitcoh import actions, spectral
from orbitcoh.actions import classify_free_actions
from orbitcoh.algebra import AlgebraPresentation, sphere_presentation, wall_presentation
from orbitcoh.spectral import enumerate_assignments
from orbitcoh.wall import case_label, is_identity_or_twist


def reference_case_label(fiber, targets):
    """The case letters as nested branches, the form they had inside the
    spectral engine; ``targets`` maps generator names to targets."""
    x_on = targets["x"] is not None
    c_on = targets["c"] is not None
    d_target = targets["d"]
    if d_target is None:
        d_key = None
    elif fiber.generators[fiber.gen_index["d"]].degree + 1 - d_target.degree == 3:
        d_key = 4
    else:
        d_key = fiber.to_vector(d_target, 1)
    if not x_on and not c_on:
        if d_key is None:
            return "Z"
        if d_key == 4:
            return "A"
        return f"B{d_key}"
    letter = {(True, True): ("C", "D"), (True, False): ("E", "F"),
              (False, True): ("H", "G")}[(x_on, c_on)]
    if d_key is None:
        return letter[0]
    return f"{letter[1]}{d_key}"


def reference_is_identity_or_twist(cand):
    pres = cand.pres
    if cand.image("x") != pres.gen("x") or cand.image("d") != pres.gen("d"):
        return False
    return cand.image("c") in (pres.gen("c"), pres.gen("c") + pres.gen("x"))


class TestCaseLabel:
    @pytest.mark.parametrize("m", range(5))
    @pytest.mark.parametrize("n", range(6))
    def test_matches_reference(self, m, n):
        # Q(0, n) has c = x in degree 1, and Q(m, 0) has d = 0
        fiber = wall_presentation(m, n)
        for asgn in enumerate_assignments(fiber):
            label = case_label(fiber, asgn.targets)
            names = [g.name for g in fiber.generators]
            assert label == reference_case_label(fiber, dict(zip(names, asgn.targets)))
            assert asgn.case_id == label

    def test_q01_labels(self):
        ids = [a.case_id for a in enumerate_assignments(wall_presentation(0, 1))]
        assert ids == ["Z", "B1", "A", "H", "G1", "G4", "E", "F1", "F4", "C", "D1", "D4"]

    def test_reordered_wall_names_get_generic_labels(self):
        # Q(1, 3) with c listed before x, so the rule is x^2 = x*c
        fiber = AlgebraPresentation(
            [("c", 1), ("x", 1), ("d", 2)],
            [((2, 0, 0), ()), ((0, 2, 0), [(1, 1, 0)]), ((0, 0, 4), ())])
        asgns = enumerate_assignments(fiber)
        assert all(case_label(fiber, a.targets) is None for a in asgns)
        assert [a.case_id for a in asgns[:2]] == ["Z", "d2(d)=t^2*c"]
        assert all(a.case_id.startswith("d") for a in asgns[1:])

    def test_other_fibers_get_no_letter(self):
        for fiber in (sphere_presentation(2), AlgebraPresentation(
                [("x", 1), ("c", 1), ("d", 4)], [((2, 0, 0), ()), ((0, 2, 0), ()),
                                                 ((0, 0, 2), ())])):
            for asgn in enumerate_assignments(fiber):
                assert case_label(fiber, asgn.targets) is None


class TestIdentityOrTwist:
    @pytest.mark.parametrize("m", range(4))
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_reference(self, m, n):
        for record in classify_free_actions(m, n).records:
            assert is_identity_or_twist(record.candidate) == \
                reference_is_identity_or_twist(record.candidate)

    def test_q13_undecided_twist_d(self):
        undecided = [r for r in classify_free_actions(1, 3).survivors()
                     if not is_identity_or_twist(r.candidate)]
        assert [r.candidate.describe() for r in undecided] == [
            "x -> x, c -> c, d -> d + x*c",
            "x -> x, c -> c + x, d -> d + x*c",
        ]


def test_identity_survives_exactly_when_a_transgression_case_survives():
    # The Borel spectral sequence that ``spectral`` runs has untwisted
    # coefficients, so it is the spectral test of the identity action: the
    # identity record survives the actions half exactly when some
    # transgression case survives the spectral half.  Measured, not proved,
    # so a pair that disagrees is a finding, never one to skip.  A refused
    # case (SpectralModelError, D4 on even m and odd n) decides nothing; on
    # those pairs another case survives, so every pair is decided.
    for m in range(8):
        for n in range(9):
            fiber = wall_presentation(m, n)
            survivors, refused = [], []
            for asgn in enumerate_assignments(fiber):
                try:
                    verdict = spectral.run_case(fiber, fiber.top_degree, asgn)
                except spectral.SpectralModelError:
                    refused.append(asgn.case_id)
                    continue
                if verdict.outcome == "survives":
                    survivors.append(asgn.case_id)
            assert survivors or not refused, (m, n, refused)
            gens = tuple(fiber.gen(g.name) for g in fiber.generators)
            [ident] = [r for r in actions.classify(fiber) if r.candidate.targets == gens]
            assert (ident.stage is None) == bool(survivors), (m, n, ident.reason, survivors)
            assert ident.stage in (None, "fixed_point_obstruction"), (m, n, ident.reason)


@pytest.mark.parametrize("module", [spectral, actions], ids=lambda m: m.__name__)
def test_engine_names_no_wall_generator(module):
    """Only ``wall`` (and ``algebra.wall_presentation``) may name x, c or d,
    and ``actions`` does not import ``wall``: the CLI asks it which survivors
    are undecided."""
    tree = ast.parse(Path(module.__file__).read_text())
    # f-string text such as the d of d{r}(g) names a differential, not a generator
    fragments = {id(part) for node in ast.walk(tree) if isinstance(node, ast.JoinedStr)
                 for part in node.values}
    named = [(node.lineno, node.value) for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and node.value in ("x", "c", "d")
             and id(node) not in fragments]
    assert not named
    if module is actions:
        assert "orbitcoh.wall" not in set(imported_modules(tree))


def imported_modules(tree):
    """Every module an import in ``tree`` may name, made absolute: a relative
    import is read inside the ``orbitcoh`` package, and ``from M import N``
    names both M and M.N."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["orbitcoh" if node.level else None, node.module]))
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


@pytest.mark.parametrize("source, imports_wall", [
    ("from . import gf2, wall", True),
    ("from .wall import case_label", True),
    ("from orbitcoh import wall", True),
    ("import orbitcoh.wall", True),
    ("from orbitcoh.wall import is_identity_or_twist as twist", True),
    ("from . import gf2", False),
    ("from .algebra import wall_presentation", False),
])
def test_imported_modules_sees_every_spelling_of_wall(source, imports_wall):
    assert ("orbitcoh.wall" in set(imported_modules(ast.parse(source)))) == imports_wall
