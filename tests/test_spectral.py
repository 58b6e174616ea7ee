import collections
import contextlib
import dataclasses
import difflib
import functools
import gc
import hashlib
import itertools
import random
import types
import unittest.mock
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_actions import monomial_presentations, renamed

from orbitcoh import gf2, spectral
from orbitcoh.algebra import (
    AlgebraPresentation,
    Element,
    base_presentation,
    dold_presentation,
    sphere_presentation,
    wall_presentation,
)
from orbitcoh.spectral import (
    Cell,
    DifferentialAssignment,
    LeibnizInconsistency,
    Page,
    PageDifferential,
    SpectralModelError,
    analyze_all,
    build_e2,
    differential_value,
    enumerate_assignments,
    extend_by_leibniz,
    format_grid,
    pages,
    run_case,
    turn_page,
)
from orbitcoh.spectral import _derivation_matrix

# Q(1, 3) has top degree 8; with dim_x = 8 the former fixed window of
# dim_x + top + 3 columns was 19, and the ported checks cover at least it.
Q13_WINDOW = 19


def assignments_by_id(fiber):
    return {a.case_id: a for a in enumerate_assignments(fiber)}


def page_r(fiber, assignment, r):
    """The page E_r of one assignment."""
    for page in pages(fiber, assignment):
        if page.r == r:
            return page


TWO_GENERATOR_SHAPES = tuple(itertools.product((1, 2, 3), (2, 3, 4), repeat=2))


def two_generator_fiber(d1, e1, d2, e2, names=("a", "b")):
    """F2[a, b]/(a^e1, b^e2) with |a| = d1 and |b| = d2."""
    a, b = names
    return AlgebraPresentation([(a, d1), (b, d2)], [((e1, 0), ()), ((0, e2), ())],
                               name=f"{a}{d1}^{e1} {b}{d2}^{e2}")


def two_generator_fibers():
    """The 81 fibers F2[a, b]/(a^e, b^f) with |a|, |b| in 1..3 and e, f in 2..4."""
    return [two_generator_fiber(*shape) for shape in TWO_GENERATOR_SHAPES]


def spheres():
    return [sphere_presentation(n) for n in range(1, 9)]


def euler(dims):
    return sum(d if j % 2 == 0 else -d for j, d in enumerate(dims))


def b_pattern_e3(p, q):
    """Frozen E3 dimension pattern for the page-2 transgression of d (q <= 2n)."""
    if q == 0 or q % 4 == 3:
        return 1
    if q % 4 == 1:
        return 1 if p >= 2 else 2
    if q % 4 == 0:
        return 2
    return 0 if p >= 2 else 1      # q = 2 mod 4


def a_pattern_e4(p, q):
    """Frozen E4 dimension pattern for the page-3 transgression of d (q <= 2n)."""
    if p >= 3:
        return 0
    return {0: 1, 1: 2, 2: 1, 3: 0}[q % 4]


class TestBuildE2:
    def test_wall_column_dims(self):
        q13 = wall_presentation(1, 3)
        page = build_e2(q13)
        assert page.stable == 0
        expected = [1, 2, 2, 2, 2, 2, 2, 2, 1]
        for p in range(13):
            assert [page.dim(p, q) for q in range(9)] == expected

    def test_sphere_column_dims(self):
        page = build_e2(sphere_presentation(2))
        for p in range(7):
            assert [page.dim(p, q) for q in range(3)] == [1, 0, 1]

    def test_point_fiber(self):
        point = AlgebraPresentation([], [])
        page = build_e2(point)
        assert all(page.dim(p, 0) == 1 for p in range(5))
        assert page.fiber.top_degree == 0

    def test_an_infinite_fiber_is_refused(self):
        # F2[t] has no top degree; each entry point refuses it before
        # reading one, and run_case before it reads dim_x
        base = base_presentation()
        asgn = DifferentialAssignment(base, (None,))
        for call in (lambda: run_case(base, 0, asgn), lambda: run_case(base, 8.5, asgn),
                     lambda: build_e2(base),
                     lambda: enumerate_assignments(base), lambda: next(pages(base, asgn))):
            with pytest.raises(SpectralModelError) as info:
                call()
            assert str(info.value) == "the fiber algebra must be finite-dimensional"

    def test_rows_of_one_width_share_one_cell(self):
        for fiber in golden_fibers():
            cells = build_e2(fiber).cells
            widths = {q: len(fiber.degree_basis(q)) for q in range(fiber.top_degree + 1)}
            assert set(cells) == {(0, q) for q, k in widths.items() if k}, fiber.name
            by_width = {}
            for (_, q), cell in cells.items():
                k = widths[q]
                assert cell == Cell(gf2.Subspace.full(k), gf2.Subspace.zero(k)), (fiber.name, q)
                assert by_width.setdefault(k, cell) is cell, (fiber.name, q)

    def test_a_turn_from_the_shared_e2_matches_the_references(self):
        # each assignment's first active page turns E_2's cells: the turn
        # equals turn_page_by_every_cell's and a turn from an E_2 with a
        # separate cell per row
        turned = 0
        for fiber in golden_fibers():
            top = fiber.top_degree
            shared = build_e2(fiber).cells
            separate = {(0, q): Cell(gf2.Subspace.full(k), gf2.Subspace.zero(k))
                        for q in range(top + 1) if (k := len(fiber.degree_basis(q)))}
            assert len({id(cell) for cell in separate.values()}) == len(separate)
            for asgn in enumerate_assignments(fiber):
                steps = [r for r in asgn.active_pages() if r <= top + 1]
                if not steps:
                    continue
                page = Page(fiber, steps[0], 0, shared)
                try:
                    diff = extend_by_leibniz(page, asgn)
                except (LeibnizInconsistency, SpectralModelError):
                    continue
                _, engine = turn_or_error(turn_page, page, diff)
                assert engine == turn_or_error(turn_page_by_every_cell, page, diff)[1], (
                    fiber.name, asgn.case_id)
                assert engine == turn_or_error(
                    turn_page, Page(fiber, steps[0], 0, separate), diff)[1], (
                    fiber.name, asgn.case_id)
                turned += 1
        assert turned == 413


class TestEnumeration:
    def test_wall_reproduces_case_taxonomy(self):
        q15 = wall_presentation(1, 5)
        ids = sorted(a.case_id for a in enumerate_assignments(q15))
        assert ids == sorted(
            ["Z", "A", "B1", "B2", "B3", "C", "D1", "D2", "D3", "D4",
             "E", "F1", "F2", "F3", "F4", "G1", "G2", "G3", "G4", "H"])

    def test_degree_one_generators_get_single_target(self):
        q13 = wall_presentation(1, 3)
        e = assignments_by_id(q13)["E"]
        assert e.targets == (q13.unit(), None, None)
        assert e.active_pages() == (2,) and e.active_at(2) == {"x": q13.unit()}
        assert e.describe() == "d2(x)=t^2"

    def test_b_subcases_match_degree_one_targets(self):
        q13 = wall_presentation(1, 3)
        by_id = assignments_by_id(q13)
        assert by_id["B1"].describe() == "d2(d)=t^2*x"
        assert by_id["B2"].describe() == "d2(d)=t^2*c"
        assert by_id["B3"].describe() == "d2(d)=t^2*(c + x)"
        assert by_id["A"].describe() == "d3(d)=t^3"

    def test_a_hand_built_assignment_reads_like_an_enumerated_one(self):
        q13 = wall_presentation(1, 3)
        hand = DifferentialAssignment(q13, (None, None, q13.unit()))
        assert hand == assignments_by_id(q13)["A"]
        assert (hand.case_id, hand.describe(), hand.active_pages()) == ("A", "d3(d)=t^3", (3,))
        assert run_case(q13, 8, hand).outcome == "survives"

    def test_sphere_has_two_assignments(self):
        for n in range(1, 6):
            asgns = enumerate_assignments(sphere_presentation(n))
            assert len(asgns) == 2
            ids = {a.case_id for a in asgns}
            assert ids == {"Z", f"d{n + 1}(a)=t^{n + 1}"}


class TestDifferentialValues:
    q15 = wall_presentation(1, 5)
    by_id = assignments_by_id(q15)

    def value(self, case, mono_text, r):
        active = self.by_id[case].active_at(r)
        return differential_value(self.q15, active, self.q15.parse_mono(mono_text))

    def test_b1_rule_on_powers_of_d(self):
        # odd powers step down and pick up an x; even powers die
        for k in range(6):
            val = self.value("B1", f"d^{k}" if k else "1", 2)
            if k % 2:
                assert val == self.q15.parse_element(f"x*d^{k - 1}" if k > 1 else "x")
            else:
                assert not val

    def test_b1_rule_on_c_times_powers_of_d(self):
        val = self.value("B1", "c*d^3", 2)
        assert val == self.q15.parse_element("x*c*d^2")
        assert not self.value("B1", "c*d^2", 2)

    def test_b1_kills_x_and_top_corner_classes(self):
        assert not self.value("B1", "x*d^3", 2)        # x^2 = 0 absorbs the step
        assert not self.value("B1", "x*c*d^2", 2)

    def test_b2_uses_wall_relation(self):
        # c*(t^2 c) rewrites through c^2 = x*c
        assert self.value("B2", "c*d", 2) == self.q15.parse_element("x*c")
        assert self.value("B2", "x*d", 2) == self.q15.parse_element("x*c")

    def test_a_rule_is_plain_transgression(self):
        for k in (1, 3, 5):
            assert self.value("A", f"d^{k}", 3) == self.q15.parse_element(
                f"d^{k - 1}" if k > 1 else "1")
        assert self.value("A", "x*d^3", 3) == self.q15.parse_element("x*d^2")
        assert not self.value("A", "d^2", 3)

    def test_squares_of_generators_die(self):
        for case in ("A", "B1", "C", "D1", "E"):
            for r in (2, 3):
                active = self.by_id[case].active_at(r)
                for g in self.q15.generators:
                    mono = tuple(2 if i == self.q15.gen_index[g.name] else 0
                                 for i in range(3))
                    assert not differential_value(self.q15, active, mono)


class TestLeibnizGuard:
    def test_case_e_violates_wall_relation(self):
        q13 = wall_presentation(1, 3)
        page = build_e2(q13)
        with pytest.raises(LeibnizInconsistency) as err:
            extend_by_leibniz(page, assignments_by_id(q13)["E"])
        assert "c^2" in str(err.value)

    def test_case_b_passes_guard(self):
        q13 = wall_presentation(1, 3)
        page = build_e2(q13)
        diff = extend_by_leibniz(page, assignments_by_id(q13)["B1"])
        assert diff.active.keys() == {"d"}

    def test_even_fiber_exponent_breaks_transgression(self):
        # case A's only differential is d_3(d) = t^3, so the contradiction
        # shows on E_3: d(d^5) = d^4*t^3 != 0 while d^5 = 0 in Q(1, 4)
        q14 = wall_presentation(1, 4)
        by_id = assignments_by_id(q14)
        e3 = page_r(q14, by_id["A"], 3)
        with pytest.raises(LeibnizInconsistency) as err:
            extend_by_leibniz(e3, by_id["A"])
        assert err.value.finding.page == 3
        assert "d^5" in str(err.value)


class TestTargetGuards:
    """The guards a declared target meets, checked where they fire."""

    def test_dead_declared_target(self):
        # d_2(a) = t^2 kills t^2 and with it t^3 = t * t^2 by F2[t]-linearity
        fiber = AlgebraPresentation([("a", 1), ("b", 2)], [((2, 0), ()), ((0, 2), ())])
        asgn = assignments_by_id(fiber)["d2(a)=t^2; d3(b)=t^3"]
        e3 = page_r(fiber, asgn, 3)
        with pytest.raises(SpectralModelError) as err:
            extend_by_leibniz(e3, asgn)
        assert str(err.value) == "declared target t^3 for b is not a nonzero class on page 3"

    @staticmethod
    def hand_built(fiber, name, elem):
        """One generator transgressing to ``elem``, the others permanent."""
        return DifferentialAssignment(
            fiber, tuple(elem if g.name == name else None for g in fiber.generators))

    def test_the_unit_as_target_of_s3_is_d4(self):
        # the target's degree fixes the page: d_r(a) lands in degree 4 - r
        s3 = sphere_presentation(3)
        asgn = self.hand_built(s3, "a", s3.unit())
        assert asgn.active_pages() == (4,) and asgn.case_id == "d4(a)=t^4"
        verdict = run_case(s3, 3, asgn)
        assert verdict.outcome == "survives"
        assert verdict.e_infinity.total_dimensions(3) == [1, 1, 1, 1]

    @pytest.mark.parametrize("target, page", [("1", 3), ("a", 2)])
    def test_relation_guard_on_the_page_the_target_implies(self, target, page):
        # d_r(b^3) = t^r*b^2*target breaks b^3 = 0 on the page of the target
        fiber = AlgebraPresentation([("a", 1), ("b", 2)], [((2, 0), ()), ((0, 3), ())])
        asgn = self.hand_built(fiber, "b", fiber.parse_element(target))
        assert asgn.active_pages() == (page,)
        assert differential_value(fiber, asgn.active_at(page), (0, 3))
        with pytest.raises(LeibnizInconsistency) as err:
            extend_by_leibniz(page_r(fiber, asgn, page), asgn)
        assert err.value.finding.page == page

    def test_image_that_is_not_a_cycle(self):
        # d_2(b) = t^2*a, so b is no longer a cycle, yet d_3(a*b) = t^3*b
        fiber = AlgebraPresentation([("a", 2), ("b", 3)], [((2, 0), ()), ((0, 2), ())])
        asgn = assignments_by_id(fiber)["d3(a)=t^3; d2(b)=t^2*a"]
        e3 = page_r(fiber, asgn, 3)
        diff = extend_by_leibniz(e3, asgn)
        with pytest.raises(SpectralModelError) as err:
            turn_page(e3, diff)
        assert str(err.value) == "differential image at (0,5) is not a cycle on page 3"


class TestAssignmentChecks:
    """A hand-built ``DifferentialAssignment`` is checked when it is built."""

    @pytest.mark.parametrize("count", [2, 4])
    def test_one_target_per_generator(self, count):
        q13 = wall_presentation(1, 3)
        with pytest.raises(ValueError, match=f"^{count} targets for 3 generators$"):
            DifferentialAssignment(q13, (None,) * count)

    def test_a_target_of_another_presentation(self):
        q13 = wall_presentation(1, 3)
        other = wall_presentation(1, 3).unit()
        with pytest.raises(ValueError, match="^the target of d belongs to another presentation$"):
            TestTargetGuards.hand_built(q13, "d", other)

    @pytest.mark.parametrize("target", [1, "x", (0, 0, 0)], ids=repr)
    def test_a_target_that_is_not_an_element(self, target):
        # refused as EndoCandidate refuses a non-Element image, not with the
        # AttributeError of reading target.algebra
        q13 = wall_presentation(1, 3)
        with pytest.raises(ValueError, match="^the target of d is neither an element nor None$"):
            DifferentialAssignment(q13, (None, None, target))

    def test_a_zero_target(self):
        # a zero target has no degree and so no page
        q13 = wall_presentation(1, 3)
        with pytest.raises(ValueError, match="^the target of d is zero$"):
            TestTargetGuards.hand_built(q13, "d", q13.zero())

    @pytest.mark.parametrize("name, elem", [("x", "x"), ("d", "x*c")])
    def test_target_degree_lies_in_0_to_degree_minus_1(self, name, elem):
        # d_1(x) = t*x would be on page 1, which no page runs, and
        # d_1(d) = t*x*c too
        q13 = wall_presentation(1, 3)
        with pytest.raises(ValueError, match=f"^the target of {name} has degree"):
            TestTargetGuards.hand_built(q13, name, q13.parse_element(elem))

    def test_a_target_made_from_an_unreduced_monomial(self):
        # c = x in Q(0, 3), so Element reduces the target c to x: case B1,
        # with the verdict of the target x (once a KeyError on the term c)
        q03 = wall_presentation(0, 3)
        built = DifferentialAssignment(q03, (None, None, Element(q03, [(0, 1, 0)])))
        as_x = DifferentialAssignment(q03, (None, None, q03.gen("x")))
        assert built.case_id == as_x.case_id == "B1"
        assert verdict_record(q03, built) == verdict_record(q03, as_x)


class TestTurnPage:
    def test_zero_differential_keeps_dimensions(self):
        q13 = wall_presentation(1, 3)
        page = build_e2(q13)
        diff = extend_by_leibniz(page, assignments_by_id(q13)["Z"])
        # an idle page: every row of d_2 is zero, and the turn keeps the
        # stable column and the very cells
        assert not any(any(matrix) for matrix in diff.row_matrices.values())
        nxt = turn_page(page, diff)
        assert nxt.stable == page.stable
        assert all(nxt.cells[pos] is cell for pos, cell in page.cells.items())
        assert nxt.r == 3
        for p in range(11):
            for q in range(q13.top_degree + 1):
                assert nxt.dim(p, q) == page.dim(p, q)

    def test_b1_e3_pattern(self):
        q13 = wall_presentation(1, 3)
        by_id = assignments_by_id(q13)
        e3 = page_r(q13, by_id["B1"], 3)
        for q in range(2 * 3 + 1):
            for p in range(Q13_WINDOW - q):
                assert e3.dim(p, q) == b_pattern_e3(p, q), (p, q)

    def test_b_subcases_share_the_e3_grid(self):
        q13 = wall_presentation(1, 3)
        by_id = assignments_by_id(q13)
        grids = []
        for case in ("B1", "B2", "B3"):
            e3 = page_r(q13, by_id[case], 3)
            grids.append([[e3.dim(p, q) for p in range(Q13_WINDOW + 1)]
                          for q in range(e3.fiber.top_degree + 1)])
        assert grids[0] == grids[1] == grids[2]

    def test_case_a_e4_pattern(self):
        q13 = wall_presentation(1, 3)
        e4 = page_r(q13, assignments_by_id(q13)["A"], 4)
        for q in range(2 * 3 + 1):
            for p in range(Q13_WINDOW - q):
                assert e4.dim(p, q) == a_pattern_e4(p, q), (p, q)

    def test_case_a_collapses_after_page_four(self):
        q13 = wall_presentation(1, 3)
        asgn = assignments_by_id(q13)["A"]
        seq = list(pages(q13, asgn))
        e4 = seq[2]
        for later in seq[3:]:
            for p in range(Q13_WINDOW + 1):
                for q in range(q13.top_degree + 1):
                    assert later.dim(p, q) == e4.dim(p, q)


class TestRunCase:
    def test_q13_case_a_survives_with_totals(self):
        q13 = wall_presentation(1, 3)
        verdict = run_case(q13, 8, assignments_by_id(q13)["A"])
        assert verdict.outcome == "survives"
        assert verdict.e_infinity.total_dimensions(8) == [1, 3, 4, 3, 2, 3, 4, 3, 1]

    def test_q13_case_b1_eliminated_by_vanishing(self):
        q13 = wall_presentation(1, 3)
        verdict = run_case(q13, 8, assignments_by_id(q13)["B1"])
        assert verdict.outcome == "eliminated"
        assert verdict.reason == "vanishing_violation"
        assert "every degree" in verdict.detail

    @pytest.mark.parametrize("dim_x", [8.5, "8", None])
    def test_a_dim_x_that_is_not_an_integer_is_refused(self, dim_x):
        q13 = wall_presentation(1, 3)
        with pytest.raises(ValueError, match="must be an integer"):
            run_case(q13, dim_x, assignments_by_id(q13)["A"])

    @pytest.mark.parametrize("dim_x", [-3, 0, 7])
    def test_a_dim_x_below_the_top_degree_is_refused(self, dim_x):
        # X has the cohomology of Q(1,3), nonzero in degree 8, so dim X >= 8
        q13 = wall_presentation(1, 3)
        with pytest.raises(ValueError, match="top degree 8, not "):
            run_case(q13, dim_x, assignments_by_id(q13)["A"])
        with pytest.raises(ValueError, match="top degree 8, not "):
            analyze_all(q13, dim_x)

    def test_circle_cases(self):
        s1 = sphere_presentation(1)
        verdicts = {v.case_id: v for v in analyze_all(s1, 1)}
        assert verdicts["Z"].reason == "vanishing_violation"
        survivor = verdicts["d2(a)=t^2"]
        assert survivor.outcome == "survives"
        e_inf = survivor.e_infinity
        assert e_inf.total_dimensions(1) == [1, 1]
        assert e_inf.dim(0, 0) == 1 and e_inf.dim(1, 0) == 1 and e_inf.dim(2, 0) == 0

    @pytest.mark.parametrize("fiber, cases",
                             [(AlgebraPresentation([], []), 1), (dold_presentation(0, 0), 4)],
                             ids=["point", "dold(0,0)"])
    def test_point_has_no_survivor(self, fiber, cases):
        # top degree 0: E_inf keeps t^j in every degree j, so degree 1 must fail
        verdicts = analyze_all(fiber, 0)
        assert len(verdicts) == cases
        for v in verdicts:
            assert (v.outcome, v.reason, v.detail) == (
                "eliminated", "vanishing_violation", "nonzero classes in degrees [1]")


class TestCaseVerdict:
    def test_fields(self):
        assert [f.name for f in dataclasses.fields(spectral.CaseVerdict)] == [
            "assignment", "finding", "e_infinity"]

    def test_outcome_reason_and_detail_are_read_from_the_finding(self):
        q13 = wall_presentation(1, 3)
        asgn = assignments_by_id(q13)["B1"]
        finding = spectral.GuardFinding("leibniz", q13, page=2, relation=q13.rules[0],
                                        values=(frozenset(), frozenset()))
        for guard, reason in [("leibniz", "leibniz_inconsistent"),
                              ("square_zero", "leibniz_inconsistent"),
                              ("vanishing", "vanishing_violation")]:
            verdict = spectral.CaseVerdict(asgn, dataclasses.replace(finding, guard=guard))
            assert (verdict.outcome, verdict.reason) == ("eliminated", reason)
            assert verdict.e_infinity is None
        verdict = spectral.CaseVerdict(asgn, finding)
        assert verdict.detail == finding.render() and verdict.case_id == "B1"
        survivor = spectral.CaseVerdict(asgn, None, build_e2(q13))
        assert (survivor.outcome, survivor.reason, survivor.detail) == ("survives", None, None)


class TestAnalyzeAll:
    @pytest.mark.parametrize("n", [3, 5])
    def test_unique_wall_survivor(self, n):
        fiber = wall_presentation(1, n)
        verdicts = analyze_all(fiber, fiber.top_degree)
        survivors = [v for v in verdicts if v.outcome == "survives"]
        assert [v.case_id for v in survivors] == ["A"]

    @pytest.mark.parametrize("n", [3, 5])
    def test_elimination_reasons_by_case_class(self, n):
        fiber = wall_presentation(1, n)
        for v in analyze_all(fiber, fiber.top_degree):
            if v.case_id in ("Z", "B1", "B2", "B3"):
                assert v.reason == "vanishing_violation", v.case_id
            elif v.case_id != "A":
                assert v.reason == "leibniz_inconsistent", v.case_id

    @pytest.mark.parametrize("n", range(1, 6))
    def test_spheres_have_unique_transgressive_survivor(self, n):
        fiber = sphere_presentation(n)
        verdicts = analyze_all(fiber, n)
        survivors = [v for v in verdicts if v.outcome == "survives"]
        assert len(survivors) == 1
        assert survivors[0].case_id == f"d{n + 1}(a)=t^{n + 1}"
        e_inf = survivors[0].e_infinity
        assert e_inf.total_dimensions(n) == [1] * (n + 1)


class TestStructuralProperties:
    def test_square_zero_on_every_computed_page(self):
        # compose consecutive derivation images through the coset structure
        q13 = wall_presentation(1, 3)
        for asgn in enumerate_assignments(q13):
            page = build_e2(q13)
            try:
                while page.r <= q13.top_degree + 1:
                    diff = extend_by_leibniz(page, asgn)
                    for p in range(Q13_WINDOW + 1):
                        for q in range(q13.top_degree + 1):
                            cell = page.cell(p, q)
                            if cell is None:
                                continue
                            for rep in cell.reps:
                                once = diff.apply(q, rep)
                                twice = diff.apply(q + 1 - page.r, once)
                                if twice:
                                    cell2 = page.cell(p + 2 * page.r, q + 2 - 2 * page.r)
                                    assert cell2 is not None
                                    assert cell2.boundaries.contains(twice)
                    page = turn_page(page, diff)
            except LeibnizInconsistency:
                continue

    def test_even_powers_are_killed_by_every_assignment(self):
        # the rule acts on the monomial as given: a normal form may have odd
        # exponents (c^2 = x*c in Q(1, 3)), so only all-even monomials are fed in
        q13 = wall_presentation(1, 3)
        even_basis = [mono for q in range(q13.top_degree + 1)
                      for mono in q13.degree_basis(q)
                      if all(e % 2 == 0 for e in mono)]
        assert len(even_basis) == 2     # 1 and d^2
        raw = list(itertools.product(range(0, 5, 2), repeat=len(q13.generators)))
        for asgn in enumerate_assignments(q13):
            for r in asgn.active_pages():
                active = asgn.active_at(r)
                for mono in raw + even_basis:
                    assert not differential_value(q13, active, mono), (
                        asgn.case_id, r, q13.mono_str(mono))

    def test_pages_stabilize_after_fiber_top(self):
        q13 = wall_presentation(1, 3)
        asgn = assignments_by_id(q13)["A"]
        seq = list(pages(q13, asgn))
        final = seq[-1]
        assert final.r == q13.top_degree + 2
        for p in range(Q13_WINDOW + 1):
            for q in range(q13.top_degree + 1):
                assert final.dim(p, q) == seq[-2].dim(p, q)

    def test_euler_bookkeeping_per_degree(self):
        # turning a page removes rank(out) + rank(in) from each total degree
        q13 = wall_presentation(1, 3)
        asgn = assignments_by_id(q13)["B1"]
        page = build_e2(q13)
        diff = extend_by_leibniz(page, asgn)
        ranks = {}
        for p, q in itertools.product(range(Q13_WINDOW + 1), range(q13.top_degree + 1)):
            cell = page.cell(p, q)
            if cell is None or cell.dim == 0 or p + q + 1 >= Q13_WINDOW:
                continue
            images = [diff.apply(q, rep) for rep in cell.reps]
            from orbitcoh.gf2 import rank as gf2_rank
            ranks[p + q] = ranks.get(p + q, 0) + gf2_rank(images)
        before = page.total_dimensions(11)
        after = turn_page(page, diff).total_dimensions(11)
        for j in range(12):
            assert after[j] == before[j] - ranks.get(j, 0) - ranks.get(j - 1, 0)


class TestGridRendering:
    def test_grid_mentions_page_and_fringe(self):
        q13 = wall_presentation(1, 3)
        e3 = page_r(q13, assignments_by_id(q13)["B1"], 3)
        text = format_grid(e3)
        assert text.startswith("E_3 page")
        assert e3.stable == 2
        assert "columns 0..2" in text
        assert "column 2 repeats in every column to its right" in text
        assert "~" not in text

    def test_grid_rows_cover_fiber_top(self):
        q13 = wall_presentation(1, 3)
        page = build_e2(q13)
        lines = format_grid(page).splitlines()
        data_lines = [l for l in lines if "|" in l and not l.strip().startswith("q")]
        assert len(data_lines) == q13.top_degree + 1

    def test_every_row_shows_one_number_per_column(self):
        # the exterior algebra on ten degree-1 generators has cells of
        # dimension 126 on E_3, wider than the labels of its three columns
        ext = AlgebraPresentation([(f"a{i}", 1) for i in range(10)],
                                  [(tuple(2 * (j == i) for j in range(10)), ())
                                   for i in range(10)])
        q13 = wall_presentation(1, 3)
        runs = [(ext, TestTargetGuards.hand_built(ext, "a0", ext.unit())),
                (q13, assignments_by_id(q13)["B1"])]
        for fiber, asgn in runs:
            for page in pages(fiber, asgn):
                for line in format_grid(page).splitlines()[3:-1]:
                    label, body = line.split("|")
                    q = int(label)
                    assert [int(d) for d in body.split()] == \
                        [page.dim(p, q) for p in range(page.stable + 1)], (page.r, line)


class TestStableColumns:
    """A page stores columns 0..S and column S stands for every later column.

    The reference starts from E_2 with explicit columns 0..W, built directly
    and declared stable only from W on, where W is at least the engine's
    final S + 2; both must give the same page dimensions for p <= W, or the
    same error.
    """

    @staticmethod
    def explicit_pages(fiber, assignment, width):
        cells = {}
        for p in range(width + 1):
            for q in range(fiber.top_degree + 1):
                n = len(fiber.degree_basis(q))
                if n:
                    cells[(p, q)] = Cell(gf2.Subspace.full(n), gf2.Subspace.zero(n))
        page = Page(fiber, 2, width, cells)
        yield page
        while page.r < fiber.top_degree + 2:
            page = turn_page(page, extend_by_leibniz(page, assignment))
            yield page

    @staticmethod
    def grids_or_error(page_iter, width, top):
        grids = []
        try:
            for page in page_iter:
                grids.append([[page.dim(p, q) for p in range(width + 1)]
                              for q in range(top + 1)])
        except (LeibnizInconsistency, SpectralModelError) as exc:
            return grids, (type(exc), str(exc))
        return grids, None

    @staticmethod
    def fibers():
        """The fibers of the 552 assignments checked here."""
        fibers = [wall_presentation(m, n) for m, n in ((1, 3), (1, 4), (1, 5), (3, 5))]
        return fibers + list(two_generator_fibers()) + spheres()

    def test_stable_columns_match_explicit_columns(self):
        cases = 0
        for fiber in self.fibers():
            top = fiber.top_degree
            for asgn in enumerate_assignments(fiber):
                # S grows by r on each active page, so it ends at most at this sum
                width = sum(asgn.active_pages()) + 2
                engine = self.grids_or_error(pages(fiber, asgn), width, top)
                explicit = self.grids_or_error(
                    self.explicit_pages(fiber, asgn, width), width, top)
                assert engine == explicit, (fiber.name, asgn.case_id)
                cases += 1
        assert cases == 552

    def test_total_dimensions_match_naive_sums(self):
        # the one-sweep totals against summing page.dim along each diagonal,
        # on every page up to the one where a case dies
        cases = 0
        for fiber in self.fibers():
            top = fiber.top_degree
            for asgn in enumerate_assignments(fiber):
                try:
                    for page in pages(fiber, asgn):
                        up_to = 2 * (top + page.stable)
                        # rows above top are empty, so p starts at j - top
                        naive = [sum(page.dim(p, j - p) for p in range(max(j - top, 0), j + 1))
                                 for j in range(up_to + 1)]
                        assert page.total_dimensions(up_to) == naive, (
                            fiber.name, asgn.case_id, page.r)
                        assert page.total_dimension(up_to) == naive[up_to]
                except (LeibnizInconsistency, SpectralModelError):
                    pass
                cases += 1
        assert cases == 552

    def test_total_dimension_is_zero_in_negative_degrees(self):
        page = build_e2(wall_presentation(1, 3))
        assert page.total_dimensions(-1) == []
        assert page.total_dimension(-1) == page.total_dimension(-5) == 0

    def test_survivors_vanish_above_dim_x_and_halve_euler_characteristic(self):
        # dim_x is the fiber's top degree, as for a closed manifold
        fibers = [wall_presentation(m, n) for m, n in ((1, 3), (3, 5), (1, 9))]
        fibers += list(two_generator_fibers()) + spheres()
        survivors = 0
        for fiber in fibers:
            top = dim_x = fiber.top_degree
            chi_fiber = euler(len(fiber.degree_basis(q)) for q in range(top + 1))
            for asgn in enumerate_assignments(fiber):
                try:
                    verdict = run_case(fiber, dim_x, asgn)
                except SpectralModelError:
                    continue    # a declared class died early: no verdict (ROADMAP Open item 1)
                if verdict.outcome != "survives":
                    continue
                survivors += 1
                totals = verdict.e_infinity.total_dimensions(2 * (dim_x + top))
                assert not any(totals[dim_x + 1:]), (fiber.name, asgn.case_id, totals)
                chi = euler(totals[:dim_x + 1])
                assert 2 * chi == chi_fiber, (fiber.name, asgn.case_id)
        assert survivors == 135     # 124 two-generator, 3 Wall, 8 spheres


def fresh_copy(fiber):
    """``fiber`` again as a new presentation: same generators, rules and name,
    and a page table that starts cold."""
    return AlgebraPresentation(fiber.generators,
                               [(rule.lhs, rule.rhs) for rule in fiber.rules], name=fiber.name)


def on_fresh_copy(fiber, asgn):
    """``(copy, assignment)``: ``asgn``'s targets, term by term, on a fresh
    copy of its fiber."""
    copy = fresh_copy(fiber)
    return copy, DifferentialAssignment(copy, tuple(
        None if tgt is None else Element(copy, tgt.terms) for tgt in asgn.targets))


class TestE2Cache:
    """E_2's cells are built once per fiber and shared by every run on it."""

    def test_cache_does_not_keep_the_fiber_alive(self):
        fiber = wall_presentation(1, 3)
        ref = weakref.ref(fiber)
        analyze_all(fiber, fiber.top_degree)
        del fiber
        gc.collect()
        assert ref() is None

    def test_shared_e2_is_unchanged_by_every_run(self):
        q13 = wall_presentation(1, 3)
        for asgn in enumerate_assignments(q13):
            run_case(q13, q13.top_degree, asgn)
            fresh = build_e2(wall_presentation(1, 3))   # a new fiber builds anew
            assert build_e2(q13).cells == fresh.cells, asgn.case_id

    def test_cells_are_shared_per_fiber(self):
        one, other = wall_presentation(1, 3), wall_presentation(1, 3)
        assert build_e2(one).cells is build_e2(one).cells
        assert build_e2(one).cells is not build_e2(other).cells

    def test_pages_and_cells_are_frozen(self):
        page = build_e2(wall_presentation(1, 3))
        with pytest.raises(dataclasses.FrozenInstanceError):
            page.cells = {}
        with pytest.raises(dataclasses.FrozenInstanceError):
            page.cells[(0, 0)].boundaries = page.cells[(0, 0)].cycles


class TestPageTable:
    """Every successful page turn is stored once per fiber, E_2 at the root,
    and shared by every run on it."""

    def test_a_dropped_fibers_table_is_collected(self):
        gc.collect()
        before = len(spectral._PAGE_TABLE)
        fiber = wall_presentation(1, 3)
        analyze_all(fiber, fiber.top_degree)
        assert len(spectral._PAGE_TABLE) == before + 1
        turned = [cells for key, (_, cells) in spectral._PAGE_TABLE[fiber].items()
                  if key is not None]
        assert turned
        cell_refs = [weakref.ref(cell) for cells in turned for cell in cells.values()]
        del fiber, turned
        gc.collect()
        assert len(spectral._PAGE_TABLE) == before
        assert all(ref() is None for ref in cell_refs)

    def test_a_repeated_run_turns_no_page(self, monkeypatch):
        calls = collections.Counter()
        for name in ("extend_by_leibniz", "turn_page"):
            def wrapper(*args, _inner=getattr(spectral, name), _name=name):
                calls[_name] += 1
                return _inner(*args)
            monkeypatch.setattr(spectral, name, wrapper)
        q13 = wall_presentation(1, 3)
        asgn = assignments_by_id(q13)["A"]     # d_3(d) = t^3, one active page
        first = list(pages(q13, asgn))
        assert calls == {"extend_by_leibniz": 1, "turn_page": 1}
        again = list(pages(q13, asgn))
        assert calls == {"extend_by_leibniz": 1, "turn_page": 1}
        assert [(p.r, p.stable) for p in again] == [(p.r, p.stable) for p in first]
        assert all(a.cells is b.cells for a, b in zip(first, again))

    def test_a_failed_turn_is_not_stored(self):
        # Q(1, 4) case A passes E_2 and dies at E_3's relation guard; each run
        # raises the same finding, and only the root is stored
        q14 = wall_presentation(1, 4)
        asgn = assignments_by_id(q14)["A"]
        texts = []
        for _ in range(2):
            with pytest.raises(LeibnizInconsistency) as info:
                list(pages(q14, asgn))
            texts.append(str(info.value))
        assert texts[0] == texts[1]
        assert list(spectral._PAGE_TABLE[q14]) == [None]

    def test_the_key_is_the_prefix_of_targets_up_to_the_page(self):
        q13 = wall_presentation(1, 3)
        asgn = assignments_by_id(q13)["B1"]     # d_2(d) = t^2*x
        x_terms = q13.gen("x").terms
        assert asgn.prefix(1) == (None, None, None)
        assert asgn.prefix(2) == asgn.prefix(5) == (None, None, x_terms)
        run_case(q13, q13.top_degree, asgn)
        assert set(spectral._PAGE_TABLE[q13]) == {None, (2, (None, None, x_terms))}


def differential_value_by_elements(fiber, active, mono):
    """The Leibniz value through ``Element`` arithmetic, one product per
    generator: the unshortened path that ``differential_value`` must equal."""
    total = fiber.zero()
    for name, tgt in active.items():
        idx = fiber.gen_index[name]
        e = mono[idx]
        if e % 2:
            lowered = list(mono)
            lowered[idx] = e - 1
            total = total + Element(fiber, [tuple(lowered)]) * tgt
    return total


def raw_monomials(fiber, up_to):
    """Every exponent tuple of degree at most ``up_to``, normal form or not."""
    ranges = [range(up_to // g.degree + 1) for g in fiber.generators]
    return [m for m in itertools.product(*ranges) if fiber.mono_degree(m) <= up_to]


def assert_differential_values_match(fiber, actives, up_to):
    monos = raw_monomials(fiber, up_to)
    for active in actives:
        for mono in monos:
            assert differential_value(fiber, active, mono) == \
                differential_value_by_elements(fiber, active, mono), (
                    fiber.name, {n: str(t) for n, t in active.items()}, mono)


def assert_derivation_matrices_match(fiber, pages_and_actives):
    """Row by row, the bit masks equal ``to_vector`` of each basis
    monomial's ``differential_value``: the path they replaced."""
    for r, active in pages_and_actives:
        for q in range(fiber.top_degree + 1):
            expected = [fiber.to_vector(differential_value(fiber, active, mono), q + 1 - r)
                        for mono in fiber.degree_basis(q)]
            assert _derivation_matrix(fiber, active, r, q) == expected, (fiber.name, q)


def every_active_dict(fiber):
    """The distinct (page, generator-to-target dict) pairs over all
    assignments."""
    found = {}
    for asgn in enumerate_assignments(fiber):
        for r in asgn.active_pages():
            active = asgn.active_at(r)
            found[(r, tuple(active.items()))] = (r, active)
    return list(found.values())


class TestDifferentialValueShortcut:
    """Accumulating normal-form terms equals the ``Element`` products."""

    @pytest.mark.parametrize(
        "fiber",
        [wall_presentation(m, n) for m in range(4) for n in range(4)]
        + [dold_presentation(m, n) for m in range(4) for n in range(4)],
        ids=lambda fiber: fiber.name)
    def test_wall_and_dold(self, fiber):
        # the Wall rule c^(m+1) = c^m * x has a nonzero right-hand side
        assert_differential_values_match(
            fiber, [active for _, active in every_active_dict(fiber)], fiber.top_degree + 2)

    @given(monomial_presentations().filter(lambda p: p.top_degree <= 12))
    @settings(max_examples=60, deadline=None)
    def test_random_monomial_presentations(self, fiber):
        assert_differential_values_match(
            fiber, [active for _, active in every_active_dict(fiber)], fiber.top_degree + 2)

    @pytest.mark.parametrize(
        "fiber",
        [wall_presentation(m, n) for m in range(4) for n in range(4)]
        + [dold_presentation(m, n) for m in range(4) for n in range(4)],
        ids=lambda fiber: fiber.name)
    def test_derivation_matrices_match_element_vectors(self, fiber):
        assert_derivation_matrices_match(fiber, every_active_dict(fiber))

    @given(monomial_presentations().filter(lambda p: p.top_degree <= 12))
    @settings(max_examples=60, deadline=None)
    def test_random_derivation_matrices(self, fiber):
        assert_derivation_matrices_match(fiber, every_active_dict(fiber))

    def test_derivation_term_of_the_wrong_degree_fails(self):
        # d_2 of a degree-1 generator lands in degree 0, so a degree-1 target
        # gives terms that degree_basis(0) does not index
        q13 = wall_presentation(1, 3)
        with pytest.raises(KeyError):
            _derivation_matrix(q13, {"x": q13.gen("c")}, 2, 1)

    def test_non_confluent_presentation(self):
        # the presentation of test_algebra's test_conflicting_rules_reported:
        # c^2 rewrites to x*c by the first rule and to 0 by the second
        bad = AlgebraPresentation([("x", 1), ("c", 1)], [((0, 2), [(1, 1)]), ((0, 2), ())])
        assert bad.check_confluence() is not None
        # differential_value reads no bidegree, so targets of any degree
        # exercise more products than the unit alone
        targets = [elem for q in range(3) for elem in bad.nonzero_elements(q)]
        actives = [dict.fromkeys(names, tgt) for tgt in targets
                   for names in (("x",), ("c",), ("x", "c"))]
        assert_differential_values_match(bad, actives, 6)


class ReferenceGuardViolation(Exception):
    """What the reference guards below raise: the text they build
    themselves, ``page r: `` prefix included, with no ``GuardFinding``."""


def relation_guard_by_elements(fiber, r, active):
    """The relation guard on ``Element`` values, as ``extend_by_leibniz``
    ran it before it compared term sets: the reference for its verdict and
    its message."""
    for rule in fiber.rules:
        lhs_val = differential_value_by_elements(fiber, active, rule.lhs)
        rhs_val = fiber.zero()
        for mono in rule.rhs:
            rhs_val = rhs_val + differential_value_by_elements(fiber, active, mono)
        if lhs_val != rhs_val:
            raise ReferenceGuardViolation(
                f"page {r}: relation {fiber.rule_text(rule)} is violated: "
                f"the differential sends the two sides to t^{r}*({lhs_val}) "
                f"and t^{r}*({rhs_val})")


def guard_message(check):
    """``str`` of the guard violation that ``check()`` raises, the engine's
    ``LeibnizInconsistency`` or a reference's, or None."""
    try:
        check()
    except (LeibnizInconsistency, ReferenceGuardViolation) as exc:
        return str(exc)
    return None


def assert_guards_agree(fiber):
    """On every active page of every assignment, ``extend_by_leibniz`` and
    the reference raise a guard violation with the same text or neither does.

    The guard reads only the page number, so E_2's cells stand in for
    E_r, where every declared class is alive; this also reaches the pages
    after one on which a run dies.  Returns the messages, None for a pass.
    """
    cells = build_e2(fiber).cells
    messages = []
    for asgn in enumerate_assignments(fiber):
        for r in asgn.active_pages():
            expected = guard_message(
                lambda: relation_guard_by_elements(fiber, r, asgn.active_at(r)))
            got = guard_message(lambda: extend_by_leibniz(Page(fiber, r, 0, cells), asgn))
            assert got == expected, (fiber.name, asgn.case_id, r)
            messages.append(got)
    return messages


class TestRelationGuardReference:
    def test_wall_fibers(self):
        # the Wall rule c^(m+1) = c^m * x has a nonzero right-hand side
        messages = [msg for m in range(4) for n in range(4)
                    for msg in assert_guards_agree(wall_presentation(m, n))]
        # some pass, and some fail with a nonzero value on the right-hand side
        assert None in messages
        assert any(msg is not None and not msg.endswith("*(0)") for msg in messages)

    @given(monomial_presentations().filter(lambda p: p.top_degree <= 12))
    @settings(max_examples=60, deadline=None)
    def test_random_monomial_presentations(self, fiber):
        assert_guards_agree(fiber)


def golden_fibers():
    """Q(m <= 4, n <= 5), Q(1|3|5, 9|15), Dold P(m <= 3, n <= 3), the 81
    two-generator fibers and S^1..S^8."""
    return ([wall_presentation(m, n) for m in range(5) for n in range(6)]
            + [wall_presentation(m, n) for m in (1, 3, 5) for n in (9, 15)]
            + [dold_presentation(m, n) for m in range(4) for n in range(4)]
            + list(two_generator_fibers()) + spheres())


def verdict_rows(fibers):
    """One row per assignment, dim_x the top degree: the outcome, reason,
    detail and E_inf totals up to where they turn constant, or the type and
    message of the exception ``run_case`` raised."""
    for fiber in fibers:
        top = fiber.top_degree
        for asgn in enumerate_assignments(fiber):
            try:
                verdict = run_case(fiber, top, asgn)
            except Exception as exc:    # a raise is a verdict to pin as well
                yield (fiber.name, asgn.case_id, type(exc).__name__, str(exc))
                continue
            page = verdict.e_infinity
            totals = None if page is None else page.total_dimensions(page.stable + top)
            yield (fiber.name, asgn.case_id, verdict.outcome, verdict.reason,
                   verdict.detail, totals)


@functools.cache
def golden_verdict_rows():
    """The golden fibers' verdict rows, run once per test run and shared by
    the digest and the readable table."""
    return tuple(verdict_rows(golden_fibers()))


VERDICTS = Path(__file__).parent / "golden" / "spectral_verdicts.txt"


def verdicts_table(rows) -> str:
    """One line per verdict row: ``<fiber>: <case>: <outcome>[: <reason>]``,
    or ``<fiber>: <case>: <exception type>: <message>`` for a refused case."""
    lines = []
    for row in rows:
        fiber, case, outcome, reason = row[:4]
        lines.append(f"{fiber}: {case}: {outcome}" + (f": {reason}" if reason else "") + "\n")
    return "".join(lines)


def test_golden_verdict_digest():
    # Pinned before the E_2 cache, the one-sweep totals and the direct Leibniz
    # values, and moved once since: the vanishing range that turned P(0, 0)'s
    # four survivors into eliminations.  A change that moves a verdict on
    # purpose updates the pin and lists the moved verdicts in CHANGES.md.
    rows = golden_verdict_rows()
    assert len(rows) == 1232
    digest = hashlib.sha256("\n".join(map(repr, rows)).encode()).hexdigest()[:16]
    assert digest == "d85b2cf0800516e5"


def test_golden_verdicts_table():
    """The golden fibers' verdicts against the checked-in table, so that a
    moved verdict reads as a diff beside the digest's new hash.

    After a change that moves a verdict on purpose, rewrite the table from
    the repository root with
    ``python -c "import sys; sys.path[:0] = ['src', 'tests']; import test_spectral as t; t.VERDICTS.write_text(t.verdicts_table(t.golden_verdict_rows()))"``
    """
    got = verdicts_table(golden_verdict_rows()).splitlines(keepends=True)
    expected = VERDICTS.read_text().splitlines(keepends=True)
    diff = "".join(difflib.unified_diff(expected, got, str(VERDICTS.name), "rebuilt"))
    assert not diff, diff


def verdict_multiset(fiber):
    """How often each (outcome, reason, E_inf totals) of ``verdict_rows``
    occurs, without what names a generator: the case label, the detail and
    a refusal's message, so a refusal counts by its exception type."""
    return collections.Counter(
        row[2] if len(row) == 4 else (row[2], row[3], row[5] and tuple(row[5]))
        for row in verdict_rows([fiber]))


def test_generator_names_and_order_move_no_verdict():
    # each two-generator fiber F2[a, b]/(a^e, b^f) again, as F2[u, v]/(u^f, v^e)
    # with u = b and v = a (ROADMAP N)
    assert len(TWO_GENERATOR_SHAPES) == 81
    for d1, e1, d2, e2 in TWO_GENERATOR_SHAPES:
        fiber = two_generator_fiber(d1, e1, d2, e2)
        swapped = two_generator_fiber(d2, e2, d1, e1, names=("u", "v"))
        assert verdict_multiset(swapped) == verdict_multiset(fiber), fiber.name
    # each Wall fiber Q(m <= 5, n <= 7) with x, c, d renamed to u, v, w and
    # nothing reordered: a new order can make the rule c^(m+1) = c^m*x
    # increase (ROADMAP M)
    for m, n in itertools.product(range(6), range(8)):
        fiber = wall_presentation(m, n)
        uvw = renamed(fiber, ("u", "v", "w"))
        assert verdict_multiset(uvw) == verdict_multiset(fiber), fiber.name


def decided_verdicts(fibers):
    """``(fiber, verdict)`` for every assignment ``run_case`` decides, dim_x
    the top degree; the refused ones are pinned by the golden digest."""
    for fiber in fibers:
        for asgn in enumerate_assignments(fiber):
            try:
                yield fiber, run_case(fiber, fiber.top_degree, asgn)
            except SpectralModelError:
                pass


def page_record(fiber, asgn):
    """Every page ``pages()`` yields, as ``(r, stable, cells)``, and the type
    and text of what it raised, or None."""
    seen = []
    try:
        for page in pages(fiber, asgn):
            seen.append((page.r, page.stable, page.cells))
    except (LeibnizInconsistency, SpectralModelError) as exc:
        return seen, (type(exc).__name__, str(exc))
    return seen, None


def verdict_record(fiber, asgn):
    """``run_case``'s verdict, dim_x the top degree, with its E_inf page as
    ``(r, stable, cells)``; or the type and text of its refusal."""
    try:
        verdict = run_case(fiber, fiber.top_degree, asgn)
    except SpectralModelError as exc:
        return type(exc).__name__, str(exc)
    page = verdict.e_infinity
    return (verdict.case_id, verdict.outcome, verdict.reason, verdict.detail,
            None if page is None else (page.r, page.stable, page.cells))


def assert_runs_agree(fiber, rng):
    """The verdicts and pages of every assignment of ``fiber`` are the same
    when the assignments run on one shared presentation in enumeration
    order, on another in shuffled order, and each on fresh copies, so that
    whatever the page table holds, it holds what a cold run turns."""
    count = len(enumerate_assignments(fiber))
    shuffled = list(range(count))
    rng.shuffle(shuffled)
    runs = []
    for order in (range(count), shuffled):
        shared = fresh_copy(fiber)
        assignments = enumerate_assignments(shared)
        runs.append({i: (page_record(shared, assignments[i]),
                         verdict_record(shared, assignments[i])) for i in order})
    runs.append({i: (page_record(*on_fresh_copy(fiber, asgn)),
                     verdict_record(*on_fresh_copy(fiber, asgn)))
                 for i, asgn in enumerate(enumerate_assignments(fiber))})
    for i in range(count):
        assert runs[0][i] == runs[1][i] == runs[2][i], (fiber.name, i)


class TestSharedPageTurns:
    """Page turns shared across a fiber's assignments change no page and no
    verdict."""

    def test_golden_fibers(self):
        rng = random.Random(27)
        for fiber in golden_fibers():
            assert_runs_agree(fiber, rng)

    @given(monomial_presentations().filter(lambda p: p.top_degree <= 12),
           st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_random_monomial_presentations(self, fiber, rng):
        assert_runs_agree(fiber, rng)


class TestGuardFindings:
    def test_fields_match_independent_computations(self):
        guards = set()
        for fiber, verdict in decided_verdicts(golden_fibers()):
            found, asgn = verdict.finding, verdict.assignment
            if verdict.outcome == "survives":
                assert found is None and verdict.detail is None
                continue
            guards.add(found.guard)
            assert found.fiber is fiber
            assert verdict.reason == ("vanishing_violation" if found.guard == "vanishing"
                                      else "leibniz_inconsistent")
            if found.guard == "leibniz":
                r, rule = found.page, found.relation
                active = asgn.active_at(r)
                rhs = fiber.zero()
                for mono in rule.rhs:
                    rhs = rhs + differential_value(fiber, active, mono)
                assert rule in fiber.rules
                assert found.values == (differential_value(fiber, active, rule.lhs).terms,
                                        rhs.terms)
                assert verdict.detail == guard_message(
                    lambda: relation_guard_by_elements(fiber, r, active))
            elif found.guard == "vanishing":
                *_, last = pages(fiber, asgn)
                dim_x = top = fiber.top_degree
                end = max(dim_x + 1, dim_x + top, last.stable + top)
                totals = last.total_dimensions(end)
                assert found.degrees == tuple(j for j in range(dim_x + 1, end + 1) if totals[j])
            else:
                assert found.guard == "square_zero"
                seen = []
                with pytest.raises(LeibnizInconsistency):
                    seen.extend(pages(fiber, asgn))
                assert seen[-1].r == found.page
                assert found.bidegree in seen[-1].cells
        assert guards == {"leibniz", "square_zero", "vanishing"}

    def test_verdicts_hold_no_exception_and_read_detail_purely(self):
        fiber = wall_presentation(5, 9)
        verdicts = analyze_all(fiber, 24)
        fresh = analyze_all(fiber, 24)
        assert {v.finding.guard for v in verdicts if v.finding} == {"leibniz", "vanishing"}
        # everything a verdict refers to, short of classes, modules and code
        skip = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType,
                types.CodeType)
        seen, stack = set(), list(verdicts)
        while stack:
            obj = stack.pop()
            if id(obj) in seen or isinstance(obj, skip):
                continue
            seen.add(id(obj))
            assert not isinstance(obj, (BaseException, types.TracebackType, types.FrameType))
            stack.extend(gc.get_referents(obj))
        for verdict, again in zip(verdicts, fresh):
            first = verdict.detail
            assert verdict.detail == first == again.detail
            assert verdict == again
            if verdict.finding is not None:
                assert hash(verdict.finding) == hash(again.finding)


def _check_square_zero(page, diff, p, q, raw):
    """The square-zero check of one image, as ``turn_page`` made it before
    the check moved inline."""
    if not raw:
        return
    second = diff.apply(q + 1 - diff.r, raw)
    if not second:
        return
    cell2 = page.cell(p + 2 * diff.r, q + 2 - 2 * diff.r)
    if cell2 is not None and cell2.boundaries.contains(second):
        return
    raise ReferenceGuardViolation(
        f"page {diff.r}: the differential does not square to zero at ({p},{q})")


def turn_page_by_every_cell(page, diff):
    """``turn_page`` before it turned only what d_r moves: every stored cell
    is turned and every new cell rebuilt and checked, and S grows by r on
    every page where a generator transgresses."""
    if diff.r != page.r:
        raise ValueError("differential was computed for a different page")
    if not diff.active:
        return Page(page.fiber, page.r + 1, page.stable, page.cells)
    r, stable = page.r, page.stable
    images = {}
    cycles = {}
    for pos in sorted(page.cells):
        p, q = pos
        cell = page.cells[pos]
        tgt_cell = page.cell(p + r, q + 1 - r)
        if tgt_cell is None:
            cycles[pos] = cell.cycles
            continue
        raws = []
        for vec in cell.cycles.basis:
            raw = diff.apply(q, vec)
            if raw and not tgt_cell.cycles.contains(raw):
                raise SpectralModelError(
                    f"differential image at ({p},{q}) is not a cycle on page {r}")
            _check_square_zero(page, diff, p, q, raw)
            raws.append(raw)
        for bnd in cell.boundaries.basis:
            image = diff.apply(q, bnd)
            if image and not tgt_cell.boundaries.contains(image):
                raise SpectralModelError(
                    f"differential at ({p},{q}) is not well defined on cosets")
        kernel = gf2.kernel_basis([tgt_cell.boundaries.reduce(v) for v in raws])
        cycles[pos] = gf2.Subspace.from_vectors(
            (gf2.combine(lam, cell.cycles.basis) for lam in kernel.basis),
            cell.cycles.ambient_dim)
        images[pos] = [v for v in raws if v]
    new_cells = {}
    for p in range(stable + r + 1):
        for q in range(page.fiber.top_degree + 1):
            cell = page.cell(p, q)
            if cell is None:
                continue
            boundaries = cell.boundaries.add(images.get((p - r, q + r - 1), []))
            kept = cycles[(min(p, stable), q)]
            if not kept.contains_subspace(boundaries):
                raise SpectralModelError(
                    f"image is not contained in the kernel at {(p, q)} on page {r}")
            new_cells[(p, q)] = Cell(kept, boundaries)
    return Page(page.fiber, r + 1, stable + r, new_cells)


def turn_or_error(turn, page, diff):
    """The next page and its cells, or None and the error: an elimination,
    the engine's or the reference's, tagged alike, and a
    ``SpectralModelError`` by its own type; both with their text."""
    try:
        nxt = turn(page, diff)
    except (LeibnizInconsistency, ReferenceGuardViolation) as exc:
        return None, ("eliminated", str(exc))
    except SpectralModelError as exc:
        return None, (SpectralModelError, str(exc))
    return nxt, (nxt.r, nxt.stable, nxt.cells)


HAND_BUILT_FIBERS = (wall_presentation(1, 3), wall_presentation(0, 1),
                     wall_presentation(2, 1), sphere_presentation(3))


@st.composite
def hand_built_turns(draw):
    """A page E_r and a d_r drawn at random on one of ``HAND_BUILT_FIBERS``:
    S in 0..4 and r in 2..top + 1, a cell of random cycles and boundaries
    inside them at every stored (p, q) whose row is not empty, and random
    row matrices.  Most are no spectral sequence at all, so most turns
    raise."""
    fiber = draw(st.sampled_from(HAND_BUILT_FIBERS))
    rng = draw(st.randoms(use_true_random=False))
    top = fiber.top_degree
    stable, r = rng.randint(0, 4), rng.randint(2, top + 1)
    widths = [len(fiber.degree_basis(q)) for q in range(top + 1)]

    def vectors(count, width):
        return [rng.getrandbits(width) for _ in range(count)]

    cells = {}
    for p, q in itertools.product(range(stable + 1), range(top + 1)):
        n = widths[q]
        if n:
            cycles = gf2.Subspace.from_vectors(vectors(rng.randint(0, n), n), n)
            chosen = vectors(rng.randint(0, cycles.dim), cycles.dim)
            cells[(p, q)] = Cell(cycles, gf2.Subspace.from_vectors(
                [gf2.combine(c, cycles.basis) for c in chosen], n))
    rows = {q: vectors(widths[q], widths[q + 1 - r]) for q in range(r - 1, top + 1)}
    active = {fiber.generators[0].name: fiber.unit()}
    return Page(fiber, r, stable, cells), PageDifferential(r, active, rows)


class TestTurnPageShortcut:
    """Turning only what d_r moves gives the cells of turning every cell."""

    @staticmethod
    def assert_turns_match(fibers):
        """Along the reference's own pages, every page of every case (idle
        ones too) turns to the same page or raises the same error."""
        cases = raised = 0
        for fiber in fibers:
            for asgn in enumerate_assignments(fiber):
                cases += 1
                page = build_e2(fiber)
                while page is not None and page.r < fiber.top_degree + 2:
                    try:
                        diff = extend_by_leibniz(page, asgn)
                    except (LeibnizInconsistency, SpectralModelError):
                        break
                    _, engine = turn_or_error(turn_page, page, diff)
                    page, reference = turn_or_error(turn_page_by_every_cell, page, diff)
                    assert engine == reference, (fiber.name, asgn.case_id, diff.r)
                    raised += page is None
        return cases, raised

    def test_stable_column_cases(self):
        cases, raised = self.assert_turns_match(TestStableColumns.fibers())
        assert cases == 552
        assert raised > 0

    def test_golden_fibers(self):
        cases, raised = self.assert_turns_match(golden_fibers())
        assert cases == 1232
        assert raised > 0

    @given(monomial_presentations().filter(lambda p: p.top_degree <= 12))
    @settings(max_examples=40, deadline=None)
    def test_random_monomial_presentations(self, fiber):
        self.assert_turns_match([fiber])

    @given(hand_built_turns())
    @settings(max_examples=300, deadline=None)
    def test_hand_built_pages(self, turn):
        # The reference still checks that every new cell's boundaries lie in
        # its cycles, after the cycle, square-zero and coset checks; the
        # engine does not, so an equal first error shows that check never
        # fires first.  The reference grows S by r even where d_r moves
        # nothing, so the cells are compared column by column up to its S.
        page, diff = turn
        engine, engine_out = turn_or_error(turn_page, page, diff)
        reference, reference_out = turn_or_error(turn_page_by_every_cell, page, diff)
        if reference is None or engine is None:
            assert engine_out == reference_out
        else:
            assert engine.r == reference.r
            for p, q in itertools.product(range(reference.stable + 1),
                                          range(page.fiber.top_degree + 1)):
                assert engine.cell(p, q) == reference.cell(p, q), (p, q)

    def test_coset_check_fires(self):
        # a hand-built E_2 of S^1 in which the class at (0,1) is also a
        # boundary: its image t^2 is a cycle at (2,0) but not a boundary
        # there, so d_2 is not defined on the cosets
        s1 = sphere_presentation(1)
        page = Page(s1, 2, 0, {
            (0, 0): Cell(gf2.Subspace.full(1), gf2.Subspace.zero(1)),
            (0, 1): Cell(gf2.Subspace.full(1), gf2.Subspace.full(1))})
        diff = PageDifferential(2, {"a": s1.unit()}, {1: [0b1]})
        error = (SpectralModelError, "differential at (0,1) is not well defined on cosets")
        assert turn_or_error(turn_page, page, diff) == (None, error)
        assert turn_or_error(turn_page_by_every_cell, page, diff) == (None, error)

    def test_golden_pages_keep_boundaries_inside_cycles(self):
        # each assignment runs on a fresh copy of its fiber, so that it turns
        # its own pages rather than reading another's from the page table;
        # within a run pages share cells, so each distinct cell is checked
        # once, and the dict keeps the cells alive, so no id is reused
        checked = {}
        for fiber in golden_fibers():
            for asgn in enumerate_assignments(fiber):
                copy, asgn = on_fresh_copy(fiber, asgn)
                try:
                    for page in pages(copy, asgn):
                        for cell in page.cells.values():
                            if id(cell) not in checked:
                                checked[id(cell)] = cell
                                assert cell.cycles.contains_subspace(cell.boundaries)
                except (LeibnizInconsistency, SpectralModelError):
                    pass
        assert sum(1 for cell in checked.values() if cell.boundaries.dim) > 2000

    def test_untouched_cells_are_the_previous_cells(self):
        # case A of Q(1, 3) is d_3(d) = t^3: rows 0 and 1 have no target row,
        # and columns 0..2 receive no image, so those cells stay as they are
        q13 = wall_presentation(1, 3)
        asgn = assignments_by_id(q13)["A"]
        e3 = page_r(q13, asgn, 3)
        diff = extend_by_leibniz(e3, asgn)
        e4 = turn_page(e3, diff)
        kept = {pos for pos, cell in e4.cells.items() if cell is e3.cell(*pos)}
        assert {(p, q) for p, q in e4.cells if p < 3 and q < 2} <= kept
        assert kept != set(e4.cells)
        assert e4.cells == turn_page_by_every_cell(e3, diff).cells

    def test_a_checked_successor_is_shared_across_columns(self):
        # case B1 of Q(1, 3) is d_2(d) = t^2*x, so E_3 stores columns 0..2;
        # columns 0 and 1 receive no image and share each row's successor
        q13 = wall_presentation(1, 3)
        asgn = assignments_by_id(q13)["B1"]
        e2, e3 = page_r(q13, asgn, 2), page_r(q13, asgn, 3)
        assert e3.stable == 2
        shrunk = {q for q in range(q13.top_degree + 1)
                  if e3.cells[(0, q)].cycles != e2.cells[(0, q)].cycles}
        assert shrunk == {2, 3, 6, 7}
        for q in range(q13.top_degree + 1):
            successor = e3.cells[(0, q)]
            assert successor is e3.cells[(1, q)], q
            assert (successor is e2.cells[(0, q)]) == (q not in shrunk), q
            assert (successor is e3.cells[(2, q)]) == (q in {0, 3, 4, 7, 8}), q


class TestPagesLoop:
    """``pages()`` yields every page once and skips the work of idle ones."""

    def test_yields_one_page_at_a_time(self):
        # Q(1, 4) case A dies on E_3, after E_2 and E_3 have been yielded
        q14 = wall_presentation(1, 4)
        it = pages(q14, assignments_by_id(q14)["A"])
        assert next(it).r == 2
        assert next(it).r == 3
        with pytest.raises(LeibnizInconsistency):
            next(it)

    def test_idle_pages_share_cells_and_run_no_turn(self, monkeypatch):
        calls = {"extend_by_leibniz": 0, "turn_page": 0}

        def counted(name):
            inner = getattr(spectral, name)

            def wrapper(*args):
                calls[name] += 1
                return inner(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(spectral, name, counted(name))
        fiber = wall_presentation(1, 3)
        for asgn in enumerate_assignments(fiber):
            if asgn.case_id not in ("Z", "A", "B1", "B2", "B3"):
                continue    # the others die on a page and yield no E_inf
            calls.update(extend_by_leibniz=0, turn_page=0)
            seq = list(pages(fiber, asgn))
            assert [page.r for page in seq] == list(range(2, fiber.top_degree + 3))
            active = asgn.active_pages()
            assert calls == {"extend_by_leibniz": len(active), "turn_page": len(active)}
            for before, after in zip(seq, seq[1:]):
                if before.r not in active:
                    assert after.cells is before.cells
                    assert after.stable == before.stable
                else:
                    assert after.cells is not before.cells

    def test_rejects_an_assignment_of_another_fiber(self):
        q13 = wall_presentation(1, 3)
        other = enumerate_assignments(wall_presentation(1, 3))[0]
        assert other.case_id == "Z"
        with pytest.raises(ValueError):
            next(pages(q13, other))


@contextlib.contextmanager
def built_pages():
    """Every ``Page`` the spectral module builds inside the block, in order."""
    built = []

    class Recorded(Page):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    with unittest.mock.patch.object(spectral, "Page", Recorded):
        yield built


def assert_walk_matches_pages(fiber):
    """``run_case`` on every assignment of ``fiber``, all on one fresh copy,
    against ``pages()``, each on a fresh copy of its own, so that neither
    reads a page the other turned; dim_x is the top degree."""
    walked, top = fresh_copy(fiber), fiber.top_degree
    for asgn in enumerate_assignments(walked):
        copy, alone = on_fresh_copy(walked, asgn)
        try:
            last = list(pages(copy, alone))[-1]
        except LeibnizInconsistency as exc:
            verdict = run_case(walked, top, asgn)
            assert verdict.finding == dataclasses.replace(exc.finding, fiber=walked)
            assert verdict.detail == str(exc), (fiber.name, asgn.case_id)
            continue
        except SpectralModelError as exc:
            with pytest.raises(SpectralModelError) as info:
                run_case(walked, top, asgn)
            assert (type(info.value), str(info.value)) == (type(exc), str(exc))
            continue
        with built_pages() as built:
            verdict = run_case(walked, top, asgn)
        limit = built[-1]
        assert (limit.r, limit.stable, limit.cells) == (last.r, last.stable, last.cells), (
            fiber.name, asgn.case_id)
        assert verdict.e_infinity is (limit if verdict.finding is None else None)


class TestRunCaseWalk:
    """``run_case`` steps only the active pages r <= top + 1 and builds the
    limit page once, and agrees with ``pages()`` on every assignment."""

    def test_golden_fibers(self):
        for fiber in golden_fibers():
            assert_walk_matches_pages(fiber)

    @given(monomial_presentations().filter(lambda p: p.top_degree <= 12))
    @settings(max_examples=40, deadline=None)
    def test_random_monomial_presentations(self, fiber):
        assert_walk_matches_pages(fiber)

    @staticmethod
    def record_steps(monkeypatch):
        """``(name, page)`` for each call of ``extend_by_leibniz`` and
        ``turn_page``: the page each is handed and, for ``turn_page``, the
        page it returns as ``("turned", page)``."""
        steps = []

        def extend(page, asgn, _inner=spectral.extend_by_leibniz):
            steps.append(("extend_by_leibniz", page))
            return _inner(page, asgn)

        def turn(page, diff, _inner=spectral.turn_page):
            steps.append(("turn_page", page))
            steps.append(("turned", _inner(page, diff)))
            return steps[-1][1]

        monkeypatch.setattr(spectral, "extend_by_leibniz", extend)
        monkeypatch.setattr(spectral, "turn_page", turn)
        return steps

    def test_one_step_per_active_page_that_misses(self, monkeypatch):
        # on a shared presentation per fiber: a page whose (r, prefix) the
        # table holds is read, a miss is turned once, a failed step ends the
        # run, and no page >= top + 2 is touched.  The pages built are each
        # turned page E_r, the E_{r+1} turn_page returns and the limit page,
        # and nothing else, not even E_2 on the fiber's first run.
        steps = self.record_steps(monkeypatch)
        for fiber in golden_fibers():
            fiber, top = fresh_copy(fiber), fiber.top_degree
            for asgn in enumerate_assignments(fiber):
                before = set(spectral._PAGE_TABLE.get(fiber, ()))
                steps.clear()
                with built_pages() as built:
                    try:
                        verdict = run_case(fiber, top, asgn)
                    except SpectralModelError:
                        verdict = None
                after = set(spectral._PAGE_TABLE[fiber])
                missed = []
                for r in asgn.active_pages():
                    if r <= top + 1 and (r, asgn.prefix(r)) not in before:
                        missed.append(r)
                        if (r, asgn.prefix(r)) not in after:
                            break       # the failed step
                case = (fiber.name, asgn.case_id)
                extended = [page.r for name, page in steps if name == "extend_by_leibniz"]
                turned = [page.r for name, page in steps if name == "turn_page"]
                assert extended == missed, case
                assert turned in (missed, missed[:-1]), case
                reached = verdict is not None and verdict.reason != "leibniz_inconsistent"
                assert reached == all((r, asgn.prefix(r)) in after for r in missed), case
                handed = [page for name, page in steps if name != "turn_page"]
                assert [id(page) for page in built] == [id(page) for page in handed] + (
                    [id(built[-1])] if reached else []), case
                if reached:
                    assert built[-1].r == top + 2, case

    def test_one_active_page(self, monkeypatch):
        # Q(1, 3) case A, d_3(d) = t^3, on a fresh fiber: one turn, of E_3,
        # and then the limit page E_10, with no E_2 page; a second run reads
        # the turn and builds the limit page alone
        steps = self.record_steps(monkeypatch)
        q13 = wall_presentation(1, 3)
        asgn = assignments_by_id(q13)["A"]
        with built_pages() as built:
            verdict = run_case(q13, 8, asgn)
        assert [(name, page.r) for name, page in steps] == [
            ("extend_by_leibniz", 3), ("turn_page", 3), ("turned", 4)]
        assert [page.r for page in built] == [3, 4, 10]
        assert verdict.e_infinity is built[-1]
        steps.clear()
        with built_pages() as built:
            again = run_case(q13, 8, asgn)
        assert steps == []
        assert [page.r for page in built] == [10]
        assert again.e_infinity.cells is verdict.e_infinity.cells

    def test_a_page_beyond_top_plus_one_is_not_stepped(self, monkeypatch):
        # Dold P(0, 0) has top degree 0, so d2(c)=t^2 sits on page top + 2,
        # beyond the first quadrant: no case turns a page, E_inf is E_2, and
        # the four verdicts pinned by TestRunCase::test_point_has_no_survivor
        # stay.  Each run, the fiber's first included, builds the limit page
        # alone.
        steps = self.record_steps(monkeypatch)
        fiber = dold_presentation(0, 0)
        for asgn in enumerate_assignments(fiber):
            with built_pages() as built:
                verdict = run_case(fiber, 0, asgn)
            assert steps == [], asgn.case_id
            assert [page.r for page in built] == [2], asgn.case_id
            assert (verdict.outcome, verdict.reason, verdict.detail) == (
                "eliminated", "vanishing_violation", "nonzero classes in degrees [1]")
        assert [a.active_pages() for a in enumerate_assignments(fiber)] == [
            (), (3,), (2,), (2, 3)]

    def test_active_pages_are_stored_once(self):
        q13 = wall_presentation(1, 3)
        for asgn in enumerate_assignments(q13):
            assert asgn.active_pages() is asgn.active_pages()
            assert asgn.active_pages() == tuple(sorted(
                {r for r in range(2, q13.top_degree + 2) if asgn.active_at(r)}))


class TestPageDifferentialApply:
    def test_missing_row_maps_to_zero(self):
        # a row without a matrix (every row below r - 1) maps every vector to 0
        diff = PageDifferential(3, {}, {0: [0b1]})
        assert diff.apply(5, 0b101) == 0
        assert diff.apply(5, 0) == 0
        assert diff.apply(-2, 0) == 0
        assert diff.apply(0, 0b1) == 0b1

    def test_coefficient_beyond_the_row_raises(self):
        with pytest.raises(ValueError):
            PageDifferential(3, {}, {0: [0b1]}).apply(0, 0b10)
