import itertools
import operator
import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitcoh.algebra import (
    AlgebraPresentation,
    Element,
    Generator,
    PresentationError,
    base_presentation,
    dold_presentation,
    format_presentation,
    parse_presentation,
    sphere_presentation,
    wall_presentation,
)
from orbitcoh.algebra import _mono_div, _mono_divides, _mono_mul
from test_actions import monomial_presentations, reducible_right_side
from test_bench_contract import load_bench
from test_spectral import spheres, two_generator_fibers


def exhaustive_reduction_oracle(pres, mono):
    """Breadth-first closure over *every* one-step rewrite order.

    Independent of the engine's reduction strategy: returns the set of all
    fully reduced results reachable from ``mono``.  For a confluent system
    this set has exactly one member.
    """
    def one_steps(state):
        out = []
        monos = sorted(state)
        for m in monos:
            for rule in pres.rules:
                if _mono_divides(rule.lhs, m):
                    quo = _mono_div(m, rule.lhs)
                    nxt = set(state)
                    nxt ^= {m}
                    for rm in rule.rhs:
                        nxt ^= {_mono_mul(quo, rm)}
                    out.append(frozenset(nxt))
        return out

    seen = set()
    frontier = {frozenset([tuple(mono)])}
    finals = set()
    while frontier:
        nxt = set()
        for state in frontier:
            if state in seen:
                continue
            seen.add(state)
            steps = one_steps(state)
            if not steps:
                finals.add(state)
            else:
                nxt.update(steps)
        frontier = nxt - seen
    return finals


def reduce_mono_randomized(pres, mono, rng):
    """Normal form of a monomial along a randomized rewrite path.

    On a confluent presentation every path must end at ``normal_form``.
    """
    work = [tuple(mono)]
    parity = {}
    while work:
        cur = work.pop(rng.randrange(len(work)))
        applicable = [r for r in pres.rules if _mono_divides(r.lhs, cur)]
        if not applicable:
            parity[cur] = parity.get(cur, 0) ^ 1
            continue
        rule = applicable[rng.randrange(len(applicable))]
        quo = _mono_div(cur, rule.lhs)
        work.extend(_mono_mul(quo, rm) for rm in rule.rhs)
    return frozenset(m for m, p in parity.items() if p)


class TestNormalForm:
    def test_wall_relation_rewrites_down(self):
        q13 = wall_presentation(1, 3)
        c = q13.gen("c")
        assert str(c * c) == "x*c"

    def test_unit_is_fixed(self):
        q13 = wall_presentation(1, 3)
        assert q13.unit() * q13.unit() == q13.unit()

    def test_cube_of_c_vanishes_all_rewrite_orders(self):
        q13 = wall_presentation(1, 3)
        c3 = q13.parse_mono("c^3")
        finals = exhaustive_reduction_oracle(q13, c3)
        assert finals == {frozenset()}
        assert q13.normal_form([c3]) == frozenset()

    def test_square_of_x_vanishes(self):
        q15 = wall_presentation(1, 5)
        x = q15.gen("x")
        assert not (x * x)

    def test_unit_times_generator(self):
        q13 = wall_presentation(1, 3)
        d = q13.gen("d")
        assert q13.unit() * d == d

    def test_product_with_truncation(self):
        q15 = wall_presentation(1, 5)
        d = q15.gen("d")
        cx = q15.gen("c") * q15.gen("x")
        lhs = (d ** 3) * (cx * d ** 2 + d ** 3)
        assert lhs == cx * d ** 5
        assert str(lhs) == "x*c*d^5"


class TestConfluence:
    def test_wall_presentations_confluent(self):
        assert wall_presentation(1, 3).check_confluence() is None
        assert wall_presentation(2, 3).check_confluence() is None

    def test_dold_presentation_confluent(self):
        assert dold_presentation(1, 3).check_confluence() is None

    def test_every_presentation_the_traffic_builds_is_confluent(self):
        # arithmetic assumes confluence and nothing under src/ checks it: the
        # Wall fibers up to Q(15, 15) and actions_grid's, the Dold fibers, the
        # spheres, fiber_sweep's fibers at both CI seeds and the base F2[t]
        workloads = load_bench("workloads")
        walls = {(m, n) for m in range(16) for n in range(16)}
        walls.update(spec[1:] for spec in workloads.make_inputs("actions_grid", 0).specs)
        sweep = [workloads.build_fiber(spec)[1] for seed in (0, 1)
                 for spec in workloads.make_inputs("fiber_sweep", seed).specs]
        presentations = ([wall_presentation(m, n) for m, n in sorted(walls)]
                         + [dold_presentation(m, n) for m in range(7) for n in range(7)]
                         + spheres() + sweep + [base_presentation()])
        assert len(presentations) == 544
        for pres in presentations:
            assert pres.check_confluence() is None, pres.name

    def test_conflicting_rules_reported(self):
        bad = AlgebraPresentation(
            [("x", 1), ("c", 1)],
            [((0, 2), [(1, 1)]), ((0, 2), ())],
        )
        failure = bad.check_confluence()
        assert failure is not None
        assert failure.first == frozenset([(1, 1)]) or failure.second == frozenset([(1, 1)])

    @pytest.mark.parametrize("pres_factory", [
        lambda: wall_presentation(1, 3),
        lambda: wall_presentation(2, 5),
        lambda: dold_presentation(2, 2),
        lambda: sphere_presentation(3),
    ])
    def test_randomized_reduction_agrees(self, pres_factory):
        pres = pres_factory()
        rng = random.Random(20240817)
        top = pres.top_degree
        for _ in range(200):
            q = rng.randrange(0, top + 2)
            basis_monos = [
                tuple(rng.randrange(0, 4) for _ in pres.generators)
                for _ in range(rng.randrange(1, 4))
            ]
            expected = pres.normal_form(basis_monos)
            got = frozenset()
            for m in basis_monos:
                got ^= reduce_mono_randomized(pres, m, rng)
            assert got == expected


class TestDegreeBasis:
    def test_q13_degree_three(self):
        q13 = wall_presentation(1, 3)
        basis = q13.degree_basis(3)
        assert [q13.mono_str(m) for m in basis] == ["x*d", "c*d"]

    def test_q13_top_degree(self):
        q13 = wall_presentation(1, 3)
        basis = q13.degree_basis(8)
        assert [q13.mono_str(m) for m in basis] == ["x*c*d^3"]

    def test_q13_above_top_empty(self):
        assert wall_presentation(1, 3).degree_basis(9) == ()

    def test_poincare_series_q13(self):
        # independent oracle: normal forms are x^a c^b d^e with a,b <= 1, e <= 3
        expected = [0] * 9
        for a, b, e in itertools.product(range(2), range(2), range(4)):
            expected[a + b + 2 * e] += 1
        assert wall_presentation(1, 3).poincare_series(8) == expected
        assert expected == [1, 2, 2, 2, 2, 2, 2, 2, 1]

    def test_poincare_series_base(self):
        assert base_presentation().poincare_series(4) == [1, 1, 1, 1, 1]

    def test_dold_total_dimension(self):
        p13 = dold_presentation(1, 3)
        assert sum(p13.poincare_series(p13.top_degree)) == 8

    def test_dold_1_1_dimensions(self):
        assert dold_presentation(1, 1).poincare_series(3) == [1, 1, 1, 1]

    @given(st.integers(0, 3), st.integers(1, 3), st.integers(1, 3), st.integers(1, 4),
           st.integers(1, 3), st.booleans())
    @settings(max_examples=60)
    def test_capped_walk_matches_filtered_enumeration(self, m, x_cap, d_deg, d_cap,
                                                      u_deg, kill_xu):
        # u has no pure-power rule, so its exponent is bounded only by the degree
        gens = [("x", 1), ("c", 1), ("d", d_deg), ("u", u_deg)]
        rules = [((x_cap, 0, 0, 0), ()), ((0, m + 1, 0, 0), [(1, m, 0, 0)]),
                 ((0, 0, d_cap, 0), ())]
        if kill_xu:
            rules.append(((1, 0, 0, 1), ()))
        pres = AlgebraPresentation(gens, rules)
        assert pres.top_degree is None
        for q in range(9):
            brute = [mono for mono in itertools.product(range(q + 1), repeat=4)
                     if pres.mono_degree(mono) == q and pres._find_rule(mono) is None]
            assert pres.degree_basis(q) == tuple(sorted(brute, key=pres.order_key)), q


def degree_basis_by_walk(pres, q):
    """The recursive walk that ``degree_basis`` ran before its one-sweep
    fill: one row per call, exponents chosen generator by generator, each
    bounded by its cap and by the degree left."""
    if q < 0:
        return ()
    found = []
    ngen = len(pres.generators)

    def walk(i, remaining, exps):
        if i == ngen:
            if remaining == 0:
                mono = tuple(exps)
                if pres._find_rule(mono) is None:
                    found.append(mono)
            return
        d, cap = pres._degrees[i], pres._caps[i]
        top = remaining // d if cap is None else min(remaining // d, cap)
        for e in range(top + 1):
            exps.append(e)
            walk(i + 1, remaining - e * d, exps)
            exps.pop()

    walk(0, q, [])
    found.sort(key=pres.order_key)
    return tuple(found)


def assert_sweep_matches_walk(pres, queries):
    """Ask ``degree_basis`` with an empty cache, in the given order: a miss
    fills every lower row, which later queries then read from the cache."""
    pres._basis_cache.clear()
    pres._basis_index_cache.clear()
    for q in queries:
        assert pres.degree_basis(q) == degree_basis_by_walk(pres, q), (pres.name, q)


def ceiling(pres):
    """Highest degree a capped exponent vector can reach."""
    return sum(cap * d for cap, d in zip(pres._caps, pres._degrees))


class TestDegreeBasisSweep:
    """One sweep per cache miss equals the per-row recursive walk."""

    @staticmethod
    def fibers():
        return ([wall_presentation(m, n) for m in range(5) for n in range(6)]
                + [wall_presentation(m, n) for m in (1, 3, 5) for n in (9, 15)]
                + [dold_presentation(m, n) for m in range(4) for n in range(4)]
                + list(two_generator_fibers()) + spheres())

    def test_finite_fibers_in_both_orders(self):
        for pres in self.fibers():
            queries = list(range(pres.top_degree + 3))
            assert_sweep_matches_walk(pres, queries)
            assert_sweep_matches_walk(pres, queries[::-1])

    def test_construction_fills_every_row_up_to_the_ceiling(self):
        for pres in self.fibers():
            assert set(pres._basis_cache) == set(range(ceiling(pres) + 1)), pres.name
            for q in range(ceiling(pres) + 1):
                assert pres._basis_cache[q] == degree_basis_by_walk(pres, q)

    def test_queries_above_the_ceiling(self):
        for pres in self.fibers():
            top = ceiling(pres)
            assert_sweep_matches_walk(pres, [top + 3, top + 1, top + 2, -1])
            assert pres.degree_basis(top + 3) == ()
            # rows above every reachable degree are not filled one by one
            assert pres.degree_basis(10 ** 5) == ()
            assert len(pres._basis_cache) <= top + 5, pres.name

    @given(monomial_presentations(), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_random_monomial_presentations(self, pres, descending):
        queries = list(range(pres.top_degree + 3))
        assert_sweep_matches_walk(pres, queries[::-1] if descending else queries)

    @staticmethod
    def assert_basis_is_seeded_exactly(pres, up_to):
        """Every basis monomial up to ``up_to`` sits in the normal-form cache
        as itself, and no rule applies to it: the rewriting oracle has it
        as its one result."""
        for q in range(up_to + 1):
            for mono in pres.degree_basis(q):
                assert pres._nf_cache[mono] == frozenset([mono]), (pres.name, mono)
                assert exhaustive_reduction_oracle(pres, mono) == {frozenset([mono])}

    def test_basis_monomials_are_their_own_seeded_normal_forms(self):
        for pres in self.fibers():
            self.assert_basis_is_seeded_exactly(pres, pres.top_degree)
        self.assert_basis_is_seeded_exactly(base_presentation(), 12)
        # the seed reads no rule's right-hand side, so a non-confluent
        # presentation is seeded as exactly
        bad = AlgebraPresentation([("x", 1), ("c", 1)],
                                  [((0, 2), [(1, 1)]), ((0, 2), ())])
        assert bad.check_confluence() is not None
        self.assert_basis_is_seeded_exactly(bad, 4)

    @given(monomial_presentations())
    @settings(max_examples=60, deadline=None)
    def test_random_presentations_are_seeded_exactly(self, pres):
        self.assert_basis_is_seeded_exactly(pres, pres.top_degree)

    @pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
    def test_polynomial_ring(self, order):
        queries = list(range(13))
        if order == "descending":
            queries.reverse()
        elif order == "shuffled":
            random.Random(4).shuffle(queries)
        base = base_presentation()
        assert base.top_degree is None
        assert_sweep_matches_walk(base, queries)
        # an uncapped generator beside capped ones
        mixed = AlgebraPresentation([("x", 1), ("u", 2), ("y", 3)],
                                    [((2, 0, 0), ()), ((0, 0, 2), ()), ((1, 0, 1), ())])
        assert mixed.top_degree is None
        assert_sweep_matches_walk(mixed, queries)


class TestBuilders:
    def test_wall_shape(self):
        q13 = wall_presentation(1, 3)
        assert [(g.name, g.degree) for g in q13.generators] == [("x", 1), ("c", 1), ("d", 2)]
        assert q13.top_degree == 8

    def test_sphere_shape(self):
        s2 = sphere_presentation(2)
        assert [(g.name, g.degree) for g in s2.generators] == [("a", 2)]
        assert s2.poincare_series(2) == [1, 0, 1]

    def test_base_is_unbounded(self):
        assert base_presentation().top_degree is None

    def test_wall_m0_degenerates_cleanly(self):
        q03 = wall_presentation(0, 3)
        assert q03.top_degree == 7
        assert sum(q03.poincare_series(7)) == 2 * 1 * 4

    @pytest.mark.parametrize("m", range(4))
    @pytest.mark.parametrize("n", range(8))
    def test_total_dimension_closed_form(self, m, n):
        pres = wall_presentation(m, n)
        assert sum(pres.poincare_series(pres.top_degree)) == 2 * (m + 1) * (n + 1)

    @pytest.mark.parametrize("m", range(4))
    @pytest.mark.parametrize("n", range(8))
    def test_poincare_duality(self, m, n):
        pres = wall_presentation(m, n)
        top = m + 2 * n + 1
        series = pres.poincare_series(top)
        assert series == series[::-1]


@st.composite
def wall_elements(draw, pres, q=None):
    """An element of degree ``q`` of a finite presentation, or of a drawn
    degree when ``q`` is None."""
    if q is None:
        q = draw(st.integers(0, pres.top_degree))
    basis = pres.degree_basis(q)
    if not basis:
        return pres.zero()
    mask = draw(st.integers(0, 2 ** len(basis) - 1))
    return Element(pres, [m for i, m in enumerate(basis) if mask >> i & 1])


class TestRingAxioms:
    q15 = wall_presentation(1, 5)

    @given(st.data())
    @settings(max_examples=120)
    def test_multiplication_associative(self, data):
        a = data.draw(wall_elements(self.q15))
        b = data.draw(wall_elements(self.q15))
        c = data.draw(wall_elements(self.q15))
        assert (a * b) * c == a * (b * c)

    @given(st.data())
    @settings(max_examples=120)
    def test_multiplication_commutative(self, data):
        a = data.draw(wall_elements(self.q15))
        b = data.draw(wall_elements(self.q15))
        assert a * b == b * a

    @given(st.data())
    def test_addition_is_gf2(self, data):
        a = data.draw(wall_elements(self.q15))
        assert not (a + a)


def left_power(a, k):
    """Reference: the k-fold left product (((1*a)*a)*...)*a, one product at a
    time."""
    out = a.algebra.unit()
    for _ in range(k):
        out = out * a
    return out


class TestPower:
    # Q(m, n)'s rule c^(m+1) = x*c^m is not monomial
    @given(st.one_of(st.builds(wall_presentation, st.integers(0, 5), st.integers(0, 9)),
                     monomial_presentations()),
           st.integers(0, 40), st.data())
    @settings(max_examples=300, deadline=None)
    def test_squaring_matches_left_product(self, pres, k, data):
        a = data.draw(wall_elements(pres))
        assert a ** k == left_power(a, k)

    @given(st.one_of(st.builds(wall_presentation, st.integers(0, 5), st.integers(0, 9)),
                     monomial_presentations()),
           st.integers(1, 40), st.data())
    @settings(max_examples=300, deadline=None)
    def test_frobenius_square_matches_product(self, pres, k, data):
        # __pow__ squares by doubling exponents; check it against the plain
        # product, additivity over GF(2) and the edge exponents 0 and 1
        q = data.draw(st.integers(0, pres.top_degree))
        a, b = data.draw(wall_elements(pres, q)), data.draw(wall_elements(pres, q))
        assert a ** 2 == a * a
        assert (a + b) ** 2 == a ** 2 + b ** 2
        assert a ** 1 == a
        assert pres.zero() ** 0 == pres.unit()
        assert pres.zero() ** k == pres.zero()

    @pytest.mark.parametrize("n, products", [(31, 4), (32, 0), (33, 1)])
    def test_product_count(self, monkeypatch, n, products):
        # popcount(n) - 1 products, none with the unit as an operand
        q = wall_presentation(5, 31)
        t_d = q.parse_element("d + x*c + c^2")
        expected = left_power(t_d, n)
        unit = q.unit()
        operands = []
        plain_mul = Element.__mul__

        def counting_mul(a, b):
            operands.append((a, b))
            return plain_mul(a, b)

        monkeypatch.setattr(Element, "__mul__", counting_mul)
        result = t_d ** n
        monkeypatch.undo()
        assert result == expected
        assert len(operands) == bin(n).count("1") - 1 == products
        assert all(unit not in pair for pair in operands)

    def test_rejects_negative_exponent(self):
        d = wall_presentation(1, 3).gen("d")
        with pytest.raises(ValueError, match="negative exponent -1"):
            d ** -1


# x*c-twisted like Q(1, n) but with d unbounded: an infinite algebra with a
# rule that is not monomial
INFINITE_WALL = AlgebraPresentation([("x", 1), ("c", 1), ("d", 2)],
                                    [((2, 0, 0), ()), ((0, 2, 0), [(1, 1, 0)])],
                                    name="wall(1,inf)")


class TestCarriedDegree:
    """Arithmetic builds its results with the degree worked out and no
    homogeneity check; each must equal what the checked constructor
    ``Element(pres, terms)`` makes of the same terms."""

    @staticmethod
    def assert_checked(elem):
        checked = Element(elem.algebra, elem.terms)
        assert (elem.degree, elem.terms) == (checked.degree, checked.terms)

    @given(st.one_of(st.builds(wall_presentation, st.integers(0, 5), st.integers(0, 9)),
                     monomial_presentations(), st.just(INFINITE_WALL)),
           st.integers(0, 40), st.data())
    @settings(max_examples=300, deadline=None)
    def test_arithmetic_matches_checked_constructor(self, pres, k, data):
        top = 12 if pres.top_degree is None else pres.top_degree
        q, r = data.draw(st.integers(0, top)), data.draw(st.integers(0, top))
        a, b = data.draw(wall_elements(pres, q)), data.draw(wall_elements(pres, q))
        c = data.draw(wall_elements(pres, r))
        for result in (a * c, c * a, a ** 2, a ** 3, a ** k, a + b, a + pres.zero(),
                       pres.zero() + a):
            self.assert_checked(result)

    def test_infinite_algebra_is_confluent(self):
        assert INFINITE_WALL.top_degree is None
        assert INFINITE_WALL.check_confluence() is None

    def test_constant_degrees(self):
        q13 = wall_presentation(1, 3)
        assert q13.zero().degree is None
        assert q13.unit().degree == 0
        for q in range(q13.top_degree + 2):
            assert {e.degree for e in q13.nonzero_elements(q)} <= {q}

    def test_zero_factor_skips_normal_form(self, monkeypatch):
        q13 = wall_presentation(1, 3)
        d = q13.gen("d")

        def refuse(monos):
            raise AssertionError("normal_form called on a product with a zero factor")

        monkeypatch.setattr(q13, "normal_form", refuse)
        for product in (d * q13.zero(), q13.zero() * d, q13.zero() * q13.zero()):
            assert not product and product.degree is None

    def test_sum_of_unequal_degrees_raises(self):
        q13 = wall_presentation(1, 3)
        with pytest.raises(ValueError, match="must share a single degree"):
            q13.gen("x") + q13.gen("d")
        with pytest.raises(ValueError, match="must share a single degree"):
            q13.unit() + q13.gen("x")

    def test_to_vector_rejects_wrong_degree(self):
        q13 = wall_presentation(1, 3)
        with pytest.raises(ValueError, match="not homogeneous of the requested degree"):
            q13.to_vector(q13.gen("d"), 1)
        with pytest.raises(ValueError, match="not homogeneous of the requested degree"):
            q13.to_vector(q13.unit(), 2)

    def test_to_vector_of_zero(self):
        q13 = wall_presentation(1, 3)
        assert all(q13.to_vector(q13.zero(), q) == 0
                   for q in range(-1, q13.top_degree + 3))


class TestValidation:
    def test_rejects_duplicate_names(self):
        with pytest.raises(PresentationError):
            AlgebraPresentation([("x", 1), ("x", 2)], [])

    def test_rejects_degree_zero_generator(self):
        with pytest.raises(PresentationError):
            AlgebraPresentation([("x", 0)], [])

    def test_rejects_non_homogeneous_rule(self):
        with pytest.raises(PresentationError):
            AlgebraPresentation([("x", 1), ("d", 2)], [((0, 1), [(1, 0)])])

    def test_rejects_order_increasing_rule(self):
        # c^2 -> c*x is fine, but c*x -> c^2 would increase the order
        with pytest.raises(PresentationError):
            AlgebraPresentation([("x", 1), ("c", 1)], [((1, 1), [(0, 2)])])

    def test_rejects_negative_exponent(self):
        # x^-1 * y^2 has degree 1, so only the sign check catches it
        with pytest.raises(PresentationError, match="exponents >= 0"):
            AlgebraPresentation([("x", 1), ("y", 1)], [((-1, 2), ())])

    @pytest.mark.parametrize("generator", [("a", 1.9), Generator("a", 1.5), ("a", "2")])
    def test_rejects_a_degree_that_is_not_an_integer(self, generator):
        # int() would truncate 1.9 to a degree-1 generator
        with pytest.raises(PresentationError, match="not an integer"):
            AlgebraPresentation([generator], [])

    @pytest.mark.parametrize("lhs, rhs", [((2.7,), ()), ((2,), [(2.0,)]), (("2",), ())])
    def test_rejects_an_exponent_that_is_not_an_integer(self, lhs, rhs):
        # int() would truncate (2.7,) to a^2 = 0
        with pytest.raises(PresentationError, match="needs 1 exponents >= 0"):
            AlgebraPresentation([("a", 1)], [(lhs, rhs)])

    def test_accepts_integer_degrees_and_exponents_as_ints(self):
        pres = AlgebraPresentation([Generator("a", True), ("b", 2)], [([2, False], ())])
        assert [type(g.degree) for g in pres.generators] == [int, int]
        assert pres.rules[0].lhs == (2, 0) and type(pres.rules[0].lhs[1]) is int

    def test_rejects_wrong_length_rhs_monomial(self):
        # (1, 1, 0) has degree 2 and is below y^2 in the order over two generators
        with pytest.raises(PresentationError, match="needs 2 exponents"):
            AlgebraPresentation([("x", 1), ("y", 1)], [((0, 2), [(1, 1, 0)])])

    def test_element_homogeneity_enforced(self):
        q13 = wall_presentation(1, 3)
        with pytest.raises(ValueError):
            q13.gen("x") + q13.gen("d")

    @pytest.mark.parametrize("make", [
        lambda q: Element(q, [(1,)]),                  # once read as 0
        lambda q: Element(q, [(0, 0, 1, 5)]),          # once read as d
        lambda q: Element(q, [(1.0, 0, 0)]),
        lambda q: Element(q, frozenset({(1,)})),       # once x, of degree 1
        lambda q: Element(q, frozenset({(-1, 1, 0)})),  # once c, of degree 0
    ], ids=["element-short", "element-long", "element-float", "Element-short",
            "Element-negative"])
    def test_malformed_monomial_is_refused(self, make):
        with pytest.raises(PresentationError, match="needs 3 exponents >= 0"):
            make(wall_presentation(1, 3))

    @pytest.mark.parametrize("op", [operator.add, operator.mul], ids=["add", "mul"])
    @pytest.mark.parametrize("other", [0, 1, 2, "x"])
    def test_an_operand_that_is_not_an_element_is_a_type_error(self, op, other):
        x = wall_presentation(1, 3).gen("x")
        with pytest.raises(TypeError):
            op(x, other)

    def test_rejects_a_rule_of_degree_zero(self):
        with pytest.raises(PresentationError) as info:
            AlgebraPresentation([("x", 1)], [((0,), ())])
        assert str(info.value) == "rule left-hand side must have positive degree"

    def test_gen_refuses_an_unknown_name(self):
        with pytest.raises(PresentationError) as info:
            wall_presentation(1, 3).gen("y")
        assert str(info.value) == "unknown generator 'y'"

    def test_parse_mono_refuses_a_bad_factor(self):
        with pytest.raises(PresentationError) as info:
            wall_presentation(1, 3).parse_mono("x*2c")
        assert str(info.value) == "cannot parse monomial factor '2c'"

    @pytest.mark.parametrize("op", [operator.add, operator.mul], ids=["add", "mul"])
    def test_arithmetic_across_presentations_is_refused(self, op):
        x13, x23 = wall_presentation(1, 3).gen("x"), wall_presentation(2, 3).gen("x")
        with pytest.raises(ValueError) as info:
            op(x13, x23)
        assert (info.type, str(info.value)) == (
            ValueError, "elements belong to different presentations")

    @pytest.mark.parametrize("build, message", [
        (lambda: wall_presentation(-1, 3), "wall presentation needs m, n >= 0"),
        (lambda: wall_presentation(1, -1), "wall presentation needs m, n >= 0"),
        (lambda: dold_presentation(-1, 0), "dold presentation needs m, n >= 0"),
        (lambda: dold_presentation(0, -1), "dold presentation needs m, n >= 0"),
        (lambda: sphere_presentation(0), "sphere presentation needs n >= 1"),
    ], ids=["wall-m", "wall-n", "dold-m", "dold-n", "sphere"])
    def test_builders_refuse_negative_arguments(self, build, message):
        with pytest.raises(PresentationError) as info:
            build()
        assert str(info.value) == message

    def test_to_vector_rejects_element_of_another_presentation(self):
        # Q(2, 3)'s d would otherwise read as bit 1 of Q(1, 3)'s degree-2 basis
        q13, q23 = wall_presentation(1, 3), wall_presentation(2, 3)
        with pytest.raises(ValueError, match="different presentations"):
            q13.to_vector(q23.gen("d"), 2)


def builtin_presentations():
    """The 82 built-ins: Wall Q(m <= 5, n <= 7), Dold P(m <= 4, n <= 4),
    S^1..S^8 and F2[t]."""
    return ([wall_presentation(m, n) for m in range(6) for n in range(8)]
            + [dold_presentation(m, n) for m in range(5) for n in range(5)]
            + spheres() + [base_presentation()])


def assert_round_trip(pres):
    """Formatted and parsed back, ``pres`` keeps its generators, its rules in
    order and its Poincare series (F2[t]'s up to degree 12)."""
    back = parse_presentation(format_presentation(pres))
    assert back.generators == pres.generators
    assert back.rules == pres.rules
    up_to = 12 if pres.top_degree is None else pres.top_degree + 2
    assert back.poincare_series(up_to) == pres.poincare_series(up_to)


class TestTextFormat:
    def test_roundtrip_wall(self):
        q23 = wall_presentation(2, 3)
        text = format_presentation(q23)
        back = parse_presentation(text)
        assert [(g.name, g.degree) for g in back.generators] == [
            (g.name, g.degree) for g in q23.generators
        ]
        assert set(back.rules) == set(q23.rules)
        assert back.top_degree == q23.top_degree

    @pytest.mark.parametrize("text, message", [
        ("gen x\n", "line 1: expected 'gen <name> <degree>'"),
        ("gen x one\n", "line 1: bad degree 'one'"),
        ("gen x 1\nrel x^2\n", "line 2: expected 'rel <monomial> = <polynomial>'"),
    ], ids=["gen-fields", "gen-degree", "rel-without-equals"])
    def test_malformed_lines_are_refused(self, text, message):
        with pytest.raises(PresentationError) as info:
            parse_presentation(text)
        assert str(info.value) == message

    def test_parse_relation_polynomial(self):
        text = "gen x 1\ngen c 1\nrel x^2 = 0\nrel c^2 = c*x\n"
        pres = parse_presentation(text)
        c = pres.gen("c")
        assert str(c * c) == "x*c"

    def test_parse_rejects_unknown_generator(self):
        with pytest.raises(PresentationError):
            parse_presentation("gen x 1\nrel y^2 = 0\n")

    def test_parse_rejects_garbage(self):
        with pytest.raises(PresentationError):
            parse_presentation("hello world\n")

    def test_comments_and_blanks_ignored(self):
        text = "# cohomology of a circle\n\ngen a 1\nrel a^2 = 0\n"
        pres = parse_presentation(text)
        assert pres.poincare_series(1) == [1, 1]

    def test_parse_non_homogeneous_rhs_names_its_line(self):
        text = "gen a 1\ngen b 2\nrel a^3 = a*b + b^2\n"
        with pytest.raises(PresentationError, match="^line 3: "):
            parse_presentation(text)

    @pytest.mark.parametrize("rel", ["b^2 = a^5", "a^4 = b^2"])
    def test_parse_invalid_rule_names_its_line(self, rel):
        # a^5 is of another degree than b^2; a^4 -> b^2 raises the order
        with pytest.raises(PresentationError, match="^line 4: rule"):
            parse_presentation(f"gen a 1\ngen b 2\n# a comment\nrel {rel}\n")

    @pytest.mark.parametrize("gen, message", [
        ("gen x 0", "generator x must have degree >= 1"),
        ("gen a 3", "generator a is declared twice"),
        # no monomial, relation or element can spell a name that starts with a digit
        ("gen 1a 1", "bad generator name '1a'"),
    ])
    def test_parse_invalid_generator_names_its_line(self, gen, message):
        with pytest.raises(PresentationError) as err:
            parse_presentation(f"gen a 1\n# a comment\n{gen}\nrel a^2 = 0\n")
        assert str(err.value) == f"line 3: {message}"

    @pytest.mark.parametrize("gens, message", [
        ([("a", 1), ("x", 0)], "generator x must have degree >= 1"),
        ([("a", 1), ("a", 3)], "generator a is declared twice"),
        # formatted, '1a' would write text that does not parse
        ([("1a", 1)], "bad generator name '1a'"),
    ])
    def test_constructor_refuses_what_the_parser_refuses(self, gens, message):
        with pytest.raises(PresentationError) as err:
            AlgebraPresentation(gens, [])
        assert str(err.value) == message

    @pytest.mark.parametrize("pres", builtin_presentations(), ids=lambda p: p.name)
    def test_roundtrip_builtin(self, pres):
        assert_round_trip(pres)

    @given(monomial_presentations())
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_random_monomial_presentations(self, pres):
        assert_round_trip(pres)

    def test_roundtrip_keeps_a_right_side_as_written(self):
        # a*b reduces to e^2, but the rule is written and read back as b^2 = a*b
        pres = reducible_right_side()
        assert "rel b^2 = a*b\n" in format_presentation(pres)
        assert_round_trip(pres)

    def test_a_right_side_monomial_written_twice_cancels(self):
        # over GF(2), y^2 = x*y + x*y is y^2 = 0, as Element and the parser read it
        pres = AlgebraPresentation([("x", 1), ("y", 1)],
                                   [((0, 2), [(1, 1), (1, 1)]), ((2, 0), ())])
        y = pres.gen("y")
        assert not (y * y)
        assert pres.rule_text(pres.rules[0]) == "y^2 = 0"
        parsed = parse_presentation("gen x 1\ngen y 1\nrel y^2 = x*y + x*y\nrel x^2 = 0\n")
        assert parsed.rules == pres.rules
        assert_round_trip(pres)
        # written three times, one copy is left
        thrice = AlgebraPresentation([("x", 1), ("y", 1)],
                                     [((0, 2), [(1, 1)] * 3), ((2, 0), ())])
        assert thrice.rules[0].rhs == frozenset([(1, 1)])
        assert thrice.rule_text(thrice.rules[0]) == "y^2 = x*y"
        assert str(thrice.gen("y") * thrice.gen("y")) == "x*y"
        assert_round_trip(thrice)

    def test_a_cancelling_monomial_is_still_checked(self):
        # x^3 written twice would cancel, but it is of another degree than y^2
        with pytest.raises(PresentationError, match="non-homogeneous"):
            AlgebraPresentation([("x", 1), ("y", 2)], [((0, 2), [(3, 0), (3, 0)])])


def raw_monomials_to(pres):
    """Every exponent tuple with each exponent up to its generator's cap + 1
    and degree up to top + 1 (up to 12 in an infinite presentation)."""
    up_to = 12 if pres.top_degree is None else pres.top_degree + 1
    ranges = [range((up_to // g.degree if cap is None else cap + 1) + 1)
              for g, cap in zip(pres.generators, pres._caps)]
    return [m for m in itertools.product(*ranges) if pres.mono_degree(m) <= up_to]


class TestCheckedConstructor:
    """``Element(pres, monos)`` holds the normal form of the sum of ``monos``."""

    def test_every_monomial_is_reduced(self):
        # a product with the unit renormalises, so it is the normal form
        presentations = builtin_presentations()
        assert len(presentations) == 82
        for pres in presentations:
            for mono in raw_monomials_to(pres):
                elem = Element(pres, [mono])
                assert elem == elem * pres.unit(), (pres.name, mono)

    def test_wall_squares(self):
        q13 = wall_presentation(1, 3)
        assert Element(q13, [(2, 0, 0)]) == q13.zero()
        assert Element(q13, [(2, 0, 0)]).degree is None
        assert Element(q13, [(0, 2, 0)]) == q13.gen("x") * q13.gen("c")

    def test_terms_of_two_degrees_are_refused_after_reduction(self):
        # x^2 reduces to 0, so x^2 + c is c; x + d keeps two degrees
        q13 = wall_presentation(1, 3)
        assert Element(q13, [(2, 0, 0), (0, 1, 0)]) == q13.gen("c")
        with pytest.raises(ValueError, match="^element terms must share a single degree$"):
            Element(q13, [(1, 0, 0), (0, 0, 1)])


def groebner_basis(pres):
    """sympy's reduced Groebner basis over GF(2), in grevlex, of the ideal
    that the rules of ``pres`` generate, and the map from an exponent tuple
    to its sympy monomial.

    Over GF(2) graded-commutative means commutative, so the algebra is
    F2[gens]/(rules).
    """
    syms = sympy.symbols(f"g0:{len(pres.generators)}")

    def monomial(mono):
        return sympy.Mul(*(sym ** e for sym, e in zip(syms, mono)))

    polys = [sympy.Add(monomial(rule.lhs), *map(monomial, rule.rhs)) for rule in pres.rules]
    return sympy.groebner(polys, *syms, modulus=2, order="grevlex"), monomial


def groebner_series(pres, up_to):
    """Reference for ``poincare_series(up_to)`` from sympy's reduced Groebner
    basis over GF(2), without the rewrite system.

    The ideal is homogeneous for the weighted grading, so its Groebner basis
    is too, in any monomial order, and the standard monomials (those no
    leading monomial divides) of weighted degree q are a basis of A_q.  The
    reference holds for a confluent presentation only.
    """
    basis, _ = groebner_basis(pres)
    leading = [poly.monoms(order="grevlex")[0] for poly in basis.polys]
    degrees = [g.degree for g in pres.generators]
    series = [0] * (up_to + 1)
    for mono in itertools.product(*(range(up_to // d + 1) for d in degrees)):
        q = sum(map(operator.mul, mono, degrees))
        if q <= up_to and not any(all(map(operator.ge, mono, lead)) for lead in leading):
            series[q] += 1
    return series


def assert_series_matches_groebner(pres):
    top = pres.top_degree
    series = groebner_series(pres, top + 2)
    assert series == pres.poincare_series(top + 2), pres.name
    assert max(q for q, dim in enumerate(series) if dim) == top, pres.name


class TestGroebnerOracle:
    """The engine's Poincare series and top degree against sympy's (ROADMAP P)."""

    @pytest.mark.parametrize(
        "pres",
        [wall_presentation(m, n) for m in range(6) for n in range(10)]
        + [dold_presentation(m, n) for m in range(5) for n in range(4)] + spheres(),
        ids=lambda pres: pres.name)
    def test_builtin_presentations(self, pres):
        assert_series_matches_groebner(pres)

    @given(monomial_presentations().filter(lambda p: p.top_degree <= 12))
    @settings(max_examples=60, deadline=None)
    def test_monomial_presentations(self, pres):
        assert_series_matches_groebner(pres)


def basis_monomials(pres):
    """Every basis monomial of ``pres``, degree by degree."""
    return [mono for q in range(pres.top_degree + 1) for mono in pres.degree_basis(q)]


def assert_products_congruent(pres, pairs):
    """The engine's product of each pair (a, b) of basis monomials is
    congruent to a*b: their sum lies in the ideal.  Remainders are not
    compared, because the engine's weighted deglex order is none of sympy's
    orders, so the two normal forms may differ."""
    basis, monomial = groebner_basis(pres)
    for a, b in pairs:
        product = Element(pres, [a]) * Element(pres, [b])
        assert basis.contains(
            sympy.Add(monomial(_mono_mul(a, b)), *map(monomial, product.terms))), (
            pres.name, a, b, str(product))


class TestGroebnerNormalForm:
    """Products of basis monomials against sympy's ideal membership (ROADMAP P)."""

    @pytest.mark.parametrize(
        "pres", [wall_presentation(m, n) for m in range(4) for n in range(6)],
        ids=lambda pres: pres.name)
    def test_wall_products(self, pres):
        monos = basis_monomials(pres)
        rng = random.Random(pres.name)
        assert_products_congruent(pres, [(rng.choice(monos), rng.choice(monos))
                                         for _ in range(20)])

    @given(monomial_presentations().filter(lambda p: p.top_degree <= 12), st.data())
    @settings(max_examples=30, deadline=None)
    def test_monomial_presentations(self, pres, data):
        monos = st.sampled_from(basis_monomials(pres))
        assert_products_congruent(pres, data.draw(st.lists(st.tuples(monos, monos),
                                                           min_size=1, max_size=10)))
