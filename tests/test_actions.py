import collections
import dataclasses
import difflib
import functools
import gc
import hashlib
import itertools
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitcoh import actions, gf2
from orbitcoh.actions import (
    CandidateRecord,
    EndoCandidate,
    ObstructionInapplicable,
    ObstructionWitness,
    apply_candidate,
    bredon_obstruction,
    classify,
    classify_free_actions,
    enumerate_candidates,
    is_involutive,
    is_ring_endomorphism,
    is_trivial_in_degrees_ge_2,
)
from orbitcoh.actions import _record
from orbitcoh.algebra import (
    AlgebraPresentation,
    Element,
    PresentationError,
    dold_presentation,
    parse_presentation,
    wall_presentation,
)
from orbitcoh.wall import is_identity_or_twist


def candidate(pres, **images):
    return EndoCandidate(pres, tuple(pres.parse_element(images[g.name])
                                     for g in pres.generators))


def every_degree_ring_check(cand):
    """Reference: the relation check, then a rank check in every degree 1..top."""
    pres = cand.pres
    for rule in pres.rules:
        lhs_img = apply_candidate(cand, rule.lhs)
        rhs_img = pres.zero()
        for mono in rule.rhs:     # as written: a reduced side can read other generators
            rhs_img = rhs_img + apply_candidate(cand, mono)
        if lhs_img != rhs_img:
            return False, f"relation {pres.rule_text(rule)} maps to {lhs_img} != {rhs_img}"
    for q in range(1, pres.top_degree + 1):
        basis = pres.degree_basis(q)
        if not basis:
            continue
        cols = [pres.to_vector(apply_candidate(cand, m), q) for m in basis]
        if gf2.rank(cols) < len(basis):
            return False, f"not bijective in degree {q}"
    return True, None


def fixes_degree(cand, q):
    """Reference: the candidate fixes every basis monomial of degree ``q``."""
    return all(apply_candidate(cand, mono) == Element(cand.pres, [mono])
               for mono in cand.pres.degree_basis(q))


def every_degree_triviality(cand):
    """Reference: the candidate fixes every basis monomial of every degree
    2..top."""
    return all(fixes_degree(cand, q) for q in range(2, cand.pres.top_degree + 1))


def any_candidate(pres, data):
    """A candidate whose generator images are any element of the right
    degree, zero included."""
    return EndoCandidate(pres, tuple(
        data.draw(st.sampled_from([pres.zero()] + pres.nonzero_elements(g.degree)))
        for g in pres.generators))


def bredon_at_degree(cand, l):
    """Reference: the fixed-point obstruction searched in a degree ``l`` chosen
    by the caller, refused when the algebra does not vanish above 2l or the
    candidate moves degree 2l."""
    pres = cand.pres
    top = pres.top_degree
    if top is None or top > 2 * l:
        raise ObstructionInapplicable(
            f"cohomology does not vanish above degree {2 * l}")
    if not fixes_degree(cand, 2 * l):
        raise ObstructionInapplicable(
            f"candidate is not the identity in degree {2 * l}")
    for a in pres.nonzero_elements(l):
        product = a * apply_candidate(cand, a)
        if product:
            return ObstructionWitness(a, product)
    return None


def bredon_outcome(search, *args):
    """The witness as strings, or the refusal message."""
    try:
        witness = search(*args)
    except ObstructionInapplicable as exc:
        return f"inapplicable: {exc}"
    return witness and (str(witness.middle_class), str(witness.product))


@st.composite
def monomial_presentations(draw):
    """2-3 generators of degree 1-3 with pure-power caps 1-4 and optionally
    one mixed rule g_i*g_j = 0; monomial rules are always confluent."""
    k = draw(st.integers(2, 3))
    degrees = draw(st.lists(st.integers(1, 3), min_size=k, max_size=k))
    caps = draw(st.lists(st.integers(1, 4), min_size=k, max_size=k))
    rules = [(tuple(cap if j == i else 0 for j in range(k)), ())
             for i, cap in enumerate(caps)]
    if draw(st.booleans()):
        pair = draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2, unique=True))
        rules.append((tuple(int(j in pair) for j in range(k)), ()))
    pres = AlgebraPresentation(list(zip("xyz", degrees)), rules)
    assert pres.check_confluence() is None
    return pres


def renamed(pres, names):
    """``pres`` again with its generators renamed to ``names``, in the same
    order and with the same rules."""
    return AlgebraPresentation([(name, g.degree) for name, g in zip(names, pres.generators)],
                               [(rule.lhs, rule.rhs) for rule in pres.rules],
                               name=f"{pres.name} as {''.join(names)}")


def decomposable_generators():
    """Presentations with a generator that is no basis monomial: its normal
    form is a product, or another generator plus a product, so its relation
    pins its image in terms of the others."""
    texts = {
        "d=c^2": "gen c 1\ngen d 2\nrel d = c^2\nrel c^5 = 0\n",
        "d=a*b": ("gen a 1\ngen b 1\ngen d 2\ngen e 2\n"
                  "rel d = a*b\nrel a^2 = 0\nrel b^2 = 0\nrel e^2 = 0\n"),
        "e=a*b+d": ("gen a 1\ngen b 1\ngen d 2\ngen e 2\n"
                    "rel e = a*b + d\nrel a^2 = 0\nrel b^2 = 0\nrel d^2 = 0\n"),
        "d=a*b_in_degree_3": ("gen a 1\ngen b 2\ngen d 3\ngen e 3\n"
                              "rel d = a*b\nrel a^2 = 0\nrel b^2 = 0\nrel e^2 = 0\n"),
    }
    return [parse_presentation(text, name) for name, text in texts.items()]


def reducible_right_side():
    """A confluent presentation whose first rule ``b^2 = a*b`` has a right
    side that another rule reduces further, to e^2; series [1, 3, 4, 1]."""
    return parse_presentation(
        "gen e 1\ngen a 1\ngen b 1\nrel b^2 = a*b\nrel a*b = e^2\nrel e^3 = 0\n"
        "rel a^3 = 0\nrel b^3 = 0\nrel e^2*b = e^2*a\nrel e^2*a = 0\n", "P")


def rules_reversed(pres):
    """``pres`` again with its rules listed in reverse order."""
    return AlgebraPresentation(pres.generators,
                               [(rule.lhs, rule.rhs) for rule in reversed(pres.rules)],
                               name=f"{pres.name} with rules reversed")


def assert_images_agree(cand):
    """``images``, ``describe()``, ``image(g)`` and ``apply_candidate`` read
    the same image for every generator g."""
    pres = cand.pres
    for g, target in zip(pres.generators, cand.targets):
        img = cand.image(g.name)
        assert img is target
        assert apply_candidate(cand, pres.gen_mono(g.name)) == img
        # a rule such as Q(0, n)'s c = x, or g^1 = 0, rewrites the element g,
        # and the candidate maps what g is rewritten to
        if pres.gen(g.name).terms == {pres.gen_mono(g.name)}:
            assert apply_candidate(cand, pres.gen(g.name)) == img
    assert cand.images == tuple((g.name, cand.image(g.name)) for g in pres.generators)
    assert cand.describe() == ", ".join(f"{g.name} -> {cand.image(g.name)}"
                                        for g in pres.generators)


class TestEnumeration:
    def test_raw_count_q1n(self):
        q13 = wall_presentation(1, 3)
        cands = enumerate_candidates(q13)
        # three nonzero choices per generator in degrees 1, 1 and 2
        assert len(cands) == 27

    def test_degree_one_images(self):
        q13 = wall_presentation(1, 3)
        images_of_x = {str(c.image("x")) for c in enumerate_candidates(q13)}
        assert images_of_x == {"x", "c", "c + x"}

    def test_degree_two_images(self):
        q13 = wall_presentation(1, 3)
        images_of_d = {str(c.image("d")) for c in enumerate_candidates(q13)}
        assert images_of_d == {"d", "x*c", "d + x*c"}

    def test_identity_present(self):
        q13 = wall_presentation(1, 3)
        ident = candidate(q13, x="x", c="c", d="d")
        assert ident in enumerate_candidates(q13)

    def test_a_zero_generator_has_the_one_image_zero(self):
        # Dold's P(0, 2) is H*(CP^2): c^1 = 0, so T(c) = T(0) = 0 is forced.
        # chi(CP^2) = 3 is odd, so no free involution induces even the
        # identity, and Bredon's obstruction finds a = d.
        cp2 = dold_presentation(0, 2)
        [record] = classify(cp2)
        assert record.candidate == candidate(cp2, c="c", d="d")
        assert record.candidate.describe() == "c -> 0, d -> d"
        assert (record.stage, str(bredon_obstruction(record.candidate).middle_class)) == (
            "fixed_point_obstruction", "d")

    def test_a_zero_generator_keeps_the_identity_of_cp3(self):
        # CP^3 carries a free involution, and H^3 = 0 leaves Bredon's
        # obstruction no class to try
        cp3 = dold_presentation(0, 3)
        [record] = classify(cp3)
        assert record.candidate == candidate(cp3, c="c", d="d")
        assert (record.stage, record.reason) == (None, "no obstruction found (not eliminated)")

    def test_no_actions_grid_generator_is_zero(self):
        # so the zero generator's one image changes no candidate there, and
        # the actions_grid records (pinned below) stay as they were
        for m, n in ACTIONS_GRID_PAIRS:
            pres = wall_presentation(m, n)
            assert all(pres.gen(g.name) for g in pres.generators), (m, n)
            nonzero = [pres.nonzero_elements(g.degree) for g in pres.generators]
            assert enumerate_candidates(pres) == [
                EndoCandidate(pres, images) for images in itertools.product(*nonzero)]


class TestCandidate:
    """A candidate is its presentation and one image per generator, in
    generator order, checked when built."""

    q13 = wall_presentation(1, 3)

    def test_stores_presentation_and_images_only(self):
        assert [f.name for f in dataclasses.fields(EndoCandidate)] == ["pres", "targets"]
        cand = candidate(self.q13, x="x", c="c + x", d="d")
        assert cand.images == tuple(zip("xcd", cand.targets))
        with pytest.raises(KeyError):
            cand.image("u")

    def test_refuses_wrong_number_of_images(self):
        x, c, d = map(self.q13.parse_element, ("x", "c", "d"))
        with pytest.raises(ValueError, match="^2 images for 3 generators$"):
            EndoCandidate(self.q13, (x, c + x))
        with pytest.raises(ValueError, match="^4 images for 3 generators$"):
            EndoCandidate(self.q13, (x, c, d, d))

    def test_refuses_image_of_another_presentation(self):
        x, c, d = map(self.q13.parse_element, ("x", "c", "d"))
        q23 = wall_presentation(2, 3)
        with pytest.raises(ValueError,
                           match="^the image of c is not an element of the presentation$"):
            EndoCandidate(self.q13, (x, q23.parse_element("c"), d))
        with pytest.raises(ValueError, match="^the image of x is not an element"):
            EndoCandidate(self.q13, ("x", c, d))

    @pytest.mark.parametrize("images, message", [
        (("x*c", "c", "d"), "the image of x has degree 2, not 1"),
        (("x", "c", "x"), "the image of d has degree 1, not 2"),
        (("x", "c", "1"), "the image of d has degree 0, not 2"),
    ])
    def test_refuses_image_of_another_degree(self, images, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            EndoCandidate(self.q13, tuple(map(self.q13.parse_element, images)))

    def test_an_image_made_from_an_unreduced_monomial(self):
        # c^2 = x*c in Q(1, 3): d -> d + c^2 is d -> d + x*c, and gets its
        # record (once a KeyError on the term c^2 in the ring check)
        d = self.q13.gen("d")
        built = EndoCandidate(self.q13, (self.q13.gen("x"), self.q13.gen("c"),
                                         d + Element(self.q13, [(0, 2, 0)])))
        assert built.describe() == "x -> x, c -> c, d -> d + x*c"
        assert _record(built) == _record(candidate(self.q13, x="x", c="c", d="d + x*c"))

    def test_zero_image_is_allowed(self):
        cand = candidate(self.q13, x="x", c="0", d="d")
        assert cand.describe() == "x -> x, c -> 0, d -> d"
        assert is_ring_endomorphism(cand) == (False, "not bijective in degree 1")

    @pytest.mark.parametrize("m", range(4))
    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_images_agree_on_every_enumerated_candidate(self, m, n):
        for cand in enumerate_candidates(wall_presentation(m, n)):
            assert_images_agree(cand)

    @given(monomial_presentations().filter(lambda p: p.top_degree <= 12), st.data())
    @settings(max_examples=40, deadline=None)
    def test_images_agree_on_random_presentations(self, pres, data):
        for _ in range(5):
            assert_images_agree(any_candidate(pres, data))


class TestApplyCandidate:
    def test_raw_monomial(self):
        q13 = wall_presentation(1, 3)
        cand = candidate(q13, x="x", c="c + x", d="d")
        assert apply_candidate(cand, (0, 1, 1)) == q13.parse_element("c*d + x*d")

    # a float exponent is refused here, not passed on to Element.__pow__
    @pytest.mark.parametrize("mono", [(0, 0, 1, 5), (1,), (), (0, -1, 1),
                                      (1.5, 0, 0), (0, 1.0, 1), (0, 0, "1")])
    def test_rejects_malformed_raw_monomial(self, mono):
        q13 = wall_presentation(1, 3)
        cand = candidate(q13, x="x", c="c", d="d")
        with pytest.raises(PresentationError, match="needs 3 exponents >= 0"):
            apply_candidate(cand, mono)

    def test_rejects_element_of_another_presentation(self):
        # the identity of Q(1, 3) would rewrite Q(2, 3)'s c^2 to x*c
        q13, q23 = wall_presentation(1, 3), wall_presentation(2, 3)
        cand = candidate(q13, x="x", c="c", d="d")
        with pytest.raises(ValueError, match="different presentations"):
            apply_candidate(cand, q23.parse_element("c^2"))


class TestRingEndomorphism:
    def test_x_to_c_violates_square_relation(self):
        q13 = wall_presentation(1, 3)
        cand = candidate(q13, x="c", c="c", d="d")
        ok, reason = is_ring_endomorphism(cand)
        assert not ok
        assert "x^2" in reason

    def test_identity_passes(self):
        q13 = wall_presentation(1, 3)
        ok, reason = is_ring_endomorphism(candidate(q13, x="x", c="c", d="d"))
        assert ok and reason is None

    def test_d_to_xc_not_bijective(self):
        q15 = wall_presentation(1, 5)
        cand = candidate(q15, x="x", c="c", d="x*c")
        ok, reason = is_ring_endomorphism(cand)
        assert not ok
        assert reason == "not bijective in degree 2"

    def test_c_twist_passes(self):
        q15 = wall_presentation(1, 5)
        ok, _ = is_ring_endomorphism(candidate(q15, x="x", c="c + x", d="d"))
        assert ok

    def test_even_m_rejects_c_twist(self):
        q23 = wall_presentation(2, 3)
        cand = candidate(q23, x="x", c="c + x", d="d")
        ok, reason = is_ring_endomorphism(cand)
        assert not ok
        assert "c^3" in reason

    @given(monomial_presentations().filter(lambda p: p.top_degree <= 12), st.data())
    @settings(max_examples=80, deadline=None)
    def test_generator_degrees_match_every_degree_on_random_presentations(self, pres, data):
        for _ in range(10):
            cand = any_candidate(pres, data)
            assert is_ring_endomorphism(cand) == every_degree_ring_check(cand)

    @pytest.mark.parametrize(
        "pres",
        [wall_presentation(m, n) for m in range(4) for n in range(6)]
        + [dold_presentation(m, n) for m in range(4) for n in range(4)]
        + decomposable_generators(),
        ids=lambda pres: pres.name)
    def test_generator_degrees_match_every_degree_exhaustively(self, pres):
        for cand in enumerate_candidates(pres):
            assert is_ring_endomorphism(cand) == every_degree_ring_check(cand)

    def test_decomposable_generators_reach_every_reason(self):
        # each presentation of decomposable_generators() rewrites a generator
        # into a product, and together they fail in the degrees of those
        # generators, not only in degree 1
        reasons = set()
        for pres in decomposable_generators():
            assert any(pres.gen(g.name).terms != {pres.gen_mono(g.name)}
                       for g in pres.generators), pres.name
            for cand in enumerate_candidates(pres):
                reason = is_ring_endomorphism(cand)[1]
                reasons.add(reason if reason is None or reason.startswith("not")
                            else "relation")
        assert reasons == {None, "relation", "not bijective in degree 1",
                           "not bijective in degree 2", "not bijective in degree 3"}


class TestSharedRelationVerdicts:
    """``is_ring_endomorphism`` computes a relation's verdict once per
    presentation and per set of images of the generators the relation reads."""

    @pytest.mark.parametrize("reverse", [False, True], ids=["rules", "rules_reversed"])
    @pytest.mark.parametrize(
        "build, m, n",
        [(wall_presentation, m, n) for m in range(4) for n in (1, 3, 5)]
        + [(dold_presentation, m, n) for m in range(4) for n in range(4)],
        ids=lambda arg: getattr(arg, "__name__", str(arg)))
    @given(st.data())
    @settings(max_examples=2, deadline=None)
    def test_shared_check_equals_unshared_in_any_order(self, build, m, n, reverse, data):
        pres = build(m, n)      # fresh, so no verdict is shared yet
        if reverse:
            # Wall's c^(m+1) = c^m*x is then asked before x^2 = 0 pins the
            # image of x, which it reads on its right side only
            pres = rules_reversed(pres)
        cands = enumerate_candidates(pres)
        for i in data.draw(st.permutations(range(len(cands)))):
            assert is_ring_endomorphism(cands[i]) == every_degree_ring_check(cands[i])

    def test_table_does_not_keep_the_presentation_alive(self):
        # every field filled: Q(1,3)'s rules x^2 = 0, c^2 = x*c and d^4 = 0
        # read x, then c and x, then d; D_1 = 0, and D_2 is spanned by x*c,
        # basis monomial 0 of degree_basis(2) = (x*c, d)
        report = classify_free_actions(1, 3)
        ref = weakref.ref(report.presentation)
        candidates = enumerate_candidates(report.presentation)
        for cand in candidates:
            is_ring_endomorphism(cand)
        facts = actions._RELATION_VERDICTS[report.presentation]
        assert facts.reads == ((0,), (0, 1), (2,))
        assert facts.degrees == ((1, (0, 1), [], 2), (2, (2,), [0b01], 2))
        assert None in facts.verdicts.values()
        assert any(isinstance(v, str) for v in facts.verdicts.values())
        del report, candidates, cand, facts
        gc.collect()
        assert ref() is None

    def test_decomposables_are_built_once_per_generator_degree(self, monkeypatch):
        # Q(2, 33) has generators of degrees 1, 1 and 2; classifying it
        # twice builds D_1 and D_2 once, and a second copy builds its own
        built = collections.Counter()

        def counting(pres, q, _inner=actions._decomposables):
            built[pres, q] += 1
            return _inner(pres, q)

        monkeypatch.setattr(actions, "_decomposables", counting)
        pres = wall_presentation(2, 33)
        assert built == {}
        for _ in range(2):
            records = classify(pres)
        assert sum(r.reason.startswith("not bijective") for r in records) == 10
        assert built == {(pres, 1): 1, (pres, 2): 1}
        other = wall_presentation(2, 33)
        classify(other)
        assert built == {(pres, 1): 1, (pres, 2): 1, (other, 1): 1, (other, 2): 1}

    def test_each_relation_is_evaluated_once_per_image(self, monkeypatch):
        # on Q(2,33) x^2 = 0 reads x (3 images), c^3 = c^2*x reads c and x,
        # and d^34 = 0 reads d (7 images); only candidates that pass the
        # earlier relations ask the later ones
        evaluated = collections.Counter()

        def counting(cand, elem_or_mono):
            if not isinstance(elem_or_mono, Element):
                evaluated[elem_or_mono] += 1
            return apply_candidate(cand, elem_or_mono)

        pres = wall_presentation(2, 33)
        monkeypatch.setattr(actions, "apply_candidate", counting)
        for cand in enumerate_candidates(pres):
            is_ring_endomorphism(cand)
        assert [evaluated[rule.lhs] for rule in pres.rules] == [3, 3, 7]


class TestRuleReadAsWritten:
    """The relation check applies T to a rule's monomials as written, and keys
    its shared verdict on the generators they read; the reduced right side
    of ``b^2 = a*b`` is e^2, which reads neither a nor b."""

    def test_the_rule_reads_a_and_b_but_reduces_to_e_squared(self):
        pres = reducible_right_side()
        assert pres.check_confluence() is None
        assert pres.poincare_series(4) == [1, 3, 4, 1, 0]
        rule = pres.rules[0]
        assert pres.rule_text(rule) == "b^2 = a*b"
        assert Element(pres, rule.rhs) == pres.parse_element("e^2")
        assert actions._ring_facts(pres).reads[0] == (1, 2)

    def test_records_and_survivors(self):
        pres = reducible_right_side()
        records = classify(pres)
        assert len(records) == 343
        assert [r.candidate.describe() for r in records if r.stage is None] == [
            "e -> e, a -> a, b -> b"]
        for r in records:
            assert is_ring_endomorphism(r.candidate) == every_degree_ring_check(r.candidate)
        # every record's description, stage and reason: reducing a right
        # side before applying T moves records and adds a survivor
        rows = [(r.candidate.describe(), r.stage, r.reason) for r in records]
        digest = hashlib.sha256("\n".join(map(repr, rows)).encode()).hexdigest()[:16]
        assert digest == "702a1fd6ce42a72b"


class TestInvolutive:
    def test_identity(self):
        q13 = wall_presentation(1, 3)
        assert is_involutive(candidate(q13, x="x", c="c", d="d"))

    def test_c_twist_is_involutive(self):
        q13 = wall_presentation(1, 3)
        assert is_involutive(candidate(q13, x="x", c="c + x", d="d"))

    def test_non_involutive_rejected(self):
        # x -> c, c -> x swaps rather than fixes after composing with itself?
        # squaring gives the identity, so build a genuinely non-involutive map
        q13 = wall_presentation(1, 3)
        cand = candidate(q13, x="x", c="c + x", d="d + x*c")
        twice = apply_candidate(cand, cand.image("d"))
        assert is_involutive(cand) == (twice == q13.gen("d"))


def exterior_on_three():
    """E = F2[a, b, e]/(a^2, b^2, e^2), three generators of degree 1."""
    return AlgebraPresentation([("a", 1), ("b", 1), ("e", 1)],
                               [((2, 0, 0), ()), ((0, 2, 0), ()), ((0, 0, 2), ())])


class TestInvolutivityStage:
    # On Wall no candidate dies at involutivity: every ring automorphism found
    # there is an involution.  On E the cycle a -> b -> e -> a is a ring
    # automorphism of order 3.
    def test_three_cycle_dies_at_involutivity(self):
        pres = exterior_on_three()
        cand = candidate(pres, a="b", b="e", e="a")
        assert is_ring_endomorphism(cand) == (True, None)
        record = _record(cand)
        assert (record.stage, record.status) == ("involutivity", "eliminated")
        assert record.reason == "composed with itself, the map is not the identity"

    def test_stage_counts(self):
        records = classify(exterior_on_three())
        assert len(records) == 7 ** 3
        assert collections.Counter((r.stage, r.status) for r in records) == {
            ("ring_endomorphism", "eliminated"): 175,
            ("involutivity", "eliminated"): 146,
            (None, "survives"): 22}


class TestBredonObstruction:
    def test_witness_for_twisted_d_n5(self):
        q15 = wall_presentation(1, 5)
        cand = candidate(q15, x="x", c="c", d="d + x*c")
        witness = bredon_obstruction(cand)
        assert witness is not None
        assert str(witness.middle_class) == "d^3"
        assert str(witness.product) == "x*c*d^5"

    def test_no_witness_for_twisted_d_n3(self):
        # binomial parity: (xc + d)^2 = d^2 when n = 3, so every product dies
        q13 = wall_presentation(1, 3)
        cand = candidate(q13, x="x", c="c", d="d + x*c")
        assert bredon_obstruction(cand) is None

    def test_identity_action_x_class_gives_zero_product(self):
        q13 = wall_presentation(1, 3)
        ident = candidate(q13, x="x", c="c", d="d")
        a = q13.parse_element("x*d")
        assert not (a * apply_candidate(ident, a))

    def test_rejects_odd_top_degree(self):
        q23 = wall_presentation(2, 3)
        ident = candidate(q23, x="x", c="c", d="d")
        with pytest.raises(ObstructionInapplicable, match="^top degree 9 is odd$"):
            bredon_obstruction(ident)

    def test_rejects_infinite_algebra(self):
        poly = AlgebraPresentation([("x", 1)], [])
        with pytest.raises(ObstructionInapplicable, match="not finite-dimensional"):
            bredon_obstruction(candidate(poly, x="x"))

    def test_rejects_when_not_identity_in_degree_2l(self):
        q13 = wall_presentation(1, 3)
        cand = candidate(q13, x="x", c="x", d="d")
        with pytest.raises(ObstructionInapplicable,
                           match="candidate is not the identity in degree 8"):
            bredon_obstruction(cand)

    @pytest.mark.parametrize(
        "pres",
        [wall_presentation(m, n) for m in range(5) for n in range(6)]
        + [dold_presentation(m, n) for m in range(5) for n in range(5)],
        ids=lambda pres: pres.name)
    def test_matches_caller_chosen_degree(self, pres):
        # the top degree decides l: on even top, the reference at l = top/2
        # gives the same answer; on odd top, no degree the reference accepts
        # yields a witness
        top = pres.top_degree
        for cand in enumerate_candidates(pres):
            if not (is_ring_endomorphism(cand)[0] and is_involutive(cand)):
                continue
            if top % 2 == 0:
                assert (bredon_outcome(bredon_obstruction, cand)
                        == bredon_outcome(bredon_at_degree, cand, top // 2))
                continue
            with pytest.raises(ObstructionInapplicable, match=f"^top degree {top} is odd$"):
                bredon_obstruction(cand)
            for l in range(top + 2):
                outcome = bredon_outcome(bredon_at_degree, cand, l)
                assert outcome is None or outcome.startswith("inapplicable"), (l, outcome)


def first_basis_witness(cand):
    """Reference: the first monomial m of ``degree_basis(top/2)`` with
    m*T(m) != 0, as a witness, or None."""
    pres = cand.pres
    for mono in pres.degree_basis(pres.top_degree // 2):
        a = Element(pres, [mono])
        product = a * apply_candidate(cand, a)
        if product:
            return ObstructionWitness(a, product)
    return None


class TestBredonWitnessIsABasisMonomial:
    """The walk's first witness is the first basis monomial with a witness.

    Let T be an involutive ring map that fixes A_top, top = 2l, and let a
    and b have degree l.  Then b*T(a) lies in A_top, so b*T(a) =
    T(b*T(a)) = T(b)*T(T(a)) = T(b)*a.  Hence q(a) = a*T(a) is additive:
    q(a + b) = q(a) + q(b) + b*T(a) + a*T(b), and the two cross terms are
    equal, so they cancel over GF(2).  ``bredon_obstruction`` walks
    ``nonzero_elements(l)``, the bit masks 1, 2, 3, ... over
    ``degree_basis(l)``.  Let M be the first mask with q != 0.  If M had two
    bits or more, it would be the sum of its lowest bit and the rest, two
    smaller masks on which q vanishes, and q(M) would be 0.  So M is one
    bit: the first basis monomial m with m*T(m) != 0.  If there is no such
    m, q vanishes on a basis and so on all of A_l, and the walk finds no
    witness.
    """

    def test_actions_grid_records(self):
        reached = witnesses = 0
        for report in actions_grid_reports():
            for r in report.records:
                if r.stage not in (None, "fixed_point_obstruction") or \
                        r.reason.startswith("fixed-point obstruction inapplicable"):
                    continue    # eliminated earlier, or the walk did not run
                reached += 1
                expected = first_basis_witness(r.candidate)
                where = (report.m, report.n, r.candidate.describe())
                assert bredon_obstruction(r.candidate) == expected, where
                if expected is None:
                    text = None, "no obstruction found (not eliminated)"
                else:
                    text = "fixed_point_obstruction", (
                        f"a = {expected.middle_class} has a * T(a) = {expected.product} != 0")
                assert (r.stage, r.reason) == text, where
                witnesses += expected is not None
        assert (reached, witnesses) == (264, 60)

    @given(monomial_presentations().filter(
        lambda p: p.top_degree <= 12 and p.top_degree % 2 == 0))
    @settings(max_examples=40, deadline=None)
    def test_random_monomial_presentations(self, pres):
        for cand in enumerate_candidates(pres):
            if not (is_ring_endomorphism(cand)[0] and is_involutive(cand)):
                continue
            try:
                witness = bredon_obstruction(cand)
            except ObstructionInapplicable:
                continue
            assert witness == first_basis_witness(cand), cand.describe()


class TestTrivialAboveDegreeOne:
    q13 = wall_presentation(1, 3)

    def test_identity_is_trivial(self):
        ident = candidate(self.q13, x="x", c="c", d="d")
        assert is_trivial_in_degrees_ge_2(ident)

    def test_c_twist_is_not_trivial(self):
        cand = candidate(self.q13, x="x", c="c + x", d="d")
        assert not is_trivial_in_degrees_ge_2(cand)

    def test_d_twist_is_not_trivial(self):
        cand = candidate(self.q13, x="x", c="c", d="d + x*c")
        assert not is_trivial_in_degrees_ge_2(cand)

    def test_c_twist_first_moves_degree_3(self):
        # x(c + x) = xc and d is fixed, but T(cd) = cd + xd: checking degree 2
        # alone would call the twist trivial
        cand = candidate(self.q13, x="x", c="c + x", d="d")
        assert fixes_degree(cand, 2)
        assert not fixes_degree(cand, 3)

    def test_degree_one_generators_first_move_degree_3(self):
        # D = 1 needs every degree up to D + 2: x(y + x) = xy and
        # (y + x)^2 = y^2 fix A_2, but (y + x)^3 = y^3 + x*y^2
        pres = AlgebraPresentation([("x", 1), ("y", 1)], [((2, 0), ()), ((0, 4), ())])
        cand = candidate(pres, x="x", y="y + x")
        assert fixes_degree(cand, 2)
        assert not is_trivial_in_degrees_ge_2(cand)

    def test_infinite_algebra(self):
        poly = AlgebraPresentation([("t", 1), ("u", 2)], [])
        assert poly.top_degree is None
        assert is_trivial_in_degrees_ge_2(candidate(poly, t="t", u="u"))
        assert not is_trivial_in_degrees_ge_2(candidate(poly, t="t", u="u + t^2"))

    def test_point(self):
        assert is_trivial_in_degrees_ge_2(EndoCandidate(AlgebraPresentation([], []), ()))

    @given(monomial_presentations().filter(lambda p: p.top_degree <= 12), st.data())
    @settings(max_examples=80, deadline=None)
    def test_bound_matches_every_degree_on_random_presentations(self, pres, data):
        for _ in range(10):
            cand = any_candidate(pres, data)
            assert is_trivial_in_degrees_ge_2(cand) == every_degree_triviality(cand)

    @pytest.mark.parametrize(
        "pres",
        [wall_presentation(m, n) for m in range(4) for n in range(6)]
        + [dold_presentation(m, n) for m in range(4) for n in range(4)],
        ids=lambda pres: pres.name)
    def test_bound_matches_every_degree_exhaustively(self, pres):
        for cand in enumerate_candidates(pres):
            assert is_trivial_in_degrees_ge_2(cand) == every_degree_triviality(cand)


class TestClassification:
    def test_q15_survivors(self):
        report = classify_free_actions(1, 5)
        survivors = {r.candidate.describe() for r in report.survivors()}
        assert survivors == {
            "x -> x, c -> c, d -> d",
            "x -> x, c -> c + x, d -> d",
        }
        assert all(is_identity_or_twist(r.candidate) for r in report.survivors())

    def test_q15_twisted_d_killed_by_obstruction(self):
        report = classify_free_actions(1, 5)
        twisted = [r for r in report.records
                   if str(r.candidate.image("d")) == "d + x*c"]
        assert twisted and all(r.status == "eliminated" for r in twisted)
        at_obstruction = [r for r in twisted
                         if r.stage == "fixed_point_obstruction"]
        assert len(at_obstruction) == 2
        for r in at_obstruction:
            witness = bredon_obstruction(r.candidate)
            assert str(witness.middle_class) == "d^3"
            assert str(witness.product) == "x*c*d^5"

    def test_q13_twisted_d_not_eliminated(self):
        report = classify_free_actions(1, 3)
        twisted = [r for r in report.records
                   if str(r.candidate.image("d")) == "d + x*c"
                   and str(r.candidate.image("x")) == "x"]
        survivors = [r for r in twisted if r.status == "survives"]
        assert len(survivors) == 2
        assert not any(is_trivial_in_degrees_ge_2(r.candidate) for r in survivors)
        assert not any(is_identity_or_twist(r.candidate) for r in survivors)

    def test_q23_c_twist_eliminated(self):
        report = classify_free_actions(2, 3)
        twisted = [r for r in report.records
                   if str(r.candidate.image("c")) == "c + x"]
        assert twisted
        assert all(r.status == "eliminated" for r in twisted)
        for r in report.survivors():
            assert str(r.candidate.image("c")) == "c"
            assert str(r.candidate.image("x")) == "x"

    @pytest.mark.parametrize("m, n, reason", [
        (1, 3, "no obstruction found (not eliminated)"),
        (2, 3, "fixed-point obstruction inapplicable: top degree 9 is odd"),
    ])
    def test_identity_reason(self, m, n, reason):
        report = classify_free_actions(m, n)
        [ident] = [r for r in report.records
                   if all(str(r.candidate.image(g.name)) == g.name
                          for g in report.presentation.generators)]
        assert (ident.status, ident.reason) == ("survives", reason)

    def test_identity_never_eliminated(self):
        for m, n in [(1, 3), (1, 5), (2, 3), (3, 1)]:
            report = classify_free_actions(m, n)
            ident = [r for r in report.records
                     if all(str(r.candidate.image(g.name)) == g.name
                            for g in report.presentation.generators)]
            assert len(ident) == 1
            assert ident[0].status == "survives"

    def test_survivors_recheck_as_involutive_automorphisms(self):
        report = classify_free_actions(1, 5)
        for r in report.survivors():
            ok, _ = is_ring_endomorphism(r.candidate)
            assert ok
            assert is_involutive(r.candidate)

    @pytest.mark.parametrize("m, n, count, survivors, identity", [
        (1, 2, 27, ["x -> x, c -> c + x, d -> d"],
         ("fixed_point_obstruction", "a = c*d has a * T(a) = x*c*d^2 != 0")),
        (2, 2, 63, ["x -> x, c -> c, d -> d"],
         (None, "fixed-point obstruction inapplicable: top degree 7 is odd")),
        (3, 2, 63, [],
         ("fixed_point_obstruction", "a = c^2*d has a * T(a) = x*c^3*d^2 != 0")),
    ], ids=["Q(1,2)", "Q(2,2)", "Q(3,2)"])
    def test_even_n(self, m, n, count, survivors, identity):
        report = classify_free_actions(m, n)
        assert (report.m, report.n, len(report.records)) == (m, n, count)
        assert [r.candidate.describe() for r in report.survivors()] == survivors
        [ident] = [r for r in report.records
                   if r.candidate.describe() == "x -> x, c -> c, d -> d"]
        assert (ident.stage, ident.reason) == identity

    @pytest.mark.parametrize("m", range(4))
    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_renamed_generators_move_no_record(self, m, n):
        # x, c, d renamed to u, v, w, in the same order (ROADMAP N): the
        # candidates come in the same order and meet the same fate
        expected = [(r.stage, triviality(r)) for r in classify_free_actions(m, n).records]
        uvw = renamed(wall_presentation(m, n), ("u", "v", "w"))
        assert [(r.stage, triviality(r))
                for r in map(_record, enumerate_candidates(uvw))] == expected

    @pytest.mark.parametrize("m", range(4))
    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_classify_gives_the_wall_wrapper_records(self, m, n):
        def rows(records):
            return [(r.candidate.describe(), r.stage, r.reason) for r in records]

        assert rows(classify(wall_presentation(m, n))) == rows(
            classify_free_actions(m, n).records)

    def test_status_is_read_from_stage(self):
        assert [f.name for f in dataclasses.fields(CandidateRecord)] == [
            "candidate", "stage", "reason"]
        report = classify_free_actions(1, 3)
        assert {(r.stage is None, r.status) for r in report.records} == {
            (True, "survives"), (False, "eliminated")}
        assert report.survivors() == tuple(r for r in report.records if r.stage is None)


def triviality(r):
    """The CLI's ``trivial_in_degrees_ge_2`` of a record: checked on a
    survivor, None on a record that was eliminated."""
    return is_trivial_in_degrees_ge_2(r.candidate) if r.stage is None else None


def record_rows(reports):
    """One row per candidate of each ``classify_free_actions`` report: its
    description, status, stage, reason, triviality flag and witness, the
    last two recomputed from the candidate (``triviality`` and
    ``bredon_obstruction``, where the obstruction eliminated it)."""
    for report in reports:
        for r in report.records:
            witness = (bredon_obstruction(r.candidate)
                       if r.stage == "fixed_point_obstruction" else None)
            yield (report.m, report.n, r.candidate.describe(), r.status, r.stage, r.reason,
                   triviality(r), witness and (str(witness.middle_class), str(witness.product)))


# The benchmark's actions_grid pairs: m <= 5, odd n and top degree
# m + 2n + 1 <= 70, where powers such as T(d)^(n+1) reach n + 1 = 35.  They
# are copied, not imported, so the tests do not depend on the benchmark.
ACTIONS_GRID_PAIRS = tuple((m, n) for m in range(6) for n in range(1, 70, 2)
                           if m + 2 * n + 1 <= 70)
SURVIVORS = Path(__file__).parent / "golden" / "actions_grid_survivors.txt"


@functools.cache
def actions_grid_reports():
    """The reports of the actions_grid pairs, classified once per test run
    and shared by the tests that read them."""
    return tuple(classify_free_actions(m, n) for m, n in ACTIONS_GRID_PAIRS)


def survivors_table(reports) -> str:
    """One line per survivor, ``Q(m,n): <images>: <decided|undecided>:
    <reason>``; a survivor is decided when it is the identity or c -> c + x
    (``wall.is_identity_or_twist``)."""
    lines = []
    for report in reports:
        for r in report.survivors():
            kind = "decided" if is_identity_or_twist(r.candidate) else "undecided"
            lines.append(f"Q({report.m},{report.n}): {r.candidate.describe()}: "
                         f"{kind}: {r.reason}\n")
    return "".join(lines)


def test_golden_record_digest():
    # The actions half's counterpart of test_spectral.py's verdict pin: Q(m, n)
    # for m <= 5, odd n and top degree m + 2n + 1 <= 20.  A change that moves
    # a record on purpose updates the pin and lists the moved records in
    # CHANGES.md.
    pairs = [(m, n) for m in range(6) for n in range(1, 20, 2) if m + 2 * n + 1 <= 20]
    rows = list(record_rows(classify_free_actions(m, n) for m, n in pairs))
    assert len(rows) == 1148
    digest = hashlib.sha256("\n".join(map(repr, rows)).encode()).hexdigest()[:16]
    assert digest == "58df12286b032e87"


def test_golden_record_digest_actions_grid():
    # Every field of the 4,634 records of the actions_grid pairs.  A change
    # that moves a record on purpose updates the pin and the survivors'
    # table below, and lists the moved records in CHANGES.md.
    assert len(ACTIONS_GRID_PAIRS) == 100
    rows = list(record_rows(actions_grid_reports()))
    assert len(rows) == 4634
    digest = hashlib.sha256("\n".join(map(repr, rows)).encode()).hexdigest()[:16]
    assert digest == "f55f2c654a9cf02e"


def test_actions_grid_survivor_triviality():
    # the CLI's trivial_in_degrees_ge_2 splits the 337 survivors
    flags = collections.Counter(triviality(r) for report in actions_grid_reports()
                                for r in report.survivors())
    assert flags == {True: 100, False: 237}


def test_actions_grid_survivors_table():
    """The survivors of the actions_grid pairs against the checked-in table,
    so that a moved survivor reads as a diff beside the digest's new hash.

    After a change that moves a survivor on purpose, rewrite the table from
    the repository root with
    ``python -c "import sys; sys.path[:0] = ['src', 'tests']; import test_actions as t; t.SURVIVORS.write_text(t.survivors_table(t.actions_grid_reports()))"``
    """
    got = survivors_table(actions_grid_reports()).splitlines(keepends=True)
    expected = SURVIVORS.read_text().splitlines(keepends=True)
    diff = "".join(difflib.unified_diff(expected, got, str(SURVIVORS.name), "rebuilt"))
    assert not diff, diff
