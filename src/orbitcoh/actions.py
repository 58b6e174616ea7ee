"""Classification of induced involutions on a finite cohomology ring.

A candidate action carries its presentation and one image per generator, of
the generator's degree (``EndoCandidate``), so each filter takes the
candidate alone.  Candidates are filtered cheapest-first: ring-homomorphism
and bijectivity constraints, then involutivity, then Bredon's fixed-point
obstruction (if the top degree is 2l and T is the identity in degree 2l, a
class ``a`` of degree l with ``a * T(a) != 0`` forces a fixed point, so no
*free* involution can induce the action).  ``classify(pres)`` runs them on
every candidate of a finite presentation, and ``classify_free_actions`` is its
Wall wrapper.

The ring check is shared across a presentation's candidates: a relation's
verdict depends only on the images of the generators it reads, so it is
computed once per presentation and per set of those images.

A surviving candidate is only "not eliminated": no implemented obstruction
kills it.  Realization by an actual free involution is outside the reach of
these cohomological filters.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass

from . import gf2, wall
from .algebra import AlgebraPresentation, Element, wall_presentation


class ObstructionInapplicable(ValueError):
    """Preconditions of the fixed-point obstruction fail for this input."""


@dataclass(frozen=True)
class EndoCandidate:
    """One image per generator of ``pres``, in generator order.

    Checked when built (``ValueError``): one image per generator, each an
    element of ``pres`` that is zero or has its generator's degree.  Names
    are read from ``pres``."""

    pres: AlgebraPresentation
    targets: tuple[Element, ...]

    def __post_init__(self):
        gens = self.pres.generators
        if len(self.targets) != len(gens):
            raise ValueError(f"{len(self.targets)} images for {len(gens)} generators")
        for g, img in zip(gens, self.targets):
            if not isinstance(img, Element) or img.algebra is not self.pres:
                raise ValueError(f"the image of {g.name} is not an element of the presentation")
            if img and img.degree != g.degree:
                raise ValueError(f"the image of {g.name} has degree {img.degree}, not {g.degree}")

    @property
    def images(self) -> tuple[tuple[str, Element], ...]:
        """``(name, image)`` per generator, in generator order."""
        return tuple(zip(self.pres.gen_index, self.targets))

    def image(self, name: str) -> Element:
        return self.targets[self.pres.gen_index[name]]

    def describe(self) -> str:
        return ", ".join(f"{name} -> {elem}" for name, elem in self.images)


@dataclass(frozen=True)
class ObstructionWitness:
    middle_class: Element
    product: Element


@dataclass(frozen=True)
class CandidateRecord:
    candidate: EndoCandidate
    stage: str | None                # filter that eliminated the candidate; None survives
    reason: str | None
    witness: ObstructionWitness | None
    trivial_in_degrees_ge_2: bool | None

    @property
    def status(self) -> str:
        return "survives" if self.stage is None else "eliminated"


@dataclass(frozen=True)
class ActionReport:
    m: int
    n: int
    presentation: AlgebraPresentation
    records: tuple[CandidateRecord, ...]

    def survivors(self) -> tuple[CandidateRecord, ...]:
        return tuple(r for r in self.records if r.stage is None)

    @property
    def unresolved(self) -> tuple[CandidateRecord, ...]:
        """Survivors other than the identity and the c -> c + x twist
        (``wall.is_identity_or_twist``): the undecided cases."""
        return tuple(r for r in self.survivors() if not wall.is_identity_or_twist(r.candidate))

    @property
    def classification_complete(self) -> bool:
        """True when no survivor is undecided."""
        return not self.unresolved


def enumerate_candidates(pres: AlgebraPresentation) -> list[EndoCandidate]:
    """Every choice of one image per generator: a nonzero element of its
    degree, or 0 alone where the generator is zero in the algebra (c in
    Dold's P(0, n)), since T(0) = 0."""
    if pres.top_degree is None:
        raise ValueError("candidate enumeration needs a finite algebra")
    pools = [pres.nonzero_elements(g.degree) if pres.gen(g.name) else [pres.zero()]
             for g in pres.generators]
    return [EndoCandidate(pres, targets) for targets in itertools.product(*pools)]


def apply_candidate(cand: EndoCandidate, elem_or_mono) -> Element:
    """Image of an element (or a raw monomial) under the candidate map.

    A raw monomial needs one integer exponent >= 0 per generator
    (``AlgebraPresentation.check_mono``), and an element must belong to
    ``cand.pres``."""
    pres = cand.pres
    if isinstance(elem_or_mono, Element):
        if elem_or_mono.algebra is not pres:
            raise ValueError("elements belong to different presentations")
        monos = elem_or_mono.terms
    else:
        monos = [pres.check_mono(elem_or_mono)]
    total = pres.zero()
    for mono in monos:
        term = pres.unit()
        for img, e in zip(cand.targets, mono):
            if e:
                term = term * img ** e
        total = total + term
    return total


# Relation verdicts by presentation, shared by every candidate on it.  A key
# is a rule's index and the image terms of the generators the rule reads; the
# value is None when the relation holds, else the reason text.  Neither holds
# an Element: an element holds its presentation, which would keep the weak key
# alive for good.
_RELATION_VERDICTS = weakref.WeakKeyDictionary()


def is_ring_endomorphism(cand: EndoCandidate) -> tuple[bool, str | None]:
    """True when every relation maps to zero and the map is bijective.

    Each relation's verdict is computed once per presentation and per set of
    images of the generators the relation reads, those with a nonzero
    exponent in its left side or in a right-hand monomial, and then shared
    by every candidate that gives them the same images.  This is sound
    because ``apply_candidate`` multiplies only the images of exponents > 0,
    so T(lhs) and T(rhs) depend on those generators alone, and a
    presentation does not change.

    Bijectivity is checked only in the generator degrees, in increasing
    order (graded Nakayama lemma): A_q is spanned by the generators of
    degree q and the products A_i * A_(q-i).  If T is bijective below q,
    those products lie in T(A), so a degree with no generator cannot be the
    first to fail; a surjective endomorphism of a finite-dimensional space
    is bijective.  The degree reported is the smallest where T fails.
    """
    pres = cand.pres
    verdicts = _RELATION_VERDICTS.get(pres)
    if verdicts is None:
        verdicts = _RELATION_VERDICTS[pres] = {}
    for i, rule in enumerate(pres.rules):
        reads = (any(exps) for exps in zip(rule.lhs, *rule.rhs))
        key = (i, *(img.terms for img, read in zip(cand.targets, reads) if read))
        if key not in verdicts:
            rhs = Element(pres, rule.rhs)
            lhs_img = apply_candidate(cand, rule.lhs)
            rhs_img = apply_candidate(cand, rhs)
            verdicts[key] = None if lhs_img == rhs_img else (
                f"relation {pres.mono_str(rule.lhs)} = {rhs} maps to {lhs_img} != {rhs_img}")
        reason = verdicts[key]
        if reason is not None:
            return False, reason
    for q in sorted({g.degree for g in pres.generators}):
        basis = pres.degree_basis(q)
        cols = [pres.to_vector(apply_candidate(cand, m), q) for m in basis]
        if gf2.rank(cols) < len(basis):
            return False, f"not bijective in degree {q}"
    return True, None


def is_involutive(cand: EndoCandidate) -> bool:
    """True when the candidate composed with itself fixes every generator."""
    return all(apply_candidate(cand, img) == cand.pres.gen(name)
               for name, img in cand.images)


def _fixes_degree(cand: EndoCandidate, q: int) -> bool:
    """True when the candidate fixes every basis monomial of degree ``q``."""
    return all(apply_candidate(cand, mono) == cand.pres.element([mono])
               for mono in cand.pres.degree_basis(q))


def bredon_obstruction(cand: EndoCandidate) -> ObstructionWitness | None:
    """Search degree-l classes ``a`` with ``a * T(a) != 0`` under Bredon's
    hypotheses: the top degree is even, 2l, and T is the identity in degree 2l.
    A witness certifies that the candidate cannot come from a free involution."""
    pres = cand.pres
    top = pres.top_degree
    if top is None:
        raise ObstructionInapplicable("the algebra is not finite-dimensional")
    if top % 2:
        raise ObstructionInapplicable(f"top degree {top} is odd")
    if not _fixes_degree(cand, top):
        raise ObstructionInapplicable(f"candidate is not the identity in degree {top}")
    for a in pres.nonzero_elements(top // 2):
        product = a * apply_candidate(cand, a)
        if product:
            return ObstructionWitness(a, product)
    return None


def is_trivial_in_degrees_ge_2(cand: EndoCandidate) -> bool:
    """True when the candidate fixes every basis monomial of degree >= 2.

    Only the degrees 2..D+2 are checked, D the largest generator degree;
    the algebra need not be finite.  Suppose T fixes those degrees and m is
    a basis monomial with deg m >= D + 3.  Peel generators off m until
    their product a has degree >= 2: then 2 <= deg a <= D + 1, since the
    last generator added has degree <= D, and deg(m/a) >= 2.  A divisor of
    a normal-form monomial is in normal form, so a and m/a are basis
    monomials, and ``apply_candidate`` is multiplicative on exponent vectors
    (multiplication is well defined because the rewrite system is
    confluent).  By induction on the degree, T(m) = T(a)·T(m/a) =
    a·(m/a) = m.  T need not map the relations to zero.
    """
    pres = cand.pres
    bound = max((g.degree for g in pres.generators), default=0) + 2
    if pres.top_degree is not None:
        bound = min(bound, pres.top_degree)
    return all(_fixes_degree(cand, q) for q in range(2, bound + 1))


def _record(cand: EndoCandidate) -> CandidateRecord:
    """Run the filters cheapest-first and record the first that eliminates ``cand``."""
    ok, reason = is_ring_endomorphism(cand)
    if not ok:
        return CandidateRecord(cand, "ring_endomorphism", reason, None, None)
    if not is_involutive(cand):
        return CandidateRecord(cand, "involutivity",
                               "composed with itself, the map is not the identity", None, None)
    try:
        witness = bredon_obstruction(cand)
    except ObstructionInapplicable as exc:
        reason = f"fixed-point obstruction inapplicable: {exc}"
    else:
        if witness is not None:
            return CandidateRecord(
                cand, "fixed_point_obstruction",
                f"a = {witness.middle_class} has a * T(a) = {witness.product} != 0",
                witness, None)
        reason = "no obstruction found (not eliminated)"
    return CandidateRecord(cand, None, reason, None, is_trivial_in_degrees_ge_2(cand))


def classify(pres: AlgebraPresentation) -> tuple[CandidateRecord, ...]:
    """One record per candidate action on a finite presentation, in
    ``enumerate_candidates`` order."""
    return tuple(_record(cand) for cand in enumerate_candidates(pres))


def classify_free_actions(m: int, n: int) -> ActionReport:
    """Filter all candidate actions on H*(Q(m, n)) for odd ``n``.

    The odd-n restriction matches the regime where Q(m, n) bounds and can
    carry a free involution at all.
    """
    if n % 2 == 0:
        raise ValueError("classification requires odd n")
    pres = wall_presentation(m, n)
    return ActionReport(m, n, pres, classify(pres))
