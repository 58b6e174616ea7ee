"""Finitely presented graded-commutative algebras over GF(2).

An algebra is presented by homogeneous generators and a finite set of
rewrite rules ``lhs -> rhs`` between equal-degree terms.  Coefficients live
in GF(2), so elements are just sets of monomials and graded commutativity
carries no signs.

Monomials are exponent tuples aligned with the generator list.  The
monomial order is degree-lexicographic: compare total degree first, then
exponents with the *last listed* generator most significant.  Listing a
generator earlier therefore makes it smaller; for the Wall presentation
``x`` precedes ``c`` precisely so that ``c^(m+1) -> c^m * x`` rewrites
downward.  Every rule must strictly decrease this order, which makes
rewriting terminate.  Arithmetic assumes confluence, which
``check_confluence()`` certifies.

Homogeneity is checked where outside input enters: every rule when the
presentation is built, and an element made by ``Element(algebra, monos)``,
the one checked constructor: each monomial is one integer exponent >= 0 per
generator (``check_mono``, which raises ``PresentationError``), the element
holds the normal form of their GF(2) sum, so elements compare by their
terms, and terms of two degrees are refused.  A rule's sides are read as
written (``rule_text``).  An operand of ``+`` or ``*`` that is not an
``Element`` is a ``TypeError``.
Arithmetic needs no check, because the rules are homogeneous: rewriting
keeps a monomial's degree, so a product of elements of degrees i and j
has degree i + j, a Frobenius square 2i, and a sum the common degree of
its two summands.  Each element carries its degree, and arithmetic builds
its results through ``_element`` with the degree worked out, not rescanned.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from operator import index, mul

Mono = tuple[int, ...]

_NAME_RE = re.compile(r"[^\W\d]\w*")     # a generator name, as monomials spell it
_FACTOR_RE = re.compile(rf"({_NAME_RE.pattern})(?:\^(\d+))?$", re.UNICODE)


class PresentationError(ValueError):
    """Malformed generators, rules, or element syntax."""


def _integers(values) -> tuple[int, ...] | None:
    """``values`` as ints by ``operator.index``, or None if one is not an
    integer: a float or a numeric string is refused, never truncated."""
    try:
        return tuple(map(index, values))
    except TypeError:
        return None


def _check_generator(name: str, degree: int, taken) -> None:
    """Refuse a name that monomials cannot spell or that ``taken`` holds, and
    a degree below 1, so that every presentation formats to text that parses."""
    if not _NAME_RE.fullmatch(name):
        raise PresentationError(f"bad generator name {name!r}")
    if name in taken:
        raise PresentationError(f"generator {name} is declared twice")
    if degree < 1:
        raise PresentationError(f"generator {name} must have degree >= 1")


@dataclass(frozen=True)
class Generator:
    name: str
    degree: int


@dataclass(frozen=True)
class RewriteRule:
    lhs: Mono
    rhs: frozenset[Mono]


@dataclass(frozen=True)
class ConfluenceFailure:
    """A non-joinable critical pair: the two normal forms disagree."""

    overlap: Mono
    first: frozenset[Mono]
    second: frozenset[Mono]
    rule_indices: tuple[int, int]


def _mono_mul(a: Mono, b: Mono) -> Mono:
    return tuple(x + y for x, y in zip(a, b))


def _mono_divides(a: Mono, b: Mono) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _mono_div(a: Mono, b: Mono) -> Mono:
    return tuple(x - y for x, y in zip(a, b))


class AlgebraPresentation:
    """A graded-commutative GF(2) algebra with a terminating rewrite system.

    Immutable after construction; per-degree bases and normal forms are
    cached, so instances are cheap to share.
    """

    def __init__(self, generators, relations, name: str = ""):
        gens, taken = [], set()
        for g in generators:
            gname, raw = (g.name, g.degree) if isinstance(g, Generator) else (str(g[0]), g[1])
            degree = _integers((raw,))
            if degree is None:
                raise PresentationError(f"generator {gname} has degree {raw!r}, not an integer")
            _check_generator(gname, degree[0], taken)
            taken.add(gname)
            gens.append(Generator(gname, degree[0]))
        self.name = name
        self.generators = gens = tuple(gens)
        self.gen_index = {g.name: i for i, g in enumerate(gens)}
        self._degrees = tuple(g.degree for g in gens)
        self.rules = tuple(self._validate_rule(lhs, rhs) for lhs, rhs in relations)
        self._nf_cache: dict[Mono, frozenset[Mono]] = {}
        self._basis_cache: dict[int, tuple[Mono, ...]] = {}
        self._basis_index_cache: dict[int, dict[Mono, int]] = {}
        self._caps = self._exponent_caps()
        self.top_degree = self._compute_top_degree()

    # -- monomial helpers -------------------------------------------------

    def mono_degree(self, mono: Mono) -> int:
        return sum(map(mul, mono, self._degrees))

    def order_key(self, mono: Mono):
        """Deglex key: degree, then exponents read most-significant first."""
        return (self.mono_degree(mono), tuple(reversed(mono)))

    def unit_mono(self) -> Mono:
        return (0,) * len(self.generators)

    def gen_mono(self, name: str) -> Mono:
        mono = [0] * len(self.generators)
        mono[self.gen_index[name]] = 1
        return tuple(mono)

    def mono_str(self, mono: Mono) -> str:
        parts = []
        for g, e in zip(self.generators, mono):
            if e == 1:
                parts.append(g.name)
            elif e > 1:
                parts.append(f"{g.name}^{e}")
        return "*".join(parts) if parts else "1"

    def check_mono(self, mono, what: str = "monomial") -> Mono:
        """``mono`` as an exponent tuple: one integer >= 0 per generator, else
        ``PresentationError``.  A float exponent is refused, not truncated;
        ``what`` names the monomial in the error's text."""
        exps = _integers(mono)
        if exps is None or len(exps) != len(self._degrees) or min(exps, default=0) < 0:
            raise PresentationError(
                f"{what} {tuple(mono)} needs {len(self._degrees)} exponents >= 0")
        return exps

    def _validate_rule(self, lhs, rhs) -> RewriteRule:
        lhs = self.check_mono(lhs, "rule monomial")
        rhs = [self.check_mono(m, "rule monomial") for m in rhs]
        deg = self.mono_degree(lhs)
        if deg < 1:
            raise PresentationError("rule left-hand side must have positive degree")
        for m in rhs:
            if self.mono_degree(m) != deg:
                raise PresentationError(
                    f"rule {self.mono_str(lhs)} has a non-homogeneous right-hand side")
            if self.order_key(m) >= self.order_key(lhs):
                raise PresentationError(
                    f"rule {self.mono_str(lhs)} does not decrease the monomial order")
        # over GF(2) a monomial written twice cancels
        return RewriteRule(lhs, frozenset(m for m in rhs if rhs.count(m) % 2))

    def _exponent_caps(self) -> tuple[int | None, ...]:
        """Largest exponent of each generator in a normal-form monomial.

        A pure-power rule ``g^k -> ...`` caps the exponent of ``g`` at
        ``k - 1``; ``None`` means the generator has no such rule.
        """
        caps = []
        for i in range(len(self.generators)):
            powers = [r.lhs[i] for r in self.rules
                      if r.lhs[i] > 0 and all(e == 0 for j, e in enumerate(r.lhs) if j != i)]
            caps.append(min(powers) - 1 if powers else None)
        return tuple(caps)

    def _compute_top_degree(self) -> int | None:
        """Largest degree with a nonzero basis, or None when unbounded.

        A generator without an exponent cap is unbounded and the algebra is
        infinite.  Row 0 holds the unit, so the scan down from the ceiling
        returns; its first miss fills every row.
        """
        if None in self._caps:
            return None
        ceiling = sum(b * d for b, d in zip(self._caps, self._degrees))
        for q in range(ceiling, -1, -1):
            if self.degree_basis(q):
                return q

    # -- rewriting ---------------------------------------------------------

    def _find_rule(self, mono: Mono) -> RewriteRule | None:
        for rule in self.rules:
            if _mono_divides(rule.lhs, mono):
                return rule
        return None

    def reduce_mono(self, mono: Mono) -> frozenset[Mono]:
        """Normal form of a single monomial as a set of monomials."""
        cached = self._nf_cache.get(mono)
        if cached is not None:
            return cached
        rule = self._find_rule(mono)
        if rule is None:
            result = frozenset([mono])
        else:
            quo = _mono_div(mono, rule.lhs)
            acc: set[Mono] = set()
            for rm in rule.rhs:
                acc ^= self.reduce_mono(_mono_mul(quo, rm))
            result = frozenset(acc)
        self._nf_cache[mono] = result
        return result

    def normal_form(self, monos) -> frozenset[Mono]:
        """Normal form of a GF(2) sum of (possibly repeated) monomials."""
        acc: set[Mono] = set()
        for m in monos:
            acc ^= self.reduce_mono(tuple(m))
        return frozenset(acc)

    def check_confluence(self) -> ConfluenceFailure | None:
        """Resolve every critical pair; None means locally confluent.

        With a terminating system this certifies unique normal forms.
        """
        for i, ri in enumerate(self.rules):
            for j in range(i + 1, len(self.rules)):
                rj = self.rules[j]
                overlap = tuple(max(a, b) for a, b in zip(ri.lhs, rj.lhs))
                via_i = self.normal_form(
                    _mono_mul(_mono_div(overlap, ri.lhs), rm) for rm in ri.rhs)
                via_j = self.normal_form(
                    _mono_mul(_mono_div(overlap, rj.lhs), rm) for rm in rj.rhs)
                if via_i != via_j:
                    return ConfluenceFailure(overlap, via_i, via_j, (i, j))
        return None

    # -- bases and series ----------------------------------------------------

    def degree_basis(self, q: int) -> tuple[Mono, ...]:
        """All normal-form monomials of degree ``q`` in ascending order.

        A cache miss fills every row up to ``q`` that the exponent vectors
        with ``e_i <= min(cap_i, q // deg_i)`` reach, in one sweep over the
        reversed vectors in lexicographic order: ascending within each
        degree.  The caps rule out every pure-power left-hand side, so only
        the others are tried.  A basis monomial is divisible by no
        left-hand side, so it is its own normal form, and each is seeded
        into ``reduce_mono``'s cache as such."""
        if q < 0:
            return ()
        cached = self._basis_cache.get(q)
        if cached is not None:
            return cached
        bounds = [q // d if cap is None else min(q // d, cap)
                  for d, cap in zip(self._degrees, self._caps)]
        rows: list[list[Mono]] = [[] for _ in range(min(q, self.mono_degree(bounds)) + 1)]
        mixed = [r.lhs for r in self.rules if sum(map(bool, r.lhs)) > 1]
        for rev in itertools.product(*(range(b + 1) for b in reversed(bounds))):
            mono = rev[::-1]
            deg = self.mono_degree(mono)
            if deg <= q and not any(_mono_divides(lhs, mono) for lhs in mixed):
                rows[deg].append(mono)
        for deg, row in enumerate(rows):
            self._basis_cache.setdefault(deg, tuple(row))
            self._nf_cache.update((mono, frozenset((mono,))) for mono in row)
        return self._basis_cache.setdefault(q, ())    # above every reachable degree

    def basis_index(self, q: int) -> dict[Mono, int]:
        cached = self._basis_index_cache.get(q)
        if cached is None:
            cached = {m: i for i, m in enumerate(self.degree_basis(q))}
            self._basis_index_cache[q] = cached
        return cached

    def poincare_series(self, up_to: int) -> list[int]:
        return [len(self.degree_basis(q)) for q in range(up_to + 1)]

    # -- elements ------------------------------------------------------------

    def zero(self) -> "Element":
        return _element(self, frozenset(), None)

    def unit(self) -> "Element":
        return _element(self, frozenset([self.unit_mono()]), 0)

    def gen(self, name: str) -> "Element":
        if name not in self.gen_index:
            raise PresentationError(f"unknown generator {name!r}")
        return Element(self, [self.gen_mono(name)])

    def nonzero_elements(self, q: int) -> list["Element"]:
        """Every nonzero element of degree ``q``, one per bit mask 1, 2, 3, ...
        over ``degree_basis(q)`` (bit i picks basis monomial i)."""
        basis = self.degree_basis(q)
        return [_element(self, frozenset(m for i, m in enumerate(basis) if mask >> i & 1), q)
                for mask in range(1, 2 ** len(basis))]

    def to_vector(self, elem: "Element", q: int) -> int:
        """Bit mask of ``elem`` over ``degree_basis(q)``: bit i is basis monomial i.

        Refuses an element of another presentation, like ``Element._check``,
        and a nonzero element of another degree."""
        if elem.algebra is not self:
            raise ValueError("elements belong to different presentations")
        if elem.degree not in (None, q):
            raise ValueError("element is not homogeneous of the requested degree")
        index = self.basis_index(q)
        vec = 0
        for m in elem.terms:
            vec |= 1 << index[m]
        return vec

    def parse_element(self, text: str) -> "Element":
        text = text.strip()
        if text == "0":
            return self.zero()
        monos = []
        for part in text.split("+"):
            monos.append(self.parse_mono(part))
        return Element(self, monos)

    def parse_mono(self, text: str) -> Mono:
        text = text.strip()
        if text == "1":
            return self.unit_mono()
        exps = [0] * len(self.generators)
        for factor in text.split("*"):
            m = _FACTOR_RE.match(factor.strip())
            if not m:
                raise PresentationError(f"cannot parse monomial factor {factor!r}")
            name, power = m.group(1), int(m.group(2) or 1)
            if name not in self.gen_index:
                raise PresentationError(f"unknown generator {name!r}")
            exps[self.gen_index[name]] += power
        return tuple(exps)

    def rule_text(self, rule: RewriteRule) -> str:
        """``lhs = rhs`` as the rule is written: its right side is not
        reduced, so ``b^2 = a*b`` stays so where ``a*b`` reduces further."""
        rhs = sorted(rule.rhs, key=self.order_key, reverse=True)
        return f"{self.mono_str(rule.lhs)} = {' + '.join(map(self.mono_str, rhs)) or '0'}"

    def __repr__(self):
        label = self.name or "presentation"
        return f"AlgebraPresentation({label}: {len(self.generators)} gens, {len(self.rules)} rules)"


class Element:
    """A GF(2) sum of normal-form monomials, homogeneous or zero.

    ``Element(algebra, monos)`` checks each monomial, reduces their GF(2)
    sum to normal form and refuses terms of two degrees; arithmetic builds
    through ``_element`` with neither (see the module docstring).
    ``degree`` is the common degree of the terms, None for zero.  A sum of
    two nonzero elements of unequal degrees is refused, and an operand that
    is not an ``Element`` is a ``TypeError``.
    """

    __slots__ = ("algebra", "terms", "degree")

    def __init__(self, algebra: AlgebraPresentation, monos):
        terms = algebra.normal_form(map(algebra.check_mono, monos))
        degrees = {algebra.mono_degree(m) for m in terms}
        if len(degrees) > 1:
            raise ValueError("element terms must share a single degree")
        self.algebra, self.terms, self.degree = algebra, terms, min(degrees, default=None)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other: "Element") -> "Element":
        if not isinstance(other, Element):
            return NotImplemented
        self._check(other)
        degree = self.degree if other.degree is None else other.degree
        if self.degree not in (None, degree):
            raise ValueError("element terms must share a single degree")
        return _element(self.algebra, self.terms ^ other.terms, degree)

    def __mul__(self, other: "Element") -> "Element":
        if not isinstance(other, Element):
            return NotImplemented
        self._check(other)
        if not (self.terms and other.terms):
            return self.algebra.zero()
        prods = [_mono_mul(a, b) for a in self.terms for b in other.terms]
        return _element(self.algebra, self.algebra.normal_form(prods),
                        self.degree + other.degree)

    def __pow__(self, n: int) -> "Element":
        """``self`` to the ``n``-th power by square-and-multiply (Knuth,
        TAOCP Vol. 2, 4.6.3): popcount(n) - 1 products, and no product at
        all for a power of two.

        The squares regroup the n factors, so the result is the n-fold left
        product only because multiplication is associative, which holds when
        the rewrite system is confluent (``check_confluence``): normal forms
        are then unique and the presentation is a ring.

        Each square is the Frobenius square: the sum of the doubled
        monomials.  The product ``a * a`` of a sum of monomials m_i makes
        every cross term m_i*m_j twice, once as (i, j) and once as (j, i),
        as the same exponent tuple, so the pair cancels over GF(2) and only
        the m_i^2 remain; both are then reduced by the same ``normal_form``.
        The first factor needed starts the product instead of the unit,
        since a product with the unit only renormalises terms already in
        normal form.  ``n == 0`` gives the unit; refuses ``n < 0``.
        """
        if n < 0:
            raise ValueError(f"negative exponent {n}")
        if n == 0:
            return self.algebra.unit()
        out, square = None, self
        while True:
            if n & 1:
                out = square if out is None else out * square
            n >>= 1
            if not n:
                return out
            if square:     # zero squares to itself
                square = _element(self.algebra, self.algebra.normal_form(
                    tuple(2 * e for e in m) for m in square.terms), 2 * square.degree)

    def _check(self, other: "Element"):
        if self.algebra is not other.algebra:
            raise ValueError("elements belong to different presentations")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return self.algebra is other.algebra and self.terms == other.terms

    def __hash__(self):
        return hash((id(self.algebra), self.terms))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        ordered = sorted(self.terms, key=self.algebra.order_key, reverse=True)
        return " + ".join(self.algebra.mono_str(m) for m in ordered)

    def __repr__(self):
        return f"Element({self})"


def _element(algebra: AlgebraPresentation, terms: frozenset[Mono],
             degree: int | None) -> Element:
    """Arithmetic's constructor: ``terms`` are known to be in normal form and
    of ``degree``, so ``Element.__init__`` is skipped.  Empty terms give
    degree None."""
    elem = object.__new__(Element)
    elem.algebra, elem.terms, elem.degree = algebra, terms, degree if terms else None
    return elem


# -- built-in presentations ---------------------------------------------------


def wall_presentation(m: int, n: int) -> AlgebraPresentation:
    """Cohomology of the mapping-torus manifold Q(m, n).

    Generators x, c in degree 1 and d in degree 2, truncated by
    ``x^2 = 0``, ``c^(m+1) = c^m * x`` and ``d^(n+1) = 0``; the top degree
    is ``m + 2n + 1``.
    """
    if m < 0 or n < 0:
        raise PresentationError("wall presentation needs m, n >= 0")
    gens = [("x", 1), ("c", 1), ("d", 2)]
    rules = [
        ((2, 0, 0), ()),
        ((0, m + 1, 0), [(1, m, 0)]),
        ((0, 0, n + 1), ()),
    ]
    pres = AlgebraPresentation(gens, rules, name=f"wall({m},{n})")
    assert pres.top_degree == m + 2 * n + 1
    return pres


def dold_presentation(m: int, n: int) -> AlgebraPresentation:
    """Cohomology of the Dold manifold P(m, n): truncated polynomial ring."""
    if m < 0 or n < 0:
        raise PresentationError("dold presentation needs m, n >= 0")
    gens = [("c", 1), ("d", 2)]
    rules = [((m + 1, 0), ()), ((0, n + 1), ())]
    pres = AlgebraPresentation(gens, rules, name=f"dold({m},{n})")
    assert pres.top_degree == m + 2 * n
    return pres


def sphere_presentation(n: int) -> AlgebraPresentation:
    """Cohomology of the n-sphere: one exterior generator in degree n."""
    if n < 1:
        raise PresentationError("sphere presentation needs n >= 1")
    pres = AlgebraPresentation([("a", n)], [((2,), ())], name=f"sphere({n})")
    assert pres.top_degree == n
    return pres


def base_presentation() -> AlgebraPresentation:
    """Polynomial ring on one degree-1 generator t (classifying-space base)."""
    return AlgebraPresentation([("t", 1)], [], name="F2[t]")


# -- text format ----------------------------------------------------------------

def parse_presentation(text: str, name: str = "") -> AlgebraPresentation:
    """Parse the ``gen``/``rel`` line format.

    One generator per line as ``gen <name> <degree>`` and one relation per
    line as ``rel <monomial> = <polynomial|0>``.  Blank lines and ``#``
    comments are ignored.  The resulting presentation is *not* checked for
    confluence here; callers decide how to handle a failing check.
    """
    gen_lines: dict[str, int] = {}     # name -> degree, in declaration order
    rel_lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split(None, 1)
        if fields[0] == "gen":
            parts = line.split()
            if len(parts) != 3:
                raise PresentationError(f"line {lineno}: expected 'gen <name> <degree>'")
            gname = parts[1]
            try:
                degree = int(parts[2])
            except ValueError:
                raise PresentationError(f"line {lineno}: bad degree {parts[2]!r}") from None
            try:
                _check_generator(gname, degree, gen_lines)
            except PresentationError as exc:
                raise PresentationError(f"line {lineno}: {exc}") from None
            gen_lines[gname] = degree
        elif fields[0] == "rel":
            if len(fields) != 2 or "=" not in fields[1]:
                raise PresentationError(f"line {lineno}: expected 'rel <monomial> = <polynomial>'")
            lhs_text, rhs_text = fields[1].split("=", 1)
            rel_lines.append((lineno, lhs_text.strip(), rhs_text.strip()))
        else:
            raise PresentationError(f"line {lineno}: unknown directive {fields[0]!r}")
    skeleton = AlgebraPresentation(gen_lines.items(), [], name=name)
    relations = []
    for lineno, lhs_text, rhs_text in rel_lines:
        try:    # a non-homogeneous sum raises a plain ValueError
            lhs = skeleton.parse_mono(lhs_text)
            rhs = skeleton.parse_element(rhs_text).terms
            skeleton._validate_rule(lhs, rhs)
        except ValueError as exc:
            raise PresentationError(f"line {lineno}: {exc}") from None
        relations.append((lhs, rhs))
    return AlgebraPresentation(gen_lines.items(), relations, name=name)


def format_presentation(pres: AlgebraPresentation) -> str:
    """Serialize to the same ``gen``/``rel`` format ``parse_presentation`` reads."""
    lines = [f"gen {g.name} {g.degree}" for g in pres.generators]
    lines += [f"rel {pres.rule_text(rule)}" for rule in pres.rules]
    return "\n".join(lines) + "\n"
