"""First-quadrant spectral sequence of the Borel fibration over GF(2).

The base is the classifying space of the order-2 group, whose cohomology is
polynomial on one degree-1 class ``t``; with simple coefficients the
starting page is ``E_2^{p,q} = <t^p> (x) H^q(fiber)``.  Differentials are
specified transgressively: each fiber generator either survives every page
(a permanent cocycle) or carries one nonzero differential ``d_r`` into a
row of the base, and everything else follows from base-linearity and the
characteristic-2 Leibniz rule.

A cell is the subquotient ``cycles / boundaries`` of E_2: two subspaces in
E_2 coordinates, the classes still alive and the classes already hit.  A
vector in row q is a bit mask over ``degree_basis(q)``, bit i for basis
monomial i (see ``gf2``); the ``t^p`` factor is implicit.  A class is
named by its canonical representative ``boundaries.reduce(v)``, so turning
a page needs no coset basis (``turn_page``).  Three guards are
*checked*, never assumed: compatibility of the derivation with every fiber
relation, square zero, and representative independence.  The first two,
and the vanishing bound that ``run_case`` applies to the limit page, record
why a case dies as a ``GuardFinding``: the guard (``leibniz``,
``square_zero`` or ``vanishing``), the page, the bidegree, the violated
relation, the two values of d_r on its sides and the violating degrees,
whichever apply.  Its text, a verdict's ``detail``, is rendered only when
someone reads it.  A ``LeibnizInconsistency`` is its finding and nothing
more: its text is the finding's.  So is a ``CaseVerdict``: its outcome and
its reason (``GUARD_REASONS``) are read from the finding.

Only what d_r moves is recomputed, since E_{r+1} equals E_r where d_r is
zero: ``run_case`` steps only the pages where some generator transgresses,
and ``pages()`` gives an idle page the previous page's cells.  On an active
page each stored cell has one successor, shared by every column that reads
it and receives no image, as E_2's rows of one width share one cell.
Across the runs on one fiber, each page turn that succeeds is made once:
assignments that agree on their targets up to page r share E_{r+1} through
the fiber's page table.

Stable columns: every differential is linear over ``F2[t]``, and
multiplication by ``t`` maps each column of E_2 isomorphically onto the
next, so on every page the columns far enough to the right all agree.  A
page stores columns ``0..S`` and column ``S`` stands for every later column.
E_2 is the same in every column, so S = 0 there.  An active d_r joins
column p to column p + r, so column p' of the next page is fixed by columns
p' and p' - r of this one; both are column S once p' >= S + r, so S grows
by r on each page where d_r moves something and stays put on the others.
Every cell and every total degree is therefore exact.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass, field
from operator import add

from . import gf2, wall
from .algebra import AlgebraPresentation, Element, Mono, RewriteRule


class LeibnizInconsistency(Exception):
    """A differential assignment contradicts the fiber's ring relations.

    The exception is its finding: the relation and square-zero guards raise
    it with the ``GuardFinding`` of what they saw, kept as ``finding``, and
    it stores nothing else.  ``str(exc)`` is ``finding.render()``, formatted
    only when asked for, so a caller that keeps only the finding formats
    nothing.
    """

    def __init__(self, finding: GuardFinding):
        super().__init__(finding)
        self.finding = finding

    def __str__(self) -> str:
        return self.finding.render()


class SpectralModelError(RuntimeError):
    """The transgressive model cannot determine this run (engine refuses to guess)."""


def _transgression_text(r: int, target: Element) -> str:
    """``t^r*target``, the target in parentheses when it has several terms."""
    body = str(target) if len(target.terms) == 1 else f"({target})"
    return f"t^{r}" if target.degree == 0 else f"t^{r}*{body}"


@dataclass(frozen=True)
class DifferentialAssignment:
    """One transgression target per fiber generator, in generator order.

    A target is the fiber component of ``d_r(g) = t^r (x) target``, or None
    for a permanent cocycle.  Its degree fixes the page, r = deg(g) + 1 -
    deg(target), computed once here.  Checked when built (``ValueError``):
    one target per generator, each a nonzero element of ``fiber`` of degree
    0..deg(g) - 1, so on a page 2..deg(g) + 1.  Names, the ``d<r>(g)=...``
    text and the case label are read when asked for."""

    fiber: AlgebraPresentation
    targets: tuple[Element | None, ...]
    _pages: tuple[int | None, ...] = field(init=False, repr=False, compare=False)
    _active: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        gens = self.fiber.generators
        if len(self.targets) != len(gens):
            raise ValueError(f"{len(self.targets)} targets for {len(gens)} generators")
        for g, tgt in zip(gens, self.targets):
            if tgt is None:
                continue
            if not isinstance(tgt, Element):
                raise ValueError(f"the target of {g.name} is neither an element nor None")
            if tgt.algebra is not self.fiber:
                raise ValueError(f"the target of {g.name} belongs to another presentation")
            if not tgt:
                raise ValueError(f"the target of {g.name} is zero")
            if not 0 <= tgt.degree < g.degree:
                raise ValueError(f"the target of {g.name} has degree {tgt.degree}, "
                                 f"outside 0..{g.degree - 1}")
        object.__setattr__(self, "_pages", tuple(
            None if tgt is None else g.degree + 1 - tgt.degree
            for g, tgt in zip(gens, self.targets)))
        object.__setattr__(self, "_active", tuple(sorted(set(self._pages) - {None})))

    def prefix(self, r: int) -> tuple[frozenset[Mono] | None, ...]:
        """The target term sets of the generators that transgress on pages
        2..r, None for the others: what fixes E_{r+1}."""
        return tuple([None if page is None or page > r else tgt.terms
                      for tgt, page in zip(self.targets, self._pages)])

    def active_pages(self) -> tuple[int, ...]:
        return self._active

    def active_at(self, r: int) -> dict[str, Element]:
        """The targets of the generators transgressing on page r, by name."""
        return {g.name: tgt for g, tgt, page in zip(self.fiber.generators, self.targets,
                                                    self._pages) if page == r}

    def describe(self) -> str:
        """``d<r>(<generator>)=<t^r*target>`` for each transgressing
        generator, joined by "; "; empty when none transgresses."""
        return "; ".join(f"d{r}({g.name})={_transgression_text(r, tgt)}"
                         for g, tgt, r in zip(self.fiber.generators, self.targets, self._pages)
                         if tgt is not None)

    @property
    def case_id(self) -> str:
        """The paper's letter on the Wall fiber (``wall.case_label``), else
        ``describe()``, else Z."""
        return wall.case_label(self.fiber, self.targets) or self.describe() or "Z"


@dataclass(frozen=True)
class Cell:
    """One bigraded spot: the subquotient ``cycles / boundaries``.

    Every vector is a bit mask over ``degree_basis(q)`` of the cell's row q,
    and ``boundaries`` lies inside ``cycles``: E_2's cells have no
    boundaries, and ``turn_page``'s cycle, square-zero and coset checks keep
    it so on every later page (the proof is in its docstring).
    """

    cycles: gf2.Subspace
    boundaries: gf2.Subspace

    @property
    def dim(self) -> int:
        return self.cycles.dim - self.boundaries.dim

    @property
    def reps(self) -> tuple[int, ...]:
        """Canonical coset representatives, a basis of the cell's classes."""
        return gf2.subquotient(self.cycles, self.boundaries)


@dataclass(frozen=True)
class Page:
    fiber: AlgebraPresentation
    r: int
    stable: int                         # column S: it stands for every p >= S
    cells: dict[tuple[int, int], Cell]  # columns 0..stable only

    def cell(self, p: int, q: int) -> Cell | None:
        return self.cells.get((min(p, self.stable), q))

    def dim(self, p: int, q: int) -> int:
        cell = self.cell(p, q)
        return cell.dim if cell is not None else 0

    def total_dimension(self, j: int) -> int:
        return self.total_dimensions(j)[j] if j >= 0 else 0

    def total_dimensions(self, up_to: int) -> list[int]:
        """Total dimension in degrees 0..up_to, in one sweep over the cells: a
        cell in column p < S counts in degree p + q only, and a cell in column
        S, which stands for every later column, in every degree from S + q on."""
        steps = [0] * (up_to + 2)   # steps[j]: change of the total at degree j
        for (p, q), cell in self.cells.items():
            if p + q <= up_to:
                dim = len(cell.cycles.basis) - len(cell.boundaries.basis)
                steps[p + q] += dim
                if p < self.stable:
                    steps[p + q + 1] -= dim
        return list(itertools.accumulate(steps[:-1]))


@dataclass(frozen=True)
class GuardFinding:
    """What a guard saw when it eliminated a case, as data.

    ``guard`` names the guard: ``"leibniz"`` (d_r sends the two sides of a
    fiber relation to different values), ``"square_zero"`` (d_r twice is not
    zero on a class) or ``"vanishing"`` (the limit page is nonzero above
    dim X).  The fields a guard does not fill are None:

    - ``page``: the page r, for leibniz and square_zero;
    - ``bidegree``: the (p, q) of the class d_r twice does not kill, for
      square_zero;
    - ``relation``: the violated ``RewriteRule``, for leibniz;
    - ``values``: the term sets of d_r on the relation's two sides, for
      leibniz (the fiber component; the ``t^r`` factor is implicit);
    - ``degrees``: the total degrees above dim X where the limit page is
      nonzero, up to where the totals turn constant, for vanishing.

    ``fiber`` and, for vanishing, ``dim_x`` are what ``render`` reads to
    print terms and ranges.  Nothing is formatted until ``render`` is called.
    """

    guard: str
    fiber: AlgebraPresentation
    page: int | None = None
    bidegree: tuple[int, int] | None = None
    relation: RewriteRule | None = None
    values: tuple[frozenset[Mono], frozenset[Mono]] | None = None
    degrees: tuple[int, ...] | None = None
    dim_x: int | None = None

    def value_texts(self) -> tuple[str, str]:
        """The two values of d_r on the relation's sides, without ``t^r``."""
        return tuple(str(Element(self.fiber, terms)) for terms in self.values)

    def render(self) -> str:
        """The verdict's ``detail`` text; the page guards prefix ``page r: ``."""
        r = self.page
        if self.guard == "leibniz":
            lhs, rhs = self.value_texts()
            return (f"page {r}: relation {self.fiber.rule_text(self.relation)} is violated: "
                    f"the differential sends the two sides to t^{r}*({lhs}) "
                    f"and t^{r}*({rhs})")
        if self.guard == "square_zero":
            p, q = self.bidegree
            return f"page {r}: the differential does not square to zero at ({p},{q})"
        dim_x, top = self.dim_x, self.fiber.top_degree
        if self.degrees == tuple(range(dim_x + 1, dim_x + top + 1)):
            return f"nonzero classes in every degree {dim_x + 1}..{dim_x + top}"
        return f"nonzero classes in degrees {list(self.degrees)}"


# The reason a verdict states for the guard that eliminated its case.
GUARD_REASONS = {**dict.fromkeys(("leibniz", "square_zero"), "leibniz_inconsistent"),
                 "vanishing": "vanishing_violation"}


@dataclass(frozen=True)
class CaseVerdict:
    """The outcome of one assignment.

    An eliminated case keeps the ``GuardFinding`` that eliminated it, not
    the exception, whose traceback would keep the run's frames and pages
    alive; a survivor has no finding and keeps its E_infinity page.
    ``outcome``, ``reason`` and ``detail`` are read from the finding, and
    ``detail`` renders its text each time it is read.
    """

    assignment: DifferentialAssignment
    finding: GuardFinding | None
    e_infinity: Page | None = None

    @property
    def case_id(self) -> str:
        return self.assignment.case_id

    @property
    def outcome(self) -> str:
        return "survives" if self.finding is None else "eliminated"

    @property
    def reason(self) -> str | None:
        return None if self.finding is None else GUARD_REASONS[self.finding.guard]

    @property
    def detail(self) -> str | None:
        return None if self.finding is None else self.finding.render()


# Page turns by fiber, shared by every run on that fiber.  The root, key None,
# holds E_2; a key ``(r, DifferentialAssignment.prefix(r))`` maps to E_{r+1}
# as ``(stable, cells)``.  E_r and d_r fix the relation guard, the alive
# check, the derivation matrices and the turn, and the key fixes both, so a
# hit skips all four.  Only successful turns are stored, and no value holds
# the fiber, which would keep the weak key alive for good.
_PAGE_TABLE = weakref.WeakKeyDictionary()


def _page_table(fiber: AlgebraPresentation) -> dict:
    """The fiber's page table; the first call makes its root, E_2's cells."""
    if fiber.top_degree is None:
        raise SpectralModelError("the fiber algebra must be finite-dimensional")
    table = _PAGE_TABLE.get(fiber)
    if table is None:
        cells, by_width = {}, {}     # rows of one width share one cell
        for q in range(fiber.top_degree + 1):
            if k := len(fiber.degree_basis(q)):
                cell = by_width.get(k) or Cell(gf2.Subspace.full(k), gf2.Subspace.zero(k))
                cells[(0, q)] = by_width[k] = cell
        table = _PAGE_TABLE[fiber] = {None: (0, cells)}
    return table


def build_e2(fiber: AlgebraPresentation) -> Page:
    """Tensor-product starting page: column 0, which every column repeats.

    It is the root of the fiber's page table."""
    return Page(fiber, 2, *_page_table(fiber)[None])


# -- assignment enumeration ----------------------------------------------------


def _generator_choices(fiber: AlgebraPresentation, gen) -> list[Element | None]:
    """None, then every nonzero target of degree deg(g) - 1 down to 0, that
    is on page 2 up to deg(g) + 1."""
    return [None, *(elem for q in range(gen.degree - 1, -1, -1)
                    for elem in fiber.nonzero_elements(q))]


def enumerate_assignments(fiber: AlgebraPresentation) -> list[DifferentialAssignment]:
    """Every combination of per-generator differential choices.

    Each generator is either a permanent cocycle or carries one nonzero
    target on one admissible page; first-quadrant bidegrees bound the page
    by ``deg(g) + 1``.
    """
    if fiber.top_degree is None:
        raise SpectralModelError("the fiber algebra must be finite-dimensional")
    pools = [_generator_choices(fiber, g) for g in fiber.generators]
    return [DifferentialAssignment(fiber, combo) for combo in itertools.product(*pools)]


# -- the derivation -------------------------------------------------------------


def differential_value(fiber: AlgebraPresentation,
                       active: dict[str, Element],
                       mono: Mono) -> Element:
    """Leibniz value of the page differential on one fiber monomial.

    Returns the fiber component; the base column shift ``t^r`` is implicit.
    Even exponents contribute nothing (characteristic 2), which is what
    kills even powers of every generator on every page.  This holds for
    ``mono`` as given, which is not reduced first: its normal form can have
    odd exponents (``c^2 = x*c`` in Q(1, n)) and a nonzero value, and
    whether the two sides of such a relation agree is the relation guard's
    business in ``extend_by_leibniz``.

    Terms are XORed into one set by the same ``reduce_mono`` calls that
    ``Element(fiber, [lowered]) * target`` makes, on any presentation.
    """
    return Element(fiber, _leibniz_terms(fiber, active, mono))


def _leibniz_terms(fiber, active, mono: Mono) -> set[Mono]:
    """The normal-form monomials of ``differential_value``, as a set: the one
    Leibniz loop, behind the derivation matrices and the relation guard."""
    terms: set[Mono] = set()
    for name, tgt in active.items():
        idx = fiber.gen_index[name]
        e = mono[idx]
        if e % 2:
            lowered = list(mono)
            lowered[idx] = e - 1
            for a in fiber.reduce_mono(tuple(lowered)):
                for b in tgt.terms:
                    terms ^= fiber.reduce_mono(tuple(map(add, a, b)))
    return terms


def _derivation_matrix(fiber, active, r: int, q: int) -> list[int]:
    """The derivation from row q to row q + 1 - r in E_2 coordinates: the
    images of the basis of row q, each the bit mask of its ``_leibniz_terms``.

    ``active`` holds the targets of the generators transgressing on page r.
    The terms are distinct, so their bits add up without carries.  A term
    of any other degree than ``q + 1 - r`` is not in the index and raises
    ``KeyError``.
    """
    index = fiber.basis_index(q + 1 - r)
    return [sum(1 << index[m] for m in _leibniz_terms(fiber, active, mono))
            for mono in fiber.degree_basis(q)]


@dataclass
class PageDifferential:
    """The derivation of page r, row by row; vectors are bit masks over
    ``degree_basis(q)``."""

    r: int
    active: dict[str, Element]
    row_matrices: dict[int, list[int]]     # q -> images of the basis of row q

    def apply(self, q: int, vec: int) -> int:
        matrix = self.row_matrices.get(q)
        return 0 if matrix is None else gf2.combine(vec, matrix)


def extend_by_leibniz(page: Page, assignment: DifferentialAssignment) -> PageDifferential:
    """Derivation matrices for the current page, with the relation guard.

    For every fiber rewrite rule the two Leibniz evaluations of its sides
    must agree; a mismatch is raised as ``LeibnizInconsistency`` whose
    finding holds the violated relation and the two disagreeing term sets.

    The guard sees only the generators active on ``page.r``.  A relation
    broken by a later differential passes here and is reported on that later
    page: Q(1, 4) case A (``d_3(d) = t^3``) passes on E_2 and is rejected on
    E_3, where ``d^5 = 0`` but ``d(d^5) = t^3*d^4``.
    """
    fiber = page.fiber
    if assignment.fiber is not fiber:
        raise ValueError("assignment belongs to a different fiber")
    r = page.r
    active = assignment.active_at(r)
    for rule in fiber.rules:
        lhs_terms = _leibniz_terms(fiber, active, rule.lhs)
        rhs_terms: set[Mono] = set()
        for mono in rule.rhs:
            rhs_terms ^= _leibniz_terms(fiber, active, mono)
        if lhs_terms != rhs_terms:
            raise LeibnizInconsistency(GuardFinding(
                "leibniz", fiber, page=r, relation=rule,
                values=(frozenset(lhs_terms), frozenset(rhs_terms))))
    _check_targets_alive(page, active)
    # below row r - 1 the target degree q + 1 - r is negative, so no row moves
    rows = {q: _derivation_matrix(fiber, active, r, q)
            for q in range(r - 1, fiber.top_degree + 1)}
    return PageDifferential(r, active, rows)


def _check_targets_alive(page: Page, active: dict[str, Element]):
    fiber, r = page.fiber, page.r
    for name, tgt in active.items():
        # a generator that is zero in the algebra has no degree of its own
        gen_deg = fiber.generators[fiber.gen_index[name]].degree
        if not _is_nonzero_class(page, 0, gen_deg, fiber.gen(name)):
            raise SpectralModelError(
                f"generator {name} no longer represents a class on page {r}")
        if not _is_nonzero_class(page, r, tgt.degree, tgt):
            raise SpectralModelError(
                f"declared target {_transgression_text(r, tgt)} for {name} is not a "
                f"nonzero class on page {r}")


def _is_nonzero_class(page: Page, p: int, q: int, elem: Element) -> bool:
    cell = page.cell(p, q)
    if cell is None:
        return False
    vec = page.fiber.to_vector(elem, q)
    return cell.cycles.contains(vec) and not cell.boundaries.contains(vec)


def turn_page(page: Page, diff: PageDifferential) -> Page:
    """Subquotient pass from page r to page r + 1.

    Kernels and images are computed once per stored column p <= S, reading
    the target in column ``min(p + r, S)``.  The new page stores columns
    ``0..S + r``: column p' takes its cycles from stored column
    ``min(p', S)`` and its incoming images from column ``p' - r <= S``.

    A moving cell costs one elimination of the pairs (image reduced modulo
    the target's boundaries, cycle) (``gf2.kernel_vectors``), which gives
    the cycles whose image is a boundary, in E_2 coordinates.  Each stored
    cell gets one successor: itself where d_r leaves its cycles alone, else
    the cell of the new cycles and the old boundaries.  Stored column c < S
    fills column c of the new page, and column S fills S..S'; a position
    that receives images gets the successor's cycles and its boundaries
    plus the images, and every other one shares the successor itself.
    S' = S + r, or S when d_r moves nothing at all.

    Checks, in order, wherever d_r moves something: per cycle, its image is
    a cycle and d_r of the image is a boundary (square zero); then images
    of boundaries are boundaries (cosets).  They keep every new cell's
    boundaries inside its cycles, as they are in the old cells:

    - successor: reducing modulo the target's boundaries is linear and zero
      exactly on them, and every boundary is a cycle, so "every boundary is
      a new cycle" is the coset check, which has passed on the same cell;
    - image of a cycle at (p, q): it is a cycle of the receiving cell, and
      its own image is a boundary of the cell at ``min(p + 2r, S)``, the one
      the receiving cell's successor was reduced against; so it is one of
      the successor's cycles (the cell's own, where that did not move).
    """
    if diff.r != page.r:
        raise ValueError("differential was computed for a different page")
    r, stable = page.r, page.stable
    matrices = diff.row_matrices
    moving = {q for q, matrix in matrices.items() if any(matrix)}
    successors: dict[tuple[int, int], Cell] = {}   # by stored cell
    images: dict[tuple[int, int], list[int]] = {}   # nonzero images, by source cell
    for pos in sorted(page.cells):
        p, q = pos
        cell = successors[pos] = page.cells[pos]
        tgt_cell = page.cell(p + r, q + 1 - r) if q in moving else None
        if tgt_cell is not None:
            matrix, square = matrices[q], matrices.get(q + 1 - r)
            tgt_cycles, tgt_boundaries = tgt_cell.cycles, tgt_cell.boundaries
            cell2 = page.cell(p + 2 * r, q + 2 - 2 * r)
            nonzero, reduced = [], []
            for vec in cell.cycles.basis:
                raw = gf2.combine(vec, matrix)
                if raw:
                    if not tgt_cycles.contains(raw):
                        raise SpectralModelError(
                            f"differential image at ({p},{q}) is not a cycle on page {r}")
                    second = square and gf2.combine(raw, square)
                    if second and not (cell2 is not None and cell2.boundaries.contains(second)):
                        raise LeibnizInconsistency(GuardFinding(
                            "square_zero", page.fiber, page=r, bidegree=pos))
                    nonzero.append(raw)
                    raw = tgt_boundaries.reduce(raw)
                reduced.append(raw)
            for bnd in cell.boundaries.basis:
                image = gf2.combine(bnd, matrix)
                if image and not tgt_boundaries.contains(image):
                    raise SpectralModelError(
                        f"differential at ({p},{q}) is not well defined on cosets")
            if any(reduced):
                successors[pos] = Cell(gf2.Subspace.from_vectors(
                    gf2.kernel_vectors(reduced, cell.cycles.basis), cell.cycles.ambient_dim),
                    cell.boundaries)
            if nonzero:
                images[pos] = nonzero
    new_stable = stable + r if images else stable
    new_cells = {}
    for (p, q), successor in successors.items():
        for column in range(p, new_stable + 1) if p == stable else (p,):
            incoming = images.get((column - r, q + r - 1))
            new_cells[(column, q)] = successor if incoming is None else Cell(
                successor.cycles, successor.boundaries.add(incoming))
    return Page(page.fiber, r + 1, new_stable, new_cells)


# -- running cases ---------------------------------------------------------------


def _page_step(table, assignment, r: int, stable: int, cells: dict) -> tuple[int, dict]:
    """E_{r+1}'s ``(stable, cells)`` from E_r's, r an active page: read, or turned and stored."""
    key = (r, assignment.prefix(r))
    if (turned := table.get(key)) is None:
        page = Page(assignment.fiber, r, stable, cells)
        page = turn_page(page, extend_by_leibniz(page, assignment))
        turned = table[key] = (page.stable, page.cells)
    return turned


def pages(fiber: AlgebraPresentation, assignment: DifferentialAssignment):
    """Yield E_2, E_3, ..., E_{top + 2} for one assignment, top the fiber's top degree.

    Beyond the last page every differential leaves the first quadrant.
    Raises ``LeibnizInconsistency`` on the page where the case dies.  Where
    no generator transgresses, d_r = 0 and E_{r+1} shares E_r's cells; an
    active page takes the same ``_page_step`` as ``run_case``.  This is for
    inspection page by page: ``run_case`` builds no idle page.
    """
    if assignment.fiber is not fiber:
        raise ValueError("assignment belongs to a different fiber")
    table = _page_table(fiber)
    page = Page(fiber, 2, *table[None])
    yield page
    while page.r < fiber.top_degree + 2:
        r, stable, cells = page.r, page.stable, page.cells
        if r in assignment.active_pages():    # some generator transgresses on page r
            stable, cells = _page_step(table, assignment, r, stable, cells)
        page = Page(fiber, r + 1, stable, cells)
        yield page


def run_case(fiber: AlgebraPresentation, dim_x: int,
             assignment: DifferentialAssignment) -> CaseVerdict:
    """Drive one assignment to its limit page and return its verdict.

    It steps the active pages r <= top + 1.  E_{top + 2} must be zero in every
    total degree above ``dim_x`` (the free-action vanishing bound); its totals
    are constant from ``S + top`` on (column S stands for every later column),
    so degrees ``dim_x + 1 .. max(dim_x + 1, dim_x + top, S + top)`` decide it.
    """
    if assignment.fiber is not fiber:
        raise ValueError("assignment belongs to a different fiber")
    table = _page_table(fiber)
    top = fiber.top_degree
    if not isinstance(dim_x, int) or dim_x < top:
        raise ValueError(f"dim_x must be an integer at least the fiber's top degree {top}, "
                         f"not {dim_x!r}")
    stable, cells = table[None]
    try:
        for r in assignment.active_pages():
            if r <= top + 1:    # a later d_r leaves the first quadrant
                stable, cells = _page_step(table, assignment, r, stable, cells)
    except LeibnizInconsistency as exc:
        return CaseVerdict(assignment, exc.finding)
    page = Page(fiber, top + 2, stable, cells)
    last = max(dim_x + 1, dim_x + top, stable + top)
    totals = page.total_dimensions(last)
    violations = [j for j in range(dim_x + 1, last + 1) if totals[j] > 0]
    if not violations:
        return CaseVerdict(assignment, None, page)
    return CaseVerdict(assignment, GuardFinding("vanishing", fiber, degrees=tuple(violations),
                                                dim_x=dim_x))


def analyze_all(fiber: AlgebraPresentation, dim_x: int) -> list[CaseVerdict]:
    """Verdict for every enumerated assignment, in enumeration order."""
    return [run_case(fiber, dim_x, a) for a in enumerate_assignments(fiber)]


def format_grid(page: Page) -> str:
    """Fixed-width dimension grid, q vertical and p horizontal.

    Shows the stored columns ``0..stable``; the last one repeats to the right.
    A column is one wider than the widest header label or dimension shown.
    """
    columns = range(page.stable + 1)
    degrees = range(page.fiber.top_degree, -1, -1)
    dims = [[page.dim(p, q) for p in columns] for q in degrees]
    width = max(len(str(page.stable)), len(str(max(map(max, dims)))), 2) + 1
    lines = [f"E_{page.r} page (fiber {page.fiber.name or 'custom'}, "
             f"columns 0..{page.stable})"]
    header = "  q\\p|" + "".join(str(p).rjust(width) for p in columns)
    lines.append(header)
    lines.append("  " + "-" * (len(header) - 2))
    for q, row in zip(degrees, dims):
        lines.append(str(q).rjust(4) + "|" + "".join(str(d).rjust(width) for d in row))
    lines.append(f"  (column {page.stable} repeats in every column to its right)")
    return "\n".join(lines)
