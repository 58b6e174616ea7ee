import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitcoh.gf2 import (
    Subspace,
    combine,
    image_basis,
    kernel_basis,
    kernel_vectors,
    rank,
    rref,
    solve,
    subquotient,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def vec(bits):
    """Bit mask of a coordinate list: bit j is coordinate j."""
    return sum(b << j for j, b in enumerate(bits))


def vectors_of(n):
    return st.lists(st.integers(0, 2 ** n - 1), max_size=6)


# (n, vectors): up to 6 vectors of width n <= 6, read as the rows of a
# matrix or as the columns of a map into GF(2)^n
small_matrices = st.integers(0, 6).flatmap(
    lambda n: st.tuples(st.just(n), vectors_of(n)))
matrix_pairs = st.integers(0, 6).flatmap(
    lambda n: st.tuples(st.just(n), vectors_of(n), vectors_of(n)))


def pivots(rows):
    """Each row's pivot coordinate, read from the row: its lowest set bit."""
    return [(row & -row).bit_length() - 1 for row in rows]


def span(vectors):
    """Every XOR combination of ``vectors``, by enumeration."""
    return {combine(c, vectors) for c in range(2 ** len(vectors))}


class TestRank:
    def test_empty_matrix(self):
        assert rank([]) == 0

    def test_identity(self):
        assert rank(Subspace.full(2).basis) == 2

    def test_repeated_rows(self):
        assert rank([vec([1, 1]), vec([1, 1])]) == 1

    @given(small_matrices)
    def test_bounded_by_shape(self, m):
        n, vectors = m
        assert rank(vectors) <= min(n, len(vectors))


class TestKernel:
    def test_identity_has_zero_kernel(self):
        assert kernel_basis(Subspace.full(3).basis).dim == 0

    def test_zero_matrix_has_full_kernel(self):
        assert kernel_basis([0, 0, 0]).dim == 3

    def test_hand_solved_system(self):
        # the map with rows (1 1 0) and (0 0 1), given by its three columns
        ker = kernel_basis([vec([1, 0]), vec([1, 0]), vec([0, 1])])
        assert ker.dim == 1
        assert ker.contains(vec([1, 1, 0]))

    @given(small_matrices)
    def test_rank_nullity(self, m):
        _, columns = m
        assert kernel_basis(columns).dim + rank(columns) == len(columns)

    @given(small_matrices)
    def test_kernel_vectors_annihilated(self, m):
        _, columns = m
        ker = kernel_basis(columns)
        for v in ker.basis:
            assert combine(v, columns) == 0


@st.composite
def image_source_pairs(draw):
    """(n, images, sources): up to 6 images, each a combination of up to 3
    drawn vectors (so zero and dependent images are common), and as many
    sources of width n <= 6, drawn either independent (an RREF basis) or
    freely, with zeros and repeats."""
    count = draw(st.integers(0, 6))
    spanning = draw(st.lists(st.integers(0, 63), max_size=3))
    images = [combine(draw(st.integers(0, 2 ** len(spanning) - 1)), spanning)
              for _ in range(count)]
    n = draw(st.integers(0, 6))
    if draw(st.booleans()):
        basis = Subspace.from_vectors(draw(vectors_of(n)), n).basis
        sources = list(basis[:count])
        images = images[:len(sources)]
    else:
        pool = draw(st.lists(st.integers(0, 2 ** n - 1), min_size=1, max_size=3))
        sources = [draw(st.sampled_from(pool + [0])) for _ in range(count)]
    return n, images, sources


def kernel_by_relations(images, sources, n):
    """The unshortened path: a kernel basis of the images' relations, each
    relation combined over the sources, then the RREF of those vectors."""
    return Subspace.from_vectors(
        (combine(lam, sources) for lam in kernel_basis(images).basis), n)


class TestKernelVectors:
    @given(image_source_pairs())
    @settings(max_examples=300)
    def test_matches_the_relation_path(self, case):
        n, images, sources = case
        assert Subspace.from_vectors(kernel_vectors(images, sources), n) == \
            kernel_by_relations(images, sources, n)

    @given(image_source_pairs())
    def test_one_vector_per_dependent_image(self, case):
        _, images, sources = case
        assert len(kernel_vectors(images, sources)) == len(images) - rank(images)

    def test_zero_images_keep_every_source(self):
        sources = [vec([1, 0, 1]), vec([0, 1, 0])]
        assert kernel_vectors([0, 0], sources) == sources

    def test_dependent_images(self):
        # images e0, e1, e0 + e1: the third source plus the first two is the kernel
        images = [vec([1, 0]), vec([0, 1]), vec([1, 1])]
        sources = [vec([1, 0, 0]), vec([0, 1, 0]), vec([0, 0, 1])]
        assert kernel_vectors(images, sources) == [vec([1, 1, 1])]

    def test_dependent_sources(self):
        # the same source twice with independent images: nothing maps to zero
        assert kernel_vectors([vec([1, 0]), vec([0, 1])], [vec([1]), vec([1])]) == []
        # with equal images the repeat leaves the zero vector
        assert kernel_vectors([vec([1]), vec([1])], [vec([1]), vec([1])]) == [0]

    def test_rejects_lists_of_different_lengths(self):
        with pytest.raises(ValueError):
            kernel_vectors([0, 0], [vec([1])])


class TestImage:
    def test_zero_matrix(self):
        assert image_basis([0, 0]).dim == 0

    def test_identity(self):
        img = image_basis(Subspace.full(2).basis)
        assert img.dim == 2

    def test_repeated_column(self):
        # the map with rows (1 0) and (1 0): columns (1 1) and (0 0)
        img = image_basis([vec([1, 1]), 0])
        assert img.dim == 1
        assert img.contains(vec([1, 1]))

    @given(small_matrices)
    def test_dim_is_rank(self, m):
        _, columns = m
        assert image_basis(columns).dim == rank(columns)


class TestSubquotient:
    def test_full_mod_zero(self):
        reps = subquotient(Subspace.full(2), Subspace.zero(2))
        assert len(reps) == 2

    def test_exact_case_is_empty(self):
        space = Subspace.from_vectors([vec([1, 0]), vec([0, 1])], 2)
        assert len(subquotient(space, space)) == 0

    def test_echelon_complement(self):
        kernel = Subspace.full(3)
        image = Subspace.from_vectors([vec([1, 1, 0])], 3)
        reps = subquotient(kernel, image)
        assert len(reps) == 2
        # representatives avoid the image's pivot column
        assert not any(v & 1 for v in reps)

    def test_rejects_image_outside_kernel(self):
        kernel = Subspace.from_vectors([vec([1, 0, 0])], 3)
        image = Subspace.from_vectors([vec([0, 1, 0])], 3)
        with pytest.raises(ValueError):
            subquotient(kernel, image)

    @given(small_matrices, st.data())
    def test_reduce_is_the_class_in_coset_coordinates(self, m, data):
        # a class named by B.reduce(v) is the class that the solve against
        # the coset basis names, for every B inside Z and every v in Z
        n, vectors = m
        cycles = Subspace.from_vectors(vectors, n)
        chosen = data.draw(st.lists(st.integers(0, 2 ** cycles.dim - 1), max_size=4))
        boundaries = Subspace.from_vectors(
            [combine(c, cycles.basis) for c in chosen], n)
        v = combine(data.draw(st.integers(0, 2 ** cycles.dim - 1)), cycles.basis)
        reps = subquotient(cycles, boundaries)
        assert len(reps) == cycles.dim - boundaries.dim
        coords = solve(reps + boundaries.basis, v)
        assert coords is not None
        assert boundaries.reduce(v) == combine(coords & ((1 << len(reps)) - 1), reps)

    @given(matrix_pairs)
    @settings(max_examples=60)
    def test_respanning_recovers_dimension(self, pair):
        n, a, b = pair
        big = Subspace.from_vectors(a, n)
        small_candidate = Subspace.from_vectors(b, n)
        if not big.contains_subspace(small_candidate):
            return
        reps = subquotient(big, small_candidate)
        assert len(reps) == big.dim - small_candidate.dim
        respan = small_candidate.add(reps)
        assert respan == big


class TestSubspace:
    @given(small_matrices)
    def test_echelonization_idempotent(self, m):
        n, vectors = m
        s = Subspace.from_vectors(vectors, n)
        again = Subspace.from_vectors(s.basis, s.ambient_dim)
        assert s == again == s.add([])

    @given(small_matrices, st.randoms(use_true_random=False))
    def test_span_independent_of_row_order(self, m, rng):
        n, vectors = m
        shuffled = list(vectors)
        rng.shuffle(shuffled)
        assert Subspace.from_vectors(vectors, n) == Subspace.from_vectors(shuffled, n)

    def test_reduce_is_canonical_rep(self):
        s = Subspace.from_vectors([vec([1, 1, 0])], 3)
        v = vec([1, 0, 0])
        w = vec([0, 1, 0])
        # v and w differ by a subspace element, so they share a representative
        assert s.reduce(v) == s.reduce(w)

    def test_rejects_vector_wider_than_ambient(self):
        with pytest.raises(ValueError):
            Subspace.from_vectors([vec([1, 0]), vec([0, 0, 1])], 2)


def reduce_by_rows(space, v):
    """``Subspace.reduce`` without its full-space shortcut: the row loop."""
    for row in space.basis:
        if v & row & -row:
            v ^= row
    return v


@st.composite
def wide_subspaces(draw):
    """A subspace of GF(2)^n, n in 1..64, with a vector of that width: full
    and zero spaces are drawn as often as random spans of up to n vectors."""
    n = draw(st.integers(1, 64))
    kind = draw(st.sampled_from(("full", "zero", "span")))
    if kind == "full":
        space = Subspace.full(n)
    elif kind == "zero":
        space = Subspace.zero(n)
    else:
        space = Subspace.from_vectors(
            draw(st.lists(st.integers(0, 2 ** n - 1), max_size=n)), n)
    return space, draw(st.integers(0, 2 ** n - 1))


@given(wide_subspaces())
@settings(max_examples=300)
def test_reduce_matches_the_row_loop(drawn):
    space, v = drawn
    assert space.reduce(v) == reduce_by_rows(space, v)
    # a span of n independent vectors is full, however it was drawn
    assert (space.dim == space.ambient_dim) <= (space.reduce(v) == 0)


@given(wide_subspaces(), st.integers(0, 2 ** 128 - 1))
@settings(max_examples=300)
def test_reduce_keeps_the_bits_above_the_space(drawn, wide):
    # a vector up to twice the ambient width: the bits above the space are
    # no row's pivot, so every space, a full one too, leaves them as they are
    space, _ = drawn
    v = wide >> 128 - 2 * space.ambient_dim
    assert space.reduce(v) == reduce_by_rows(space, v)
    assert space.reduce(v) >> space.ambient_dim == v >> space.ambient_dim


class TestSolve:
    def test_unique_solution(self):
        rows = [vec([1, 1, 0]), vec([0, 1, 1])]
        x = solve(rows, vec([1, 0, 1]))
        assert x is not None
        assert combine(x, rows) == vec([1, 0, 1])

    def test_no_solution(self):
        rows = [vec([1, 1, 0])]
        assert solve(rows, vec([1, 0, 0])) is None

    def test_empty_row_space(self):
        assert solve([], 0) is not None
        assert solve([], vec([1, 0, 0])) is None

    @given(small_matrices)
    def test_membership_roundtrip(self, m):
        _, vectors = m
        if not vectors:
            return
        target = combine(2 ** len(vectors) - 1, vectors)
        x = solve(vectors, target)
        assert x is not None
        assert combine(x, vectors) == target


def combine_by_enumeration(coeffs, vectors):
    """``combine`` as it was before it walked only the set bits: a loop over
    every vector, which silently drops coefficient bits beyond the list."""
    out = 0
    for i, v in enumerate(vectors):
        if coeffs >> i & 1:
            out ^= v
    return out


class TestCombine:
    @given(small_matrices, st.data())
    def test_set_bits_match_the_full_loop(self, m, data):
        _, vectors = m
        coeffs = data.draw(st.integers(0, 2 ** len(vectors) - 1))
        assert combine(coeffs, vectors) == combine_by_enumeration(coeffs, vectors)

    @given(small_matrices, st.integers(0, 6))
    def test_rejects_bits_beyond_the_vector_list(self, m, extra):
        _, vectors = m
        coeffs = 1 << (len(vectors) + extra)
        assert combine_by_enumeration(coeffs, vectors) == 0
        with pytest.raises(ValueError):
            combine(coeffs, vectors)

    def test_zero_coefficients_select_nothing(self):
        assert combine(0, []) == 0
        assert combine(0, [vec([1, 1])]) == 0


def test_rref_idempotent_example():
    m = [vec([1, 1, 0]), vec([1, 0, 1]), vec([0, 1, 1])]
    r1 = rref(m)
    assert rref(r1) == r1
    assert pivots(r1) == [0, 1]


@given(small_matrices, st.data())
@settings(max_examples=150)
def test_packed_primitives_match_enumeration(m, data):
    """Every primitive against the 2^k XOR combinations of its input."""
    n, vectors = m
    spanned = span(vectors)
    space = Subspace.from_vectors(vectors, n)
    assert span(space.basis) == spanned
    assert Subspace.from_vectors(sorted(spanned, reverse=True), n) == space
    cols = pivots(space.basis)
    assert all(space.basis) and cols == sorted(set(cols))
    assert list(space.basis) == rref(vectors)
    for row, col in zip(space.basis, cols):
        assert [c for c in cols if row >> c & 1] == [col]
    assert 2 ** space.dim == len(spanned) == 2 ** rank(vectors)
    for v in range(2 ** n):
        assert space.contains(v) == (v in spanned)
        rep = space.reduce(v)
        assert v ^ rep in spanned
        assert not any(rep >> col & 1 for col in cols)
        for w in range(2 ** n):
            assert (space.reduce(w) == rep) == (v ^ w in spanned)
        x = solve(vectors, v)
        assert (x is not None) == (v in spanned)
        assert x is None or combine(x, vectors) == v

    relations = {c for c in range(2 ** len(vectors)) if combine(c, vectors) == 0}
    assert span(kernel_basis(vectors).basis) == relations

    # the image is spanned by a drawn subset of the inputs, so it lies in the kernel
    chosen = data.draw(st.integers(0, 2 ** len(vectors) - 1))
    image = Subspace.from_vectors(
        [v for i, v in enumerate(vectors) if chosen >> i & 1], n)
    reps = subquotient(space, image)
    assert len(reps) == space.dim - image.dim
    assert span(reps) & span(image.basis) == {0}
    assert {a ^ b for a in span(reps) for b in span(image.basis)} == spanned


def test_runtime_imports_without_numpy():
    code = ("import orbitcoh.spectral, orbitcoh.actions, sys; "
            "assert 'numpy' not in sys.modules")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
