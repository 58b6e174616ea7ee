"""Linear algebra over GF(2) on bit masks.

A vector is a Python ``int`` with bit j as coordinate j, so a vector of
GF(2)^n is an int below ``2**n`` and addition is XOR.  A linear map is the
list of the images of its basis vectors: its columns, as ints.

``rref`` brings a span to reduced row echelon form (RREF): a row's pivot
is its lowest set bit, and no other row has that bit set.  RREF is unique
per subspace, so a ``Subspace`` is its RREF rows and nothing else, and
every derived basis (kernels, images, coset representatives) is
reproducible between runs.  ``kernel_vectors`` is the one elimination
that records how each row was formed; ``kernel_basis`` and ``solve`` read
their answers from it.  Plain elimination on int bit masks suffices at
the measured widths: ``degree_basis(q)`` has at most 6 monomials on the
wall_grid fibers and 172 on Q(3,5)×Q(3,5) (ROADMAP R).  Past one 30-bit
digit ``Subspace.reduce`` slows down (CHANGES.md, its FOUND line).
"""

from __future__ import annotations

from dataclasses import dataclass


def rref(vectors) -> list[int]:
    """Reduced row echelon form of the span of ``vectors``: the nonzero rows
    by increasing pivot, each fully reduced (no other row has its pivot bit
    set)."""
    echelon: list[list[int]] = []     # [pivot bit, row]
    for v in vectors:
        for pivot, row in echelon:
            if v & pivot:
                v ^= row
        if v:
            pivot = v & -v
            for entry in echelon:
                if entry[1] & pivot:
                    entry[1] ^= v
            echelon.append([pivot, v])
    echelon.sort()
    return [row for _, row in echelon]


def rank(vectors) -> int:
    """Dimension of the span of ``vectors``; the rank of a map given by its columns."""
    return len(rref(vectors))


def combine(coeffs: int, vectors) -> int:
    """XOR of the vectors that the set bits of ``coeffs`` select, bit i picking
    ``vectors[i]``; a bit beyond the list raises ``ValueError``."""
    if coeffs >> len(vectors):
        raise ValueError("coefficients select a vector beyond the list")
    out = 0
    while coeffs:
        low = coeffs & -coeffs
        out ^= vectors[low.bit_length() - 1]
        coeffs ^= low
    return out


@dataclass(frozen=True)
class Subspace:
    """A subspace of GF(2)^n: its RREF rows, and nothing else.

    A row's pivot is its lowest set bit.  The RREF basis is unique for a
    given subspace, so equal spans compare and hash equal and every
    function returning a ``Subspace`` is deterministic.
    """

    ambient_dim: int
    basis: tuple[int, ...]      # RREF rows, by increasing pivot

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, tuple(1 << j for j in range(ambient_dim)))

    @classmethod
    def from_vectors(cls, vectors, ambient_dim: int) -> "Subspace":
        vectors = list(vectors)
        if any(v >> ambient_dim for v in vectors):
            raise ValueError("vector does not fit the ambient dimension")
        return cls(ambient_dim, tuple(rref(vectors)))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def reduce(self, v: int) -> int:
        """Canonical representative of ``v`` modulo this subspace: zero on
        every row's pivot bit.  A full subspace (every E_2 cycle space) has
        every bit as a pivot, so only the bits of ``v`` above it are left."""
        if len(self.basis) == self.ambient_dim:
            return v >> self.ambient_dim << self.ambient_dim
        for row in self.basis:
            if v & row & -row:
                v ^= row
        return v

    def contains(self, v: int) -> bool:
        return not self.reduce(v)

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(v) for v in other.basis)

    def add(self, vectors) -> "Subspace":
        """Span of this subspace together with the given vectors."""
        return Subspace.from_vectors(self.basis + tuple(vectors), self.ambient_dim)

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def kernel_vectors(images, sources) -> list[int]:
    """The vectors of ``span(sources)`` that a linear map sends to zero, given
    ``images[i]``, the image of ``sources[i]``.

    One forward elimination on the pairs ``(image, source)``: each row keeps
    the source combination whose image it is, so an image that reduces to
    zero leaves a kernel vector in the sources' coordinates, with no basis
    of relations in between.  The result spans the kernel, one vector for
    each image that depends on the earlier ones; it is a basis when the
    sources are independent.
    """
    echelon: list[tuple[int, int, int]] = []
    kernel = []
    for image, source in zip(images, sources, strict=True):
        for pivot, row, row_source in echelon:
            if image & pivot:
                image ^= row
                source ^= row_source
        if image:
            echelon.append((image & -image, image, source))
        else:
            kernel.append(source)
    return kernel


def kernel_basis(columns) -> Subspace:
    """Kernel of the map with the given columns; dim = len(columns) - rank."""
    units = [1 << i for i in range(len(columns))]
    return Subspace.from_vectors(kernel_vectors(columns, units), len(columns))


def image_basis(columns) -> Subspace:
    """Column space of the map with the given columns; dim = rank.

    Its ambient space is the narrowest that holds every column.
    """
    width = max((v.bit_length() for v in columns), default=0)
    return Subspace.from_vectors(columns, width)


def subquotient(kernel: Subspace, image: Subspace) -> tuple[int, ...]:
    """Canonical coset representatives of ``kernel / image``.

    Raises ``ValueError`` when the image is not contained in the kernel,
    which signals an inconsistent differential upstream.  The returned
    vectors are an RREF basis of a complement of ``image`` inside ``kernel``:
    they vanish on the image's pivot coordinates, so their span meets the
    image only in zero and representative choice is deterministic.  There
    are dim K - dim I of them: ``image.reduce`` is linear and zero exactly
    on the image, which lies inside the kernel, so it maps the kernel onto
    a space of that dimension.
    """
    if kernel.ambient_dim != image.ambient_dim:
        raise ValueError("kernel and image live in different ambient spaces")
    if not kernel.contains_subspace(image):
        raise ValueError("image is not contained in the kernel")
    return tuple(rref(map(image.reduce, kernel.basis)))


def solve(rows, target: int) -> int | None:
    """Coefficients ``x`` with ``combine(x, rows) == target``, or ``None``.

    ``rows`` spans the candidate space; the solution is unique when the rows
    are independent.  The target is eliminated after the rows, with unit
    sources: it lies in their span exactly when it leaves a kernel vector
    with its own bit n set, and the other bits are the coefficients.
    """
    rows = list(rows)
    n = len(rows)
    kernel = kernel_vectors(rows + [target], [1 << i for i in range(n + 1)])
    if kernel and kernel[-1] >> n & 1:
        return kernel[-1] ^ (1 << n)
    return None
