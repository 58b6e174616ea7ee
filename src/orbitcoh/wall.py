"""The paper's case taxonomy for the Wall manifolds Q(m, n).

The one module that gives the generators of ``algebra.wall_presentation``
(x and c in degree 1, d in degree 2) a meaning: the transgression cases
A-H and the identity and c -> c + x involutions.  ``spectral`` and
``actions`` stay generic and ask here.
"""

from __future__ import annotations

from .algebra import AlgebraPresentation

# (x transgresses, c transgresses) -> letter when d is a permanent cocycle,
# letter when d transgresses
_LETTERS = {
    (False, False): ("Z", "B"),
    (True, True): ("C", "D"),
    (True, False): ("E", "F"),
    (False, True): ("H", "G"),
}


def case_label(fiber: AlgebraPresentation, targets) -> str | None:
    """The paper's case letter for one assignment, or None off the Wall fiber.

    ``targets`` holds one transgression target or None per generator, in
    generator order.  The suffix of a transgressing d is its target's bit
    mask over ``degree_basis(1)`` (page 2), or 4 for the unit (page 3),
    where the x- and c-free case is A.
    """
    if [(g.name, g.degree) for g in fiber.generators] != [("x", 1), ("c", 1), ("d", 2)]:
        return None
    x, c, d = targets
    permanent, transgressing = _LETTERS[(x is not None, c is not None)]
    if d is None:
        return permanent
    label = f"{transgressing}{4 if d.degree == 0 else fiber.to_vector(d, 1)}"
    return "A" if label == "B4" else label


def is_identity_or_twist(cand) -> bool:
    """True when the candidate action fixes x and d and sends c to c or c + x."""
    x, c, d = (cand.pres.gen(name) for name in ("x", "c", "d"))
    return cand.image("x") == x and cand.image("d") == d and cand.image("c") in (c, c + x)
