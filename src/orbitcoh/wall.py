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


def case_label(fiber: AlgebraPresentation, choices) -> str | None:
    """The paper's case letter for one assignment, or None off the Wall fiber.

    ``choices`` holds ``(generator name, target or None)`` in generator
    order.  The suffix of a transgressing d is its target's bit mask over
    ``degree_basis(1)`` on page 2, or 4 on page 3, where the x- and c-free
    case is A.
    """
    if [(g.name, g.degree) for g in fiber.generators] != [("x", 1), ("c", 1), ("d", 2)]:
        return None
    (_, x), (_, c), (_, d) = choices
    permanent, transgressing = _LETTERS[(x is not None, c is not None)]
    if d is None:
        return permanent
    label = f"{transgressing}{4 if d.page == 3 else fiber.to_vector(d.element, 1)}"
    return "A" if label == "B4" else label


def is_identity_or_twist(pres: AlgebraPresentation, cand) -> bool:
    """True when the candidate action fixes x and d and sends c to c or c + x."""
    x, c, d = (pres.gen(name) for name in ("x", "c", "d"))
    return cand.image("x") == x and cand.image("d") == d and cand.image("c") in (c, c + x)
