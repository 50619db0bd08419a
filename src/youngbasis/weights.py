"""Axial-distance coefficients for the seminormal actions.

Every family uses one coefficient, (q - q^-1) / (1 - W_i/W_j), where
W = u_k q^{2 ct} is the weighted content of an entry's box.  q and the
page weights u_k are scalars of one coefficient field: rational, or
rational functions of a symbolic q.  At q = 1 two entries of one
component have W_i = W_j, and the coefficient is the limit
1 / (ct(j) - ct(i)), the reciprocal axial distance.  Any other vanishing
denominator signals parameters outside the semisimple range and raises
instead of guessing.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DegenerateWeightError, PreconditionError

__all__ = ["weighted_content", "q_axial_weight"]


def weighted_content(t, i, page_weights, q):
    """u_k q^{2c} for the box of entry i: its component's page weight
    times q^{2(col-row)}, in the field of q and the page weights."""
    return page_weights[t.component_of(i) - 1] * q ** (2 * t.content(i))


def q_axial_weight(t, i, j, page_weights, q):
    """The coefficient (q - q^-1) / (1 - W_i/W_j) of the ordered pair (i, j).

    For entries of one component with d = ct(i) - ct(j) this is
    -q^{-d} / [d]_q, which at q = 1 is 1 / (ct(j) - ct(i)); entries of
    different components with distinct page weights get 0 at q = 1.
    """
    if i == j:
        raise PreconditionError("axial weight needs two distinct entries")
    if q == 1 and t.component_of(i) == t.component_of(j):
        # W_i = W_j: take the limit
        d = t.content(j) - t.content(i)
        if d:
            return Fraction(1, d)
    else:
        ratio = weighted_content(t, i, page_weights, q) \
            / weighted_content(t, j, page_weights, q)
        if ratio != 1:
            return (q - 1 / q) / (1 - ratio)
    raise DegenerateWeightError(
        f"weighted contents of {i} and {j} coincide (1 - q^(2 delta) = 0)")
