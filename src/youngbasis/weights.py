"""Axial-distance coefficients for the seminormal actions.

Every family uses one coefficient, (q - q^-1) / (1 - W_i/W_j), where
W = u_k q^{2 ct} is the weighted content of an entry's box.  At q = 1
two entries of one component have W_i = W_j, and the coefficient is the
limit 1 / (ct(j) - ct(i)), the reciprocal axial distance.  Any other
vanishing denominator signals parameters outside the semisimple range
and raises instead of guessing.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DegenerateWeightError, PreconditionError
from .fields import QFIELD, QRat, evaluate_q

__all__ = ["weighted_content", "q_axial_weight"]


def weighted_content(t, i, page_weights, q=None):
    """q^{2c} for the box of entry i: page weight times q^{2(col-row)}.

    With q=None the result is symbolic in q; otherwise exact rational.
    """
    w = page_weights[t.component_of(i) - 1]
    ct = t.content(i)
    if q is None:
        return QFIELD.coerce(w) * QRat.q_power(2 * ct)
    q = Fraction(q)
    if q == 0:
        raise PreconditionError("q must be nonzero")
    # a symbolic page weight takes its value at the numeric q
    return evaluate_q(w, q) * q ** (2 * ct)


def q_axial_weight(t, i, j, page_weights, q=None):
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
        symbolic = q is None
        ratio = weighted_content(t, i, page_weights, q) \
            / weighted_content(t, j, page_weights, q)
        one = QFIELD.one if symbolic else Fraction(1)
        if ratio != one:
            if symbolic:
                num = QFIELD.q - QFIELD.q_inv
            else:
                q = Fraction(q)
                num = q - 1 / q
            return num / (one - ratio)
    raise DegenerateWeightError(
        f"weighted contents of {i} and {j} coincide (1 - q^(2 delta) = 0)")
