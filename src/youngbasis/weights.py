"""Axial-distance coefficients for the seminormal actions.

Every family uses one coefficient, (q - q^-1) / (1 - W_i/W_j), where
W = u_k q^{2 ct} is the weighted content of an entry's box (k, row,
col), ct = col - row.  It depends only on the key (k_i, k_j, d) of the
pair: the two components and d = ct(i) - ct(j).  q and the page weights
u_k are scalars of one coefficient field: rational, or rational
functions of a symbolic q.  At q = 1 two entries of one component have
W_i = W_j, and the coefficient is the limit -1/d, the reciprocal axial
distance.  A key with any other vanishing denominator has none: its
parameters are outside the semisimple range.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["weighted_content", "q_axial_weight"]


def weighted_content(box, page_weights, q):
    """u_k q^{2(col-row)} for the box (k, row, col): its component's
    page weight times q^{2 ct}, in the field of q and the page weights."""
    k, row, col = box
    return page_weights[k - 1] * q ** (2 * (col - row))


def q_axial_weight(key, page_weights, q):
    """The coefficient (q - q^-1) / (1 - W_i/W_j) of the key (k_i, k_j,
    d), where W_i/W_j = (u_{k_i}/u_{k_j}) q^{2d}, or None where
    W_i = W_j has no limit.

    Within one component this is -q^{-d} / [d]_q, which at q = 1 is
    -1/d; entries of different components with distinct page weights
    get 0 at q = 1.
    """
    ki, kj, d = key
    if q == 1 and ki == kj:
        # W_i = W_j: take the limit
        return Fraction(-1, d) if d else None
    ratio = page_weights[ki - 1] * q ** (2 * d) / page_weights[kj - 1]
    if ratio == 1:
        return None
    return (q - 1 / q) / (1 - ratio)
