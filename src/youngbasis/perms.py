"""Permutations of {1, ..., n} as tuples in one-line notation:
``w[i-1]`` is the image of ``i``.
"""

from __future__ import annotations

from bisect import bisect

from .errors import PreconditionError

__all__ = ["length", "inversions", "prefix_counts", "guard_bits",
           "bruhat_leq"]


def length(w):
    """Coxeter length = number of inversions, counted on the sorted walk
    of :func:`inversions`: each x adds the entries read before it that
    are larger."""
    seen = []
    count = 0
    for i, x in enumerate(w):
        k = bisect(seen, x)
        count += i - k
        seen.insert(k, x)
    return count


def inversions(w):
    """The inversions (w[a], w[b]), a < b and w[a] > w[b], in reading
    order.  The entries read so far are kept sorted, so those above x
    are both x's pairs and the entries that inserting x shifts:
    O(n log n + inversions)."""
    seen = []
    for x in w:
        k = bisect(seen, x)
        for y in seen[k:]:
            yield y, x
        seen.insert(k, x)


def _field_bytes(n):
    """Bytes per packed count of permutations of n: the fewest whose top
    bit no count (at most n - 1) reaches."""
    for size in (1, 2):
        if n - 1 < 1 << (8 * size - 1):
            return size
    raise PreconditionError(f"permutations of {n} are too long to pack")


def _repeat(value, size, count):
    """count fields of size bytes, each holding value, as one int; field
    0 is the lowest."""
    return int.from_bytes(value.to_bytes(size, "little") * count, "little")


def prefix_counts(w):
    """The counts #{w(1..i) <= k} for i, k = 1..n-1 as one int: field
    (i-1)(n-1) + (k-1), ``_field_bytes(n)`` bytes wide, holds the count
    of (i, k).  Each row i is written once into one buffer, so the cost
    is linear in the size of the result."""
    n = len(w)
    size = _field_bytes(n)
    ones = _repeat(1, size, n - 1)
    row = 0
    out = bytearray()
    for x in w[:-1]:
        # x adds one to the count of every k >= x
        shift = (x - 1) * 8 * size
        row += ones >> shift << shift
        out += row.to_bytes((n - 1) * size, "little")
    return int.from_bytes(out, "little")


def guard_bits(n):
    """The int with the top bit of every field of ``prefix_counts`` set.
    No count reaches its field's top bit, so for permutations u, w of n
    every count of u is >= that of w exactly when
    ``((prefix_counts(u) | G) - prefix_counts(w)) & G == G``: no field
    borrows from its guard."""
    size = _field_bytes(n)
    return _repeat(1 << (8 * size - 1), size, max(n - 1, 0) ** 2)


def bruhat_leq(u, w):
    """Strong Bruhat order via the sorted-prefix dominance criterion
    (Bjorner-Brenti, Thm 2.6.3): u <= w iff for every i the sorted
    prefix {u(1..i)} is entrywise <= the sorted prefix {w(1..i)}, that
    is, iff #{u(1..i) <= k} >= #{w(1..i) <= k} for all i and k."""
    if len(u) != len(w):
        raise PreconditionError("size mismatch in Bruhat comparison")
    guard = guard_bits(len(u))
    return ((prefix_counts(u) | guard) - prefix_counts(w)) & guard == guard
