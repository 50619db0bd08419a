"""Permutations of {1, ..., n} as tuples in one-line notation.

``w[i-1]`` is the image of ``i``.  Composition is function composition:
``compose(u, v)(i) = u(v(i))``.
"""

from __future__ import annotations

from bisect import bisect

from .errors import PreconditionError

__all__ = [
    "identity", "compose", "inverse", "apply_simple",
    "length", "inversions", "is_identity",
    "descents_left", "reduced_word", "word_to_perm",
    "prefix_counts", "guard_bits", "bruhat_leq", "bruhat_leq_subword",
    "weak_leq",
]


def identity(n):
    return tuple(range(1, n + 1))


def is_identity(w):
    return all(w[i] == i + 1 for i in range(len(w)))


def compose(u, v):
    if len(u) != len(v):
        raise PreconditionError("size mismatch in permutation product")
    return tuple(u[v[i] - 1] for i in range(len(v)))


def inverse(w):
    out = [0] * len(w)
    for i, x in enumerate(w):
        out[x - 1] = i + 1
    return tuple(out)


def apply_simple(w, i):
    """Left-multiply by s_i: swap the values i and i+1 in w."""
    out = list(w)
    a, b = out.index(i), out.index(i + 1)
    out[a], out[b] = out[b], out[a]
    return tuple(out)


def length(w):
    """Coxeter length = number of inversions, counted in O(n log n):
    reading w left to right, a Fenwick tree over the values counts the
    entries read so far that are <= x; the others form inversions with
    x."""
    n = len(w)
    tree = [0] * (n + 1)
    count = 0
    for seen, x in enumerate(w):
        count += seen
        k = x
        while k:
            count -= tree[k]
            k &= k - 1
        k = x
        while k <= n:
            tree[k] += 1
            k += k & -k
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


def descents_left(w):
    """Indices i with l(s_i w) < l(w), i.e. i+1 appears left of i."""
    pos = inverse(w)
    return [i for i in range(1, len(w)) if pos[i] < pos[i - 1]]


def reduced_word(w):
    """One reduced word (i_1, ..., i_k) with w = s_{i_1} ... s_{i_k}.

    Obtained by repeatedly stripping a left descent, so the output is
    deterministic (smallest descent first).
    """
    word = []
    w = tuple(w)
    while not is_identity(w):
        i = descents_left(w)[0]
        word.append(i)
        w = apply_simple(w, i)
    return tuple(word)


def word_to_perm(n, word):
    w = identity(n)
    for i in reversed(word):
        w = apply_simple(w, i)
    return w


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


def _all_reduced_words(w):
    if is_identity(w):
        yield ()
        return
    for i in descents_left(w):
        for rest in _all_reduced_words(apply_simple(w, i)):
            yield (i,) + rest


def bruhat_leq_subword(u, w):
    """Brute-force Bruhat test by the subword property; test oracle only."""
    lu = length(u)
    for word in _all_reduced_words(w):
        k = len(word)
        for mask in range(1 << k):
            if bin(mask).count("1") != lu:
                continue
            sub = [word[j] for j in range(k) if mask >> j & 1]
            if word_to_perm(len(w), sub) == u:
                return True
    return False


def weak_leq(u, w):
    """Left weak order: u <=_W w iff l(w u^{-1}) + l(u) = l(w)."""
    return length(compose(w, inverse(u))) + length(u) == length(w)
