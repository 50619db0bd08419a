"""Permutations of {1, ..., n} as tuples in one-line notation.

``w[i-1]`` is the image of ``i``.  Composition is function composition:
``compose(u, v)(i) = u(v(i))``.
"""

from __future__ import annotations

from bisect import insort
from operator import le

from .errors import PreconditionError

__all__ = [
    "identity", "compose", "inverse", "apply_simple",
    "length", "is_identity",
    "descents_left", "reduced_word", "word_to_perm",
    "sorted_prefixes", "bruhat_leq", "bruhat_leq_subword", "weak_leq",
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
    """Coxeter length = number of inversions, counted directly."""
    n = len(w)
    count = 0
    for i in range(n):
        for j in range(i + 1, n):
            if w[i] > w[j]:
                count += 1
    return count


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


def sorted_prefixes(w):
    """The sorted prefixes sorted(w[:1]), ..., sorted(w[:n-1]) of w,
    concatenated into one flat tuple."""
    out = []
    prefix = []
    for x in w[:-1]:
        insort(prefix, x)
        out.extend(prefix)
    return tuple(out)


def bruhat_leq(u, w):
    """Strong Bruhat order via the sorted-prefix dominance criterion:
    u <= w iff for every k the sorted prefix {u(1..k)} is entrywise
    <= the sorted prefix {w(1..k)} (Bjorner-Brenti, Thm 2.6.3)."""
    if len(u) != len(w):
        raise PreconditionError("size mismatch in Bruhat comparison")
    return all(map(le, sorted_prefixes(u), sorted_prefixes(w)))


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
