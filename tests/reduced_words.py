"""Permutations as one-line tuples, as in ``youngbasis.perms``: the
group operations, the left weak order, reduced words and the subword
criterion for the strong Bruhat order, as brute-force oracles for the
tests.  Composition is function composition:
``compose(u, v)(i) = u(v(i))``."""

from youngbasis.errors import PreconditionError
from youngbasis.perms import length


def identity(n):
    return tuple(range(1, n + 1))


def compose(u, v):
    if len(u) != len(v):
        raise PreconditionError("size mismatch in permutation product")
    return tuple(u[v[i] - 1] for i in range(len(v)))


def inverse(w):
    out = [0] * len(w)
    for i, x in enumerate(w):
        out[x - 1] = i + 1
    return tuple(out)


def weak_leq(u, w):
    """Left weak order: u <=_W w iff l(w u^{-1}) + l(u) = l(w)."""
    return length(compose(w, inverse(u))) + length(u) == length(w)


def is_identity(w):
    return all(w[i] == i + 1 for i in range(len(w)))


def apply_simple(w, i):
    """Left-multiply by s_i: swap the values i and i+1 in w."""
    out = list(w)
    a, b = out.index(i), out.index(i + 1)
    out[a], out[b] = out[b], out[a]
    return tuple(out)


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


def _all_reduced_words(w):
    if is_identity(w):
        yield ()
        return
    for i in descents_left(w):
        for rest in _all_reduced_words(apply_simple(w, i)):
            yield (i,) + rest


def bruhat_leq_subword(u, w):
    """Brute-force Bruhat test by the subword property."""
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
