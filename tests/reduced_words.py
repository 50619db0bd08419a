"""Reduced words of permutations (one-line tuples, as in
``youngbasis.perms``) and the subword criterion for the strong Bruhat
order: brute-force oracles for the tests."""

from youngbasis.perms import identity, inverse, length


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
