"""Exact coefficient arithmetic.

Three scalar domains are supported, all with canonical forms so that
equality is decidable and serialized output is bit-stable:

* arbitrary-precision rationals (``fractions.Fraction``),
* fractions of Laurent polynomials in one variable ``q`` (:class:`QRat`),
* the cyclotomic extension Q(xi) with xi a primitive r-th root of
  unity, represented modulo the r-th cyclotomic polynomial
  (:class:`Cyclo`).

Both polynomial domains run on one kernel: dense integer polynomials
stored as int tuples, constant first (degrees stay small here, so dense
storage is the simple choice).  The kernel's product and its gcd, which
returns the two cofactors with it, are pure functions of their tuples
and are memoized in bounded LRU caches: a symbolic-q recursion repeats
a few hundred distinct operand pairs tens of thousands of times.  So
every argument must be a tuple (lists are unhashable).

A :class:`QRat` is ``(sn / sd) * q**exp * N / D``: a scale held as two
coprime ints ``sn`` and ``sd > 0``, and two coprime primitive integer
polynomials ``N`` and ``D`` with positive leading coefficients and
nonzero constant terms.  A Laurent polynomial in q is a QRat with
``D = (1,)``.  Products cross-cancel gcd(N1, D2) and gcd(N2, D1) (and
the two scales likewise), and sums cancel only against gcd(D1, D2).
A gcd is read off the integer gcd of the two polynomials' values at
one large integer (GCDHEU), proved by exact division, with the
primitive remainder sequence as the fallback.  So no arithmetic on a
QRat builds a Fraction.

A :class:`Cyclo` is an integer polynomial in xi of degree < phi(r) over
one positive integer denominator, coprime to its coefficients.  The
cyclotomic polynomial is monic, so reducing modulo it stays integral,
and an inverse is the product of the other Galois conjugates over the
(rational) norm.

QRat and Cyclo share one base, :class:`_Scalar`, which defines
equality, hashing and the eight arithmetic operators once
over each type's hooks: ``_lift`` (the other operand in the type, an int
or a Fraction as a constant, or NotImplemented), ``_key`` (all ints,
equal exactly for equal values), ``_rational`` (the value as a Fraction
if it is one, so it hashes like one), ``_add``, ``_mul``, ``__neg__``
and ``_inverse``.  The three field descriptors compare, hash and print
by ``name``; the q and cyclotomic fields share everything but their
constants and ``parse``, and coerce a rational through ``_lift``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import attrgetter

from .errors import (FieldMismatchError, PoleError, PreconditionError,
                     ShapeParseError)

__all__ = [
    "Fraction", "QRat", "Cyclo",
    "RationalField", "QRationalField", "CyclotomicField",
    "field_of", "field_by_name", "evaluate_q",
    "quantum_integer", "check_semisimple", "parse_rational",
]

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# primitive polynomials over the integers, as int tuples (constant first)
# ---------------------------------------------------------------------------

_I_ONE = (1,)

# Entries kept per kernel cache.  On symbolic hecke_A 4,3,2,1 (327k gcd
# calls) 4096 entries miss 12.6k gcds, 16384 miss 11.8k and 1024 25.3k.
_KERNEL_CACHE_SIZE = 4096


def _iprimitive(a):
    """Split a nonzero int polynomial into (content, primitive part); the
    content carries the sign of the leading coefficient, so the primitive
    part leads positive."""
    g = gcd(*a)
    if a[-1] < 0:
        g = -g
    if g == 1:
        return 1, tuple(a)
    return g, tuple(v // g for v in a)


def _fraction_content(coeffs):
    """Split nonzero int or Fraction coefficients into their content
    g / den and a primitive int polynomial with positive leading
    coefficient.  g and den > 0 are coprime: a coefficient whose
    denominator has the most factors p of den has a numerator prime to
    p, and so does its integer multiple."""
    den = lcm(*(c.denominator for c in coeffs))
    g, prim = _iprimitive([c.numerator * (den // c.denominator) for c in coeffs])
    return g, den, prim


@lru_cache(maxsize=_KERNEL_CACHE_SIZE)
def _imul(a, b):
    """Product of nonzero int polynomials (no trimming: over the integers
    the leading coefficient of a product is never zero)."""
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:
        c = b[0]
        return a if c == 1 else tuple(c * x for x in a)
    out = [0] * (len(a) + len(b) - 1)
    for j, y in enumerate(b):
        if y:
            for i, x in enumerate(a, j):
                out[i] += x * y
    return tuple(out)


def _iquo(a, b):
    """Exact quotient a / b of int polynomials, or None when b does not
    divide a.  By Gauss's lemma the quotient is integral whenever b is
    primitive and divides a over Q."""
    if len(b) == 1 and b[0] == 1:
        return a
    nb, lead = len(b), b[-1]
    if len(a) < nb:
        return None
    a = list(a)
    q = [0] * (len(a) - nb + 1)
    for i in range(len(a) - nb, -1, -1):
        c, r = divmod(a[i + nb - 1], lead)
        if r:
            return None
        if c:
            q[i] = c
            for j, y in enumerate(b, i):
                a[j] -= c * y
    if any(a[:nb - 1]):
        return None
    return tuple(q)


def _int_prem(a, b):
    """Pseudo-remainder of integer polynomials: lc(b)^k a mod b for some
    k >= 0.  A step scales by lc(b) only when lc(b) does not divide the
    leading coefficient, which keeps the coefficients small."""
    a = list(a)
    nb, lead = len(b), b[-1]
    while len(a) >= nb:
        c = a.pop()
        if c:
            quo, rem = divmod(c, lead)
            if rem:
                a = [v * lead for v in a]
                quo = c
            for j, y in enumerate(b[:-1], len(a) - nb + 1):
                a[j] -= quo * y
    while a and a[-1] == 0:
        a.pop()
    return tuple(a)


def _ieval(a, x):
    """Value of an int polynomial at an int or a Fraction, by Horner's
    rule."""
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _prs_gcd(a, b):
    """Gcd of two primitive int polynomials with positive leading
    coefficients, by the primitive remainder sequence (Brown 1971,
    Collins 1967): the result is primitive and leads positive."""
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        if a == b:
            return b
        r = _int_prem(a, b)
        if not r:
            return b
        a, b = b, _iprimitive(r)[1]
    return _I_ONE


# Evaluation points GCDHEU tries before the remainder sequence.  Of the
# 10,874 gcds that miss the cache on symbolic hecke_A 4,3,2,1, 23 need a
# second point and none a third.
_HEU_TRIES = 4


@lru_cache(maxsize=_KERNEL_CACHE_SIZE)
def _igcd(a, b):
    """(g, a / g, b / g) for primitive int polynomials a and b with
    positive leading coefficients, where g = gcd(a, b) is primitive and
    leads positive.

    By GCDHEU (Char, Geddes and Gonnet, J. Symbolic Comput. 7, 1989): at
    an integer xi >= 2 * min(|a|, |b|) + 2 (max norms), the balanced
    xi-adic digits of the integer gcd(a(xi), b(xi)) are a polynomial
    whose primitive part is gcd(a, b) if it divides both a and b.  A
    candidate that does not divide was spoiled by a common factor of the
    two values that the polynomials do not share, so the next point is
    xi**2.  The first point is four times the bound, which makes that
    rare; after _HEU_TRIES points the remainder sequence decides."""
    xi = 8 * min(max(map(abs, a)), max(map(abs, b))) + 8
    for _ in range(_HEU_TRIES):
        h, digits, half = gcd(_ieval(a, xi), _ieval(b, xi)), [], xi // 2
        while h:
            h, d = divmod(h, xi)
            if d > half:
                d -= xi
                h += 1
            digits.append(d)
        g = _iprimitive(digits)[1]
        ca = _iquo(a, g)
        if ca is not None:
            cb = _iquo(b, g)
            if cb is not None:
                return g, ca, cb
        xi *= xi
    g = _prs_gcd(a, b)
    return g, _iquo(a, g), _iquo(b, g)


# ---------------------------------------------------------------------------
# the scalar protocol
# ---------------------------------------------------------------------------

class _Scalar:
    """Equality, hashing and arithmetic of QRat and Cyclo, written once
    over the hooks each type supplies (see the module docstring)."""

    __slots__ = ()

    def __eq__(self, other):
        try:
            other = self._lift(other)
        except FieldMismatchError:
            # Cyclos of two orders: equal only as the same rational
            c = self._rational()
            return c is not None and c == other._rational()
        if other is NotImplemented:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        # a scalar equal to a rational hashes like it
        c = self._rational()
        return hash(self._key()) if c is None else hash(c)

    def __add__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return self._add(other)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return self._add(-other)

    def __rsub__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return other._add(-self)

    def __mul__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return self._mul(other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return self._mul(other._inverse())

    def __rtruediv__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return other._mul(self._inverse())


# ---------------------------------------------------------------------------
# fractions of Laurent polynomials
# ---------------------------------------------------------------------------

class QRat(_Scalar):
    """Quotient of Laurent polynomials in q, kept in canonical form.

    A value is ``(sn / sd) * q**exp * N(q) / D(q)`` where ``N`` and ``D``
    are coprime primitive integer polynomials (int tuples, constant
    first) with positive leading coefficients and nonzero constant
    terms, and the scale is the int pair ``sn``, ``sd`` in lowest terms
    with ``sd > 0``.  Zero is ``N = ()``, ``sn = 0``, ``sd = 1``,
    ``D = (1,)``.  Equal values therefore have identical
    representations, and all work happens on Python ints.  A Laurent
    polynomial is a QRat with ``D = (1,)``; ``num`` and ``den`` split a
    value into two of them, ``(sn / sd) * q**exp * N`` over ``D``.
    """

    __slots__ = ("_exp", "_num", "_sn", "_sd", "_den")

    @classmethod
    def const(cls, c):
        if not isinstance(c, int):
            c = Fraction(c)
        if not c:
            return _Q_ZERO
        return _qrat(0, _I_ONE, c.numerator, c.denominator, _I_ONE)

    @classmethod
    def q_power(cls, k):
        return _qrat(k, _I_ONE, 1, 1, _I_ONE)

    @classmethod
    def poly(cls, offset, coeffs):
        """The Laurent polynomial sum of coeffs[i] * q**(offset + i)."""
        lo, hi = 0, len(coeffs)
        while hi > lo and not coeffs[hi - 1]:
            hi -= 1
        if hi == lo:
            return _Q_ZERO
        while not coeffs[lo]:
            lo += 1
        sn, sd, prim = _fraction_content(coeffs[lo:hi])
        return _qrat(offset + lo, prim, sn, sd, _I_ONE)

    @property
    def num(self):
        return _qrat(self._exp, self._num, self._sn, self._sd, _I_ONE)

    @property
    def den(self):
        return _qrat(0, self._den, 1, 1, _I_ONE)

    def _int_terms(self):
        """(exponent, sn * coefficient) of each nonzero term of the
        numerator, ascending: its terms over the int denominator sd."""
        sn, e = self._sn, self._exp
        return [(e + i, sn * c) for i, c in enumerate(self._num) if c]

    def terms(self):
        """(exponent, coefficient) of each nonzero term of the numerator
        ``(sn / sd) * q**exp * N``, ascending; a coefficient is an int
        when sd is 1, and a Fraction otherwise."""
        sd = self._sd
        if sd == 1:
            return self._int_terms()
        return [(e, Fraction(c, sd)) for e, c in self._int_terms()]

    def __bool__(self):
        return bool(self._num)

    def _lift(self, other):
        if isinstance(other, QRat):
            return other
        if isinstance(other, (int, Fraction)):
            return QRat.const(other)
        return NotImplemented

    def _key(self):
        # all ints, so hashing and comparing a key run in C
        return self._exp, self._num, self._sn, self._sd, self._den

    def _rational(self):
        # a primitive polynomial of length 1 is (1,)
        if self._exp == 0 and len(self._num) < 2 and len(self._den) == 1:
            return Fraction(self._sn, self._sd)

    def __neg__(self):
        return _qrat(self._exp, self._num, -self._sn, self._sd, self._den)

    def _inverse(self):
        if not self._num:
            raise ZeroDivisionError("division by zero rational function")
        sn, sd = self._sn, self._sd
        if sn < 0:
            sn, sd = -sn, -sd
        return _qrat(-self._exp, self._den, sd, sn, self._num)

    def __pow__(self, k):
        """self**k for an integer k, by square-and-multiply."""
        if not isinstance(k, int):
            return NotImplemented
        x = self._inverse() if k < 0 else self
        out = QRat.const(1)
        for bit in bin(abs(k))[2:]:
            out = _qmul(out, out)
            if bit == "1":
                out = _qmul(out, x)
        return out

    def evaluate(self, q0):
        q0 = Fraction(q0)
        if q0 == 0:
            raise PoleError("cannot evaluate at q = 0")
        d = _ieval(self._den, q0)
        if d == 0:
            raise PoleError(f"pole at q = {q0}")
        return (Fraction(self._sn, self._sd) * _ieval(self._num, q0)
                * q0 ** self._exp / d)

    def __repr__(self):
        return f"QRat({self.to_str()!r})"

    def to_str(self):
        num = _format_terms(self._int_terms(), self._sd, "q")
        return f"({num})/({_den_str(self._den)})"


@lru_cache(maxsize=_KERNEL_CACHE_SIZE)
def _den_str(den):
    """The string of a QRat denominator: a matrix has far fewer distinct
    denominators than values."""
    return _format_terms([(i, c) for i, c in enumerate(den) if c], 1, "q")


def _qrat(exp, num, sn, sd, den):
    """A QRat from parts already in canonical form."""
    out = object.__new__(QRat)
    out._exp = exp
    out._num = num
    out._sn = sn
    out._sd = sd
    out._den = den
    return out


_Q_ZERO = _qrat(0, (), 0, 1, _I_ONE)


def _qmul(a, b):
    """Product with gcd(N1, D2) and gcd(N2, D1) cancelled, and the
    scales cross-cancelled the same way; the results stay primitive and
    coprime, so no further normalization is needed.  A primitive
    polynomial of length 1 is (1,), so a gcd with one is skipped."""
    n1, d1, n2, d2 = a._num, a._den, b._num, b._den
    if not n1 or not n2:
        return _Q_ZERO
    if len(d2) > 1 and len(n1) > 1:
        _, n1, d2 = _igcd(n1, d2)
    if len(d1) > 1 and len(n2) > 1:
        _, n2, d1 = _igcd(n2, d1)
    p1, r1, p2, r2 = a._sn, a._sd, b._sn, b._sd
    if r2 != 1:
        g = gcd(p1, r2)
        if g != 1:
            p1, r2 = p1 // g, r2 // g
    if r1 != 1:
        g = gcd(p2, r1)
        if g != 1:
            p2, r1 = p2 // g, r1 // g
    return _qrat(a._exp + b._exp,
                 n2 if len(n1) == 1 else n1 if len(n2) == 1 else _imul(n1, n2),
                 p1 * p2, r1 * r2,
                 d2 if len(d1) == 1 else d1 if len(d2) == 1 else _imul(d1, d2))


def _qadd(a, b):
    """Sum over the denominator lcm g*c1*c2 with g = gcd(D1, D2).  The
    combined numerator is coprime to c1 and c2, so only gcd(num, g) can
    cancel."""
    n1, n2 = a._num, b._num
    if not n1:
        return b
    if not n2:
        return a
    d1, d2 = a._den, b._den
    if d1 == d2:
        g, rest = d1, _I_ONE
    else:
        g, c1, c2 = _igcd(d1, d2)
        n1, n2, rest = _imul(n1, c2), _imul(n2, c1), _imul(c1, c2)
    # s1*X + s2*Y = (h / m) * (a1*X + a2*Y) with integer a1, a2
    p1, r1, p2, r2 = a._sn, a._sd, b._sn, b._sd
    t, h = gcd(r1, r2), gcd(p1, p2)
    a1, a2 = p1 // h * (r2 // t), p2 // h * (r1 // t)
    e1, e2 = a._exp, b._exp
    exp = min(e1, e2)
    out = [0] * (max(e1 + len(n1), e2 + len(n2)) - exp)
    for i, x in enumerate(n1, e1 - exp):
        out[i] = a1 * x
    for i, y in enumerate(n2, e2 - exp):
        out[i] += a2 * y
    lo, hi = 0, len(out)
    while hi > lo and not out[hi - 1]:
        hi -= 1
    if hi == lo:
        return _Q_ZERO
    while not out[lo]:
        lo += 1
    c, num = _iprimitive(out[lo:hi])
    if len(g) > 1 and len(num) > 1:
        _, num, g = _igcd(num, g)
    sn, sd = c * h, r1 // t * r2
    k = gcd(sn, sd)
    if k != 1:
        sn, sd = sn // k, sd // k
    return _qrat(exp + lo, num, sn, sd, _imul(g, rest))


# plain functions as class attributes, so an operator calls straight in
QRat._add, QRat._mul = _qadd, _qmul

Q = QRat.q_power(1)


# ---------------------------------------------------------------------------
# cyclotomic numbers
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def cyclotomic_polynomial(r):
    """Int coefficients of the r-th cyclotomic polynomial, constant first.

    Computed by exact division of x^r - 1 by the lower-order cyclotomic
    polynomials, so the result is exact for every r.
    """
    if r < 1:
        raise PreconditionError("cyclotomic order must be >= 1")
    num = (-1,) + (0,) * (r - 1) + (1,)
    for d in range(1, r):
        if r % d == 0:
            num = _iquo(num, cyclotomic_polynomial(d))
    return num


class Cyclo(_Scalar):
    """Element of Q(xi), xi a primitive r-th root of unity.

    Stored as ``num / den``: an int polynomial in xi of degree < phi(r),
    reduced modulo the r-th cyclotomic polynomial, over a positive int
    denominator coprime to its coefficients.
    """

    __slots__ = ("r", "num", "den")

    def __init__(self, r, coeffs=()):
        coeffs = [Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in coeffs))
        x = _cyclo(r, [c.numerator * (den // c.denominator) for c in coeffs],
                   den)
        self.r, self.num, self.den = x.r, x.num, x.den

    @classmethod
    def const(cls, r, c):
        c = Fraction(c)
        return _cyclo(r, (c.numerator,), c.denominator)

    @classmethod
    def xi_power(cls, r, k):
        return _cyclo(r, (0,) * (k % r) + (1,), 1)

    def __bool__(self):
        return any(self.num)

    def _lift(self, other):
        if isinstance(other, Cyclo):
            if other.r != self.r:
                raise FieldMismatchError(
                    f"cyclotomic orders differ: {self.r} vs {other.r}")
            return other
        if isinstance(other, (int, Fraction)):
            return Cyclo.const(self.r, other)
        return NotImplemented

    def _key(self):
        return self.r, self.num, self.den

    def _rational(self):
        if not any(self.num[1:]):
            return Fraction(self.num[0], self.den)

    def __neg__(self):
        return _cyclo(self.r, [-c for c in self.num], self.den)

    def _add(self, other):
        """The sum over the common denominator lcm(den_a, den_b)."""
        den = lcm(self.den, other.den)
        ka, kb = den // self.den, den // other.den
        return _cyclo(self.r, [ka * x + kb * y
                               for x, y in zip(self.num, other.num)], den)

    def _mul(self, other):
        return _cyclo(self.r, _imul(self.num, other.num), self.den * other.den)

    def inverse(self):
        """1/x = (product of the other Galois conjugates of x) / N(x).

        sigma_k(xi) = xi^k for the units k mod r; the norm N(x), the
        product of all conjugates, is rational, so no division of
        polynomials is needed."""
        if not self:
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        r, num = self.r, self.num
        phi = cyclotomic_polynomial(r)
        rest = _I_ONE
        for k in range(2, r):
            if gcd(k, r) == 1:
                conj = [0] * r
                for i, c in enumerate(num):
                    conj[i * k % r] = c
                rest = _int_prem(_imul(rest, tuple(conj)), phi)
        norm = _int_prem(_imul(num, rest), phi)
        assert len(norm) == 1
        return _cyclo(r, [self.den * c for c in rest], norm[0])

    _inverse = inverse

    def __repr__(self):
        return f"Cyclo({self.r}, {self.to_str()!r})"

    def to_str(self):
        return _format_terms(
            [(i, c) for i, c in enumerate(self.num) if c], self.den, "z")


def _cyclo(r, num, den):
    """The Cyclo num / den for an int polynomial num in xi and a nonzero
    int den: reduced modulo phi_r (monic, so the remainder is exact) and
    normalized to a positive den coprime to num."""
    phi = cyclotomic_polynomial(r)
    deg = len(phi) - 1
    if len(num) > deg:
        num = _int_prem(num, phi)
    g = gcd(den, *num)
    if den < 0:
        g = -g
    out = object.__new__(Cyclo)
    out.r = r
    out.num = tuple(c // g for c in num) + (0,) * (deg - len(num))
    out.den = den // g
    return out


# ---------------------------------------------------------------------------
# scalar <-> string
# ---------------------------------------------------------------------------

def _ratio_str(x, den):
    """str(Fraction(x, den)) for an int x and a positive int den,
    with no Fraction built: one gcd, then the lowest terms."""
    g = gcd(x, den)
    if g != 1:
        x //= g
        den //= g
    return str(x) if den == 1 else f"{x}/{den}"


def _format_terms(terms, den, symbol):
    """The string of the sum of (c / den) * symbol**exp over the
    (exp, c) in terms: nonzero int coefficients c over one positive int
    den."""
    if not terms:
        return "0"
    parts = []
    for exp, c in terms:
        if exp == 0:
            t = str(c) if den == 1 else _ratio_str(c, den)
        else:
            base = symbol if exp == 1 else f"{symbol}^{exp}"
            if c == den:
                t = base
            elif c == -den:
                t = "-" + base
            else:
                t = f"{c if den == 1 else _ratio_str(c, den)}*{base}"
        if parts and not t.startswith("-"):
            parts.append("+")
        parts.append(t)
    return "".join(parts)


_TERM_RE = re.compile(
    r"^([+-]?)(?:(\d+(?:/\d+)?)\*)?(?:([a-z])(?:\^(-?\d+))?)?$|^([+-]?\d+(?:/\d+)?)$")


def _parse_terms(s, symbol):
    """Parse a term string back into [(exponent, Fraction)]."""
    s = s.strip()
    if s == "0":
        return []
    protected = s.replace("^-", "^~")
    out = []
    for raw in re.findall(r"[+-]?[^+-]+", protected):
        tok = raw.replace("^~", "^-")
        m = _TERM_RE.match(tok)
        if not m:
            raise ShapeParseError(f"bad scalar term {tok!r}")
        if m.group(5) is not None:
            out.append((0, parse_rational(m.group(5))))
            continue
        sign, coeff, sym, exp = m.group(1), m.group(2), m.group(3), m.group(4)
        if sym is None:
            if coeff is None:
                raise ShapeParseError(f"bad scalar term {tok!r}")
            val, e = parse_rational(coeff), 0
        else:
            if sym != symbol:
                raise ShapeParseError(f"unexpected symbol {sym!r} in {tok!r}")
            val = parse_rational(coeff) if coeff is not None else ONE
            e = int(exp) if exp is not None else 1
        if sign == "-":
            val = -val
        out.append((e, val))
    return out


def parse_rational(s):
    try:
        return Fraction(s.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ShapeParseError(f"bad rational {s!r}") from exc


# ---------------------------------------------------------------------------
# field descriptors
# ---------------------------------------------------------------------------

# ``split(x)`` is x as (numerator, positive int denominator), the column
# form of every exact route and of a Matrix: ints over the rationals,
# (x, 1) elsewhere.  ``join(x, den)`` is its inverse, the value x / den,
# and ``split_str(x, den)`` is ``to_str(join(x, den))``.

class _Field:
    """A field descriptor, compared, hashed and printed by its name."""

    def __eq__(self, other):
        return isinstance(other, _Field) and other.name == self.name

    def __hash__(self):
        return hash(self.name)

    def __repr__(self):
        return f"field_by_name({self.name!r})"


class RationalField(_Field):
    name = "rational"
    zero = ZERO
    one = ONE

    # not a method: attrgetter runs in C, and verify splits every entry
    split = attrgetter("numerator", "denominator")
    join = Fraction

    def to_str(self, x):
        return str(Fraction(x))

    split_str = staticmethod(_ratio_str)

    parse = staticmethod(parse_rational)

    def coerce(self, x):
        if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
            return Fraction(x)
        raise FieldMismatchError(f"cannot coerce {x!r} into the rational field")


class _ScalarField(_Field):
    """A field of QRat or Cyclo scalars, each its own numerator over 1."""

    def split(self, x):
        return x, 1

    def join(self, x, den):
        return x if den == 1 else x / den

    def to_str(self, x):
        return x.to_str()

    def split_str(self, x, den):
        return self.join(x, den).to_str()

    def coerce(self, x):
        y = NotImplemented if isinstance(x, bool) else self.one._lift(x)
        if y is NotImplemented:
            raise FieldMismatchError(
                f"cannot coerce {x!r} into the {self.name} field")
        return y


class QRationalField(_ScalarField):
    """Rational functions of q."""

    name = "q"
    zero = QRat.const(0)
    one = QRat.const(1)
    q = Q
    q_inv = QRat.q_power(-1)

    def parse(self, s):
        m = re.match(r"^\((.*)\)/\((.*)\)$", s.strip())
        if not m:
            raise ShapeParseError(f"bad rational-function string {s!r}")
        num, den = (_poly_of_terms(_parse_terms(part, "q"))
                    for part in m.groups())
        if not den:
            raise ShapeParseError(f"zero denominator in {s!r}")
        return num / den


class CyclotomicField(_ScalarField):
    def __init__(self, r):
        self.r = r
        self.name = f"cyclotomic:{r}"
        self.zero = Cyclo.const(r, 0)
        self.one = Cyclo.const(r, 1)
        self.xi = Cyclo.xi_power(r, 1)

    def parse(self, s):
        # xi^r = 1: exponents count modulo r
        coeffs = [ZERO] * self.r
        for e, c in _parse_terms(s, "z"):
            coeffs[e % self.r] += c
        return Cyclo(self.r, coeffs)


def _poly_of_terms(terms):
    """The Laurent polynomial with these (exponent, coefficient) terms."""
    lo = min((e for e, _ in terms), default=0)
    coeffs = [ZERO] * (max((e for e, _ in terms), default=0) - lo + 1)
    for e, c in terms:
        coeffs[e - lo] += c
    return QRat.poly(lo, coeffs)


RATIONALS = RationalField()
QFIELD = QRationalField()


def field_of(x):
    """The field descriptor an element belongs to."""
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return RATIONALS
    if isinstance(x, QRat):
        return QFIELD
    if isinstance(x, Cyclo):
        return CyclotomicField(x.r)
    raise FieldMismatchError(f"{x!r} is not a field element")


def field_by_name(name):
    if name == "rational":
        return RATIONALS
    if name == "q":
        return QFIELD
    m = re.match(r"^cyclotomic:(\d+)$", name)
    if m:
        return CyclotomicField(int(m.group(1)))
    raise PreconditionError(f"unknown field name {name!r}")


def evaluate_q(f, q0):
    """Evaluate a rational function of q at an exact rational point."""
    q0 = Fraction(q0)
    if q0 == 0:
        raise PoleError("q = 0 is outside the Laurent domain")
    if isinstance(f, (int, Fraction)):
        return Fraction(f)
    if not isinstance(f, QRat):
        raise FieldMismatchError(f"cannot q-evaluate {f!r}")
    return f.evaluate(q0)


def quantum_integer(k, q=Q):
    """The balanced quantum integer [k] = q^{k-1} + q^{k-3} + ... + q^{1-k}
    in the field of q: symbolic by default, exact for a rational q.  [k]
    at q = 1 equals k.
    """
    if not q:
        raise PreconditionError("q must be nonzero")
    field = field_of(q)
    q = field.coerce(q)
    return sum((q ** (k - 1 - 2 * j) for j in range(k)), field.zero)


def check_semisimple(us, q, n):
    """Exact semisimplicity test for the cyclotomic Hecke parameters.

    True iff u_i / u_j avoids {1, q^2, ..., q^{2n}} for all i != j and
    no quantum integer [1], ..., [n] vanishes.
    """
    field = QFIELD if isinstance(q, QRat) or any(isinstance(u, QRat) for u in us) \
        else RATIONALS
    q = field.coerce(q)
    us = [field.coerce(u) for u in us]
    if not q:
        raise PreconditionError("q must be nonzero")
    for u in us:
        if not u:
            raise PreconditionError("parameters u_k must be nonzero")
    powers = [field.one]
    q2 = q * q
    for _ in range(n):
        powers.append(powers[-1] * q2)
    for i, ui in enumerate(us):
        for j, uj in enumerate(us):
            if i != j and ui / uj in powers:
                return False
    return all(quantum_integer(k, q) for k in range(1, n + 1))
