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
storage is the simple choice).

A :class:`QRat` is ``scale * q**exp * N / D``: one Fraction ``scale``
and two coprime primitive integer polynomials ``N`` and ``D`` with
positive leading coefficients and nonzero constant terms.  A Laurent
polynomial in q is a QRat with ``D = (1,)``.  Products cross-cancel
gcd(N1, D2) and gcd(N2, D1), sums cancel only against gcd(D1, D2), and
gcds come from a primitive remainder sequence over the integers.

A :class:`Cyclo` is an integer polynomial in xi of degree < phi(r) over
one positive integer denominator, coprime to its coefficients.  The
cyclotomic polynomial is monic, so reducing modulo it stays integral,
and an inverse is the product of the other Galois conjugates over the
(rational) norm.
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
    """Split nonzero Fraction coefficients into (Fraction content,
    primitive int polynomial with positive leading coefficient)."""
    den = lcm(*(c.denominator for c in coeffs))
    g, prim = _iprimitive([c.numerator * (den // c.denominator) for c in coeffs])
    return Fraction(g, den), prim


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
    """Exact quotient a / b of int polynomials.  By Gauss's lemma it is
    integral whenever b is primitive and divides a over Q; anything else
    is a bug, so a remainder raises."""
    if len(b) == 1 and b[0] == 1:
        return a
    a = list(a)
    nb, lead = len(b), b[-1]
    if len(a) < nb:
        raise ArithmeticError("inexact polynomial division")
    q = [0] * (len(a) - nb + 1)
    for i in range(len(a) - nb, -1, -1):
        c, r = divmod(a[i + nb - 1], lead)
        if r:
            raise ArithmeticError("inexact polynomial division")
        if c:
            q[i] = c
            for j, y in enumerate(b, i):
                a[j] -= c * y
    if any(a[:nb - 1]):
        raise ArithmeticError("inexact polynomial division")
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
    return a


def _igcd(a, b):
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


def _ieval(a, x):
    """Value of an int polynomial at a Fraction, by Horner's rule."""
    acc = ZERO
    for c in reversed(a):
        acc = acc * x + c
    return acc


# ---------------------------------------------------------------------------
# fractions of Laurent polynomials
# ---------------------------------------------------------------------------

class QRat:
    """Quotient of Laurent polynomials in q, kept in canonical form.

    A value is ``scale * q**exp * N(q) / D(q)`` where ``N`` and ``D`` are
    coprime primitive integer polynomials (int tuples, constant first)
    with positive leading coefficients and nonzero constant terms, and
    ``scale`` is a nonzero Fraction.  Zero is ``N = ()``, ``D = (1,)``.
    Equal values therefore have identical representations, and all
    polynomial work happens on Python ints.  A Laurent polynomial is a
    QRat with ``D = (1,)``; ``num`` and ``den`` split a value into two of
    them, ``scale * q**exp * N`` over ``D``.
    """

    __slots__ = ("_exp", "_num", "_scale", "_den")

    @classmethod
    def const(cls, c):
        c = Fraction(c)
        if not c:
            return _Q_ZERO
        return _qrat(0, _I_ONE, c, _I_ONE)

    @classmethod
    def q_power(cls, k):
        return _qrat(k, _I_ONE, ONE, _I_ONE)

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
        scale, prim = _fraction_content(coeffs[lo:hi])
        return _qrat(offset + lo, prim, scale, _I_ONE)

    @property
    def num(self):
        return _qrat(self._exp, self._num, self._scale, _I_ONE)

    @property
    def den(self):
        return _qrat(0, self._den, ONE, _I_ONE)

    def terms(self):
        """(exponent, coefficient) of each nonzero term of the numerator
        ``scale * q**exp * N``, ascending."""
        s, e = self._scale, self._exp
        if s.denominator == 1:
            s = s.numerator
        return [(e + i, s * c) for i, c in enumerate(self._num) if c]

    def is_zero(self):
        return not self._num

    def __bool__(self):
        return bool(self._num)

    def _key(self):
        return self._exp, self._num, self._scale, self._den

    def __eq__(self, other):
        other = _as_qrat(other)
        if other is NotImplemented:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __neg__(self):
        return _qrat(self._exp, self._num, -self._scale, self._den)

    def _inverse(self):
        if not self._num:
            raise ZeroDivisionError("division by zero rational function")
        return _qrat(-self._exp, self._den, 1 / self._scale, self._num)

    def __add__(self, other):
        other = _as_qrat(other)
        if other is NotImplemented:
            return NotImplemented
        return _qadd(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_qrat(other)
        if other is NotImplemented:
            return NotImplemented
        return _qadd(self, -other)

    def __rsub__(self, other):
        other = _as_qrat(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _as_qrat(other)
        if other is NotImplemented:
            return NotImplemented
        return _qmul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_qrat(other)
        if other is NotImplemented:
            return NotImplemented
        return _qmul(self, other._inverse())

    def __rtruediv__(self, other):
        other = _as_qrat(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

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
        return self._scale * _ieval(self._num, q0) * q0 ** self._exp / d

    def __repr__(self):
        return f"QRat({self.to_str()!r})"

    def to_str(self):
        num = _format_terms(self.terms(), "q")
        den = _format_terms([(i, c) for i, c in enumerate(self._den) if c], "q")
        return f"({num})/({den})"


def _qrat(exp, num, scale, den):
    """A QRat from parts already in canonical form."""
    out = object.__new__(QRat)
    out._exp = exp
    out._num = num
    out._scale = scale
    out._den = den
    return out


_Q_ZERO = _qrat(0, (), ZERO, _I_ONE)


def _qmul(a, b):
    """Product with gcd(N1, D2) and gcd(N2, D1) cancelled; the results
    stay primitive and coprime, so no further normalization is needed."""
    n1, d1, n2, d2 = a._num, a._den, b._num, b._den
    if not n1 or not n2:
        return _Q_ZERO
    g = _igcd(n1, d2)
    if len(g) > 1:
        n1, d2 = _iquo(n1, g), _iquo(d2, g)
    g = _igcd(n2, d1)
    if len(g) > 1:
        n2, d1 = _iquo(n2, g), _iquo(d1, g)
    return _qrat(a._exp + b._exp, _imul(n1, n2), a._scale * b._scale,
                 _imul(d1, d2))


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
        g = _igcd(d1, d2)
        c1, c2 = _iquo(d1, g), _iquo(d2, g)
        n1, n2, rest = _imul(n1, c2), _imul(n2, c1), _imul(c1, c2)
    # s1*X + s2*Y = (h / m) * (a1*X + a2*Y) with integer a1, a2
    s1, s2 = a._scale, b._scale
    p1, r1, p2, r2 = s1.numerator, s1.denominator, s2.numerator, s2.denominator
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
    k = _igcd(num, g)
    if len(k) > 1:
        num, g = _iquo(num, k), _iquo(g, k)
    return _qrat(exp + lo, num, Fraction(c * h, r1 // t * r2), _imul(g, rest))


def _as_qrat(x):
    if isinstance(x, QRat):
        return x
    if isinstance(x, (int, Fraction)):
        return QRat.const(x)
    return NotImplemented


Q = QRat.q_power(1)
QINV = QRat.q_power(-1)


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


class Cyclo:
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

    @property
    def coeffs(self):
        """Fraction coefficients of 1, xi, ..., xi^(phi(r) - 1)."""
        return tuple(Fraction(c, self.den) for c in self.num)

    def is_zero(self):
        return not any(self.num)

    def __bool__(self):
        return any(self.num)

    def _coerce(self, other):
        if isinstance(other, Cyclo):
            if other.r != self.r:
                raise FieldMismatchError(
                    f"cyclotomic orders differ: {self.r} vs {other.r}")
            return other
        if isinstance(other, (int, Fraction)):
            return Cyclo.const(self.r, other)
        return NotImplemented

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.r, self.num, self.den))

    def __neg__(self):
        return _cyclo(self.r, [-c for c in self.num], self.den)

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _cadd(self, other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _cadd(self, other, -1)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _cadd(other, self, -1)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _cyclo(self.r, _imul(self.num, other.num), self.den * other.den)

    __rmul__ = __mul__

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
                rest = _int_prem(_imul(rest, conj), phi)
        norm = _int_prem(_imul(num, rest), phi)
        assert len(norm) == 1
        return _cyclo(r, [self.den * c for c in rest], norm[0])

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __repr__(self):
        return f"Cyclo({self.r}, {self.to_str()!r})"

    def to_str(self):
        den = self.den
        return _format_terms(
            [(i, Fraction(c, den)) for i, c in enumerate(self.num) if c], "z")


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


def _cadd(a, b, sign):
    """a + sign * b over the common denominator lcm(den_a, den_b)."""
    den = lcm(a.den, b.den)
    ka, kb = den // a.den, sign * (den // b.den)
    return _cyclo(a.r, [ka * x + kb * y for x, y in zip(a.num, b.num)], den)


# ---------------------------------------------------------------------------
# scalar <-> string
# ---------------------------------------------------------------------------

def _format_terms(terms, symbol):
    if not terms:
        return "0"
    parts = []
    for exp, coeff in terms:
        if exp == 0:
            t = str(coeff)
        else:
            base = symbol if exp == 1 else f"{symbol}^{exp}"
            if coeff == 1:
                t = base
            elif coeff == -1:
                t = "-" + base
            else:
                t = f"{coeff}*{base}"
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
# form of every exact route: ints over the rationals, (x, 1) elsewhere.

class RationalField:
    name = "rational"

    zero = ZERO
    one = ONE

    def element_of(self, x):
        return isinstance(x, (int, Fraction)) and not isinstance(x, bool)

    # not a method: attrgetter runs in C, and verify splits every entry
    split = attrgetter("numerator", "denominator")

    def to_str(self, x):
        return str(Fraction(x))

    def parse(self, s):
        return parse_rational(s)

    def coerce(self, x):
        if self.element_of(x):
            return Fraction(x)
        raise FieldMismatchError(f"cannot coerce {x!r} into the rational field")

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rational")

    def __repr__(self):
        return "RationalField()"


class QRationalField:
    """Rational functions of q."""

    name = "q"
    zero = QRat.const(0)
    one = QRat.const(1)
    q = Q
    q_inv = QINV

    def element_of(self, x):
        return isinstance(x, QRat)

    def split(self, x):
        return x, 1

    def to_str(self, x):
        return x.to_str()

    def parse(self, s):
        m = re.match(r"^\((.*)\)/\((.*)\)$", s.strip())
        if not m:
            raise ShapeParseError(f"bad rational-function string {s!r}")
        num, den = (_poly_of_terms(_parse_terms(part, "q"))
                    for part in m.groups())
        if not den:
            raise ShapeParseError(f"zero denominator in {s!r}")
        return num / den

    def coerce(self, x):
        if isinstance(x, QRat):
            return x
        if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
            return QRat.const(x)
        raise FieldMismatchError(f"cannot coerce {x!r} into the q field")

    def __eq__(self, other):
        return isinstance(other, QRationalField)

    def __hash__(self):
        return hash("q")

    def __repr__(self):
        return "QRationalField()"


class CyclotomicField:
    def __init__(self, r):
        self.r = r
        self.zero = Cyclo.const(r, 0)
        self.one = Cyclo.const(r, 1)
        self.xi = Cyclo.xi_power(r, 1)

    @property
    def name(self):
        return f"cyclotomic:{self.r}"

    def element_of(self, x):
        return isinstance(x, Cyclo) and x.r == self.r

    def split(self, x):
        return x, 1

    def to_str(self, x):
        return x.to_str()

    def parse(self, s):
        # xi^r = 1: exponents count modulo r
        coeffs = [ZERO] * self.r
        for e, c in _parse_terms(s, "z"):
            coeffs[e % self.r] += c
        return Cyclo(self.r, coeffs)

    def coerce(self, x):
        if self.element_of(x):
            return x
        if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
            return Cyclo.const(self.r, x)
        raise FieldMismatchError(f"cannot coerce {x!r} into Q(xi_{self.r})")

    def __eq__(self, other):
        return isinstance(other, CyclotomicField) and other.r == self.r

    def __hash__(self):
        return hash(("cyclotomic", self.r))

    def __repr__(self):
        return f"CyclotomicField({self.r})"


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
            if i == j:
                continue
            ratio = ui / uj
            if any(ratio == p for p in powers):
                return False
    return all(quantum_integer(k, q) for k in range(1, n + 1))
