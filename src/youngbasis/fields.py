"""Exact coefficient arithmetic.

Three scalar domains are supported, all with canonical forms so that
equality is decidable and serialized output is bit-stable:

* arbitrary-precision rationals (``fractions.Fraction``),
* fractions of Laurent polynomials in one variable ``q`` (:class:`QRat`),
* the cyclotomic extension Q(xi) with xi a primitive r-th root of
  unity, represented modulo the r-th cyclotomic polynomial
  (:class:`Cyclo`).

Laurent polynomials are stored densely as ``(offset, coeffs)`` where
``coeffs[i]`` is the coefficient of ``q**(offset + i)``; degrees stay
small here so dense storage is the simple choice.

A :class:`QRat` is ``scale * q**exp * N / D``: one Fraction ``scale``
and two coprime primitive integer polynomials ``N`` and ``D`` with
positive leading coefficients and nonzero constant terms.  Its arithmetic
runs on Python ints: products cross-cancel gcd(N1, D2) and gcd(N2, D1),
sums cancel only against gcd(D1, D2), and gcds come from a primitive
remainder sequence over the integers.  ``LaurentPoly`` and ``Cyclo``
keep Fraction coefficients.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import FieldMismatchError, PoleError, PreconditionError

__all__ = [
    "Fraction", "LaurentPoly", "QRat", "Cyclo",
    "RationalField", "QRationalField", "CyclotomicField",
    "field_of", "field_by_name", "evaluate_q",
    "quantum_integer", "check_semisimple",
    "format_rational", "parse_rational",
]

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# ordinary polynomials over Fraction, as coefficient tuples (constant first)
# ---------------------------------------------------------------------------

def _ptrim(c):
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def _padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] += x
    return _ptrim(out)


def _pmul(a, b):
    if not a or not b:
        return ()
    out = [ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return _ptrim(out)


def _pscale(a, s):
    if s == 0:
        return ()
    return tuple(x * s for x in a)


def _pdivmod(a, b):
    """Exact polynomial division with remainder over Q."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    q = [ZERO] * max(0, len(a) - len(b) + 1)
    inv_lead = 1 / b[-1]
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1] * inv_lead
        if c:
            q[i] = c
            for j, y in enumerate(b):
                a[i + j] -= c * y
    return _ptrim(q), _ptrim(a)


def _peval(a, x):
    acc = ZERO
    for c in reversed(a):
        acc = acc * x + c
    return acc


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


# ---------------------------------------------------------------------------
# Laurent polynomials
# ---------------------------------------------------------------------------

class LaurentPoly:
    """Dense Laurent polynomial in q with Fraction coefficients."""

    __slots__ = ("offset", "coeffs")

    def __init__(self, offset=0, coeffs=()):
        coeffs = [Fraction(c) for c in coeffs]
        # strip leading/trailing zeros, keeping offset in sync
        lo = 0
        while lo < len(coeffs) and coeffs[lo] == 0:
            lo += 1
        hi = len(coeffs)
        while hi > lo and coeffs[hi - 1] == 0:
            hi -= 1
        if lo == hi:
            self.offset = 0
            self.coeffs = ()
        else:
            self.offset = offset + lo
            self.coeffs = tuple(coeffs[lo:hi])

    @classmethod
    def const(cls, c):
        return cls(0, (Fraction(c),))

    @classmethod
    def q_power(cls, k, coeff=ONE):
        return cls(k, (Fraction(coeff),))

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.offset == other.offset and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.offset, self.coeffs))

    def __neg__(self):
        return LaurentPoly(self.offset, tuple(-c for c in self.coeffs))

    def __add__(self, other):
        if not self.coeffs:
            return other
        if not other.coeffs:
            return self
        off = min(self.offset, other.offset)
        end = max(self.offset + len(self.coeffs), other.offset + len(other.coeffs))
        out = [ZERO] * (end - off)
        for i, c in enumerate(self.coeffs):
            out[self.offset - off + i] += c
        for i, c in enumerate(other.coeffs):
            out[other.offset - off + i] += c
        return LaurentPoly(off, out)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not self.coeffs or not other.coeffs:
            return LaurentPoly()
        return LaurentPoly(self.offset + other.offset, _pmul(self.coeffs, other.coeffs))

    def shift(self, k):
        if not self.coeffs:
            return self
        return LaurentPoly(self.offset + k, self.coeffs)

    def evaluate(self, x):
        x = Fraction(x)
        if x == 0:
            raise PoleError("Laurent polynomial evaluation at q = 0")
        return _peval(self.coeffs, x) * x ** self.offset

    def terms(self):
        """Yield (exponent, coefficient) for nonzero terms, ascending."""
        for i, c in enumerate(self.coeffs):
            if c:
                yield self.offset + i, c

    def __repr__(self):
        return f"LaurentPoly({_format_terms(list(self.terms()), 'q')!r})"


_L_ZERO = LaurentPoly()
_L_ONE = LaurentPoly.const(1)


def _as_laurent(x):
    if isinstance(x, LaurentPoly):
        return x
    return LaurentPoly.const(Fraction(x))


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
    polynomial work happens on Python ints.  ``num`` and ``den`` give the
    same value as Laurent polynomials: ``scale * q**exp * N`` over ``D``.
    """

    __slots__ = ("_exp", "_num", "_scale", "_den")

    def __init__(self, num, den=None):
        num = _as_laurent(num)
        den = _L_ONE if den is None else _as_laurent(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            self._exp, self._num, self._scale, self._den = 0, (), ZERO, _I_ONE
            return
        sn, n = _fraction_content(num.coeffs)
        sd, d = _fraction_content(den.coeffs)
        g = _igcd(n, d)
        if len(g) > 1:
            n, d = _iquo(n, g), _iquo(d, g)
        self._exp = num.offset - den.offset
        self._num = n
        self._scale = sn / sd
        self._den = d

    @classmethod
    def const(cls, c):
        c = Fraction(c)
        if not c:
            return _Q_ZERO
        return _qrat(0, _I_ONE, c, _I_ONE)

    @classmethod
    def q_power(cls, k):
        return _qrat(k, _I_ONE, ONE, _I_ONE)

    @property
    def num(self):
        s = self._scale
        return LaurentPoly(self._exp, [s * c for c in self._num])

    @property
    def den(self):
        return LaurentPoly(0, self._den)

    def is_zero(self):
        return not self._num

    def is_one(self):
        return (self._exp == 0 and self._num == _I_ONE
                and self._den == _I_ONE and self._scale == 1)

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

    def evaluate(self, q0):
        q0 = Fraction(q0)
        if q0 == 0:
            raise PoleError("cannot evaluate at q = 0")
        d = _peval(self._den, q0)
        if d == 0:
            raise PoleError(f"pole at q = {q0}")
        return self._scale * _peval(self._num, q0) * q0 ** self._exp / d

    def __repr__(self):
        return f"QRat({self.to_str()!r})"

    def to_str(self):
        s, e = self._scale, self._exp
        if s.denominator == 1:
            s = s.numerator
        num = _format_terms([(e + i, s * c) for i, c in enumerate(self._num) if c], "q")
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
    """Coefficients of the r-th cyclotomic polynomial, constant first.

    Computed by exact division of x^r - 1 by the lower-order cyclotomic
    polynomials, so the result is exact for every r.
    """
    if r < 1:
        raise PreconditionError("cyclotomic order must be >= 1")
    num = [ZERO] * (r + 1)
    num[0], num[r] = Fraction(-1), Fraction(1)
    num = tuple(num)
    for d in range(1, r):
        if r % d == 0:
            num, rem = _pdivmod(num, cyclotomic_polynomial(d))
            assert not rem
    return num


class Cyclo:
    """Element of Q(xi), xi a primitive r-th root of unity.

    Stored as a polynomial in xi of degree < phi(r), reduced modulo the
    r-th cyclotomic polynomial.
    """

    __slots__ = ("r", "coeffs")

    def __init__(self, r, coeffs=()):
        phi = cyclotomic_polynomial(r)
        deg = len(phi) - 1
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) >= len(phi):
            _, coeffs = _pdivmod(tuple(coeffs), phi)
            coeffs = list(coeffs)
        coeffs = list(coeffs) + [ZERO] * (deg - len(coeffs))
        self.r = r
        self.coeffs = tuple(coeffs[:deg])

    @classmethod
    def const(cls, r, c):
        return cls(r, (Fraction(c),))

    @classmethod
    def xi_power(cls, r, k):
        k %= r
        coeffs = [ZERO] * (k + 1)
        coeffs[k] = ONE
        return cls(r, coeffs)

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def is_one(self):
        return self.coeffs and self.coeffs[0] == 1 and all(c == 0 for c in self.coeffs[1:])

    def __bool__(self):
        return not self.is_zero()

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
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.r, self.coeffs))

    def __neg__(self):
        return Cyclo(self.r, tuple(-c for c in self.coeffs))

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Cyclo(self.r, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Cyclo(self.r, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Cyclo(self.r, _pmul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic element")
        # extended Euclid against the cyclotomic polynomial
        phi = cyclotomic_polynomial(self.r)
        r0, r1 = phi, _ptrim(self.coeffs)
        s0, s1 = (), (ONE,)
        while r1:
            quo, rem = _pdivmod(r0, r1)
            r0, r1 = r1, rem
            s0, s1 = s1, _padd(s0, _pscale(_pmul(quo, s1), Fraction(-1)))
        # r0 = gcd is a nonzero constant (phi is irreducible over Q)
        assert len(r0) == 1
        return Cyclo(self.r, _pscale(s0, 1 / r0[0]))

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
        terms = [(i, c) for i, c in enumerate(self.coeffs) if c]
        return _format_terms(terms, "z")


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
    from .errors import ShapeParseError
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
            out.append((0, Fraction(m.group(5))))
            continue
        sign, coeff, sym, exp = m.group(1), m.group(2), m.group(3), m.group(4)
        if sym is None:
            if coeff is None:
                raise ShapeParseError(f"bad scalar term {tok!r}")
            val, e = Fraction(coeff), 0
        else:
            if sym != symbol:
                raise ShapeParseError(f"unexpected symbol {sym!r} in {tok!r}")
            val = Fraction(coeff) if coeff is not None else ONE
            e = int(exp) if exp is not None else 1
        if sign == "-":
            val = -val
        out.append((e, val))
    return out


def format_rational(x):
    return str(Fraction(x))


def parse_rational(s):
    from .errors import ShapeParseError
    try:
        return Fraction(s.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ShapeParseError(f"bad rational {s!r}") from exc


# ---------------------------------------------------------------------------
# field descriptors
# ---------------------------------------------------------------------------

class RationalField:
    name = "rational"

    zero = ZERO
    one = ONE

    def from_int(self, k):
        return Fraction(k)

    def element_of(self, x):
        return isinstance(x, (int, Fraction)) and not isinstance(x, bool)

    def to_str(self, x):
        return format_rational(x)

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
    """Rational functions of q; ``params`` is serialization metadata only."""

    zero = QRat.const(0)
    one = QRat.const(1)
    q = Q
    q_inv = QINV

    def __init__(self, params=None):
        self.params = dict(params) if params else {}

    @property
    def name(self):
        return "q-with-params" if self.params else "q"

    def from_int(self, k):
        return QRat.const(k)

    def element_of(self, x):
        return isinstance(x, QRat)

    def to_str(self, x):
        return x.to_str()

    def parse(self, s):
        from .errors import ShapeParseError
        m = re.match(r"^\((.*)\)/\((.*)\)$", s.strip())
        if not m:
            raise ShapeParseError(f"bad rational-function string {s!r}")
        num = _terms_to_laurent(_parse_terms(m.group(1), "q"))
        den = _terms_to_laurent(_parse_terms(m.group(2), "q"))
        return QRat(num, den)

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
        return f"QRationalField(params={self.params!r})"


class CyclotomicField:
    def __init__(self, r):
        self.r = r
        self.zero = Cyclo.const(r, 0)
        self.one = Cyclo.const(r, 1)
        self.xi = Cyclo.xi_power(r, 1)

    @property
    def name(self):
        return f"cyclotomic:{self.r}"

    def from_int(self, k):
        return Cyclo.const(self.r, k)

    def element_of(self, x):
        return isinstance(x, Cyclo) and x.r == self.r

    def to_str(self, x):
        return x.to_str()

    def parse(self, s):
        terms = _parse_terms(s, "z")
        coeffs = {}
        for e, c in terms:
            coeffs[e] = coeffs.get(e, ZERO) + c
        top = max(coeffs) if coeffs else 0
        return Cyclo(self.r, tuple(coeffs.get(i, ZERO) for i in range(top + 1)))

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


def _terms_to_laurent(terms):
    if not terms:
        return LaurentPoly()
    lo = min(e for e, _ in terms)
    hi = max(e for e, _ in terms)
    coeffs = [ZERO] * (hi - lo + 1)
    for e, c in terms:
        coeffs[e - lo] += c
    return LaurentPoly(lo, coeffs)


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


def field_by_name(name, params=None):
    if name == "rational":
        return RATIONALS
    if name in ("q", "q-with-params"):
        return QRationalField(params)
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


def quantum_integer(k, q=None):
    """The balanced quantum integer [k] = q^{k-1} + q^{k-3} + ... + q^{1-k}.

    With q omitted the symbolic value is returned; with a rational q the
    exact number.  [k] at q = 1 equals k.
    """
    if q is None:
        return QRat(LaurentPoly(1 - k, [ONE if i % 2 == 0 else ZERO
                                        for i in range(2 * k - 1)]))
    q = Fraction(q)
    if q == 0:
        raise PreconditionError("q must be nonzero")
    return sum(q ** (k - 1 - 2 * j) for j in range(k))


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
    for k in range(1, n + 1):
        if field is QFIELD:
            if quantum_integer(k).is_zero():
                return False
        elif quantum_integer(k, q) == 0:
            return False
    return True
