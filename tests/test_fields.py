import operator
import random
from fractions import Fraction as F
from functools import reduce
from math import gcd

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from youngbasis import fields
from youngbasis.errors import (FieldMismatchError, PoleError,
                               PreconditionError, ShapeParseError)
from youngbasis.fields import (Cyclo, CyclotomicField, QFIELD, QRat,
                               RATIONALS, check_semisimple,
                               cyclotomic_polynomial, evaluate_q,
                               field_by_name, field_of, quantum_integer)

Qp = QRat.q_power


def test_rational_arithmetic():
    a, b = RATIONALS.coerce(F(1, 2)), RATIONALS.coerce(F(1, 3))
    assert a + b == F(5, 6)
    assert a * b == F(1, 6)
    assert a / b == F(3, 2)


def test_q_division_simplifies_to_q():
    lhs = (Qp(1) - Qp(-1)) / (QRat.const(1) - Qp(-2))
    assert lhs == Qp(1)
    # cross-multiplied check of the same identity
    a = Qp(1) - Qp(-1)
    b = QRat.const(1) - Qp(-2)
    assert a == Qp(1) * b


def test_xi_times_xi_cubed_is_one():
    f = CyclotomicField(4)
    assert f.xi * Cyclo.xi_power(4, 3) == f.one


def test_field_mismatch_and_zero_division():
    with pytest.raises(FieldMismatchError):
        RATIONALS.coerce(Qp(1))
    with pytest.raises(ZeroDivisionError):
        Qp(2) / QRat.const(0)
    with pytest.raises(ZeroDivisionError):
        RATIONALS.coerce(F(1)) / RATIONALS.coerce(F(0))


def test_evaluate_q_examples():
    f = Qp(3) / (QRat.const(1) + Qp(2))
    assert evaluate_q(f, 1) == F(1, 2)
    g = (Qp(3) + Qp(1) + Qp(-1)) / (QRat.const(1) + Qp(2))
    assert evaluate_q(g, 1) == F(3, 2)
    assert evaluate_q(Qp(1), 7) == 7


def test_evaluate_q_errors():
    f = QRat.const(1) / (QRat.const(1) + Qp(2))  # pole at q^2 = -1: none real
    h = QRat.const(1) / (QRat.const(1) - Qp(2))  # pole at q = 1
    with pytest.raises(PoleError):
        evaluate_q(h, 1)
    with pytest.raises(PoleError):
        evaluate_q(f, 0)


def test_check_semisimple_examples():
    assert check_semisimple([F(2), F(3)], F(5), 4) is True
    assert check_semisimple([F(1), F(1)], F(2), 2) is False
    # u2/u1 equals q^2 at q = 2
    assert check_semisimple([F(1), F(4)], F(2), 2) is False
    # symbolic q with rational parameters
    assert check_semisimple([F(1), F(-1)], QFIELD.q, 4) is True
    # symbolic monomial parameters hitting the excluded set
    assert check_semisimple([Qp(2), QRat.const(1)], QFIELD.q, 2) is False
    with pytest.raises(PreconditionError):
        check_semisimple([F(0)], F(2), 2)


def test_quantum_integer():
    for k in range(1, 6):
        assert quantum_integer(k, 1) == k
        assert evaluate_q(quantum_integer(k), 1) == k
    assert quantum_integer(2, F(1, 2)) == F(5, 2)


def _rand_fraction(rng, small=12):
    num = rng.randint(-small, small)
    den = rng.randint(1, small)
    return F(num, den)


def _rand_laurent(rng):
    off = rng.randint(-3, 3)
    coeffs = [_rand_fraction(rng, 6) for _ in range(rng.randint(1, 4))]
    return QRat.poly(off, coeffs)


def _rand_qrat(rng):
    num = _rand_laurent(rng)
    den = QRat.const(0)
    while not den:
        den = _rand_laurent(rng)
    return num / den


def _rand_cyclo(rng, field):
    deg = len(cyclotomic_polynomial(field.r)) - 1
    return Cyclo(field.r, [_rand_fraction(rng, 6) for _ in range(deg)])


def test_field_axioms_randomized():
    rng = random.Random(20240811)
    cyc = CyclotomicField(5)
    samplers = [
        (lambda: _rand_fraction(rng), F(0), F(1)),
        (lambda: _rand_qrat(rng), QRat.const(0), QRat.const(1)),
        (lambda: _rand_cyclo(rng, cyc), cyc.zero, cyc.one),
    ]
    for sampler, zero, one in samplers:
        pool = [sampler() for _ in range(1000)]
        for k in range(0, 999, 3):
            a, b, c = pool[k], pool[k + 1], pool[k + 2]
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + zero == a and a * one == a
            if not (b == zero):
                assert b * (one / b) == one


def test_canonical_idempotence():
    rng = random.Random(7)
    for _ in range(50):
        x = _rand_qrat(rng)
        assert x.num / x.den == x
        assert x.num.den == 1 and x.den.den == 1
        y = _rand_fraction(rng)
        assert F(y) == y
        z = _rand_cyclo(rng, CyclotomicField(6))
        assert Cyclo(6, _coeffs(z)) == z


def test_qrat_equality_agrees_with_evaluation():
    rng = random.Random(99)
    for _ in range(30):
        f = _rand_qrat(rng)
        # same value written with a random nontrivial common factor
        m = QRat.const(0)
        while not m:
            m = _rand_laurent(rng)
        g = (f.num * m) / (f.den * m)
        assert f == g
        pts = 0
        while pts < 20:
            q0 = _rand_fraction(rng)
            if q0 == 0:
                continue
            try:
                lhs, rhs = f.evaluate(q0), g.evaluate(q0)
            except PoleError:
                continue
            assert lhs == rhs
            pts += 1


def test_equal_qrats_hash_equal_on_an_int_key():
    """Equal values built by different operations have one key, made of
    ints only, so a dict finds one by the other."""
    rng = random.Random(7)
    for _ in range(30):
        f = _rand_qrat(rng)
        m = QRat.const(0)
        while not m:
            m = _rand_laurent(rng)
        c = _rand_fraction(rng) or F(2)
        for g in ((f.num * m) / (f.den * m), f * c / c, f + m - m,
                  -(-f)):
            assert g == f and hash(g) == hash(f) and g._key() == f._key()
            assert {f: 1}[g] == 1
        exp, num, s_num, s_den, den = f._key()
        assert all(type(x) is int for x in (exp, s_num, s_den, *num, *den))


def test_qrat_cross_multiplication_identity():
    rng = random.Random(4242)
    for _ in range(40):
        f, g = _rand_qrat(rng), _rand_qrat(rng)
        cross_equal = f.num * g.den == g.num * f.den
        assert cross_equal == (f == g)


def test_scalar_string_round_trip():
    rng = random.Random(5)
    for _ in range(40):
        x = _rand_fraction(rng)
        assert RATIONALS.parse(RATIONALS.to_str(x)) == x
        y = _rand_qrat(rng)
        assert QFIELD.parse(QFIELD.to_str(y)) == y
        cyc = CyclotomicField(4)
        z = _rand_cyclo(rng, cyc)
        assert cyc.parse(cyc.to_str(z)) == z


def test_scalar_string_format():
    assert QFIELD.to_str(Qp(3) / (QRat.const(1) + Qp(2))) == "(q^3)/(1+q^2)"
    assert RATIONALS.to_str(F(-7, 2)) == "-7/2"
    assert CyclotomicField(4).to_str(Cyclo(4, [F(1, 2), F(-3)])) == "1/2-3*z"
    with pytest.raises(ShapeParseError):
        QFIELD.parse("q^3/(1+q^2)")


def test_parse_reduces_exponents_mod_r():
    # xi^-1 = xi^3 = -xi in Q(xi_4)
    c4 = CyclotomicField(4)
    assert c4.parse("z^-1") == Cyclo.xi_power(4, 3) == -c4.xi
    assert c4.to_str(c4.parse("z^-1")) == "-z"
    c3 = CyclotomicField(3)
    assert c3.parse("z^4+z^-2") == 2 * c3.xi
    assert c3.parse("z^3") == c3.one


def test_parse_zero_denominator_is_a_parse_error():
    for field, text in ((QFIELD, "(1/0)/(1)"), (QFIELD, "(1)/(0)"),
                        (QFIELD, "(q)/(0*q^2)"),
                        (CyclotomicField(3), "1/0*z"),
                        (CyclotomicField(3), "2/0"), (RATIONALS, "1/0")):
        with pytest.raises(ShapeParseError):
            field.parse(text)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    for r in range(1, 31):
        phi = cyclotomic_polynomial(r)
        assert all(type(c) is int for c in phi)
        assert phi == tuple(sympy.Poly(sympy.cyclotomic_poly(r, _SX),
                                       _SX).all_coeffs()[::-1])
    # xi^r = 1 in every order
    for r in (2, 3, 4, 5, 6, 12):
        field = CyclotomicField(r)
        acc = field.one
        for _ in range(r):
            acc = acc * field.xi
        assert acc == field.one


def test_field_descriptors():
    assert field_of(F(1)) == RATIONALS
    assert field_of(Qp(1)) == QFIELD
    assert field_of(Cyclo.const(3, 1)) == CyclotomicField(3)
    assert field_by_name("cyclotomic:5") == CyclotomicField(5)
    assert field_by_name("q") is QFIELD
    with pytest.raises(PreconditionError):
        field_by_name("octonions")
    # compared, hashed and printed by name
    fields_ = [RATIONALS, QFIELD, CyclotomicField(3), CyclotomicField(4)]
    assert len(set(fields_ + [CyclotomicField(3)])) == 4
    for f in fields_:
        assert eval(repr(f), {"field_by_name": field_by_name}) == f


def test_equal_scalars_hash_equal():
    """A scalar equal to a rational hashes like that rational, as Python
    asks of equal objects, so a set holds the value once."""
    for c in (0, 2, F(-3, 4)):
        for x in (QRat.const(c), Cyclo.const(1, c), Cyclo.const(3, c),
                  Cyclo.const(4, c)):
            assert x == c == F(c) and hash(x) == hash(F(c))
            assert len({x, c, F(c)}) == 1
    assert len({Qp(1), Qp(1) * Qp(1) / Qp(1), QRat.const(1)}) == 2
    assert len({CyclotomicField(3).xi, Cyclo.xi_power(3, 4), 1}) == 2


@pytest.mark.parametrize("c", [2, F(-3, 4)], ids=["int", "fraction"])
@pytest.mark.parametrize("field, x", [
    (QFIELD, (Qp(1) - 2) / (Qp(2) + F(1, 3))),
    (CyclotomicField(3), Cyclo(3, [F(1, 2), -2])),
], ids=["QRat", "Cyclo"])
def test_rational_operands_act_as_field_constants(field, x, c):
    k = field.coerce(c)
    assert type(k) is type(x) and k == c
    assert x + c == c + x == x + k
    assert c - x == -(x - c) == k - x
    assert c * x == x * c == k * x
    assert c / x == k / x
    assert x / c == x / k
    assert x == field.coerce(x)
    for y in (x + c, c - x, x - c, c * x, c / x, x / c):
        assert type(y) is type(x)


def test_foreign_operands_and_coercions_are_refused():
    x, z3, z4 = Qp(1), Cyclo.const(3, 2), Cyclo.const(4, 2)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(TypeError):
            op(x, z3)
        with pytest.raises(TypeError):
            op(z3, x)
        with pytest.raises(FieldMismatchError):
            op(z3, z4)
    for field, foreign in ((RATIONALS, x), (QFIELD, z3),
                           (CyclotomicField(3), x),
                           (CyclotomicField(3), z4)):
        for bad in (True, False, foreign):
            with pytest.raises(FieldMismatchError):
                field.coerce(bad)


def test_cyclos_of_two_orders_are_equal_only_as_the_same_rational():
    z3, z4 = Cyclo.const(3, 2), Cyclo.const(4, 2)
    assert z3 == z4 and not z3 != z4
    assert len({z3, z4}) == len({z3, z4, 2}) == 1
    assert Cyclo.xi_power(3, 1) != Cyclo.xi_power(4, 1)
    assert Cyclo.xi_power(4, 2) == Cyclo.const(3, -1)  # xi_4^2 = -1
    assert Cyclo.xi_power(3, 1) != Cyclo.const(4, 1)
    with pytest.raises(FieldMismatchError):
        Cyclo.const(3, 1) + Cyclo.const(4, 1)


# ---------------------------------------------------------------------------
# differential test of QRat against sympy
# ---------------------------------------------------------------------------

_SQ = sympy.Symbol("q")
_SX = sympy.Symbol("x")

_coeffs = st.lists(st.builds(F, st.integers(-6, 6), st.integers(1, 4)),
                   min_size=1, max_size=4)
# shared factors make gcds (and so cancellation) common
_FACTORS = [QRat.poly(0, c) for c in
            ((1, 1), (-1, 1), (1, 0, 1), (1, 1, 1), (2, -1), (-3, 1))]
_laurent = st.builds(
    lambda off, coeffs, factors: reduce(operator.mul, factors,
                                        QRat.poly(off, coeffs)),
    st.integers(-3, 3), _coeffs,
    st.lists(st.sampled_from(_FACTORS), max_size=3))
_nonzero_laurent = _laurent.filter(bool)
_qrats = st.builds(operator.truediv, _laurent, _nonzero_laurent)

_OPS = [operator.add, operator.sub, operator.mul, operator.truediv]
# y such that op(x, y) == z, which forces cancellation inside op
_SOLVE = {operator.add: lambda x, z: z - x,
          operator.sub: lambda x, z: x - z,
          operator.mul: lambda x, z: z / x,
          operator.truediv: lambda x, z: x / z}


def _sym(p):
    return sum((sympy.Rational(c.numerator, c.denominator) * _SQ ** e
                for e, c in p.terms()), sympy.Integer(0))


def _sym_qrat(x):
    return _sym(x.num) / _sym(x.den)


def _assert_canonical(x):
    # D: an int polynomial with a nonzero constant term, primitive and
    # leading positive; N * q^-lo coprime to it
    exps, ints = zip(*x.den.terms())
    assert exps[0] == 0
    assert all(type(c) is int for c in ints)
    assert gcd(*ints) == 1 and ints[-1] > 0
    if not x:
        assert ints == (1,)
        return
    num = x.num
    lo = num.terms()[0][0]
    n = sympy.Poly(_sym(num * QRat.q_power(-lo)), _SQ)
    d = sympy.Poly(_sym(x.den), _SQ)
    assert sympy.gcd(n, d).degree() == 0


_nonzero_ints = st.one_of(st.integers(1, 6), st.integers(-6, -1),
                          st.integers(1, 10 ** 40),
                          st.integers(-10 ** 40, -1))


@given(_nonzero_ints,
       st.integers(1, 10 ** 30) | st.integers(1, 6),
       st.integers(1, 10 ** 6) | st.integers(2, 6))
def test_rational_split_str_matches_the_fraction_string(x, den, g):
    for a, d in [(x, den), (x * g, den * g), (x, 1), (x * den, den)]:
        assert RATIONALS.split_str(a, d) == str(F(a, d))
    assert RATIONALS.split_str(0, den) == "0"


def test_split_str_is_to_str_of_join():
    for field, values in [
            (QFIELD, [Qp(1) - Qp(-1), QRat.const(F(-3, 4)) / (Qp(2) + 1)]),
            (CyclotomicField(3), [Cyclo.xi_power(3, 1) * F(2, 3)])]:
        for v in values:
            for den in (1, 6):
                assert field.split_str(v, den) == \
                    field.to_str(field.join(v, den))


@settings(max_examples=300, deadline=None)
@given(_qrats, _qrats, st.sampled_from(_OPS), st.booleans(),
       st.integers(-4, 4))
def test_qrat_matches_sympy_cancel(x, z, op, solve, k):
    y = z
    if solve and (x if op is operator.mul else z):
        y = _SOLVE[op](x, z)
    for v in (x, y):
        _assert_canonical(v)
    if k < 0 and not x:
        with pytest.raises(ZeroDivisionError):
            x ** k
    else:
        power = x ** k
        _assert_canonical(power)
        assert sympy.cancel(_sym_qrat(power) - _sym_qrat(x) ** k) == 0
    if op is operator.truediv and not y:
        with pytest.raises(ZeroDivisionError):
            op(x, y)
        return
    got = op(x, y)
    _assert_canonical(got)
    want = sympy.cancel(op(_sym_qrat(x), _sym_qrat(y)))
    assert sympy.cancel(_sym_qrat(got) - want) == 0
    assert QFIELD.parse(QFIELD.to_str(got)) == got


# ---------------------------------------------------------------------------
# the canonical form: an int scale pair in lowest terms
# ---------------------------------------------------------------------------

def _assert_scale_canonical(x):
    _exp, _num, sn, sd, _den = x._key()
    assert type(sn) is int and type(sd) is int
    assert sd > 0 and gcd(sn, sd) == 1
    if not x:
        assert (sn, sd) == (0, 1)
    else:
        assert sn != 0


@settings(max_examples=300, deadline=None)
@given(st.integers(-3, 3), _coeffs, _qrats, _qrats, st.integers(-3, 3))
def test_every_qrat_keeps_its_scale_in_lowest_terms(off, coeffs, x, y, k):
    _assert_scale_canonical(QRat.poly(off, coeffs))
    _assert_scale_canonical(QRat.poly(off, [F(0)] + coeffs + [F(0)]))
    values = [x, y, x * y, x + y, x - y, x - x, -x, x.num, x.den]
    if y:
        values += [x / y, y ** k]
    if x or k >= 0:
        values.append(x ** k)
    for v in values:
        _assert_scale_canonical(v)


@settings(max_examples=200, deadline=None)
@given(_qrats, _qrats, _nonzero_laurent)
def test_equal_qrats_have_equal_keys(x, y, m):
    # the same value reached by different operations
    for other in ((x + y) - y, (x * m) / m, (x.num * m) / (x.den * m),
                  x * QRat.const(F(2, 3)) / F(2, 3), -(-x)):
        assert other == x and other._key() == x._key()


def _reference_terms_str(terms, symbol):
    """The term string built from Fraction coefficients, uncached."""
    if not terms:
        return "0"
    out = ""
    for exp, coeff in terms:
        coeff = F(coeff)
        if exp == 0:
            t = str(coeff)
        else:
            base = symbol if exp == 1 else f"{symbol}^{exp}"
            t = base if coeff == 1 else "-" + base if coeff == -1 \
                else f"{coeff}*{base}"
        if out and not t.startswith("-"):
            out += "+"
        out += t
    return out


@settings(max_examples=300, deadline=None)
@given(_qrats, st.sampled_from([1, -1, F(1, 2), F(-3, 4), 6]))
def test_qrat_to_str_matches_an_uncached_reference(x, c):
    for v in (x, x * c, x.num, x.den):
        den_terms = [(i, d) for i, d in enumerate(v._den) if d]
        assert v.to_str() == "({})/({})".format(
            _reference_terms_str(v.terms(), "q"),
            _reference_terms_str(den_terms, "q"))


# ---------------------------------------------------------------------------
# differential test of Cyclo against sympy
# ---------------------------------------------------------------------------

_cyclo_coeffs = st.lists(st.builds(F, st.integers(-6, 6), st.integers(1, 4)),
                         max_size=14)


def _sym_poly(coeffs):
    return sum((sympy.Rational(c.numerator, c.denominator) * _SX ** i
                for i, c in enumerate(coeffs)), sympy.Integer(0))


def _coeffs(x):
    """Fraction coefficients of 1, xi, ..., xi^(phi(r) - 1) of a Cyclo."""
    return tuple(F(c, x.den) for c in x.num)


def _assert_cyclo_is(got, expr, r):
    """got is canonical and equals the sympy polynomial expr mod phi_r."""
    phi = sympy.cyclotomic_poly(r, _SX)
    deg = sympy.degree(phi, _SX)
    assert len(got.num) == deg and got.den > 0
    assert all(type(c) is int for c in got.num + (got.den,))
    assert gcd(got.den, *got.num) == 1
    want = sympy.Poly(sympy.rem(sympy.expand(expr), phi, _SX), _SX)
    coeffs = want.all_coeffs()[::-1] if not want.is_zero else []
    coeffs += [0] * (deg - len(coeffs))
    assert _coeffs(got) == tuple(F(int(c.p), int(c.q)) for c in
                                 map(sympy.Rational, coeffs))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12), _cyclo_coeffs, _cyclo_coeffs,
       st.sampled_from(_OPS))
def test_cyclo_matches_sympy(r, a, b, op):
    x, y = Cyclo(r, a), Cyclo(r, b)
    sx, sy = _sym_poly(a), _sym_poly(b)
    _assert_cyclo_is(x, sx, r)
    _assert_cyclo_is(y, sy, r)
    phi = sympy.cyclotomic_poly(r, _SX)
    if not y:
        with pytest.raises(ZeroDivisionError):
            y.inverse()
        if op is operator.truediv:
            with pytest.raises(ZeroDivisionError):
                op(x, y)
            return
    else:
        inv_y = sympy.invert(sy, phi, _SX)
        _assert_cyclo_is(y.inverse(), inv_y, r)
    got = op(x, y)
    want = sx * inv_y if op is operator.truediv else op(sx, sy)
    _assert_cyclo_is(got, want, r)
    assert CyclotomicField(r).parse(got.to_str()) == got
    assert got.to_str() == _reference_terms_str(
        [(i, c) for i, c in enumerate(_coeffs(got)) if c], "z")


# ---------------------------------------------------------------------------
# the memoized integer-polynomial kernel
# ---------------------------------------------------------------------------

_int_polys = st.lists(st.integers(-9, 9), min_size=1, max_size=6).filter(
    lambda c: c[-1] != 0).map(tuple)
_primitive_polys = _int_polys.map(lambda c: fields._iprimitive(c)[1])


def _twice(f, *args):
    """f(*args) on an empty cache and again as a hit, both checked
    against the uncached function."""
    f.cache_clear()
    want = f.__wrapped__(*args)
    assert f(*args) == want and f.cache_info().misses == 1
    assert f(*args) == want and f.cache_info().hits == 1


@settings(max_examples=200, deadline=None)
@given(_primitive_polys, _primitive_polys, _primitive_polys)
def test_kernel_caches_match_uncached(a, b, c):
    _twice(fields._imul, a, b)
    _twice(fields._igcd, fields._imul(a, c), fields._imul(b, c))
    assert fields._iquo(fields._imul(a, b), b) == a
    if len(b) > 1:
        # b * c + 1 leaves the remainder 1 on division by b
        p = fields._imul(b, c)
        assert fields._iquo((p[0] + 1,) + p[1:], b) is None


def test_kernel_caches_are_bounded():
    for f in (fields._igcd, fields._imul, fields._den_str):
        assert 0 < f.cache_info().maxsize < float("inf")


# Products of up to six factors x + k: the values of two such products
# at any integer share factors that the polynomials need not share (the
# product of m consecutive ones is divisible by m!), and those are what
# make a GCDHEU candidate fail and the kernel try its next point.
_wide_polys = st.lists(st.integers(-10**4, 10**4), min_size=1,
                       max_size=9).filter(lambda c: c[-1] != 0).map(
    lambda c: fields._iprimitive(c)[1])
_linear_products = st.lists(st.integers(-4, 4), max_size=6).map(
    lambda ks: reduce(fields._imul, [(k, 1) for k in ks], (1,)))


def _sympy_gcd(a, b):
    g = sympy.Poly(a[::-1], _SX).gcd(sympy.Poly(b[::-1], _SX))
    return fields._iprimitive([int(c) for c in g.all_coeffs()[::-1]])[1]


@settings(max_examples=200, deadline=None)
@given(_wide_polys, _wide_polys, _wide_polys, _linear_products,
       _linear_products)
def test_gcd_matches_sympy_and_the_remainder_sequence(a, b, c, la, lb):
    a = fields._imul(fields._imul(a, la), c)
    b = fields._imul(fields._imul(b, lb), c)
    g, ca, cb = fields._igcd.__wrapped__(a, b)
    assert g == fields._prs_gcd(a, b) == _sympy_gcd(a, b)
    assert fields._imul(g, ca) == a and fields._imul(g, cb) == b


def _gcd_points(monkeypatch, a, b):
    """The cofactor triple of a and b, the evaluation points the
    heuristic tried, and the number of remainder sequences run."""
    points, prs = [], []
    ieval, prs_gcd = fields._ieval, fields._prs_gcd
    monkeypatch.setattr(fields, "_ieval",
                        lambda p, x: points.append(x) or ieval(p, x))
    monkeypatch.setattr(fields, "_prs_gcd",
                        lambda p, r: prs.append(p) or prs_gcd(p, r))
    out = fields._igcd.__wrapped__(a, b)
    return out, points[::2], len(prs)


# b = x^2 + 1 has max norm 1, so the points are 16, 256, 65536 and 2^32.
# Where a(xi) = b(xi), gcd(a(xi), b(xi)) = xi^2 + 1 reads back as b,
# which does not divide a.
_B = (1, 0, 1)


@pytest.mark.parametrize("swap", [False, True])
def test_gcd_retries_when_the_first_candidate_does_not_divide(monkeypatch,
                                                              swap):
    a = (-15, 1, 1)  # b + (x - 16)
    pair = (_B, a) if swap else (a, _B)
    out, points, prs = _gcd_points(monkeypatch, *pair)
    assert out == ((1,),) + pair
    assert points == [16, 256] and prs == 0


@pytest.mark.parametrize("swap", [False, True])
def test_gcd_falls_back_to_the_remainder_sequence(monkeypatch, swap):
    p = reduce(fields._imul, [(-xi, 1) for xi in (16, 256, 65536, 2**32)])
    a = tuple(map(operator.add, p, _B + (0, 0)))  # b + p
    pair = (_B, a) if swap else (a, _B)
    out, points, prs = _gcd_points(monkeypatch, *pair)
    assert out == ((1,),) + pair
    assert points == [16, 256, 65536, 2**32] and prs == 1


@pytest.mark.parametrize("r", [5, 7, 9, 12])
def test_cyclo_inverse_when_phi_exceeds_two(r):
    rng = random.Random(r)
    field = CyclotomicField(r)
    assert len(cyclotomic_polynomial(r)) - 1 > 2
    for x in [Cyclo(r, [1, 2])] + [_rand_cyclo(rng, field) for _ in range(5)]:
        if x:
            assert x * x.inverse() == field.one
