import json
import random
import re
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from golden import SYMMETRIC_GOLDEN
from matrices import add, is_identity, scale, sub
from youngbasis import linalg
from youngbasis.algebras import (AlgebraSpec, WeightScheme,
                                 conjugate_to_natural, generators,
                                 seminormal_generator, zeroth_generator)
from youngbasis.errors import FieldMismatchError, PreconditionError
from youngbasis.fields import (CyclotomicField, Cyclo, QFIELD, QRat,
                               RATIONALS, field_of)
from youngbasis.linalg import (Matrix, cell_rows, compact_json, csv_chunks,
                               json_chunks, matmul, matrix_from_json,
                               matrix_to_csv, matrix_to_json,
                               triangular_inverse, triangular_solve)
from youngbasis.shapes import parse_shape
from youngbasis.transition import (grn_transition, transition_pathsum,
                                   transition_recursive, transition_word)


def _full_rows(m, quoted=False):
    """Rows of scalar strings of m, every row full: the writer's joined
    rows split at their commas, which no cell holds."""
    rows = list(cell_rows(m.field, m.nrows, m.ncols, m.column_stream(),
                          quoted))
    if quoted:
        assert all(row[0] + row[-1] == "[]" for row in rows)
        rows = [row[1:-1] for row in rows]
    return [row.split(",") if row else [] for row in rows]


# rows that start part-way along and rows that never start
_ODD_LAYOUTS = [
    # an all-zero row
    Matrix.from_rows([[F(1), F(2), F(0)], [F(0)] * 3,
                      [F(0), F(1, 2), F(3)]], RATIONALS),
    # one nonzero below the diagonal
    Matrix.from_rows([[F(1), F(2), F(3)], [F(0), F(4), F(5)],
                      [F(0), F(-7, 3), F(6)]], RATIONALS),
    # lower-triangular, over q
    Matrix.from_rows([[QRat.q_power(1), 0, 0], [1, 2, 0],
                      [QRat.q_power(-2), 0, QRat.q_power(1) - 1]], QFIELD),
    # 3 x 2, its last row zero, and 2 x 3, its first row zero
    Matrix.from_rows([[F(0), F(1, 4)], [F(5), F(0)], [F(0), F(0)]],
                     RATIONALS),
    Matrix.from_rows([[F(0)] * 3, [F(0), F(0), F(-1)]], RATIONALS),
]


def _golden_matrix(key):
    rows = [[F(v) for v in row] for row in SYMMETRIC_GOLDEN[key][1]]
    return Matrix.from_rows(rows, RATIONALS)


def test_generator_is_involution():
    s = parse_shape("2,1")
    g = seminormal_generator(WeightScheme(AlgebraSpec("symmetric"), s), 2)
    assert is_identity(matmul(g, g))


def test_matmul_applies_column():
    a21 = _golden_matrix("2,1")
    e2 = Matrix.from_rows([[F(0)], [F(1)]], RATIONALS)
    col = matmul(a21, e2)
    assert col.get(0, 0) == F(1, 2) and col.get(1, 0) == F(3, 2)


def test_apply_skips_explicit_zeros_of_the_vector():
    # a zero entry adds nothing, whether or not its column's rows are
    # reached by the vector's other entries; the others keep their order
    q = QRat.q_power(1)
    rows = [[q, 1, 0], [0, q - 1, 2], [1, 0, q]]
    for m, zero, x in [(_golden_matrix("3,2"), 0, F(3, 2)),
                       (_golden_matrix("3,2"), F(0), 5),
                       (Matrix.from_rows(rows, QFIELD), QFIELD.zero, q)]:
        for vec in [{0: zero}, {1: x, 0: zero}, {0: zero, 1: x, 2: zero},
                    {2: x, 1: zero, 0: x}]:
            nonzero = {j: v for j, v in vec.items() if v}
            dense = [sum((m.get(i, j) * v for j, v in nonzero.items()),
                         m.field.zero) for i in range(m.nrows)]
            out = m.apply(vec)
            assert list(out.items()) == list(m.apply(nonzero).items())
            assert {i: m.field.coerce(v) for i, v in out.items()} == \
                {i: v for i, v in enumerate(dense) if v}


def test_identity_neutral():
    a = _golden_matrix("3,2")
    assert matmul(Matrix.identity(5, RATIONALS), a) == a
    assert matmul(a, Matrix.identity(5, RATIONALS)) == a


def test_triangular_inverse_2x2():
    a = _golden_matrix("2,1")
    inv = triangular_inverse(a)
    assert inv.to_rows() == [[F(1), F(-1, 3)], [F(0), F(2, 3)]]
    assert is_identity(triangular_inverse(Matrix.identity(4, RATIONALS)))


def test_triangular_inverse_16x16():
    s = parse_shape("3,2,1")
    tm = transition_recursive(WeightScheme(AlgebraSpec("symmetric"), s))
    inv = triangular_inverse(tm.matrix)
    assert is_identity(matmul(tm.matrix, inv))
    assert is_identity(matmul(inv, tm.matrix))
    assert inv.is_upper_triangular()


def test_one_entry_below_the_diagonal_is_not_upper_triangular():
    m = Matrix.identity(5, RATIONALS)
    m.cols[2][0] = m.cols[4][1] = 1
    assert m.is_upper_triangular()
    m.cols[2][3] = 1
    assert not m.is_upper_triangular()


def test_triangular_inverse_rejects_bad_input():
    wide = Matrix.from_rows([[F(1), F(0), F(1)], [F(0), F(1), F(1)]],
                            RATIONALS)
    m = Matrix.from_rows([[F(1), F(0)], [F(1), F(1)]], RATIONALS)
    z = Matrix.from_rows([[F(1), F(1)], [F(0), F(0)]], RATIONALS)
    b = Matrix.identity(2, RATIONALS)
    for solve in (triangular_inverse, lambda a: triangular_solve(a, b)):
        with pytest.raises(PreconditionError, match="nonsquare"):
            solve(wide)
        with pytest.raises(PreconditionError, match="not upper-triangular"):
            solve(m)
        with pytest.raises(PreconditionError,
                           match="zero diagonal entry at 1"):
            solve(z)
    with pytest.raises(PreconditionError, match="inner dimensions"):
        triangular_solve(b, Matrix.identity(3, RATIONALS))
    with pytest.raises(FieldMismatchError):
        triangular_solve(b, Matrix.identity(2, QFIELD))


def test_matmul_associativity_random_fields():
    rng = random.Random(31)
    cyc = CyclotomicField(3)

    def rand_matrix(field, sampler):
        values = [{} for _ in range(4)]
        for _ in range(6):
            values[rng.randrange(4)][rng.randrange(4)] = sampler()
        return Matrix.from_columns(4, 4, field, values)

    samplers = [
        (RATIONALS, lambda: F(rng.randint(-4, 4), rng.randint(1, 4))),
        (QFIELD, lambda: QRat.q_power(rng.randint(-2, 2)) * rng.randint(1, 3)),
        (cyc, lambda: Cyclo(3, [rng.randint(-2, 2), rng.randint(-2, 2)])),
    ]
    for field, sampler in samplers:
        for _ in range(5):
            a, b, c = (rand_matrix(field, sampler) for _ in range(3))
            assert matmul(matmul(a, b), c) == matmul(a, matmul(b, c))


def test_field_and_dimension_mismatch():
    a = Matrix.identity(2, RATIONALS)
    b = Matrix.identity(2, QFIELD)
    with pytest.raises(FieldMismatchError):
        matmul(a, b)
    c = Matrix.identity(3, RATIONALS)
    with pytest.raises(PreconditionError):
        matmul(a, c)


def test_json_round_trip():
    s = parse_shape("3,2")
    tm = transition_recursive(WeightScheme(AlgebraSpec("symmetric"), s))
    text = matrix_to_json(tm.matrix, s.to_str(), {"family": "symmetric"})
    back, shape_str, params = matrix_from_json(text, shape=s)
    assert shape_str == "3,2"
    assert params["family"] == "symmetric"
    assert back.to_rows() == tm.matrix.to_rows()
    # symbolic entries round-trip too
    tmh = transition_recursive(WeightScheme(AlgebraSpec("hecke_A"), s))
    text2 = matrix_to_json(tmh.matrix, s.to_str(), None)
    back2, _, _ = matrix_from_json(text2, shape=s)
    assert back2.to_rows() == tmh.matrix.to_rows()


def _reference_json(m, shape_str=None, params=None):
    """The JSON writer as one compact_json call on the whole object, with
    every cell formatted on its own."""
    rows = [[m.field.to_str(v) for v in row] for row in m.to_rows()]
    assert _full_rows(m) == rows
    return compact_json({
        "shape": shape_str,
        "field": m.field.name,
        "params": params or {},
        "basis": [t.serialize() for t in m.basis] if m.basis else None,
        "rows": rows,
    })


def _fresh_cells(m):
    """m, over a field other than the rationals, with every cell a new
    object, so equal values are not shared."""
    copy = lambda v: m.field.parse(m.field.to_str(v))  # noqa: E731
    return Matrix(m.nrows, m.ncols, m.field, basis=m.basis,
                  cols=[{i: copy(v) for i, v in col.items()}
                        for col in m.cols])


def test_json_writer_matches_one_compact_json_call():
    s = parse_shape("3,2")
    rational = transition_recursive(
        WeightScheme(AlgebraSpec("symmetric"), s)).matrix
    symbolic = transition_recursive(
        WeightScheme(AlgebraSpec("hecke_A"), s)).matrix
    ws = WeightScheme(AlgebraSpec("wreath_grn"), parse_shape("(2,1)|(1)|(1)"))
    t0 = zeroth_generator(ws)
    cyclo = matmul(t0, transition_recursive(ws).matrix.coerce_field(t0.field))
    assert t0.field == CyclotomicField(3)
    # some entry has a xi term and some a denominator
    cells = [v for col in cyclo.cols for v in col.values()]
    assert any(any(v.num[1:]) for v in cells)
    assert any(v.den > 1 for v in cells)
    # 1/2 as 1 over 2 in column 0 and as 2 over 4 in column 1
    halves = Matrix.from_rows([[F(1, 2), F(1, 2)], [F(0), F(1, 4)]],
                              RATIONALS)
    assert halves.cols == [{0: 1}, {0: 2, 1: 1}] and halves.dens == [2, 4]
    assert _full_rows(halves) == [["1/2", "1/2"], ["0", "1/4"]]
    cases = [(rational, ("3,2", {"family": "symmetric"})),
             (symbolic, ("3,2", {"family": "hecke_A", "q": "q"})),
             (cyclo, ("(2,1)|(1)|(1)", {"family": "wreath_grn"})),
             (Matrix(0, 0, RATIONALS), ("", {})),
             (Matrix(2, 0, QFIELD), ()),
             (rational, (None, None)),
             (Matrix(rational.nrows, rational.ncols, RATIONALS,
                     cols=rational.cols, dens=rational.dens), ("3,2",)),
             (halves, (None, None)),
             (_fresh_cells(symbolic), ("3,2", {"family": "hecke_A"})),
             *((m, (None, None)) for m in _ODD_LAYOUTS)]
    # equal values in distinct objects
    fresh = [v for col in _fresh_cells(symbolic).cols for v in col.values()]
    assert len(set(map(id, fresh))) == len(fresh) > len(set(fresh))
    for m, args in cases:
        assert matrix_to_json(m, *args) == _reference_json(m, *args)
        # the cells need no JSON escaping, so quoting them is json.dumps
        for row in _full_rows(m):
            assert all(re.fullmatch(r"[0-9qz^*/+()-]+", c) for c in row)


def _row_lengths(m, quoted, monkeypatch):
    """The lengths of the rows :func:`cell_rows` holds for m before it
    joins them, None for a row it never made."""
    lengths, join = [], linalg._joined

    def joined(rows, *args):
        lengths.extend(None if row is None else len(row) for row in rows)
        return join(rows, *args)
    monkeypatch.setattr(linalg, "_joined", joined)
    cell_rows(m.field, m.nrows, m.ncols, m.column_stream(), quoted)
    monkeypatch.undo()
    return lengths


@pytest.mark.parametrize("spec, text", [
    (AlgebraSpec("symmetric"), "4,2,1"), (AlgebraSpec("hecke_A"), "3,2,1"),
    (AlgebraSpec("ariki_koike", q=5, u=(2, 3)), "(2,1)|(1)"),
    (AlgebraSpec("symmetric"), "1"), (AlgebraSpec("symmetric"), "()")])
def test_upper_triangular_rows_start_at_the_diagonal(spec, text,
                                                     monkeypatch):
    m = transition_recursive(WeightScheme(spec, parse_shape(text))).matrix
    f = m.ncols
    zero = m.field.to_str(m.field.zero)
    for quoted in (False, True):
        assert _row_lengths(m, quoted, monkeypatch) == [f - i
                                                        for i in range(f)]
    assert all(row[:i] == [zero] * i and row[i] != zero
               for i, row in enumerate(_full_rows(m)))
    # the stream writer as transition uses it
    assert "".join(json_chunks({
        "basis": [t.serialize() for t in m.basis] if m.basis else None,
        "field": m.field.name, "params": {},
        "rows": cell_rows(m.field, f, f, m.column_stream(), True),
        "shape": text})) + "\n" == matrix_to_json(m, text)
    rows = cell_rows(m.field, f, f, m.column_stream())
    assert "".join(csv_chunks(rows, f, f, m.basis)) == matrix_to_csv(m)
    # any other matrix's rows start at their first nonzero column
    for m in _ODD_LAYOUTS:
        starts = [min((j for j, col in enumerate(m.cols) if i in col),
                      default=None) for i in range(m.nrows)]
        assert _row_lengths(m, False, monkeypatch) == [
            None if j is None else m.ncols - j for j in starts]


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=20)


def _streamed(value, draw):
    """value with each list that draw picks as an iterator of its items:
    a leaf as its JSON text, a container streamed in the same way."""
    if isinstance(value, dict):
        return {k: _streamed(v, draw) for k, v in value.items()}
    if isinstance(value, list) and draw(st.booleans()):
        return iter([_streamed(x, draw) if isinstance(x, (list, dict))
                     else json.dumps(x) for x in value])
    return value


@given(_JSON_VALUES, st.data())
def test_json_writer_matches_json_dumps(value, data):
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    assert "".join(json_chunks(value)) == text
    assert "".join(json_chunks(_streamed(value, data.draw))) == text


def test_cells_of_a_column_are_reduced_one_by_one():
    # the column is in lowest terms (gcd(4, 2, 3, 8) = 1); its cells are
    # not, and each prints in its own lowest terms
    m = Matrix(4, 3, RATIONALS, cols=[{0: 4, 1: 2, 2: 3}, {0: -6, 3: 9},
                                      {1: -2, 3: 1}], dens=[8, 6, 2])
    expect = [["1/2", "-1", "0"], ["1/4", "0", "-1"], ["3/8", "0", "0"],
              ["0", "3/2", "1/2"]]
    assert _full_rows(m) == expect
    assert expect == [[str(v) for v in row] for row in m.to_rows()]
    assert matrix_to_csv(m) == ",1,2,3\n" + "".join(
        f"{i + 1},{','.join(row)}\n" for i, row in enumerate(expect))
    assert _full_rows(m, quoted=True)[1] == ['"1/4"', '"0"', '"-1"']
    for m in _ODD_LAYOUTS:
        lines = [["", *map(str, range(1, m.ncols + 1))]] + [
            [str(i + 1), *map(m.field.to_str, row)]
            for i, row in enumerate(m.to_rows())]
        assert matrix_to_csv(m) == "".join(
            ",".join(line) + "\n" for line in lines)


def test_csv_has_word_header():
    s = parse_shape("2,1")
    tm = transition_recursive(WeightScheme(AlgebraSpec("symmetric"), s))
    text = matrix_to_csv(tm.matrix)
    lines = text.strip().split("\n")
    assert lines[0] == ",1 2 3,1 3 2"
    assert lines[1] == "1 2 3,1,1/2"
    assert lines[2] == "1 3 2,0,3/2"


def _assert_canonical(m):
    """Each column of m is numerators over a positive int denominator in
    lowest terms, with no zero numerator; on the rationals the numerators
    are ints, on the other fields the field's scalars over 1."""
    assert len(m.cols) == len(m.dens) == m.ncols
    for col, den in zip(m.cols, m.dens):
        assert type(den) is int and den > 0
        assert all(0 <= i < m.nrows for i in col)
        assert all(col.values())
        if m.field == RATIONALS:
            assert all(type(x) is int for x in col.values())
            assert gcd(den, *col.values()) == 1
        else:
            assert den == 1
            assert all(field_of(x) == m.field for x in col.values())


@pytest.mark.parametrize("family, kwargs, text", [
    ("symmetric", {}, "3,2,1"),
    ("symmetric", {}, "3,3,1/2,1"),
    ("hecke_A", {"q": 5}, "3,2,1"),
    ("hecke_A", {}, "3,2"),
    ("hecke_B", {"q": 5, "u": (2, F(1, 2))}, "(2,1)|(1)"),
    ("ariki_koike", {"q": 7, "u": (2, 3)}, "(2,1)|(1)"),
    ("wreath_grn", {}, "(2,1)|(1)"),
    ("affine_placed", {"q": 5}, "(2,1)|(1)@1,q^3"),
    # page weights a factor q^4 apart: some move coefficients are 0
    ("affine_placed", {}, "(2,1)|(1)@1,q^4"),
])
def test_every_route_and_operation_gives_canonical_columns(family, kwargs,
                                                           text):
    ws = WeightScheme(AlgebraSpec(family, **kwargs), parse_shape(text))
    tm = transition_recursive(ws)
    a = tm.matrix
    gens = [m for _, m in generators(ws)]
    g = seminormal_generator(ws, 1)
    mats = [a, transition_word(ws).matrix, transition_pathsum(ws).matrix,
            *gens, *conjugate_to_natural(gens, tm),
            matmul(a, g), matmul(g, a), add(a, g), sub(a, g), sub(a, a),
            scale(a, 2), scale(a, F(3, 4)), scale(a, ws.q), scale(a, 0),
            triangular_inverse(a), a.coerce_field(QFIELD),
            Matrix.from_rows(a.to_rows(), a.field),
            Matrix.identity(a.nrows, a.field)]
    if family == "wreath_grn":
        mats.append(grn_transition(ws).matrix)
    for m in mats:
        _assert_canonical(m)


# nonzero values drawn directly: filtering zeros out of _ENTRY made
# hypothesis fail its filter_too_much health check on some runs
_NONZERO = st.builds(F, st.integers(-4, -1) | st.integers(1, 4),
                     st.integers(1, 6))
_ENTRY = st.just(F(0)) | _NONZERO


def _dense(nrows, ncols):
    return st.lists(st.lists(_ENTRY, min_size=ncols, max_size=ncols),
                    min_size=nrows, max_size=nrows)


def _product(x, y):
    return [[sum((x[i][k] * y[k][j] for k in range(len(y))), F(0))
             for j in range(len(y[0]))] for i in range(len(x))]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_operations_match_a_dense_fraction_reference(data):
    n, k, m = (data.draw(st.integers(1, 4)) for _ in range(3))
    x, z = data.draw(_dense(n, k)), data.draw(_dense(n, k))
    y, v = data.draw(_dense(k, m)), data.draw(_dense(n, n))
    s = data.draw(_ENTRY)
    diag = data.draw(st.lists(_NONZERO, min_size=n, max_size=n))
    u = [[v[i][j] if i < j else diag[i] if i == j else F(0)
          for j in range(n)] for i in range(n)]
    a, b, c, t = (Matrix.from_rows(r, RATIONALS) for r in (x, y, z, u))
    inv, sol = triangular_inverse(t), triangular_solve(t, a)
    eye = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    cases = [
        (a, x), (b, y),
        (matmul(a, b), _product(x, y)),
        (add(a, c), [[p + q for p, q in zip(r, w)] for r, w in zip(x, z)]),
        (sub(a, c), [[p - q for p, q in zip(r, w)] for r, w in zip(x, z)]),
        (scale(a, s), [[p * s for p in r] for r in x]),
        (scale(a, -6), [[p * -6 for p in r] for r in x]),
        (Matrix.identity(n, RATIONALS), eye),
        (matmul(t, inv), eye),
        (matmul(t, sol), x),
    ]
    for mat, rows in cases:
        _assert_canonical(mat)
        assert mat.to_rows() == rows
        assert mat == Matrix.from_rows(rows, RATIONALS)
    _assert_canonical(inv)
    _assert_canonical(sol)
    assert _product(inv.to_rows(), u) == eye
    lifted = a.coerce_field(QFIELD)
    _assert_canonical(lifted)
    assert lifted.to_rows() == [[QFIELD.coerce(p) for p in r] for r in x]


_Q = QRat.q_power(1)
_QRAT = st.sampled_from([QRat.const(F(-3, 2)), QRat.const(2), _Q, -_Q,
                         _Q - 1, (_Q + 2) / (_Q - 1), F(1, 3) / _Q ** 2])


def _assert_inverts(a, b):
    """a's inverse, and the solution of a X = b, check out.  Both are
    canonical, so no column keeps a zero where a pivot row cancels."""
    inv = triangular_inverse(a)
    _assert_canonical(inv)
    assert is_identity(matmul(a, inv)) and is_identity(matmul(inv, a))
    assert inv.is_upper_triangular()
    x = triangular_solve(a, b)
    _assert_canonical(x)
    assert matmul(a, x) == b and x == matmul(inv, b)


@pytest.mark.parametrize("family, kwargs, text, field", [
    ("hecke_A", {}, "3,2,1", None),
    ("hecke_A", {"q": 5}, "3,2,1", None),
    ("wreath_grn", {}, "(2,1)|(1)", CyclotomicField(2)),
])
def test_triangular_inverse_off_the_rationals(family, kwargs, text, field):
    # q-functions, and the rationals coerced into the cyclotomic field
    # of a wreath s_0 as conjugate_to_natural does: columns over 1,
    # solved against s_1 A, or against the cyclotomic T_0 A
    ws = WeightScheme(AlgebraSpec(family, **kwargs), parse_shape(text))
    a = transition_recursive(ws).matrix
    if field is None:
        _assert_inverts(a, matmul(seminormal_generator(ws, 1), a))
    else:
        a = a.coerce_field(field)
        _assert_inverts(a, matmul(zeroth_generator(ws), a))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_triangular_inverse_of_drawn_q_matrices(data):
    n = data.draw(st.integers(1, 4))
    entry = st.just(QFIELD.zero) | _QRAT
    rows = [[data.draw(_QRAT if i == j else entry) if i <= j
             else QFIELD.zero for j in range(n)] for i in range(n)]
    m = data.draw(st.integers(1, 3))
    b = [[data.draw(entry) for _ in range(m)] for _ in range(n)]
    _assert_inverts(Matrix.from_rows(rows, QFIELD),
                    Matrix.from_rows(b, QFIELD))
