import hashlib
import json
import math
from collections import Counter
from fractions import Fraction as F
from itertools import combinations_with_replacement, permutations, product
from operator import lt

import pytest
from sympy.functions.combinatorial.numbers import \
    partition as sympy_partition_count
from sympy.utilities.iterables import partitions as sympy_partitions

from fillings import (alphabetizer, apply_permutation, box_of,
                      column_reading_tableau, entry, from_entries, is_standard,
                      reading_tableaux, row_reading_tableau, shape_boxes, swap)
from youngbasis.errors import (DegenerateWeightError, PreconditionError,
                               ShapeParseError)
from youngbasis.fields import QFIELD, QRat
from youngbasis.perms import length as perm_length
from youngbasis.shapes import (Shape, Tableau, _partitions, all_partitions,
                               all_skew_shapes, parse_shape,
                               shape_from_parts, standard_tableaux)
from youngbasis.weights import q_axial_weight, weighted_content


def tab(shape, *rows):
    return Tableau(shape, [rows])


def test_shape_parsing_round_trip():
    for text in ["3,2,1", "3,3,1/2,1", "(2,1)|(1)", "(3,2/1)|(2)",
                 "(3,2)|()|(2)|(2,1)"]:
        s = parse_shape(text)
        assert parse_shape(s.to_str()).components == s.components
    s = parse_shape("(2,1)|(1)@2,3")
    assert s.weights == (F(2), F(3))
    s = parse_shape("(2)|(1)@q^0,q^2")
    assert s.weights[1] == QRat.q_power(2)
    with pytest.raises(ShapeParseError):
        parse_shape("3,4")  # not weakly decreasing
    with pytest.raises(ShapeParseError):
        parse_shape("2/3")  # inner not contained
    with pytest.raises(ShapeParseError):
        parse_shape("")


def test_enumeration_counts():
    assert len(standard_tableaux(parse_shape("3,2"))) == 5
    assert len(standard_tableaux(parse_shape("3,3,1/2,1"))) == 8
    assert len(standard_tableaux(parse_shape("(2,1)|(3,1)"))) == 210


def test_multinomial_product_count():
    for text in ["(2,1)|(1)", "(1)|(1)|(2)", "(2,2)|(2,1)"]:
        s = parse_shape(text)
        expect = math.factorial(s.n)
        for outer, _ in s.components:
            expect //= math.factorial(sum(outer))
        for outer, _ in s.components:
            if outer:
                expect *= len(standard_tableaux(Shape([(outer, ())])))
        assert len(standard_tableaux(s)) == expect


def _brute_force_count(shape):
    """Standard filling count by filtering all n! assignments."""
    boxes = shape_boxes(shape)
    count = 0
    for perm in permutations(range(1, shape.n + 1)):
        t = from_entries(shape, dict(zip(boxes, perm)))
        if is_standard(t):
            count += 1
    return count


def test_counts_against_brute_force():
    shapes = []
    for n in range(1, 6):
        shapes.extend(all_skew_shapes(n))
    shapes.append(parse_shape("(2,1)|(2)"))
    shapes.append(parse_shape("(1)|(2)|(1)"))
    for s in shapes:
        assert len(standard_tableaux(s)) == _brute_force_count(s)


def test_enumeration_equals_standard_fillings():
    # includes skew shapes whose last row has a nonempty inner part
    for text in ["3,3/1,1", "(2,2/1,1)|(1)", "3,3,1/2,1", "(2,1)|(2)",
                 "(1)|()|(2)"]:
        s = parse_shape(text)
        boxes = shape_boxes(s)
        fillings = {t.rows for t in
                    (from_entries(s, dict(zip(boxes, perm)))
                     for perm in permutations(range(1, s.n + 1)))
                    if is_standard(t)}
        assert {t.rows for t in standard_tableaux(s)} == fillings, text


def test_enumeration_is_duplicate_free_and_standard():
    for text in ["3,2,1", "3,3,1/2,1", "(2,1)|(2)"]:
        ts = standard_tableaux(parse_shape(text))
        assert len({t.rows for t in ts}) == len(ts)
        assert all(is_standard(t) for t in ts)


def test_canonical_order_is_by_depth_then_word():
    ts = standard_tableaux(parse_shape("3,2,1"))
    keys = [(t.depth, t.word) for t in ts]
    assert keys == sorted(keys)


def test_reading_tableaux_skew():
    s = parse_shape("4,4,2,1/2,2")
    c = column_reading_tableau(s)
    assert c.serialize() == [[[4, 6], [5, 7], [1, 3], [2]]]
    assert not c.inversions
    r = row_reading_tableau(s)
    assert r.serialize() == [[[1, 2], [3, 4], [5, 6], [7]]]


def test_reading_tableaux_multi_component():
    s = parse_shape("(3,2)|()|(2)|(2,1)")
    c = column_reading_tableau(s)
    assert c.serialize() == [[[1, 3, 5], [2, 4]], [], [[6, 7]], [[8, 10], [9]]]
    r = row_reading_tableau(s)
    assert r.serialize() == [[[6, 7, 8], [9, 10]], [], [[4, 5]], [[1, 2], [3]]]


def test_reading_tableaux_single_box():
    s = parse_shape("1")
    assert column_reading_tableau(s) == row_reading_tableau(s)
    assert column_reading_tableau(s).serialize() == [[[1]]]


def test_word_examples():
    s = parse_shape("4,4,2,1/2,2")
    t = from_entries(s, {(1, 1, 3): 1, (1, 1, 4): 3, (1, 2, 3): 5,
                         (1, 2, 4): 6, (1, 3, 1): 2, (1, 3, 2): 4,
                         (1, 4, 1): 7})
    assert t.word == (2, 7, 4, 1, 5, 3, 6)
    s2 = parse_shape("3,2,1")
    t2 = tab(s2, (1, 2, 4), (3, 6), (5,))
    assert t2.word == (1, 3, 5, 2, 6, 4)
    c = column_reading_tableau(s2)
    assert c.word == (1, 2, 3, 4, 5, 6)


def test_word_sends_column_tableau_to_tableau():
    s = parse_shape("3,2")
    c = column_reading_tableau(s)
    for t in standard_tableaux(s):
        out, std = apply_permutation(c, t.word)
        assert std and out == t


def test_inversions_examples():
    s = parse_shape("3,2,1")
    t = tab(s, (1, 2, 4), (3, 6), (5,))
    assert t.inversions == {(3, 2), (5, 2), (5, 4), (6, 4)}
    assert t.depth == 4
    assert not column_reading_tableau(s).inversions
    s6 = parse_shape("(3,2)|()|(2)|(2,1)")
    t6 = Tableau(s6, [[(3, 5, 7), (4, 8)], [], [(1, 6)], [(2, 9), (10,)]])
    assert t6.inversions == {
        (3, 1), (3, 2), (4, 1), (4, 2), (5, 1), (5, 2), (8, 7), (8, 1),
        (8, 6), (8, 2), (7, 1), (7, 6), (7, 2), (6, 2), (10, 9)}


def test_inversion_count_equals_word_length():
    for text in ["3,2,1", "3,3,1/2,1", "(2,1)|(2)"]:
        for t in standard_tableaux(parse_shape(text)):
            assert len(t.inversions) == perm_length(t.word)


def _inversions_by_definition(t):
    """All pairs (i, j), i > j, with i strictly southwest of j in one
    component or in a component further left."""
    out = set()
    for i in range(2, t.shape.n + 1):
        ki, xi, yi = box_of(t)[i]
        for j in range(1, i):
            kj, xj, yj = box_of(t)[j]
            if ki < kj or (ki == kj and xi > xj and yi < yj):
                out.add((i, j))
    return out


def test_inversions_match_the_all_pairs_definition():
    texts = ["4,2,1", "3,3,1/2,1", "4,1/3", "4,4,2/3,1", "(2,1)|(2)",
             "(3,2)|()|(2)|(2,1)", "(2)|(1,1)|(1)"]
    texts += [s.to_str() for s in all_skew_shapes(5)]
    for text in texts:
        for t in standard_tableaux(parse_shape(text)):
            assert t.inversions == _inversions_by_definition(t), text


def test_contents():
    s = parse_shape("9,7,7,4,2,2,1/4,3,2,2,2")
    c = column_reading_tableau(s)
    v = entry(c, 1, 1, 5)
    assert c.content(v) == 4
    s2 = parse_shape("2,1")
    t = column_reading_tableau(s2)
    assert t.content(entry(t, 1, 1, 1)) == 0


def test_weighted_content_uses_page_weight():
    s = parse_shape("(2,1)|(1)")
    t = column_reading_tableau(s)
    v = entry(t, 1, 2, 1)  # box (2,1) of the first component
    u1, u2 = F(2), F(3)
    got = weighted_content(t, v, (u1, u2), QFIELD.q)
    assert got == QFIELD.coerce(u1) * QRat.q_power(-2)
    assert weighted_content(t, v, (u1, u2), F(5)) == u1 * F(1, 25)


def test_axial_weight_examples():
    s = parse_shape("5,4,3,1")
    t = Tableau(s, [[(1, 4, 6, 7, 9), (2, 5, 8, 10), (3, 11, 13), (12,)]])
    # at q = 1 the coefficient is the reciprocal axial distance
    assert q_axial_weight(t, 10, 11, (1,), F(1)) == F(-1, 3)
    # antisymmetry
    for (i, j) in [(10, 11), (3, 7), (12, 2)]:
        assert q_axial_weight(t, i, j, (1,), F(1)) \
            == -q_axial_weight(t, j, i, (1,), F(1))


def test_axial_weight_q_examples():
    s = parse_shape("2")
    c = column_reading_tableau(s)
    assert q_axial_weight(c, 1, 2, (1,), QFIELD.q) == QRat.q_power(1)
    # complementary pair sums to q - q^{-1}
    s2 = parse_shape("3,2")
    for t in standard_tableaux(s2):
        for i in range(1, 5):
            a = q_axial_weight(t, i, i + 1, (1,), QFIELD.q)
            b = q_axial_weight(t, i + 1, i, (1,), QFIELD.q)
            assert a + b == QFIELD.q - QFIELD.q_inv
    # at q = 1: distinct page weights give 0 across components; equal
    # contents, or equal page weights across components, stay degenerate
    t = column_reading_tableau(parse_shape("(2)|(1)"))
    assert q_axial_weight(t, 1, 3, (2, 3), F(1)) == 0
    with pytest.raises(DegenerateWeightError):
        q_axial_weight(t, 1, 3, (2, 2), F(1))
    with pytest.raises(DegenerateWeightError):
        q_axial_weight(t, 1, 2, (1, 1), F(-1))
    t = Tableau(parse_shape("2,2"), [[(1, 2), (3, 4)]])
    with pytest.raises(DegenerateWeightError):
        q_axial_weight(t, 1, 4, (1,), F(1))


def test_alphabetizer():
    s = parse_shape("(3,2)|()|(2)|(2,1)")
    t = Tableau(s, [[(3, 5, 7), (4, 8)], [], [(1, 6)], [(2, 9), (10,)]])
    assert alphabetizer(t) == (3, 4, 5, 7, 8, 1, 6, 2, 9, 10)
    assert alphabetizer(column_reading_tableau(s)) == tuple(range(1, 11))
    s1 = parse_shape("3,2")
    for t in standard_tableaux(s1):
        assert alphabetizer(t) == (1, 2, 3, 4, 5)
    with pytest.raises(PreconditionError):
        alphabetizer(column_reading_tableau(parse_shape("3,3/2")))


def test_apply_permutation():
    s = parse_shape("3,2,1")
    t11 = tab(s, (1, 2, 5), (3, 4), (6,))
    t7 = tab(s, (1, 2, 6), (3, 4), (5,))
    swapped, std = apply_permutation(t11, (1, 2, 3, 4, 6, 5))
    assert std and swapped == t7
    _, std3 = apply_permutation(t11, (1, 2, 4, 3, 5, 6))
    assert not std3
    same, std_id = apply_permutation(t11, (1, 2, 3, 4, 5, 6))
    assert std_id and same == t11


def test_swap_is_involutive():
    s = parse_shape("3,2")
    for t in standard_tableaux(s):
        for i in range(1, 5):
            assert swap(swap(t, i), i) == t


def test_all_partitions():
    assert all_partitions(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    counts = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]
    for n in range(13):
        # sympy reuses the dict it yields: convert each one on arrival
        oracle = sorted((tuple(sorted(Counter(p).elements(), reverse=True))
                         for p in sympy_partitions(n)), reverse=True)
        assert all_partitions(n) == oracle
        assert len(oracle) == sympy_partition_count(n) == counts[n]
    # the enumerator under both: no caps, a negative size, a zero cap
    assert _partitions(()) == _partitions((), 0) == [()]
    assert _partitions((), 1) == _partitions((2, 1), -1) == []
    assert _partitions((3, 0, 2)) == [(3,), (2,), (1,), ()]
    assert _partitions((3, 0, 2), 2) == [(2,)]
    assert _partitions((2, 2, 1), 3) == [(2, 1), (1, 1, 1)]


def test_all_skew_shapes_are_normalized():
    digests = ["6b86b273ff34fce1", "f5a6061eca6b13ca", "76a936a0ec296b0e",
               "ccfe31632df8dc2f", "11e7dc0c2656d54a", "5f755e28f4d65945"]
    for n, digest in enumerate(digests, 1):
        shapes = all_skew_shapes(n)
        for s in shapes:
            outer, inner = s.components[0]
            padded = inner + (0,) * (len(outer) - len(inner))
            assert padded[-1] == 0
            assert all(padded[i] < outer[i] for i in range(len(outer)))
            assert s.n == n
        # the order is pinned by a digest of the listing
        listing = "\n".join(s.to_str() for s in shapes).encode()
        assert hashlib.sha256(listing).hexdigest()[:16] == digest
        assert len(shapes) == [1, 3, 11, 46, 205, 947][n - 1]
        comps = [s.components for s in shapes]
        assert len(set(comps)) == len(comps)
        # brute force: every pair of partitions in the n x n box
        box = [p for k in range(n + 1)
               for p in combinations_with_replacement(range(n, 0, -1), k)]
        # with fewer inner than outer rows, the last row is nonempty
        brute = {((outer, inner),) for outer, inner in product(box, box)
                 if sum(outer) - sum(inner) == n
                 and len(inner) < len(outer) and all(map(lt, inner, outer))}
        assert set(comps) == brute


def test_reading_tableaux_pair():
    s = parse_shape("3,2")
    c, r = reading_tableaux(s)
    assert c == column_reading_tableau(s)
    assert r == row_reading_tableau(s)


def test_content_of_pair():
    s = parse_shape("(2,1)|(1)")
    c = column_reading_tableau(s)
    v = entry(c, 1, 2, 1)
    assert c.content(v) == -1
    assert weighted_content(c, v, (F(2), F(3)), QFIELD.q) \
        == QFIELD.coerce(2) * QRat.q_power(-2)
    v1 = entry(c, 1, 1, 1)
    assert c.content(v1) == 0
    assert weighted_content(c, v1, (1, 1), QFIELD.q) == QFIELD.one


def test_tableau_rows_round_trip_with_empty_rows_and_components():
    for text, rows in [
            ("3,3,1/3,1", [(), (2, 3), (1,)]),
            ("(2,1)|()|(1)", None),
            ("(3,2/2)|()|(2,2/1)", None)]:
        s = parse_shape(text)
        for t in standard_tableaux(s) if rows is None else [tab(s, *rows)]:
            assert Tableau(s, t.rows) == t
            assert Tableau(s, t.serialize()).rows == t.rows
            assert vars(Tableau(s, t.rows)).keys() == {"shape", "word"}


@pytest.mark.parametrize("text,rows", [
    ("3,2", [[(1, 3, 5, 6), (2, 4)]]),      # a row too long
    ("3,2", [[(1, 3, 5), (2,)]]),           # a row too short
    ("3,2", [[(1, 3), (2, 4, 5)]]),         # lengths swapped between rows
    ("3,2", [[(1, 3, 5), (2, 4), ()]]),     # an extra row
    ("3,2", []),                            # a missing component
    ("3,2", [[(1, 3, 5), (2, 4)], []]),     # an extra component
    ("(2)|(1)", [[(1, 3)]]),                # a missing component
    ("(2)|(1)", [[(1, 3)], []]),            # an empty component
    ("3,2", [[(1, 3, 3), (2, 4)]]),         # a repeated entry
    ("3,2", [[(1, 3, 6), (2, 4)]]),         # an entry above n
    ("3,2", [[(0, 3, 5), (2, 4)]]),         # an entry below 1
    ("3,2", [[(1, 3, "5"), (2, 4)]]),       # a string entry
    ("3,2", [[(1, 3, 5.0), (2, 4)]]),       # a float entry
    ("3,2", [[(1, 3, None), (2, 4)]]),      # no entry
    ("3,2", [[(1, 3, [5]), (2, 4)]]),       # an unhashable entry
    ("2,1", [[3, (2,)]]),                   # a row that is an int
    ("2,1", [[1, 2], 3]),                   # int rows, an int component
    ("2,1", 5),                             # rows that are an int
    ("2,1", None),                          # no rows
])
def test_tableau_rejects_rows_that_do_not_fit(text, rows):
    with pytest.raises(ShapeParseError):
        Tableau(parse_shape(text), rows)


@pytest.mark.parametrize("edit", [
    lambda rows: rows[0][0].append(6),
    lambda rows: rows[0][1].pop(),
    lambda rows: rows.append([]),
    lambda rows: rows.pop(),
    lambda rows: rows[0][0].__setitem__(1, rows[0][0][0]),
    lambda rows: rows[0][0].__setitem__(1, 9),
    lambda rows: rows[0][0].__setitem__(1, "2"),
    lambda rows: rows[0].__setitem__(1, 4),
    lambda rows: rows.__setitem__(0, 4),
])
def test_matrix_from_json_rejects_a_basis_row_that_does_not_fit(edit):
    from youngbasis.algebras import AlgebraSpec, WeightScheme
    from youngbasis.linalg import matrix_from_json, matrix_to_json
    from youngbasis.transition import transition_recursive
    s = parse_shape("3,2")
    tm = transition_recursive(WeightScheme(AlgebraSpec("symmetric"), s))
    obj = json.loads(matrix_to_json(tm.matrix, s.to_str()))
    assert matrix_from_json(json.dumps(obj), shape=s)[0].basis == \
        tm.matrix.basis
    edit(obj["basis"][2])
    with pytest.raises(ShapeParseError):
        matrix_from_json(json.dumps(obj), shape=s)


def test_apply_permutation_requires_a_permutation():
    t = column_reading_tableau(parse_shape("2,1"))
    for sigma in [(1, 1, 2), (1, 2, 4), (0, 1, 2), (1, 2), (1, 2, 3, 4)]:
        with pytest.raises(PreconditionError):
            apply_permutation(t, sigma)


# The row-based tableau operations that the word-based ones replaced,
# kept as a reference: a tableau as its rows per component.

def _ref_from_entries(shape, entries):
    rows = []
    for k, (outer, _inner) in enumerate(shape.components, start=1):
        comp = []
        for x in range(1, len(outer) + 1):
            comp.append(tuple(entries[(k, x, y)]
                              for y in range(shape.inner_at(k, x) + 1,
                                             outer[x - 1] + 1)))
        rows.append(tuple(comp))
    return tuple(rows)


def _ref_box_of(shape, rows):
    return {v: (k, x, y + shape.inner_at(k, x))
            for k, comp in enumerate(rows, start=1)
            for x, row in enumerate(comp, start=1)
            for y, v in enumerate(row, start=1)}


def _ref_is_standard(shape, rows):
    def entry(k, x, y):
        return rows[k - 1][x - 1][y - 1 - shape.inner_at(k, x)]

    for k, comp in enumerate(rows, start=1):
        outer = shape.components[k - 1][0]
        for row in comp:
            if any(row[j] >= row[j + 1] for j in range(len(row) - 1)):
                return False
        for x in range(1, len(comp)):
            lo = shape.inner_at(k, x)
            for y in range(lo + 1, min(outer[x - 1], outer[x]) + 1):
                if entry(k, x, y) >= entry(k, x + 1, y):
                    return False
    return True


def _ref_swap(shape, rows, i):
    entries = {box: (i + 1 if v == i else i if v == i + 1 else v)
               for v, box in _ref_box_of(shape, rows).items()}
    return _ref_from_entries(shape, entries)


def _ref_apply_permutation(shape, rows, sigma):
    entries = {box: sigma[v - 1]
               for v, box in _ref_box_of(shape, rows).items()}
    out = _ref_from_entries(shape, entries)
    return out, _ref_is_standard(shape, out)


def test_word_operations_match_the_row_based_reference():
    import random
    from walks import r_partitions
    rng = random.Random(5)
    shapes = [s for n in range(1, 7) for s in all_skew_shapes(n)]
    shapes += [shape_from_parts(*parts) for parts in r_partitions(2, 4)]
    shapes += [parse_shape("(2,1)|()|(1)"), parse_shape("(3,2/2)|(1)")]
    for s in shapes:
        n = s.n
        boxes = shape_boxes(s)
        fillings = [column_reading_tableau(s), row_reading_tableau(s)]
        for _ in range(3):
            fillings.append(from_entries(
                s, dict(zip(boxes, rng.sample(range(1, n + 1), n)))))
        for t in fillings:
            rows = t.rows
            assert Tableau(s, rows) == t
            assert is_standard(t) == _ref_is_standard(s, rows)
            entries = {box: entry(t, *box) for box in boxes}
            assert entries == {b: v for v, b in
                               _ref_box_of(s, rows).items()}
            assert from_entries(s, entries).rows == \
                _ref_from_entries(s, entries) == rows
            # swaps that leave the graph give nonstandard fillings
            for i in range(1, n):
                u = swap(t, i)
                assert u.rows == _ref_swap(s, rows, i)
                assert is_standard(u) == _ref_is_standard(s, u.rows)
            sigma = tuple(rng.sample(range(1, n + 1), n))
            u, std = apply_permutation(t, sigma)
            assert (u.rows, std) == _ref_apply_permutation(s, rows, sigma)
