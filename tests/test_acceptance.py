"""Acceptance suite: one test per criterion, exact arithmetic throughout
(tolerance is literal equality unless a wall-clock bound is stated).
Each test prints one PASS line; a failure surfaces as a normal assert.
"""

import random
import time
from fractions import Fraction as F
from itertools import permutations

import pytest

from fillings import (column_reading_tableau, is_standard,
                      row_reading_tableau, swap)
from golden import (G24_BASIS, G24_ROWS, H24_BASIS, HECKE32_BASIS,
                    SYMMETRIC_GOLDEN, T321, a321_entries, h24_entry,
                    hecke32_matrix)
from reduced_words import compose, inverse
from youngbasis import perms
from youngbasis.algebras import (AlgebraSpec, WeightScheme,
                                 conjugate_to_natural, generators,
                                 natural_generator, verify_relations)
from youngbasis.bruhat import BruhatGraph
from youngbasis.fields import QFIELD, QRat, check_semisimple, evaluate_q
from youngbasis.shapes import (Shape, Tableau, all_partitions,
                               all_skew_shapes, parse_shape,
                               shape_from_parts)
from youngbasis.transition import (OpCounter, check_structure,
                                   diagonal_closed_form, grn_transition,
                                   orthogonal_diag_squared,
                                   transition_pathsum, transition_recursive,
                                   transition_word)

GOLDEN_SHAPES = ["2,1", "3,1", "2,2", "2,1,1", "4,1", "3,2", "3,1,1",
                 "2,2,1", "2,1,1,1"]


def _universe(max_n):
    shapes = []
    for n in range(1, max_n + 1):
        shapes.extend(all_skew_shapes(n))
    return shapes


@pytest.fixture(scope="module")
def graphs6():
    return [BruhatGraph(s) for s in _universe(6)]


@pytest.fixture(scope="module")
def sweep6(graphs6):
    out = []
    for g in graphs6:
        spec = AlgebraSpec("symmetric")
        out.append(transition_recursive(WeightScheme(spec, g.shape, g)))
    return out


@pytest.fixture(scope="module")
def hecke_sweep4():
    out = []
    for shape in _universe(4):
        spec = AlgebraSpec("hecke_A")
        out.append(transition_recursive(WeightScheme(spec, shape)))
    return out


def test_criterion_01_golden_symmetric_matrices():
    t0 = time.perf_counter()
    computed = {}
    for text in GOLDEN_SHAPES + ["3,2,1"]:
        shape = parse_shape(text)
        computed[text] = transition_recursive(
            WeightScheme(AlgebraSpec("symmetric"), shape))
    elapsed = time.perf_counter() - t0
    for text in GOLDEN_SHAPES:
        basis, rows = SYMMETRIC_GOLDEN[text]
        tm = computed[text]
        for i, rt in enumerate(basis):
            for j, ct in enumerate(basis):
                assert tm.entry([rt], [ct]) == F(rows[i][j]), (text, i, j)
    tm = computed["3,2,1"]
    for (i, j), want in a321_entries().items():
        assert tm.entry([T321[i]], [T321[j]]) == want
    assert elapsed < 1.0, f"golden matrices took {elapsed:.3f}s"
    print(f"\nPASS criterion 1: golden symmetric matrices "
          f"(10 shapes, {elapsed:.3f}s < 1s)")


def test_criterion_02_golden_hecke_matrix():
    shape = parse_shape("3,2")
    tm = transition_recursive(WeightScheme(AlgebraSpec("hecke_A"), shape))
    golden = hecke32_matrix()
    tabs = [Tableau(shape, [rows]) for rows in HECKE32_BASIS]
    for i in range(5):
        for j in range(5):
            assert tm.entry(tabs[i], tabs[j]) == golden[i][j], (i, j)
    sym = transition_recursive(
        WeightScheme(AlgebraSpec("symmetric"), shape))
    for q0 in (F(1), F(2), F(1, 3)):
        for i in range(5):
            for j in range(5):
                got = evaluate_q(tm.entry(tabs[i], tabs[j]), q0)
                assert got == evaluate_q(golden[i][j], q0)
                if q0 == 1:
                    assert got == sym.entry(tabs[i], tabs[j])
    print("\nPASS criterion 2: symbolic-q matrix for (3,2) "
          "(canonical equality + evaluation at q = 1, 2, 1/3)")


def test_criterion_03_golden_ariki_koike_matrix():
    shape = parse_shape("(2,1)|(1)")
    rng = random.Random(24601)
    points = [(F(2), F(3), F(5))]
    while len(points) < 3:
        cand = (F(rng.randint(1, 12)),
                F(rng.randint(1, 12), rng.randint(1, 5)),
                F(rng.randint(2, 9), rng.randint(1, 3)))
        if cand[2] in (1, -1) or cand[0] == cand[1]:
            continue
        if check_semisimple([cand[0], cand[1]], cand[2], 4):
            points.append(cand)
    for (u1, u2, q) in points:
        spec = AlgebraSpec("ariki_koike", q=q, u=(u1, u2))
        tm = transition_recursive(WeightScheme(spec, shape))
        for i, rt in enumerate(H24_BASIS):
            for j, ct in enumerate(H24_BASIS):
                assert tm.entry(rt, ct) == h24_entry(i, j, u1, u2, q), \
                    ((u1, u2, q), i, j)
    # specialization (1, -1, 1) through symbolic q
    spec = AlgebraSpec("ariki_koike", q=None, u=(1, -1))
    tm = transition_recursive(WeightScheme(spec, shape))
    tg = grn_transition(WeightScheme(AlgebraSpec("wreath_grn"), shape))
    for i, rt in enumerate(G24_BASIS):
        for j, ct in enumerate(G24_BASIS):
            want = F(G24_ROWS[i][j])
            assert evaluate_q(tm.entry(rt, ct), 1) == want
            assert tg.entry(rt, ct) == want
    print(f"\nPASS criterion 3: two-parameter 8x8 matrix at {points} "
          "+ wreath specialization (1,-1,1)")


def test_criterion_04_triple_oracle(sweep6, hecke_sweep4):
    checked = 0
    for tm in sweep6:
        g = tm.graph
        ws = WeightScheme(tm.spec, g.shape, g)
        tp = transition_pathsum(ws)
        tw = transition_word(ws)
        assert tp.matrix == tm.matrix, g.shape.to_str()
        assert tw.matrix == tm.matrix, g.shape.to_str()
        checked += 1
    hchecked = 0
    for tm in hecke_sweep4:
        g = tm.graph
        ws = WeightScheme(tm.spec, g.shape, g)
        tp = transition_pathsum(ws)
        tw = transition_word(ws)
        assert tp.matrix == tm.matrix, g.shape.to_str()
        assert tw.matrix == tm.matrix, g.shape.to_str()
        hchecked += 1
    print(f"\nPASS criterion 4: triple-oracle agreement on {checked} "
          f"shapes (n<=6, exact) and {hchecked} symbolic-q shapes (n<=4)")


def test_criterion_05_closed_form_diagonals(sweep6, hecke_sweep4):
    for tm in list(sweep6) + list(hecke_sweep4):
        diag = diagonal_closed_form(
            WeightScheme(tm.spec, tm.shape, tm.graph))
        for v in range(tm.graph.size()):
            assert tm.matrix.get(v, v) == diag[v], tm.shape.to_str()
    # worked examples for (3,2,1)
    s321 = parse_shape("3,2,1")
    spec = AlgebraSpec("symmetric")
    ws = WeightScheme(spec, s321)
    g = ws.graph
    tm = transition_recursive(ws)
    diag = diagonal_closed_form(ws)
    t12 = Tableau(s321, [T321[11]])
    assert diag[g.index[t12.rows]] == F(15, 4)

    def two_term(srows, trows, label):
        s = Tableau(s321, [srows])
        t = Tableau(s321, [trows])
        tprime = swap(t, label)
        assert is_standard(tprime) and tprime.depth == t.depth - 1
        stay = ws.pair(s, label, label + 1)
        sprime = swap(s, label)
        total = stay * tm.entry(s, tprime)
        if is_standard(sprime):
            total += (1 - stay) * tm.entry(sprime, tprime)
        return total

    assert tm.entry([T321[0]], [T321[15]]) == F(1, 12)
    assert two_term(T321[0], T321[15], 5) == F(1, 12)   # pivot s5
    assert two_term(T321[0], T321[15], 3) == F(1, 12)   # pivot s3
    assert tm.entry([T321[1]], [T321[12]]) == F(5, 12)
    assert two_term(T321[1], T321[12], 4) == F(5, 12)
    print("\nPASS criterion 5: closed-form diagonals match everywhere; "
          "worked entries 15/4, 1/12 (both pivots), 5/12 reproduced")


def test_criterion_06_structural_invariants(sweep6, hecke_sweep4):
    count = 0
    for tm in list(sweep6) + list(hecke_sweep4):
        check_structure(tm)
        count += 1
    for text in GOLDEN_SHAPES + ["3,2,1"]:
        shape = parse_shape(text)
        check_structure(transition_recursive(
            WeightScheme(AlgebraSpec("symmetric"), shape)))
        count += 1
    check_structure(transition_recursive(
        WeightScheme(AlgebraSpec("hecke_A"), parse_shape("3,2"))))
    shape = parse_shape("(2,1)|(1)")
    check_structure(transition_recursive(WeightScheme(
        AlgebraSpec("ariki_koike", q=F(5), u=(2, 3)), shape)))
    check_structure(transition_recursive(WeightScheme(
        AlgebraSpec("ariki_koike", q=None, u=(1, -1)), shape)))
    check_structure(grn_transition(WeightScheme(AlgebraSpec("wreath_grn"),
                                                shape)))
    count += 4
    print(f"\nPASS criterion 6: upper-triangularity, Bruhat zero pattern, "
          f"and depth-block diagonality on {count} matrices")


def _integral(v):
    """v has no denominator: an int, a Laurent polynomial in q with int
    coefficients, or a polynomial in xi with int coefficients."""
    if isinstance(v, F):
        return v.denominator == 1
    if isinstance(v, QRat):
        return v.den == 1 and all(isinstance(c, int) for _, c in v.terms())
    return v.den == 1


def _relation_shapes(max_n, r):
    """All r-component partition tuples with up to max_n boxes."""
    shapes = []
    for n in range(1, max_n + 1):
        def splits(total, parts):
            if parts == 1:
                yield (total,)
                return
            for first in range(total + 1):
                for rest in splits(total - first, parts - 1):
                    yield (first,) + rest
        for sizes in splits(n, r):
            choices = [all_partitions(k) if k else [()] for k in sizes]

            def emit(i, acc):
                if i == r:
                    shapes.append(shape_from_parts(*acc))
                    return
                for lam in choices[i]:
                    emit(i + 1, acc + [lam])
            emit(0, [])
    return shapes


def test_criterion_07_relations_and_integrality():
    def assert_pass(spec, shape):
        rep = verify_relations(WeightScheme(spec, shape))
        bad = [r for r in rep if r["status"] != "pass"]
        assert not bad, (spec.family, shape.to_str(), bad)

    counts = {}
    # symmetric on every shape through n = 5
    for shape in _universe(5):
        assert_pass(AlgebraSpec("symmetric"), shape)
        counts["symmetric"] = counts.get("symmetric", 0) + 1
    # type A: symbolic q through n = 4, exact rational q at n = 5
    for shape in _universe(4):
        assert_pass(AlgebraSpec("hecke_A"), shape)
        counts["hecke_A"] = counts.get("hecke_A", 0) + 1
    for shape in all_skew_shapes(5):
        assert_pass(AlgebraSpec("hecke_A", q=F(5)), shape)
        counts["hecke_A"] = counts.get("hecke_A", 0) + 1
    # type B (r = 2, u1 = u2^{-1}) and the r = 3 cyclotomic algebra
    for shape in _relation_shapes(4, 2):
        assert_pass(AlgebraSpec("hecke_B", u=(F(2), F(1, 2))), shape)
        counts["hecke_B"] = counts.get("hecke_B", 0) + 1
    for shape in _relation_shapes(5, 2):
        if shape.n == 5:
            assert_pass(AlgebraSpec("hecke_B", q=F(5), u=(F(2), F(1, 2))),
                        shape)
            counts["hecke_B"] = counts.get("hecke_B", 0) + 1
    for shape in _relation_shapes(4, 3):
        q = None if shape.n <= 3 else F(7)
        assert_pass(AlgebraSpec("ariki_koike", q=q, u=(2, 3, 5)), shape)
        counts["ariki_koike"] = counts.get("ariki_koike", 0) + 1
    for shape in _relation_shapes(5, 3):
        if shape.n == 5:
            assert_pass(AlgebraSpec("ariki_koike", q=F(7), u=(2, 3, 5)), shape)
            counts["ariki_koike"] = counts.get("ariki_koike", 0) + 1
    # wreath products r = 2, 3
    for r in (2, 3):
        for shape in _relation_shapes(5, r):
            assert_pass(AlgebraSpec("wreath_grn"), shape)
            counts["wreath_grn"] = counts.get("wreath_grn", 0) + 1
    # affine: X relations on skew shapes (rational q at n = 5) and on
    # placed multi-component shapes with monomial page weights
    for shape in _universe(4):
        assert_pass(AlgebraSpec("affine_placed"), shape)
        counts["affine_placed"] = counts.get("affine_placed", 0) + 1
    for shape in all_skew_shapes(5):
        assert_pass(AlgebraSpec("affine_placed", q=F(5)), shape)
        counts["affine_placed"] = counts.get("affine_placed", 0) + 1
    pages = [QRat.q_power(0), QRat.q_power(20), QRat.q_power(40)]
    for r in (2, 3):
        for shape in _relation_shapes(4, r):
            placed = Shape(shape.components, pages[:r])
            assert_pass(AlgebraSpec("affine_placed"), placed)
            counts["affine_placed"] = counts.get("affine_placed", 0) + 1

    # integral natural representations for partitions through n = 6
    for n in range(2, 7):
        spec = AlgebraSpec("symmetric")
        for lam in all_partitions(n):
            ws = WeightScheme(spec, shape_from_parts(lam))
            tm = transition_recursive(ws)
            for i in range(1, n):
                m = natural_generator(ws, i, transition=tm)
                for j in range(m.ncols):
                    assert all(v.denominator == 1
                               for v in m.column(j).values()), (lam, i)
    # and every natural generator integral, as a Laurent polynomial in q
    # (or a polynomial in xi) with int coefficients, on skew shapes, for
    # symbolic q, and for integer u; hecke_B's u_1 u_2 = 1 allows no
    # two integer u, and u = 2, 1/2 gives entries with 1/2
    cases = [(AlgebraSpec("symmetric"), shape) for shape in _universe(5)]
    cases += [(AlgebraSpec("hecke_A"), shape_from_parts(lam))
              for n in range(1, 6) for lam in all_partitions(n)]
    cases += [(AlgebraSpec("ariki_koike", u=(2, 3)), shape)
              for shape in _relation_shapes(4, 2)]
    cases += [(AlgebraSpec("wreath_grn"), shape)
              for r in (2, 3) for shape in _relation_shapes(4, r)]
    for spec, shape in cases:
        ws = WeightScheme(spec, shape)
        gens = [m for _, m in generators(ws)]
        for m in conjugate_to_natural(gens, transition_recursive(ws)):
            assert all(_integral(v) for j in range(m.ncols)
                       for v in m.column(j).values()), (spec.family, shape)

    # the displayed straightening expansion: +1, -1, -1, +1, -1
    s321 = parse_shape("3,2,1")
    spec = AlgebraSpec("symmetric")
    ws = WeightScheme(spec, s321)
    g = ws.graph
    tm = transition_recursive(ws)
    m = natural_generator(ws, 3, transition=tm)
    idx = {k: g.index[Tableau(s321, [T321[k]]).rows]
           for k in (10, 8, 7, 5, 2)}
    col = m.column(idx[10])
    assert col == {idx[10]: F(1), idx[8]: F(-1), idx[7]: F(-1),
                   idx[5]: F(1), idx[2]: F(-1)}
    print("\nPASS criterion 7: defining relations hold exactly "
          f"({counts}); natural matrices integral through n=6, and on "
          f"{len(cases)} skew, symbolic-q and integer-u modules; "
          "straightening expansion reproduced")


def test_criterion_08_orthogonal_step_identities():
    shapes = _universe(5)
    edges = 0
    for shape in shapes:
        g = BruhatGraph(shape)
        for fam, qinv in (("symmetric", F(1)), ("hecke_A", QFIELD.q_inv)):
            spec = AlgebraSpec(fam)
            ws = WeightScheme(spec, shape, g)
            d2 = orthogonal_diag_squared(ws)
            for v, w, i in g.edges():
                t = g.nodes[v]
                move = ws.diag_factor(t, i, i + 1)
                stay = ws.pair(t, i, i + 1)
                assert move * move * d2[v] \
                    == (qinv * qinv - stay * stay) * d2[w], \
                    (shape.to_str(), fam, v, w, i)
                edges += 1
    print(f"\nPASS criterion 8: squared orthogonal step identity on "
          f"{edges} edge checks (q symbolic and q = 1), shapes n<=5")


def test_criterion_09_graph_and_interval_checks(graphs6):
    length_tables = {}
    for n in range(1, 7):
        length_tables[n] = {w: perms.length(w)
                            for w in permutations(range(1, n + 1))}
    for g in graphs6:
        n = g.shape.n
        depths = g.depth
        assert depths.count(0) == 1
        assert depths.count(max(depths)) == 1
        assert g.nodes[0] == column_reading_tableau(g.shape)
        assert g.nodes[g.size() - 1] == row_reading_tableau(g.shape)
        # the graph is built by a search from the column reading
        # tableau, so it is connected; biject the node set onto the
        # weak-order interval computed from permutations, which shows
        # the search reached every standard tableau
        table = length_tables[n]
        wc, wr = g.nodes[0].word, g.nodes[g.size() - 1].word
        lc, lr = table[wc], table[wr]
        interval = set()
        wc_inv = inverse(wc)
        for u, lu in table.items():
            if lu < lc or lu > lr:
                continue
            if table[compose(u, wc_inv)] != lu - lc:
                continue
            if table[compose(wr, inverse(u))] != lr - lu:
                continue
            interval.add(u)
        assert {t.word for t in g.nodes} == interval, g.shape.to_str()
        # inversion-set recursion along every downward edge
        for v, w, i in g.edges():
            upper, lower = g.nodes[w], g.nodes[v]
            swapped = {tuple(i + 1 if x == i else i if x == i + 1 else x
                             for x in pair)
                       for pair in lower.inversions}
            assert upper.inversions == swapped | {(i + 1, i)}, \
                (g.shape.to_str(), i)
    print(f"\nPASS criterion 9: unique extremes, connectivity, weak-order "
          f"interval bijection, and the inversion-swap identity on "
          f"{len(graphs6)} graphs (n<=6)")


def test_criterion_10_performance_bounds():
    def run_all(n, budget):
        t0 = time.perf_counter()
        results = []
        for lam in all_partitions(n):
            shape = shape_from_parts(lam)
            counter = OpCounter()
            tm = transition_recursive(
                WeightScheme(AlgebraSpec("symmetric"), shape),
                counter=counter)
            f = tm.matrix.ncols
            assert counter.total() <= 2 * (f * f + f), lam
            results.append((lam, f))
        elapsed = time.perf_counter() - t0
        assert elapsed < budget, f"partitions of {n}: {elapsed:.2f}s"
        return elapsed, len(results)

    t8, c8 = run_all(8, 10.0)
    t9, c9 = run_all(9, 180.0)
    print(f"\nPASS criterion 10: {c8} shapes of size 8 in {t8:.2f}s < 10s; "
          f"{c9} shapes of size 9 in {t9:.2f}s < 180s; "
          "op counts within 2(f^2+f)")
