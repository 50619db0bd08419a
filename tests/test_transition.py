import random
import re
from fractions import Fraction as F
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from golden import (G24_BASIS, G24_ROWS, H24_BASIS, HECKE32_BASIS,
                    SYMMETRIC_GOLDEN, T321, TENSOR_BASIS, TENSOR_ROWS,
                    a321_entries, h24_entry, hecke32_matrix)
from walks import keep_skip_walks, r_partitions, walk_weight
from youngbasis.algebras import (AlgebraSpec, WeightScheme, _scale_steps,
                                 natural_generator, seminormal_generator,
                                 zeroth_generator)
from youngbasis.bruhat import (BruhatGraph, Path, shortest_path,
                               shortest_paths_from)
from youngbasis.errors import (InvariantError, PreconditionError,
                               ShapeParseError)
from youngbasis.fields import QFIELD, RATIONALS, CyclotomicField, evaluate_q
from youngbasis.linalg import integral_pair, lowest_terms, matmul, push_column
from youngbasis.perms import bruhat_leq
from youngbasis.shapes import (Shape, Tableau, all_partitions,
                               all_skew_shapes, parse_shape,
                               shape_from_parts, standard_tableaux)
from youngbasis.transition import (bench_transition, check_structure,
                                   diagonal_closed_form, grn_transition,
                                   orthogonal_diag_squared,
                                   transition_pathsum, transition_recursive,
                                   transition_word)

S32 = parse_shape("3,2")
S321 = parse_shape("3,2,1")
SPEC5 = AlgebraSpec("symmetric")
SPEC6 = AlgebraSpec("symmetric")


def _assert_matches_golden(tm, basis, rows, wrap=True):
    for i, rt in enumerate(basis):
        for j, ct in enumerate(basis):
            want = F(rows[i][j])
            got = tm.entry([rt] if wrap else rt, [ct] if wrap else ct)
            assert got == want, (i, j, got, want)


def test_transition_32_matches_golden():
    tm = transition_recursive(WeightScheme(SPEC5, S32))
    basis, rows = SYMMETRIC_GOLDEN["3,2"]
    _assert_matches_golden(tm, basis, rows)


def test_transition_321_matches_golden():
    tm = transition_recursive(WeightScheme(SPEC6, S321))
    entries = a321_entries()
    for (i, j), want in entries.items():
        assert tm.entry([T321[i]], [T321[j]]) == want


def test_entry_takes_rows_per_component_and_rejects_other_fillings():
    tm = transition_recursive(WeightScheme(SPEC5, S32))
    t = [[[1, 2, 4], [3, 5]]]
    assert tm.entry([[[1, 2, 5], [3, 4]]], t) == F(3, 4)
    # rows without their component do not fit the shape
    with pytest.raises(ShapeParseError, match="do not fit the shape 3,2"):
        tm.entry([[1, 2, 5], [3, 4]], t)
    with pytest.raises(PreconditionError, match=re.escape(
            "tableau [[[2, 1, 5], [3, 4]]] is not a basis tableau of 3,2")):
        tm.entry(t, [[[2, 1, 5], [3, 4]]])


def test_pathsum_subpath_weights_of_displayed_entry():
    ws = WeightScheme(SPEC6, S321)
    g = ws.graph
    t15 = Tableau(S321, [[(1, 2, 3), (4, 6), (5,)]])
    s = Tableau(S321, [[(1, 3, 5), (2, 6), (4,)]])
    p = shortest_path(g, 0, g.index[t15.rows])
    weights = [walk_weight(ws, g, p, moves, nodes)
               for moves, nodes in keep_skip_walks(g, p)
               if nodes[-1] == g.index[s.rows]]
    assert sorted(weights) == [F(-2, 3), F(-1, 12)]
    tm = transition_pathsum(ws)
    assert tm.entry(s, t15) == F(-3, 4)


def test_pathsum_column_c_is_unit():
    tm = transition_pathsum(WeightScheme(SPEC5, S32))
    assert tm.matrix.column(0) == {0: F(1)}


def test_pathsum_cap():
    ws = WeightScheme(AlgebraSpec("symmetric"), shape_from_parts((4, 4)))
    with pytest.raises(PreconditionError):
        transition_pathsum(ws)
    tm = transition_pathsum(ws, n_cap=8)
    assert tm.matrix.ncols == 14


def test_recursion_pivot_values():
    """The two-term step reproduces the worked examples, and both
    admissible pivots give the same entry."""
    ws = WeightScheme(SPEC6, S321)
    tm = transition_recursive(ws)
    a = a321_entries()

    def entry(i, j):
        return tm.entry([T321[i]], [T321[j]])

    def two_term(srows, trows, label):
        s = Tableau(S321, [srows])
        t = Tableau(S321, [trows])
        tprime = t.swap(label)
        assert tprime.is_standard and tprime.depth == t.depth - 1
        stay = ws.stay(s, label)
        sprime = s.swap(label)
        total = stay * tm.entry(s, tprime)
        if sprime.is_standard:
            total += (1 - stay) * tm.entry(sprime, tprime)
        return total

    t1, t16 = T321[0], T321[15]
    assert entry(0, 15) == F(1, 12)
    assert two_term(t1, t16, 5) == F(1, 12)
    assert two_term(t1, t16, 3) == F(1, 12)
    assert entry(1, 12) == F(5, 12)
    assert two_term(T321[1], T321[12], 4) == F(5, 12)


def test_diagonal_closed_form_examples():
    ws = WeightScheme(SPEC6, S321)
    g = ws.graph
    tm = transition_recursive(ws)
    diag = diagonal_closed_form(ws)
    t12 = g.index[Tableau(S321, [T321[11]]).rows]
    assert diag[t12] == F(15, 4)
    assert diag[0] == F(1)
    for v in range(g.size()):
        assert tm.matrix.get(v, v) == diag[v]


def test_diagonal_closed_form_hecke():
    ws = WeightScheme(AlgebraSpec("hecke_A"), S32)
    g = ws.graph
    tm = transition_recursive(ws)
    diag = diagonal_closed_form(ws)
    for v in range(g.size()):
        assert tm.matrix.get(v, v) == diag[v]
    golden = hecke32_matrix()
    bottom = g.index[Tableau(S32, [HECKE32_BASIS[4]]).rows]
    assert diag[bottom] == golden[4][4]


def test_column_word_oracle():
    ws = WeightScheme(SPEC5, S32)
    word = transition_word(ws).matrix
    assert word.column(0) == {0: F(1)}
    s21 = parse_shape("2,1")
    t = Tableau(s21, [[(1, 2), (3,)]])
    tw = transition_word(WeightScheme(AlgebraSpec("symmetric"), s21))
    col = tw.matrix.column(tw.graph.index[t.rows])
    assert col == {0: F(1, 2), 1: F(3, 2)}
    tm = transition_recursive(ws)
    for v in range(ws.graph.size()):
        assert word.column(v) == tm.matrix.column(v)


def test_triple_oracle_small_sweep():
    # "()", "3" and "2,1/1": paths of length 0 and 1 only, whose subpaths
    # end on the path sum's first step
    shapes = [parse_shape(t) for t in
              ["3,2", "2,2,1", "3,3,1/2,1", "4,2,1/1,1", "(2,1)|(1)",
               "()", "3", "2,1/1"]]
    for shape in shapes:
        fam = "symmetric" if shape.r == 1 else "wreath_grn"
        ws = WeightScheme(AlgebraSpec(fam), shape)
        tr_ = transition_recursive(ws)
        tp = transition_pathsum(ws)
        tw = transition_word(ws)
        assert tr_.matrix == tp.matrix == tw.matrix
        check_structure(tr_)


def test_word_oracle_catches_a_coefficient_the_recursion_shares():
    # one wrong move coefficient in the shared scheme: the word oracle
    # reaches node 2's upper neighbour along another edge than the
    # recursion does, so the two routes disagree
    ws = WeightScheme(SPEC6, S321)
    _stay, move, den = ws.scaled_steps(3)
    b, target = move[2]
    move[2] = (b + den, target)  # the coefficient plus 1, over L
    assert transition_word(ws).matrix != transition_recursive(ws).matrix
    clean = transition_recursive(WeightScheme(SPEC6, S321)).matrix
    assert transition_recursive(ws).matrix != clean


_COEFFS = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@st.composite
def _step_cases(draw):
    """A sparse rational column over `size` rows and 1-3 steps to apply
    to it: per-row stays (often 0) and moves (None or a nonzero
    coefficient and a target row)."""
    size = draw(st.integers(1, 8))
    rows = st.integers(0, size - 1)
    col = draw(st.dictionaries(rows, _COEFFS.filter(bool), min_size=1))
    steps = draw(st.lists(st.tuples(
        st.lists(_COEFFS | st.just(F(0)), min_size=size, max_size=size),
        st.lists(st.none() | st.tuples(_COEFFS.filter(bool), rows),
                 min_size=size, max_size=size)), min_size=1, max_size=3))
    return col, steps


# the two terms of row 0 cancel, and then nothing is left
@example(({0: F(1), 1: F(1)},
          [([F(1, 2), F(0)], [None, (F(-1, 2), 0)])]))
@settings(max_examples=300, deadline=None)
@given(_step_cases())
def test_integer_step_matches_fraction_step(case):
    col, steps = case
    den = lcm(*(x.denominator for x in col.values()))
    ints = {i: int(x * den) for i, x in col.items()}
    for stay, move in steps:
        istay, imove, scale = _scale_steps(RATIONALS.split, stay, move)
        ints, den = lowest_terms(push_column(ints, istay, imove),
                                 den * scale)
        col = push_column(col, stay, move)
        assert den > 0
        assert gcd(den, *ints.values()) == 1
        assert {i: F(x, den) for i, x in ints.items()} == col


def test_scaling_off_the_rationals_keeps_the_coefficients():
    """Off the rationals the column form is the field's own scalars over
    1: scaled steps hold each key's coefficient objects, and an integral
    pair is (m, 1)."""
    ws = WeightScheme(AlgebraSpec("hecke_A"), parse_shape("3,2"))
    assert ws.field is QFIELD
    nodes, neighbors = ws.graph.nodes, ws.graph.neighbors
    for label in range(1, 5):
        stay = [ws.stay(t, label) for t in nodes]
        move = [None if label not in nbrs else
                (ws.move(t, label), nbrs[label])
                for t, nbrs in zip(nodes, neighbors)]
        sstay, smove, scale = ws.scaled_steps(label)
        assert scale == 1
        assert all(a is b for a, b in zip(stay, sstay))
        assert all(a is b or a[0] is b[0] and a[1] == b[1]
                   for a, b in zip(move, smove))
    ws = WeightScheme(AlgebraSpec("wreath_grn"), parse_shape("(2,1)|(1)"))
    t0 = zeroth_generator(ws)
    assert t0.field == CyclotomicField(2)
    s, den = integral_pair(t0)
    assert den == 1
    assert s == t0
    assert all(s.cols[j][i] is v for j, col in enumerate(t0.cols)
               for i, v in col.items())


_PLACED = parse_shape("(1)|(1)@1,q^3").weights


def _fraction_word_columns(ws):
    """The word route's columns from the Fraction generator matrices."""
    graph = ws.graph
    cols = [{0: F(1)}]
    for v in range(1, graph.size()):
        u, label = graph.up_edges_into(v)[-1]
        cols.append(seminormal_generator(ws, label).apply(cols[u]))
    return cols


@pytest.mark.parametrize("family, kwargs, r", [
    ("hecke_A", {"q": 5}, 1),
    ("hecke_B", {"q": 5, "u": (2, F(1, 2))}, 2),
    ("ariki_koike", {"q": 7, "u": (2, 3)}, 2),
    ("affine_placed", {"q": 5}, 2),
    ("wreath_grn", {}, 2),
])
def test_integer_recursion_matches_word_for_rational_q(family, kwargs, r):
    spec = AlgebraSpec(family, **kwargs)
    for n in range(1, 5):
        for parts in r_partitions(r, n):
            shape = shape_from_parts(*parts)
            if family == "affine_placed":
                shape = Shape(shape.components, _PLACED)
            ws = WeightScheme(spec, shape)
            routes = [route(ws).matrix for route in
                      (transition_recursive, transition_word,
                       transition_pathsum)]
            assert routes[0] == routes[1] == routes[2], shape.to_str()
            assert [routes[0].column(j) for j in range(routes[0].ncols)] \
                == _fraction_word_columns(ws)
            assert all(type(v) is int for m in routes for col in m.cols
                       for v in col.values())


def test_a_diagonal_matrix_packs_no_bruhat_counts(monkeypatch):
    # (n-1)^2 counts per node would take 32 MB for 4000 boxes in one row
    from youngbasis import perms, transition
    calls = []

    def counting(w):
        calls.append(w)
        return prefix_counts(w)

    prefix_counts = perms.prefix_counts
    monkeypatch.setattr(perms, "prefix_counts", counting)
    monkeypatch.setattr(transition, "prefix_counts", counting)
    for text in ["1000", "1,1,1", "3,3/3"]:
        tm = transition_recursive(WeightScheme(SPEC6, parse_shape(text)))
        check_structure(tm)
        assert tm.matrix.ncols == 1
    assert calls == []
    # a matrix with an off-diagonal entry packs each node once
    tm = transition_recursive(WeightScheme(SPEC6, parse_shape("3,2")))
    check_structure(tm)
    assert calls == [t.word for t in tm.graph.nodes]


def _corrupt(spec, text, edit):
    """A correct transition matrix of spec on the shape text with one
    cell edited by edit(cols, graph); returns the matrix and the message
    it must fail with."""
    tm = transition_recursive(WeightScheme(spec, parse_shape(text)))
    check_structure(tm)
    message = edit(tm.matrix.cols, tm.graph)
    return tm, message


def _below_diagonal(cols, g):
    cols[3][5] = 1
    return "not upper-triangular"


def _zero_diagonal(cols, g):
    del cols[7][7]
    return "zero diagonal in column 7"


def _bruhat_incomparable(cols, g):
    i, j = next((i, j) for j in range(g.size()) for i in range(j)
                if g.depth[i] < g.depth[j]
                and not bruhat_leq(g.nodes[i].word, g.nodes[j].word))
    cols[j][i] = 1
    return f"nonzero entry at ({i},{j}) violates the Bruhat pattern"


def _inside_depth_block(cols, g):
    i, j = next((i, j) for j in range(g.size()) for i in range(j)
                if g.depth[i] == g.depth[j])
    cols[j][i] = 1
    return f"off-diagonal entry ({i},{j}) inside a depth block"


_CORRUPTED = [("", SPEC6, "3,2,1"),
              ("-skew", SPEC6, "3,3,1/2,1"),
              ("-ariki_koike", AlgebraSpec("ariki_koike", q=5, u=(2, 3)),
               "(2,1)|(1)")]


# the words of a skew and of a two-component shape feed the packed
# Bruhat counts too; every shape has at least 8 tableaux, and the
# (3,2,1) cases keep their ids
@pytest.mark.parametrize("spec, text, edit", [
    pytest.param(spec, text, edit, id=edit.__name__ + suffix)
    for suffix, spec, text in _CORRUPTED
    for edit in (_below_diagonal, _zero_diagonal, _bruhat_incomparable,
                 _inside_depth_block)])
def test_check_structure_rejects_corruption(spec, text, edit):
    tm, message = _corrupt(spec, text, edit)
    with pytest.raises(InvariantError, match=re.escape(message)):
        check_structure(tm)


def test_path_independence_of_pathsum():
    rng = random.Random(2718)
    for text in ["3,2", "2,2,1", "3,3,1/2,1"]:
        shape = parse_shape(text)
        ws = WeightScheme(AlgebraSpec("symmetric"), shape)
        g = ws.graph
        base = shortest_paths_from(g, 0)
        perturbed = {}
        for v, p in base.items():
            # prepend a there-and-back excursion: no longer minimal
            label, nbr = sorted(g.neighbors[0].items())[
                rng.randrange(len(g.neighbors[0]))]
            labels = (label, label) + p.labels
            nodes = (0, nbr) + p.nodes
            perturbed[v] = Path(0, labels, nodes)
        tm = transition_recursive(ws)
        tp = transition_pathsum(ws, paths=perturbed)
        assert tp.matrix == tm.matrix


def _path_dependent_edges(ws):
    """The up edges (u, v, i) other than the first, which the recursion
    takes, along which ``scaled_steps(i)`` pushed through the column of
    u and reduced misses the recursion's column of v."""
    g = ws.graph
    m = transition_recursive(ws).matrix
    out = []
    for v in range(g.size()):
        for u, i in g.up_edges_into(v)[1:]:
            stay, move, scale = ws.scaled_steps(i)
            col = lowest_terms(push_column(m.cols[u], stay, move),
                               m.dens[u] * scale)
            if col != (m.cols[v], m.dens[v]):
                out.append((u, v, i))
    return out


def _path_independence_cases():
    """Every family at rational parameters: the one-component families
    on every skew shape with n <= 5, every partition of 6 and, past the
    path-sum cap, 4,3,2,1; the others on every pair of partitions with
    n <= 6; symbolic hecke_A on every skew shape with n <= 4, every
    partition of 5 and 4,3,2."""
    def upto(n):
        return [s for k in range(1, n + 1) for s in all_skew_shapes(k)]

    def partitions(n):
        return [shape_from_parts(lam) for lam in all_partitions(n)]

    one = upto(5) + partitions(6) + [parse_shape("4,3,2,1")]
    pairs = [shape_from_parts(*parts) for n in range(1, 7)
             for parts in r_partitions(2, n)]
    yield AlgebraSpec("symmetric"), one
    yield AlgebraSpec("hecke_A", q=5), one
    yield AlgebraSpec("hecke_B", q=5, u=(2, F(1, 2))), pairs
    yield AlgebraSpec("ariki_koike", q=7, u=(2, 3)), pairs
    yield AlgebraSpec("wreath_grn"), pairs
    yield AlgebraSpec("affine_placed", q=5), [
        Shape(s.components, _PLACED) for s in pairs]
    yield AlgebraSpec("hecke_A"), upto(4) + partitions(5) + [
        parse_shape("4,3,2")]


def test_columns_are_path_independent():
    # every up edge into a node gives the column the recursion computes
    # along the first
    checked = 0
    for spec, shapes in _path_independence_cases():
        for shape in shapes:
            ws = WeightScheme(spec, shape)
            assert _path_dependent_edges(ws) == [], (spec, shape.to_str())
            checked += sum(len(ws.graph.up_edges_into(v)) > 1
                           for v in range(ws.graph.size()))
    assert checked


def test_path_independence_catches_one_wrong_coefficient(monkeypatch):
    ws = WeightScheme(SPEC6, S321)
    assert _path_dependent_edges(ws) == []
    stay, move, den = ws.scaled_steps(3)
    b, target = move[2]
    move = move[:2] + [(b + den, target)] + move[3:]  # plus 1, over L
    monkeypatch.setitem(ws._scaled_steps, 3, (stay, move, den))
    assert _path_dependent_edges(ws)


def test_op_counter_within_bound():
    # bench drains the recursion's column stream: the pinned rows fix
    # its f and counts on 4,3,2,1
    for spec, text, pinned in [
            (SPEC6, "3,2", None), (SPEC6, "3,2,1", None),
            (SPEC6, "3,3,1/2,1", None),
            (SPEC6, "4,3,2,1", (768, 161926, 139144, 22782, 1181184)),
            (AlgebraSpec("hecke_A", q=5), "4,3,2,1",
             (768, 163561, 140383, 23178, 1181184))]:
        shape = parse_shape(text)
        rec = bench_transition(WeightScheme(spec, shape))
        assert rec["scalar_ops"] <= rec["op_bound"]
        assert rec["f"] == len(standard_tableaux(shape))
        if pinned:
            assert pinned == tuple(rec[k] for k in (
                "f", "scalar_ops", "mults", "adds", "op_bound")), text


def test_op_counts_are_exact():
    # mults and adds as counted term by term inside the column update
    for family, text, mults, adds in [
            ("symmetric", "4,3,2,1", 139144, 22782),
            ("symmetric", "5,4,3/2,1", 140018, 31262),
            ("hecke_A", "4,3,2", 8494, 1276),
            ("wreath_grn", "(3,2)|(2,1)", 2351, 0)]:
        rec = bench_transition(
            WeightScheme(AlgebraSpec(family), parse_shape(text)))
        assert (rec["mults"], rec["adds"]) == (mults, adds), text


def test_hecke_32_matches_golden_and_specializes():
    spec = AlgebraSpec("hecke_A")
    tm = transition_recursive(WeightScheme(spec, S32))
    golden = hecke32_matrix()
    tabs = [Tableau(S32, [rows]) for rows in HECKE32_BASIS]
    for i in range(5):
        for j in range(5):
            assert tm.entry(tabs[i], tabs[j]) == golden[i][j]
    sym = transition_recursive(WeightScheme(SPEC5, S32))
    for q0 in (1, 2, F(1, 3)):
        for i in range(5):
            for j in range(5):
                assert evaluate_q(tm.entry(tabs[i], tabs[j]), q0) \
                    == evaluate_q(golden[i][j], q0)
    for i in range(5):
        for j in range(5):
            assert evaluate_q(tm.entry(tabs[i], tabs[j]), 1) \
                == sym.entry(tabs[i], tabs[j])


def test_q_specialization_partitions_through_n5():
    for n in range(2, 6):
        hspec = AlgebraSpec("hecke_A")
        sspec = AlgebraSpec("symmetric")
        for lam in all_partitions(n):
            shape = shape_from_parts(lam)
            g = BruhatGraph(shape)
            hm = transition_recursive(WeightScheme(hspec, shape, g))
            sm = transition_recursive(WeightScheme(sspec, shape, g))
            for j in range(g.size()):
                for i in range(g.size()):
                    assert evaluate_q(hm.matrix.get(i, j), 1) \
                        == sm.matrix.get(i, j)


def test_ariki_koike_rank2_golden_at_rational_points():
    shape = parse_shape("(2,1)|(1)")
    rng = random.Random(808)
    points = [(F(2), F(3), F(5))]
    from youngbasis.fields import check_semisimple
    while len(points) < 3:
        cand = (F(rng.randint(1, 9)), F(rng.randint(1, 9), rng.randint(1, 4)),
                F(rng.randint(2, 7)))
        if check_semisimple([cand[0], cand[1]], cand[2], 4):
            points.append(cand)
    for (u1, u2, q) in points:
        spec = AlgebraSpec("ariki_koike", q=q, u=(u1, u2))
        tm = transition_recursive(WeightScheme(spec, shape))
        check_structure(tm)
        for i, rt in enumerate(H24_BASIS):
            for j, ct in enumerate(H24_BASIS):
                assert tm.entry(rt, ct) == h24_entry(i, j, u1, u2, q)


def test_ariki_koike_specializes_to_wreath_block_matrix():
    shape = parse_shape("(2,1)|(1)")
    spec = AlgebraSpec("ariki_koike", q=None, u=(1, -1))
    tm = transition_recursive(WeightScheme(spec, shape))
    tg = grn_transition(WeightScheme(AlgebraSpec("wreath_grn"), shape))
    for i, rt in enumerate(G24_BASIS):
        for j, ct in enumerate(G24_BASIS):
            want = F(G24_ROWS[i][j])
            assert evaluate_q(tm.entry(rt, ct), 1) == want
            assert tg.entry(rt, ct) == want


def test_grn_tensor_block_for_two_components():
    shape = parse_shape("(2,1)|(3,1)")
    tm = grn_transition(WeightScheme(AlgebraSpec("wreath_grn"), shape))
    assert tm.matrix.ncols == 210
    check_structure(tm)
    for i, rt in enumerate(TENSOR_BASIS):
        for j, ct in enumerate(TENSOR_BASIS):
            assert tm.entry(rt, ct) == F(TENSOR_ROWS[i][j])
    # blocks are independent of the alphabet: the same 6x6 values appear
    # for the swapped alphabet {4..7 | 1,2,3} after relabeling
    g = tm.graph
    for i, rt in enumerate(TENSOR_BASIS):
        for j, ct in enumerate(TENSOR_BASIS):
            shift = lambda comp, d: [[x + d for x in row] for row in comp]
            rt2 = [shift(rt[0], 4), shift(rt[1], -3)]
            ct2 = [shift(ct[0], 4), shift(ct[1], -3)]
            assert tm.entry(rt2, ct2) == F(TENSOR_ROWS[i][j])
    specw = AlgebraSpec("wreath_grn")
    tr_ = transition_recursive(WeightScheme(specw, shape, g))
    assert tr_.matrix == tm.matrix


def test_grn_trivial_components():
    shape = parse_shape("(1)|(1)")
    tm = grn_transition(WeightScheme(AlgebraSpec("wreath_grn"), shape))
    assert tm.matrix.is_identity()
    assert tm.matrix.ncols == 2


@pytest.mark.parametrize("r, top", [(2, 6), (3, 5)])
def test_grn_block_formula_matches_the_recursion(r, top):
    # every r-partition with n <= top, empty components included
    spec = AlgebraSpec("wreath_grn")
    for n in range(1, top + 1):
        for parts in r_partitions(r, n):
            ws = WeightScheme(spec, shape_from_parts(*parts))
            assert grn_transition(ws).matrix == \
                transition_recursive(ws).matrix, parts


def test_grn_rejects_skew():
    with pytest.raises(PreconditionError):
        grn_transition(WeightScheme(AlgebraSpec("wreath_grn"),
                                    parse_shape("(2,1/1)|(1)")))
    with pytest.raises(PreconditionError, match="wreath transition"):
        grn_transition(WeightScheme(AlgebraSpec("symmetric"),
                                    parse_shape("2,1")))


def test_intertwining_every_family():
    cases = [
        (AlgebraSpec("symmetric"), S32, range(1, 5)),
        (AlgebraSpec("hecke_A"), parse_shape("2,2"), range(1, 4)),
        (AlgebraSpec("ariki_koike", q=5, u=(2, 3)),
         parse_shape("(2,1)|(1)"), range(0, 4)),
        (AlgebraSpec("wreath_grn"), parse_shape("(2,1)|(1)"),
         range(0, 4)),
        (AlgebraSpec("affine_placed"), parse_shape("3,1"), range(1, 4)),
    ]
    for n in range(2, 6):
        for lam in all_partitions(n):
            cases.append((AlgebraSpec("symmetric"), shape_from_parts(lam),
                          range(1, n)))
    for spec, shape, gens in cases:
        ws = WeightScheme(spec, shape)
        tm = transition_recursive(ws)
        for i in gens:
            if i == 0:
                from youngbasis.algebras import zeroth_generator
                rho_v = zeroth_generator(ws)
            else:
                rho_v = seminormal_generator(ws, i)
            rho_n = natural_generator(ws, i, transition=tm)
            amat = tm.matrix
            if rho_v.field != amat.field:
                amat = amat.coerce_field(rho_v.field)
            assert matmul(amat, rho_n) == matmul(rho_v, amat)


def test_orthogonal_diag_squared_values():
    s21 = parse_shape("2,1")
    spec = AlgebraSpec("symmetric")
    d2 = orthogonal_diag_squared(WeightScheme(spec, s21))
    assert d2 == [F(1), F(3)]


def test_orthogonal_step_identity_squared():
    for text in ["3,2", "2,2,1", "3,3,1/2,1"]:
        shape = parse_shape(text)
        for fam in ("symmetric", "hecke_A"):
            spec = AlgebraSpec(fam)
            ws = WeightScheme(spec, shape)
            g = ws.graph
            d2 = orthogonal_diag_squared(ws)
            qinv = QFIELD.q_inv if fam == "hecke_A" else F(1)
            for v, w, i in g.edges():
                t = g.nodes[v]
                move = ws.move(t, i)
                stay = ws.stay(t, i)
                assert move * move * d2[v] == (qinv * qinv - stay * stay) * d2[w]


def test_orthogonal_conjugated_generator_squares_to_identity_at_q1():
    # (1+a)^2 D_T^2 = (1-a^2) D_{s_i T}^2 forces M M = I for the
    # rescaled generators; verify the matrix identity entrywise in
    # squared form on a sample shape
    shape = parse_shape("2,2,1")
    spec = AlgebraSpec("symmetric")
    ws = WeightScheme(spec, shape)
    g = ws.graph
    d2 = orthogonal_diag_squared(ws)
    for i in range(1, 5):
        for v, t in enumerate(g.nodes):
            w = g.neighbors[v].get(i)
            a = ws.stay(t, i)
            if w is None:
                assert a * a == F(1)
            else:
                b, c = ws.move(t, i), ws.move(g.nodes[w], i)
                # product of the two squared off-diagonal entries is
                # (1-a^2)^2 after the diagonal rescale
                lhs = (b * b * d2[v] / d2[w]) * (c * c * d2[w] / d2[v])
                assert lhs == (1 - a * a) * (1 - a * a)


def test_pathsum_word_recursive_agree_symbolic_ak():
    shape = parse_shape("(2,1)|(1)")
    spec = AlgebraSpec("ariki_koike", q=None, u=(2, 3))
    ws = WeightScheme(spec, shape)
    a = transition_recursive(ws)
    b = transition_pathsum(ws)
    c = transition_word(ws)
    assert a.matrix == b.matrix == c.matrix
    check_structure(a)


def test_affine_placed_transition_uses_page_weights():
    shape = parse_shape("(2)|(1,1)@q^0,q^20")
    spec = AlgebraSpec("affine_placed")
    ws = WeightScheme(spec, shape)
    a = transition_recursive(ws)
    b = transition_pathsum(ws)
    c = transition_word(ws)
    assert a.matrix == b.matrix == c.matrix
    check_structure(a)
    diag = diagonal_closed_form(ws)
    for v in range(ws.graph.size()):
        assert a.matrix.get(v, v) == diag[v]


@pytest.mark.parametrize("family, text, kwargs", [
    ("symmetric", "3,2,1", {}),
    ("hecke_A", "3,2", {}),
    ("hecke_A", "3,2", {"q": F(3)}),
    ("hecke_B", "(2,1)|(1)", {"u": (F(2), F(1, 2))}),
    ("ariki_koike", "(2,1)|(1,1)", {"q": F(5), "u": (2, 3)}),
    ("wreath_grn", "(2,1)|(1)", {}),
    ("affine_placed", "(2)|(1,1)@1,q^3", {"q": F(7)}),
    # skew shapes: inner rows offset the boxes at the reading positions
    ("symmetric", "4,3,1/2", {}),
    ("hecke_A", "3,3/1", {}),
    ("affine_placed", "(2,1/1)|(2)@1,q^3", {"q": F(7)}),
])
def test_inversion_products_match_a_field_product(family, text, kwargs):
    # the diagonals multiply split numerators and denominators; each must
    # equal the product of the field factors over the node's inversions
    ws = WeightScheme(AlgebraSpec(family, **kwargs), parse_shape(text))
    for got, factor in ((orthogonal_diag_squared(ws), ws.orth_factor_squared),
                        (diagonal_closed_form(ws), ws.diag_factor)):
        want = []
        for t in ws.graph.nodes:
            acc = ws.field.one
            for i, j in sorted(t.inversions):
                acc = acc * factor(t, i, j)
            want.append(acc)
        assert got == want
        assert all(ws.field.element_of(x) for x in got)
