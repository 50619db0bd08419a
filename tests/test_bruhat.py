from fractions import Fraction
from itertools import permutations
from math import factorial, prod

import pytest
from hypothesis import given, strategies as st

import fillings
from fillings import box_of, is_standard, swap
from reduced_words import (bruhat_leq_subword, identity, weak_leq,
                           word_to_perm)
from walks import keep_skip_walks, r_partitions, shortest_path, walk_weight
from youngbasis import perms, shapes
from youngbasis.algebras import AlgebraSpec, WeightScheme, verify_relations
from youngbasis.bruhat import BruhatGraph, shortest_paths_from, to_dot
from youngbasis.errors import PreconditionError
from youngbasis.perms import bruhat_leq
from youngbasis.shapes import (Tableau, all_partitions, all_skew_shapes,
                               parse_shape, shape_from_parts)
from youngbasis.transition import (check_structure, diagonal_closed_form,
                                   transition_pathsum, transition_recursive,
                                   transition_word)


def test_graph_32():
    g = BruhatGraph(parse_shape("3,2"))
    assert g.size() == 5
    assert len(g.edges()) == 5
    assert max(g.depth) == 3
    assert g.depth[0] == 0
    assert g.nodes[g.size() - 1].serialize() == [[[1, 2, 3], [4, 5]]]


def test_graph_skew():
    g = BruhatGraph(parse_shape("3,3,1/2,1"))
    assert g.size() == 8
    assert max(g.depth) == 4
    # top of the interval is s1 s3 s2 s1
    w = word_to_perm(4, (1, 3, 2, 1))
    assert g.nodes[g.size() - 1].word == w


def test_graph_single_row():
    g = BruhatGraph(parse_shape("6"))
    assert g.size() == 1 and not g.edges()


def test_bruhat_leq_examples():
    s = parse_shape("3,2,1")
    g = BruhatGraph(s)
    c = g.nodes[0]
    for t in g.nodes:
        assert bruhat_leq(c.word, t.word)
        assert bruhat_leq(t.word, t.word)
    s2 = parse_shape("3,2")
    a = Tableau(s2, [[(1, 2, 5), (3, 4)]])
    b = Tableau(s2, [[(1, 3, 4), (2, 5)]])
    assert not bruhat_leq(a.word, b.word)
    assert not bruhat_leq(b.word, a.word)
    with pytest.raises(PreconditionError):
        bruhat_leq((1, 2), (1, 2, 3))


def test_bruhat_leq_matches_subword_oracle_on_s4():
    elems = list(permutations(range(1, 5)))
    for u in elems:
        for w in elems:
            assert bruhat_leq(u, w) == bruhat_leq_subword(u, w)


def _bruhat_leq_per_pair_sort(u, w):
    """The dominance criterion with every prefix sorted afresh."""
    return all(a <= b
               for k in range(1, len(u))
               for a, b in zip(sorted(u[:k]), sorted(w[:k])))


def test_bruhat_leq_matches_per_pair_sort_on_s5():
    elems = list(permutations(range(1, 6)))
    for u in elems:
        for w in elems:
            assert bruhat_leq(u, w) == _bruhat_leq_per_pair_sort(u, w)


def test_prefix_counts():
    # (3,1,4,2): the prefixes {3}, {1,3}, {1,3,4} hold 0,0,1 / 1,1,2 /
    # 1,1,2 values <= 1, 2, 3, packed one byte each, lowest field first
    counts = (0, 0, 1, 1, 1, 2, 1, 1, 2)
    assert perms.prefix_counts((3, 1, 4, 2)) == \
        sum(c << 8 * k for k, c in enumerate(counts))
    assert perms.guard_bits(4) == sum(0x80 << 8 * k for k in range(9))
    assert perms.prefix_counts((1,)) == perms.guard_bits(1) == 0
    assert perms.prefix_counts(()) == perms.guard_bits(0) == 0


def _longest(n):
    return tuple(range(n, 0, -1))


def _swap_values(w, a, b):
    """w with its values a and b exchanged."""
    return tuple(b if x == a else a if x == b else x for x in w)


@st.composite
def _bruhat_pairs(draw):
    """(u, w) with n <= 9: u is w with inverted pairs of values swapped
    into order a few times, so u <= w, or an independent permutation."""
    n = draw(st.integers(0, 9))
    w = tuple(draw(st.permutations(range(1, n + 1))))
    if draw(st.booleans()):
        return tuple(draw(st.permutations(range(1, n + 1)))), w
    u = w
    for _ in range(draw(st.integers(0, 4))):
        inverted = [(u[i], u[j]) for i in range(n) for j in range(i + 1, n)
                    if u[i] > u[j]]
        if not inverted:
            break
        u = _swap_values(u, *draw(st.sampled_from(inverted)))
    return u, w


@given(_bruhat_pairs())
def test_packed_bruhat_matches_per_pair_sort(pair):
    u, w = pair
    assert bruhat_leq(u, w) == _bruhat_leq_per_pair_sort(u, w)
    assert bruhat_leq(w, u) == _bruhat_leq_per_pair_sort(w, u)


@pytest.mark.parametrize("n", [0, 1, 2, 127, 128, 129])
def test_packed_bruhat_at_field_widths(n):
    """Field widths change between n = 128 and 129 (one byte to two)."""
    e, w0 = identity(n), _longest(n)
    assert bruhat_leq(e, w0) and bruhat_leq(w0, w0)
    assert bruhat_leq(w0, e) == (n < 2)
    if n >= 2:
        # swapping the values 1 and n of w0 undoes its largest inversion
        u = _swap_values(w0, 1, n)
        for a, b in [(u, w0), (w0, u), (e, u), (u, e)]:
            assert bruhat_leq(a, b) == _bruhat_leq_per_pair_sort(a, b)
        assert bruhat_leq(u, w0) and not bruhat_leq(w0, u)


def test_packed_field_bytes():
    assert [perms._field_bytes(n) for n in (0, 128, 129, 1 << 15)] == \
        [1, 1, 2, 2]
    with pytest.raises(PreconditionError):
        perms._field_bytes((1 << 15) + 1)


def _swap_neighbors(g):
    """Edges of the weak Bruhat graph built one Tableau at a time."""
    out = []
    for t in g.nodes:
        nbrs = {}
        for i in range(1, g.shape.n):
            u = swap(t, i)
            if is_standard(u):
                nbrs[i] = g.index[u.rows]
        out.append(nbrs)
    return out


@pytest.fixture(scope="module")
def graphs_n6():
    """Graphs of every skew shape with n <= 6 and a few multi-component
    shapes."""
    shapes = [s for n in range(1, 7) for s in all_skew_shapes(n)]
    shapes += [parse_shape(text) for text in
               ["(2,1)|(1)", "(3,1/1)|(2)", "(2,1)|()|(1,1)", "(1)|(1)|(1)"]]
    return [BruhatGraph(s) for s in shapes]


def test_neighbors_match_tableau_swap(graphs_n6):
    for g in graphs_n6:
        assert g.neighbors == _swap_neighbors(g), g.shape.to_str()


def _hook_length_count(lam):
    """f^lam = n! over the product of the hook lengths of lam."""
    cols = [sum(1 for part in lam if part > y) for y in range(lam[0])] \
        if lam else []
    return factorial(sum(lam)) // prod(
        lam[x] - y + cols[y] - x - 1
        for x in range(len(lam)) for y in range(lam[x]))


def _det(a):
    """Determinant of a square matrix of Fractions, by elimination."""
    a = [row[:] for row in a]
    det = Fraction(1)
    for c in range(len(a)):
        pivot = next((r for r in range(c, len(a)) if a[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, len(a)):
            ratio = a[r][c] / a[c][c]
            a[r] = [x - ratio * y for x, y in zip(a[r], a[c])]
    return det


def _aitken_count(outer, inner):
    """f^{outer/inner} = n! det[1/(outer_i - inner_j - i + j)!] (Aitken),
    where 1/k! = 0 for k < 0."""
    m = len(outer)
    inner = tuple(inner) + (0,) * (m - len(inner))
    a = [[Fraction(1, factorial(k)) if (k := outer[i] - inner[j] - i + j) >= 0
          else Fraction(0) for j in range(m)] for i in range(m)]
    return factorial(sum(outer) - sum(inner)) * _det(a)


def _assert_edges_well_formed(g):
    """Each edge joins adjacent depths, each neighbour dict is in label
    order and its edges are recorded at both ends, and the stored up
    edges are the label-ordered edges from one level lower."""
    depth = g.depth
    for v, nbrs in enumerate(g.neighbors):
        assert list(nbrs) == sorted(nbrs)
        for i, u in nbrs.items():
            assert g.neighbors[u][i] == v
            assert abs(depth[u] - depth[v]) == 1
        assert list(g.up_edges_into(v)) == [
            (u, i) for i, u in nbrs.items() if depth[u] == depth[v] - 1]


def test_graph_sizes_match_closed_form_counts():
    for n in range(11):
        for lam in all_partitions(n):
            g = BruhatGraph(shape_from_parts(lam))
            assert g.size() == _hook_length_count(lam), lam
            _assert_edges_well_formed(g)
    # skew shapes, among them disconnected ones and ones with empty rows
    skew = [s for n in range(1, 7) for s in all_skew_shapes(n)]
    skew += [parse_shape(text) for text in
             ["5,3,3,2/3,3", "4,4,3,1/4,1", "6,4,2,1/4,2", "8,1/1",
              "4,3,2,1/2,1", "5,4,3,2/3,2,1", "5,5,3,1/5,1"]]
    for s in skew:
        g = BruhatGraph(s)
        assert g.size() == _aitken_count(*s.components[0]), s.to_str()
        _assert_edges_well_formed(g)
    # r-multipartitions: choose each component's entries, then fill it
    for r, top in [(2, 8), (3, 6)]:
        for n in range(top + 1):
            for parts in r_partitions(r, n):
                g = BruhatGraph(shape_from_parts(*parts))
                count = factorial(n) // prod(factorial(sum(p)) for p in parts)
                assert g.size() == count * prod(map(_hook_length_count, parts))
                _assert_edges_well_formed(g)


def test_weak_order_edges_are_bruhat_comparable():
    for text in ["3,2", "3,3,1/2,1", "(2,1)|(1)"]:
        g = BruhatGraph(parse_shape(text))
        for v, w, _ in g.edges():
            assert bruhat_leq(g.nodes[v].word, g.nodes[w].word)


def test_lifting_keeps_a_pushed_column_below_its_node():
    # why transition and natural check only the diagonal: column v is
    # S_i applied to column u along an up edge u -> v = s_i u, and S_i
    # sends e_x to e_x and e_{s_i x}, s_i x being x's neighbour under i
    # if it is standard.  By the lifting property of Bruhat order
    # (Bjorner-Brenti, Prop. 2.2.7) every x <= u has x <= v and
    # s_i x <= v, so by induction from the bottom node each column lies
    # below its node, whatever the coefficients are
    shapes = [shape_from_parts(p) for n in range(7) for p in all_partitions(n)]
    shapes += all_skew_shapes(5)
    shapes += [parse_shape(text) for text in
               ["(2,1)|(1)", "(2)|(1,1)", "(1)|(1)|(1)", "(3,2/1)|(2)"]]
    pairs = 0
    for shape in shapes:
        g = BruhatGraph(shape)
        # x <= w iff (guarded[x] - counts[w]) & guard == guard (see
        # perms.guard_bits), each node's counts packed once
        guard = perms.guard_bits(shape.n)
        guarded = [perms.prefix_counts(t.word) | guard for t in g.nodes]
        for v in range(g.size()):
            counts_v = guarded[v] ^ guard
            for u, i in g.up_edges_into(v):
                counts_u = guarded[u] ^ guard
                for x, packed in enumerate(guarded):
                    if (packed - counts_u) & guard != guard:
                        continue
                    pairs += 1
                    y = g.neighbors[x].get(i)
                    for z in (x,) if y is None else (x, y):
                        assert (guarded[z] - counts_v) & guard == guard, \
                            (shape.to_str(), u, v, i, z)
    # (up edge, x <= its lower end) pairs over the 239 shapes
    assert pairs == 88813


def test_depth_equals_inversions_and_word_length():
    for text in ["3,2,1", "4,1", "3,3,1/2,1", "(2,1)|(2)"]:
        g = BruhatGraph(parse_shape(text))
        # BFS depth from the column reading tableau
        dist = {0: 0}
        frontier = [0]
        while frontier:
            nxt = []
            for v in frontier:
                for w in g.neighbors[v].values():
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        nxt.append(w)
            frontier = nxt
        for v in range(g.size()):
            t = g.nodes[v]
            assert dist[v] == g.depth[v] == len(t.inversions) \
                == perms.length(t.word)


def test_length_counts_inversions():
    for n in range(7):
        for w in permutations(range(1, n + 1)):
            assert perms.length(w) == sum(
                w[a] > w[b] for b in range(n) for a in range(b))
            pairs = list(perms.inversions(w))
            assert len(pairs) == len(set(pairs)) and set(pairs) == {
                (w[a], w[b]) for b in range(n) for a in range(b)
                if w[a] > w[b]}
    n = 2000
    assert perms.length(tuple(range(n, 0, -1))) == n * (n - 1) // 2


def test_graph_and_recursion_build_no_inversion_set():
    # depth is counted on the word: the quadratic inversion set of a
    # tableau is left to the diagonals that read it
    ws = WeightScheme(AlgebraSpec("symmetric"), parse_shape("4,3,2/1"))
    transition_recursive(ws)
    assert not any("inversions" in vars(t) for t in ws.graph.nodes)
    # nor does any check of a verify request build a per-node set, on
    # any family: keys and diagonals read the nodes' reading positions
    for family, text, kwargs in [
            ("symmetric", "4,3,2/1", {}),
            ("ariki_koike", "(2,1)|(1)", {"q": 5, "u": (2, 3)}),
            ("wreath_grn", "(2)|(1)|(1)", {}),
            ("affine_placed", "(2,1)|(1)@1,q^3", {})]:
        ws = WeightScheme(AlgebraSpec(family, **kwargs), parse_shape(text))
        tm = transition_recursive(ws)
        verify_relations(ws)
        diagonal_closed_form(ws)
        check_structure(tm)
        transition_pathsum(ws, n_cap=ws.shape.n)
        transition_word(ws)
        for t in ws.graph.nodes:
            assert not {"inversions", "rows", "box_of"} & vars(t).keys()
        assert "index" not in vars(ws.graph)


def test_word_built_nodes_match_lazy_tableaux(graphs_n6):
    # the graph build sets word, depth and positions on each node and
    # derives its rows; a tableau built from those rows derives the rest
    graphs = graphs_n6 + [BruhatGraph(parse_shape(text)) for text in
                          ["(2,1)|(1)@1,q^3", "(2)|(1,1)@q^0,q^5",
                           "(2,2)|()|(1)|(2,1)", "(3,1/1)|(2,2/1)|(1)",
                           "1000"]]
    for g in graphs:
        for t in g.nodes:
            lazy = Tableau(g.shape, t.rows)
            assert (t.word, t.depth, t.positions, box_of(t)) == \
                (lazy.word, lazy.depth, lazy.positions, box_of(lazy)), \
                g.shape.to_str()


def test_graph_build_calls_neither_from_entries_nor_length(monkeypatch):
    calls = []
    from_entries = fillings.from_entries

    def counting_from_entries(shape, entries):
        calls.append("from_entries")
        return from_entries(shape, entries)

    def counting_length(w):
        calls.append("length")
        return length(w)

    length = perms.length
    monkeypatch.setattr(fillings, "from_entries", counting_from_entries)
    monkeypatch.setattr(perms, "length", counting_length)
    monkeypatch.setattr(shapes, "length", counting_length)
    # the patches count: a lazy depth and from_entries go through them
    s = parse_shape("2,1")
    assert Tableau(s, [[(1, 2), (3,)]]).depth == 1
    u = fillings.from_entries(s, {(1, 1, 1): 1, (1, 1, 2): 3, (1, 2, 1): 2})
    assert u.depth == 0
    assert calls == ["length", "from_entries", "length"]
    calls.clear()
    for text in ["4,3,2/1", "(3,1/1)|(2,2/1)|(1)", "(2,1)|(1)@1,q^3",
                 "1000"]:
        g = BruhatGraph(parse_shape(text))
        assert g.size() and calls == [], text


def test_shortest_path_to_displayed_tableau():
    s = parse_shape("3,2,1")
    g = BruhatGraph(s)
    t15 = Tableau(s, [[(1, 2, 3), (4, 6), (5,)]])
    p = shortest_path(g, 0, g.index[t15.rows])
    assert p.labels == (3, 2, 5, 4, 3)
    # reversed label word is a reduced word for the connecting permutation
    word = tuple(reversed(p.labels))
    assert word_to_perm(6, word) == t15.word
    assert len(word) == perms.length(t15.word)


def test_shortest_path_trivial_and_top():
    g = BruhatGraph(parse_shape("3,2"))
    assert shortest_path(g, 0, 0).labels == ()
    assert len(shortest_path(g, 0, g.size() - 1).labels) == 3


def test_shortest_path_requires_weak_comparability():
    g = BruhatGraph(parse_shape("3,2"))
    # the two depth-1 nodes are weakly incomparable
    with pytest.raises(PreconditionError):
        shortest_path(g, 1, 2)


def test_reversed_labels_are_reduced_words_everywhere():
    for text in ["3,2", "2,2,1", "3,3,1/2,1"]:
        g = BruhatGraph(parse_shape(text))
        for v, p in shortest_paths_from(g, 0).items():
            w = word_to_perm(g.shape.n, tuple(reversed(p.labels)))
            assert w == g.nodes[v].word
            assert len(p.labels) == g.depth[v]


def test_subpaths_of_displayed_path():
    s = parse_shape("3,2,1")
    g = BruhatGraph(s)
    t15 = Tableau(s, [[(1, 2, 3), (4, 6), (5,)]])
    target = Tableau(s, [[(1, 3, 5), (2, 6), (4,)]])
    p = shortest_path(g, 0, g.index[t15.rows])
    walks = list(keep_skip_walks(g, p))
    to_target = [moves for moves, nodes in walks
                 if nodes[-1] == g.index[target.rows]]
    assert sorted(to_target) == [
        (False, False, True, False, True), (True, False, True, False, False)]
    # the all-wait subpath terminates at the start
    assert ((False,) * 5, (0,) * 6) in walks
    # keeping labels 1,2,3,5 would visit a nonstandard tableau: rejected
    assert (True, True, True, False, True) not in {m for m, _ in walks}


def test_subpaths_reach_only_bruhat_below():
    for text in ["3,2", "2,2,1"]:
        shape = parse_shape(text)
        ws = WeightScheme(AlgebraSpec("symmetric"), shape)
        g = ws.graph
        pathsum = transition_pathsum(ws).matrix
        for v, p in shortest_paths_from(g, 0).items():
            # the brute-force weighted sums are the path-sum column
            col = {}
            for moves, nodes in keep_skip_walks(g, p):
                u = nodes[-1]
                assert bruhat_leq(g.nodes[u].word, g.nodes[v].word)
                col[u] = col.get(u, 0) + walk_weight(ws, g, p, moves, nodes)
            assert {u: w for u, w in col.items() if w} == pathsum.column(v)


def test_interval_matches_weak_order_on_permutations():
    for text in ["3,2", "2,2", "3,3,1/2,1", "(2,1)|(1)"]:
        g = BruhatGraph(parse_shape(text))
        n = g.shape.n
        wc, wr = g.nodes[0].word, g.nodes[g.size() - 1].word
        interval = {u for u in permutations(range(1, n + 1))
                    if weak_leq(wc, u) and weak_leq(u, wr)}
        assert {t.word for t in g.nodes} == interval


def test_dot_output():
    g = BruhatGraph(parse_shape("3,2"))
    dot = to_dot(g)
    assert dot.startswith("graph weak_order {")
    assert dot.count(" -- ") == 5
    assert 'label="s3"' in dot
    assert "rank=same" in dot


def test_shortest_paths_are_prefix_closed(graphs_n6):
    # each minimal path's prefix is the minimal path to its second-to-last
    # node, which comes earlier in the returned order
    for g in graphs_n6:
        text = g.shape.to_str()
        paths = shortest_paths_from(g, 0)
        assert len(paths) == g.size(), text
        position = {v: k for k, v in enumerate(paths)}
        for v, path in paths.items():
            if not path.labels:
                assert v == 0, text
                continue
            u = path.nodes[-2]
            assert paths[u].labels == path.labels[:-1], text
            assert paths[u].nodes == path.nodes[:-1], text
            assert position[u] < position[v], text
