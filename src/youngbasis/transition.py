"""Transition matrices between the natural and seminormal bases.

Three independent computation routes are provided:

* :func:`transition_recursive` -- the production path: columns in depth
  order, each new column a two-term combination of one previous column
  (at most two scalar multiplications per nonzero entry),
* :func:`transition_pathsum`  -- explicit enumeration of the weighted
  subpaths of a fixed path per column (exponential; oracle),
* :func:`transition_word`     -- generator matrices applied along a
  reduced word per column, a different word from the recursion's
  (oracle).

Each route, and each diagonal, takes one
:class:`~youngbasis.algebras.WeightScheme`, which holds the spec, the
shape and its weak Bruhat graph.

Every route keeps a column as numerators over one denominator in lowest
terms, the column form of :class:`~youngbasis.linalg.Matrix`: ints over
an int on the rationals, the field's own scalars over 1 elsewhere, and
hands its columns to the matrix as they are.  All three read the step
tables of ``WeightScheme.scaled_steps``: the recursion pushes a column
through a table with :func:`linalg.push_column`, the path-sum route
multiplies table entries along subpaths, and the word route applies the
matrix of the table's numerators (:func:`linalg.table_columns`) with
``Matrix.apply``, a kernel of its own.  So a fault in that scaling
reaches all three alike and they agree on it; the relations of
:func:`algebras.verify_relations` and the closed-form diagonal catch it.

Also here: the closed-form diagonal and the squared orthogonal diagonal,
each a product over inversions taken on split numerators and
denominators, and the wreath-product assembly by alphabets (direct sum
of tensor products of per-component symmetric-group matrices).
"""

from __future__ import annotations

import time
from itertools import combinations
from math import prod

from .algebras import AlgebraSpec, WeightScheme, _pair_key
from .bruhat import shortest_paths_from
from .errors import InvariantError, PreconditionError
from .linalg import (Matrix, direct_sum, lowest_terms, push_column,
                     table_columns, tensor_product)
from .perms import guard_bits, inversions, prefix_counts
# unused here; perfbench/selftest.py checks that tracing patches this alias
from .perms import bruhat_leq  # noqa: F401
from .shapes import Shape, Tableau

__all__ = [
    "TransitionMatrix", "OpCounter",
    "transition_recursive", "transition_pathsum", "transition_word",
    "diagonal_closed_form",
    "orthogonal_diag_squared", "grn_transition",
    "check_structure", "bench_transition",
]

PATHSUM_DEFAULT_CAP = 7


class OpCounter:
    """Counts exact scalar operations in the column recursion."""

    def __init__(self, mults=0, adds=0):
        self.mults = mults
        self.adds = adds

    def total(self):
        return self.mults + self.adds


class TransitionMatrix:
    """A computed transition matrix with the spec, shape and graph it
    was computed on."""

    def __init__(self, matrix, spec, shape, graph):
        self.matrix = matrix
        self.spec = spec
        self.shape = shape
        self.graph = graph

    @property
    def basis(self):
        return self.matrix.basis

    def entry(self, s, t):
        """Entry addressed by tableaux or by row tuples."""
        i = self._index(s)
        j = self._index(t)
        return self.matrix.get(i, j)

    def _index(self, t):
        rows = t.rows if isinstance(t, Tableau) else \
            tuple(tuple(tuple(r) for r in comp) for comp in t)
        return self.graph.index[rows]


def _count_ops(counter, prev_col, stay, move):
    """The scalar ops of one push_column step.  A row of the new column
    receives at most its own stay term and the move term of its one
    s_label neighbour, so it costs an addition only when both arrive."""
    for u in prev_col:
        if stay[u]:
            counter.mults += 1
        mv = move[u]
        if mv is not None:
            counter.mults += 1
            tgt = mv[1]
            if tgt in prev_col and stay[tgt]:
                counter.adds += 1


def transition_recursive(ws, counter=None):
    """Transition matrix by the two-term column recursion.

    Columns are computed in depth order (the order of the graph's
    nodes); column C is e_C, and the column of T is obtained from the
    column of T' = s_l(T) (l the smallest label stepping down in weak
    order) by the seminormal two-term rule.
    """
    graph = ws.graph
    size = graph.size()
    cols = [None] * size
    dens = [1] * size
    cols[0] = {0: ws.field.split(ws.field.one)[0]}
    for v in range(1, size):
        u, label = graph.up_edges_into(v)[0]
        stay, move, scale = ws.scaled_steps(label)
        cols[v], dens[v] = lowest_terms(push_column(cols[u], stay, move),
                                        dens[u] * scale)
        if counter is not None:
            _count_ops(counter, cols[u], stay, move)
    m = Matrix(size, size, ws.field, cols=cols, basis=graph.nodes,
               dens=dens)
    return TransitionMatrix(m, ws.spec, ws.shape, graph)


def transition_pathsum(ws, paths=None, n_cap=PATHSUM_DEFAULT_CAP):
    """Transition matrix as explicit sums of weighted subpaths.

    For each column a fixed path from C is walked; every subpath (each
    label kept or replaced by the identity, all visited tableaux
    standard) contributes the product of its step weights to the row of
    its terminal node.  Exponential in the depth; refuses shapes with
    n > n_cap unless the cap is raised.  The weights are those of
    ``WeightScheme.scaled_steps``, and a column's denominator is the
    product of its path's scales.
    """
    if ws.shape.n > n_cap:
        raise PreconditionError(
            f"pathsum oracle capped at n = {n_cap}; raise n_cap to override")
    graph = ws.graph
    if paths is None:
        paths = shortest_paths_from(graph, 0)
    size = graph.size()
    one = ws.field.split(ws.field.one)[0]
    cols = [None] * size
    dens = [1] * size
    for v in range(size):
        steps = [ws.scaled_steps(i) for i in paths[v].labels]
        depth = len(steps)
        # (steps taken, node, weight) of each open subpath; the stay
        # branch is pushed last, so it is walked first.  The empty path
        # has one subpath, ending at C.
        bucket = {} if depth else {0: one}
        stack = [(0, 0, one)] if depth else []
        last = depth - 1
        while stack:
            j, node, weight = stack.pop()
            stay, move, _ = steps[j]
            mv = move[node]
            a = stay[node]
            if j < last:
                if mv is not None:
                    stack.append((j + 1, mv[1], weight * mv[0]))
                if a:
                    stack.append((j + 1, node, weight * a))
                continue
            # the last step ends the subpath: its weight goes straight
            # into the bucket of its terminal node, stay branch first
            if a:
                cur = bucket.get(node)
                w = weight * a
                bucket[node] = w if cur is None else cur + w
            if mv is not None:
                tgt = mv[1]
                cur = bucket.get(tgt)
                w = weight * mv[0]
                bucket[tgt] = w if cur is None else cur + w
        cols[v], dens[v] = lowest_terms(
            {i: w for i, w in bucket.items() if w},
            prod(scale for _, _, scale in steps))
    m = Matrix(size, size, ws.field, cols=cols, basis=graph.nodes,
               dens=dens)
    return TransitionMatrix(m, ws.spec, ws.shape, graph)


def transition_word(ws):
    """Full transition matrix via the word-product route (oracle): column
    T is the product of generator matrices along a reduced word of T,
    applied to e_C.  The word ends in the largest label stepping down
    from T, where the recursion uses the smallest, so the two routes
    read different coefficients wherever T has two or more down edges.
    These words are prefix-closed: each column is one generator applied
    to the column of a node one level lower.  Each generator is applied
    as S over L, S the matrix of the numerators of
    ``ws.scaled_steps(label)``, built once per label in this call."""
    graph = ws.graph
    size = graph.size()
    cols = [None] * size
    dens = [1] * size
    cols[0] = {0: ws.field.split(ws.field.one)[0]}
    gens = {}
    for v in range(1, size):
        u, label = graph.up_edges_into(v)[-1]
        gen = gens.get(label)
        if gen is None:
            stay, move, scale = ws.scaled_steps(label)
            gen = gens[label] = (Matrix(size, size, ws.field,
                                        cols=table_columns(stay, move)),
                                 scale)
        s, scale = gen
        cols[v], dens[v] = lowest_terms(s.apply(cols[u]), dens[u] * scale)
    m = Matrix(size, size, ws.field, cols=cols, basis=graph.nodes,
               dens=dens)
    return TransitionMatrix(m, ws.spec, ws.shape, graph)


def _inversion_products(ws, factor):
    """Per node t, the product of factor(t, i, j) over the inversions
    (i, j) of t: the split numerators and denominators are multiplied
    and joined once per node.  The inversions are read off the word
    (:func:`perms.inversions`), and a pair's key from the boxes at its
    two entries' reading positions, so no inversion set is built or
    sorted; factor is called and split once per key."""
    split, join = ws.field.split, ws.field.join
    one = split(ws.field.one)[0]
    boxes = ws.boxes
    parts = {}
    out = []
    for t in ws.graph.nodes:
        num, den = one, 1
        pos = t.positions
        for i, j in inversions(t.word):
            key = _pair_key(boxes[pos[i - 1]], boxes[pos[j - 1]])
            part = parts.get(key)
            if part is None:
                part = parts[key] = split(factor(t, i, j))
            num *= part[0]
            den *= part[1]
        out.append(join(num, den))
    return out


def diagonal_closed_form(ws):
    """Diagonal of the transition matrix straight from inversion sets:
    the product over inversions of (1 + a_{i,j}) or its q-analogue."""
    return _inversion_products(ws, ws.diag_factor)


def orthogonal_diag_squared(ws):
    """Squares of the diagonal seminormal-to-orthogonal rescaling, a
    product over inversions of (move factor)^2 / (q^{-2} - a^2); kept in
    squared form so everything stays inside the exact field."""
    return _inversion_products(ws, ws.orth_factor_squared)


def _alphabets(entries, sizes):
    """Ordered set partitions of `entries` with the given block sizes,
    deterministic order."""
    entries = tuple(entries)
    if not sizes:
        yield ()
        return
    k = sizes[0]
    for chosen in combinations(entries, k):
        rest = tuple(x for x in entries if x not in chosen)
        for tail in _alphabets(rest, sizes[1:]):
            yield (chosen,) + tail


def grn_transition(ws):
    """Wreath-product transition matrix of a ``wreath_grn`` scheme,
    assembled from its block structure: one identical tensor-product
    block of per-component symmetric-group matrices for each alphabet,
    re-indexed into the canonical basis order."""
    if ws.spec.family != "wreath_grn":
        raise PreconditionError(
            f"wreath transition of a {ws.spec.family} scheme")
    shape, graph, field = ws.shape, ws.graph, ws.field
    comp_mats = []
    comp_tabs = []
    for outer, _inner in shape.components:
        if not outer:
            comp_mats.append(Matrix.identity(1, field))
            comp_tabs.append([None])
            continue
        comp = Shape([(outer, ())])
        tm = transition_recursive(WeightScheme(AlgebraSpec("symmetric"), comp))
        comp_mats.append(tm.matrix)
        comp_tabs.append(tm.matrix.basis)
    block = comp_mats[0]
    for mat in comp_mats[1:]:
        block = tensor_product(block, mat)
    sizes = [shape.component_size(k) for k in range(1, shape.r + 1)]
    alphabets = list(_alphabets(range(1, shape.n + 1), sizes))
    big = direct_sum([block] * len(alphabets))
    perm = _grn_global_indices(shape, graph, alphabets, comp_tabs)
    size = graph.size()
    out = Matrix(size, size, field, basis=graph.nodes)
    for j in range(big.ncols):
        out.cols[perm[j]] = {perm[i]: v for i, v in big.cols[j].items()}
        out.dens[perm[j]] = big.dens[j]
    return TransitionMatrix(out, ws.spec, shape, graph)


def _grn_global_indices(shape, graph, alphabets, comp_tabs):
    """Global canonical index of each block-basis element, blocks by
    alphabet and row-major (leftmost component slowest) within each."""
    out = []
    for alph in alphabets:
        combos = [[]]
        for tabs in comp_tabs:
            combos = [c + [t] for c in combos for t in tabs]
        for combo in combos:
            entries = {}
            for k, tab in enumerate(combo):
                if tab is None:
                    continue
                letters = alph[k]
                for v, box in tab.box_of.items():
                    entries[(k + 1,) + box[1:]] = letters[v - 1]
            t = Tableau.from_entries(shape, entries)
            out.append(graph.index[t.rows])
    return out


def check_structure(tm):
    """Structural invariants of a computed transition matrix:
    upper-triangularity, the Bruhat zero pattern, and diagonal blocks
    per depth level.  Raises InvariantError on violation."""
    m = tm.matrix
    graph = tm.graph
    if not m.is_upper_triangular():
        raise InvariantError("transition matrix is not upper-triangular")
    depth = graph.depth
    guarded = None
    for j, col in enumerate(m.cols):
        if j not in col or not col[j]:
            raise InvariantError(f"zero diagonal in column {j}")
        if len(col) == 1:
            continue  # a diagonal entry is Bruhat below itself
        if guarded is None:
            # the Bruhat criterion depends on each node alone: pack its
            # counts once, so an entry costs one subtraction (see
            # perms.guard_bits); a diagonal matrix packs none
            guard = guard_bits(tm.shape.n)
            guarded = [prefix_counts(t.word) | guard for t in graph.nodes]
        counts_j, depth_j = guarded[j] ^ guard, depth[j]
        for i in col:
            if i == j:
                continue
            # distinct nodes of equal depth are Bruhat-incomparable, so
            # test the depth block first to give the sharper message
            if depth[i] == depth_j:
                raise InvariantError(
                    f"off-diagonal entry ({i},{j}) inside a depth block")
            if (guarded[i] - counts_j) & guard != guard:
                raise InvariantError(
                    f"nonzero entry at ({i},{j}) violates the Bruhat pattern")
    return True


def bench_transition(ws):
    """Timing + operation-count record for one shape's recursion."""
    counter = OpCounter()
    t0 = time.perf_counter()
    tm = transition_recursive(ws, counter=counter)
    seconds = time.perf_counter() - t0
    f = tm.matrix.ncols
    return {
        "shape": ws.shape.to_str(),
        "f": f,
        "seconds": seconds,
        "scalar_ops": counter.total(),
        "mults": counter.mults,
        "adds": counter.adds,
        "op_bound": 2 * (f * f + f),
    }
