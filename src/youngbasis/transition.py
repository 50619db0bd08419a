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

Every route keeps a column as numerators over one denominator, in the
form of the field's ``split``: ints over an int on the rationals, the
field's own scalars over 1 elsewhere.  The recursion and the path-sum
route read ``WeightScheme.scaled_steps``; the word route applies the
generator pairs of :func:`~youngbasis.algebras.integral_pair`, so it
does not share that scaling.  Rational entries become ``Fraction``
objects only when a matrix is built, one per distinct value across the
scheme's matrices, so equal entries of two routes are one object.

Also here: the closed-form diagonal, the squared orthogonal diagonal,
and the wreath-product assembly by alphabets (direct sum of tensor
products of per-component symmetric-group matrices).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from itertools import combinations
from math import gcd, prod
from operator import le

from .algebras import (AlgebraSpec, WeightScheme, integral_pair,
                       seminormal_generator)
from .bruhat import BruhatGraph, shortest_paths_from
from .errors import InvariantError, PreconditionError
from .fields import RATIONALS
from .linalg import Matrix, direct_sum, tensor_product
from .perms import sorted_prefixes
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


@dataclass
class OpCounter:
    """Counts exact scalar operations in the column recursion."""
    mults: int = 0
    adds: int = 0

    def total(self):
        return self.mults + self.adds


@dataclass
class TransitionMatrix:
    matrix: Matrix
    spec: AlgebraSpec
    shape: Shape
    graph: BruhatGraph = dc_field(repr=False)

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


def _push_column(prev_col, stay, move):
    """One recursion step: new column = generator applied to prev_col."""
    out = {}
    for u, val in prev_col.items():
        a = stay[u]
        if a:
            w = a * val
            cur = out.get(u)
            if cur is None:
                out[u] = w
            else:
                cur = cur + w
                if cur:
                    out[u] = cur
                else:
                    del out[u]
        mv = move[u]
        if mv is not None:
            b, tgt = mv
            w = b * val
            cur = out.get(tgt)
            if cur is None:
                out[tgt] = w
            else:
                cur = cur + w
                if cur:
                    out[tgt] = cur
                else:
                    del out[tgt]
    return out


def _count_ops(counter, prev_col, stay, move):
    """The scalar ops of one _push_column step.  A row of the new column
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


def _lowest_terms(col, den):
    """A column over den, both divided by their gcd; a column over 1, as
    every column off the rationals is, is already in lowest terms."""
    if den == 1:
        return col, den
    g = gcd(den, *col.values())
    if g > 1:
        col = {i: x // g for i, x in col.items()}
        den //= g
    return col, den


def _fraction_columns(ws, cols, dens):
    """Columns over their denominators as the matrix entries of the
    scheme ws: off the rationals every denominator is 1 and the columns
    are the entries.  Rational values become Fractions, one per value
    across every matrix of ws, so routes that agree hold the same
    objects."""
    if ws.field is not RATIONALS:
        return cols
    memo = ws._fractions
    out = []
    for col, den in zip(cols, dens):
        fcol = {}
        for i, x in col.items():
            g = gcd(x, den)
            key = (x // g, den // g)
            val = memo.get(key)
            if val is None:
                val = memo[key] = Fraction(*key)
            fcol[i] = val
        out.append(fcol)
    return out


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
        cols[v], dens[v] = _lowest_terms(_push_column(cols[u], stay, move),
                                         dens[u] * scale)
        if counter is not None:
            _count_ops(counter, cols[u], stay, move)
    m = Matrix(size, size, ws.field, cols=_fraction_columns(ws, cols, dens),
               basis=graph.nodes)
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
    cols = []
    dens = []
    for v in range(size):
        steps = [ws.scaled_steps(i) for i in paths[v].labels]
        dens.append(prod(scale for _, _, scale in steps))
        bucket = {}

        def dfs(j, node, weight):
            if j == len(steps):
                cur = bucket.get(node)
                bucket[node] = weight if cur is None else cur + weight
                return
            stay, move, _ = steps[j]
            a = stay[node]
            if a:
                dfs(j + 1, node, weight * a)
            mv = move[node]
            if mv is not None:
                dfs(j + 1, mv[1], weight * mv[0])

        dfs(0, 0, one)
        cols.append({i: w for i, w in bucket.items() if w})
    m = Matrix(size, size, ws.field, cols=_fraction_columns(ws, cols, dens),
               basis=graph.nodes)
    return TransitionMatrix(m, ws.spec, ws.shape, graph)


def transition_word(ws):
    """Full transition matrix via the word-product route (oracle): column
    T is the product of generator matrices along a reduced word of T,
    applied to e_C.  The word ends in the largest label stepping down
    from T, where the recursion uses the smallest, so the two routes
    read different coefficients wherever T has two or more down edges.
    These words are prefix-closed: each column is one generator applied
    to the column of a node one level lower.  Each generator is applied
    as its pair S over L (:func:`integral_pair`)."""
    graph = ws.graph
    size = graph.size()
    gens = {i: integral_pair(seminormal_generator(ws, i))
            for i in range(1, ws.shape.n)}
    cols = [None] * size
    dens = [1] * size
    cols[0] = {0: ws.field.split(ws.field.one)[0]}
    for v in range(1, size):
        u, label = graph.up_edges_into(v)[-1]
        s, scale = gens[label]
        cols[v], dens[v] = _lowest_terms(s.apply(cols[u]), dens[u] * scale)
    m = Matrix(size, size, ws.field, cols=_fraction_columns(ws, cols, dens),
               basis=graph.nodes)
    return TransitionMatrix(m, ws.spec, ws.shape, graph)


def _inversion_products(ws, factor):
    """Per node t, the product of factor(t, i, j) over the inversions
    (i, j) of t, in sorted order."""
    out = []
    for t in ws.graph.nodes:
        acc = ws.field.one
        for (i, j) in sorted(t.inversions):
            acc = acc * factor(t, i, j)
        out.append(acc)
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
    # the Bruhat criterion depends on each node alone: sort prefixes once
    pre = [sorted_prefixes(t.word) for t in graph.nodes]
    depth = graph.depth
    for j, col in enumerate(m.cols):
        if j not in col or not col[j]:
            raise InvariantError(f"zero diagonal in column {j}")
        pre_j, depth_j = pre[j], depth[j]
        for i in col:
            # distinct nodes of equal depth are Bruhat-incomparable, so
            # test the depth block first to give the sharper message
            if depth[i] == depth_j and i != j:
                raise InvariantError(
                    f"off-diagonal entry ({i},{j}) inside a depth block")
            if not all(map(le, pre[i], pre_j)):
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
