"""Transition matrices between the natural and seminormal bases.

Three independent routes give the columns as a stream of (v,
numerators, den) in node order; :class:`TransitionMatrix` collects one:

* :func:`recursive_columns` -- the production path: each new column a
  two-term combination of one column one depth level lower (at most
  two scalar multiplications per nonzero entry),
* :func:`pathsum_columns` -- explicit enumeration of the weighted
  subpaths of a fixed path per column (exponential; oracle),
* :func:`word_columns` -- generator matrices applied along a reduced
  word per column, a different word from the recursion's (oracle).
  It walks the up edges as the recursion does (:func:`_edge_columns`).

Each route, and each diagonal, takes one
:class:`~youngbasis.algebras.WeightScheme`, which holds the spec, the
shape and its weak Bruhat graph.

Every route keeps a column as numerators over one denominator in lowest
terms, the column form of :class:`~youngbasis.linalg.Matrix`: ints over
an int on the rationals, the field's own scalars over 1 elsewhere, and
hands its columns on as they are.  All three read the step
tables of ``WeightScheme.scaled_steps``: the recursion pushes a column
through a table with :func:`linalg.push_column`, the path-sum route
multiplies table entries along subpaths, and the word route applies the
matrix of the table's numerators (:func:`linalg.table_columns`) with
``Matrix.apply``, a kernel of its own.  So a fault in that scaling
reaches all three alike and they agree on it; the relations of
:func:`algebras.verify_relations` and the closed-form diagonal catch it.

The structural check (:func:`checked_columns`) reads a column stream
too, with one packed Bruhat comparison per nonzero entry, and passes
each column on once it is checked; the ``transition`` command streams
the route asked for through it into the serializer, and
:func:`check_structure` runs it over a finished matrix's columns.

Also here: the closed-form diagonal and the squared orthogonal diagonal,
each a product over inversions taken on split numerators and
denominators, and the wreath-product matrix entry by entry from its
block structure, a product of per-component symmetric-group entries
(an oracle).
"""

from __future__ import annotations

import time
from itertools import product
from math import prod

from .algebras import AlgebraSpec, WeightScheme, _pair_key
from .bruhat import shortest_paths_from
from .errors import InvariantError, PreconditionError
from .linalg import Matrix, lowest_terms, push_column, table_columns
from .perms import guard_bits, inversions, prefix_counts
# unused here; perfbench/selftest.py checks that tracing patches this alias
from .perms import bruhat_leq  # noqa: F401
from .shapes import Shape, Tableau

__all__ = [
    "TransitionMatrix", "OpCounter",
    "transition_recursive", "transition_pathsum", "transition_word",
    "diagonal_closed_form",
    "orthogonal_diag_squared", "grn_transition",
    "recursive_columns", "pathsum_columns", "word_columns",
    "checked_columns", "check_structure",
    "bench_transition",
]

PATHSUM_DEFAULT_CAP = 7


class OpCounter:
    """Counts exact scalar operations in the column recursion."""

    def __init__(self):
        self.mults = 0
        self.adds = 0

    def total(self):
        return self.mults + self.adds


class TransitionMatrix:
    """A transition matrix collected from a column stream, with the
    spec, shape and graph of the scheme it was computed on."""

    def __init__(self, ws, columns):
        cols, dens = [], []
        for _, col, den in columns:
            cols.append(col)
            dens.append(den)
        self.matrix = Matrix(len(cols), len(cols), ws.field, cols=cols,
                             basis=ws.graph.nodes, dens=dens)
        self.spec, self.shape, self.graph = ws.spec, ws.shape, ws.graph

    def entry(self, s, t):
        """Entry addressed by tableaux or by their rows per component,
        which raise as ``Tableau`` does; a filling that is no basis
        tableau raises PreconditionError."""
        return self.matrix.get(self._index(s), self._index(t))

    def _index(self, t):
        if not isinstance(t, Tableau):
            t = Tableau(self.shape, t)
        v = self.graph.index.get(t.rows)
        if v is None:
            raise PreconditionError(f"tableau {t.serialize()} is not a "
                                    f"basis tableau of {self.shape.to_str()}")
        return v


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


def _edge_columns(ws, pick, step):
    """Columns along prefix-closed words: yields (v, column, den) for
    every node v in order.  Column C is e_C, and the column of v is
    step(column, den, label) of the column of u, (u, label) the up edge
    at index pick into v.  A column is kept until its last use; every up
    edge joins adjacent depth levels, so at most two levels are held."""
    graph = ws.graph
    sources = [graph.up_edges_into(v)[pick] for v in range(1, graph.size())]
    last_use = {u: v for v, (u, _) in enumerate(sources, 1)}
    col, den = {0: ws.field.split(ws.field.one)[0]}, 1
    kept = {0: (col, den)}
    yield 0, col, den
    for v, (u, label) in enumerate(sources, 1):
        col, den = kept[u] if last_use[u] > v else kept.pop(u)
        col, den = step(col, den, label)
        if v in last_use:
            kept[v] = col, den
        yield v, col, den


def recursive_columns(ws, counter=None):
    """The two-term column recursion as a stream: the column of T is the
    column of T' = s_l(T), l the smallest label stepping down in weak
    order, pushed through the step table of l, its ops counted."""
    def step(col, den, label):
        stay, move, scale = ws.scaled_steps(label)
        if counter is not None:
            _count_ops(counter, col, stay, move)
        return lowest_terms(push_column(col, stay, move), den * scale)

    return _edge_columns(ws, 0, step)


def transition_recursive(ws, counter=None):
    """Transition matrix by the two-term column recursion."""
    return TransitionMatrix(ws, recursive_columns(ws, counter))


def pathsum_columns(ws, paths=None, n_cap=PATHSUM_DEFAULT_CAP):
    """The columns as explicit sums of weighted subpaths.

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
    one = ws.field.split(ws.field.one)[0]
    for v in range(graph.size()):
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
        yield v, *lowest_terms({i: w for i, w in bucket.items() if w},
                               prod(scale for _, _, scale in steps))


def transition_pathsum(ws, paths=None, n_cap=PATHSUM_DEFAULT_CAP):
    """Transition matrix as explicit sums of weighted subpaths (oracle)."""
    return TransitionMatrix(ws, pathsum_columns(ws, paths, n_cap))


def word_columns(ws):
    """The word-product route as a stream (oracle): column T is the
    product of generator matrices along a reduced word of T, applied to
    e_C.  The word ends in the largest label stepping down from T, where
    the recursion uses the smallest, so the two routes read different
    coefficients wherever T has two or more down edges.  Each generator
    is applied as S over L, S the matrix of the numerators of
    ``ws.scaled_steps(label)``, built once per label in this stream."""
    size = ws.graph.size()
    gens = {}

    def step(col, den, label):
        gen = gens.get(label)
        if gen is None:
            stay, move, scale = ws.scaled_steps(label)
            gen = gens[label] = (Matrix(size, size, ws.field,
                                        cols=table_columns(stay, move)),
                                 scale)
        s, scale = gen
        return lowest_terms(s.apply(col), den * scale)

    return _edge_columns(ws, -1, step)


def transition_word(ws):
    """Full transition matrix via the word-product route (oracle)."""
    return TransitionMatrix(ws, word_columns(ws))


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


def grn_transition(ws):
    """Wreath-product transition matrix of a ``wreath_grn`` scheme from
    its block structure: entry (S, T) is 0 unless S and T put the same
    letters in each component, and otherwise the product over the
    components of the symmetric-group entries of their subtableaux.
    The reading order is component-major, so a component's subtableau
    has for word the slice of the node's word at the component's
    positions, each letter replaced by its rank in the slice."""
    if ws.spec.family != "wreath_grn":
        raise PreconditionError(
            f"wreath transition of a {ws.spec.family} scheme")
    # per component: its reading positions, its symmetric-group matrix
    # and the index of each of its words
    comps = []
    start = 0
    for outer, _inner in ws.shape.components:
        m = transition_recursive(WeightScheme(
            AlgebraSpec("symmetric"), Shape([(outer, ())]))).matrix
        comps.append((slice(start, start + sum(outer)), m,
                      {t.word: v for v, t in enumerate(m.basis)}))
        start += sum(outer)
    # a node's key: per component, its letters in order and the index
    # of its subtableau
    keys = []
    for t in ws.graph.nodes:
        letters, subs = [], []
        for part, _, index in comps:
            piece = t.word[part]
            rank = {x: r for r, x in enumerate(sorted(piece), 1)}
            letters.append(tuple(rank))
            subs.append(index[tuple(map(rank.get, piece))])
        keys.append((tuple(letters), tuple(subs)))
    node_of = {key: v for v, key in enumerate(keys)}

    def columns():
        for v, (letters, subs) in enumerate(keys):
            blocks = [(m.cols[j], m.dens[j])
                      for (_, m, _), j in zip(comps, subs)]
            col = {}
            for entries in product(*(c.items() for c, _ in blocks)):
                rows, xs = zip(*entries)
                col[node_of[letters, rows]] = prod(xs)
            yield v, *lowest_terms(col, prod(d for _, d in blocks))

    return TransitionMatrix(ws, columns())


def checked_columns(graph, columns):
    """The column stream columns, (j, numerators, den) in node order,
    each column passed on once it meets the structural invariants of a
    transition matrix on graph: upper-triangularity, a nonzero diagonal
    entry, diagonal blocks per depth level and the Bruhat zero pattern.
    Raises InvariantError at the first column that violates one, so a
    consumer sees only checked columns.  An entry costs one packed Bruhat
    test: the diagonal passes it, and another node of the column's depth
    has the same length, so fails it; depth only words the message."""
    guarded = None
    for j, col, den in columns:
        if max(col, default=j) > j:
            raise InvariantError("transition matrix is not upper-triangular")
        if not col.get(j):
            raise InvariantError(f"zero diagonal in column {j}")
        if len(col) > 1:
            if guarded is None:
                # the Bruhat criterion depends on each node alone: pack
                # its counts once, so an entry costs one subtraction (see
                # perms.guard_bits); a diagonal matrix packs none
                guard = guard_bits(graph.shape.n)
                guarded = [prefix_counts(t.word) | guard
                           for t in graph.nodes]
            counts_j = guarded[j] ^ guard
            for i in col:
                if (guarded[i] - counts_j) & guard != guard:
                    if graph.depth[i] == graph.depth[j]:
                        raise InvariantError(f"off-diagonal entry ({i},{j}) "
                                             "inside a depth block")
                    raise InvariantError(f"nonzero entry at ({i},{j}) "
                                         "violates the Bruhat pattern")
        yield j, col, den


def check_structure(tm):
    """The checks of :func:`checked_columns` on every column of a
    computed transition matrix.  Raises InvariantError on violation."""
    for _ in checked_columns(tm.graph, tm.matrix.column_stream()):
        pass
    return True


def bench_transition(ws):
    """Timing + operation-count record for one shape's recursion, its
    column stream drained without building the matrix."""
    counter = OpCounter()
    t0 = time.perf_counter()
    for _ in recursive_columns(ws, counter):
        pass
    seconds = time.perf_counter() - t0
    f = ws.graph.size()
    return {
        "shape": ws.shape.to_str(),
        "f": f,
        "seconds": seconds,
        "scalar_ops": counter.total(),
        "mults": counter.mults,
        "adds": counter.adds,
        "op_bound": 2 * (f * f + f),
    }
