"""The weak Bruhat graph on standard tableaux.

Nodes are the standard tableaux of a shape in canonical order; an edge
(S, T, i) means T = s_i(S) with both endpoints standard.  Depth equals
the inversion count, the column reading tableau is the unique minimum
and the row reading tableau the unique maximum.

The graph is built in one breadth-first search over words from the
column reading tableau, which enumerates the tableaux, finds the edges,
counts the depths and stores each node's up edges.  Standard tableaux
are the linear extensions of the poset of boxes, and those are
connected under swaps of adjacent incomparable values, so the search
reaches them all.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property

from .errors import InvariantError
from .shapes import _reading_layout, _tableau_of_word

__all__ = ["BruhatGraph", "Path", "shortest_paths_from", "to_dot"]


class BruhatGraph:
    """Immutable weak-order Hasse diagram for one shape."""

    def __init__(self, shape):
        self.shape = shape
        n = shape.n
        # s_i(T) is standard iff i and i+1 share neither a row nor a
        # column of one component: per reading position, an int id of
        # its box's row and one of its column, each within its component
        rows, cols = {}, {}
        boxes = _reading_layout(shape)[0]
        row = [rows.setdefault((k, x), len(rows)) for k, x, _ in boxes]
        col = [cols.setdefault((k, y), len(cols)) for k, _, y in boxes]
        # One breadth-first pass from the column reading tableau, whose
        # word is the identity.  The word and the positions of s_i(T)
        # are T's with those of i and i+1 swapped.  The levels are
        # reached in depth order, so when T's turn comes its edges from
        # one level lower are recorded already, and every edge it finds
        # leads one level up: each edge is tested once, at its lower
        # end, and recorded at both.
        words = [tuple(range(1, n + 1))]
        wheres = [tuple(range(n))]
        depths = [0]
        below = [{}]  # per node, label -> neighbour one level lower
        labeled = []  # per node, label -> neighbour, in label order
        by_word = {words[0]: 0}
        for v, (word, where, down) in enumerate(zip(words, wheres, below)):
            nbrs = {}
            for i in range(1, n):
                u = down.get(i)
                if u is None:
                    p, p2 = where[i - 1], where[i]
                    if row[p] == row[p2] or col[p] == col[p2]:
                        continue
                    w = list(word)
                    w[p], w[p2] = i + 1, i
                    w = tuple(w)
                    u = by_word.get(w)
                    if u is None:
                        u = by_word[w] = len(words)
                        words.append(w)
                        wh = list(where)
                        wh[i - 1], wh[i] = p2, p
                        wheres.append(tuple(wh))
                        depths.append(depths[v] + 1)
                        below.append({})
                    below[u][i] = v
                nbrs[i] = u
            labeled.append(nbrs)
        # Nodes in (depth, word) order, which refines Bruhat order and
        # groups the basis by depth; words are distinct, so the sort
        # compares no index.  neighbors[v][i] is the endpoint of the
        # edge labeled s_i at v, and _up[v] holds the (u, i) of the
        # edges from one level lower; both are in label order.
        order = [v for _, _, v in
                 sorted(zip(depths, words, range(len(words))))]
        rank = [0] * len(order)
        for r, v in enumerate(order):
            rank[v] = r
        self.nodes = [_tableau_of_word(shape, words[v], depths[v], wheres[v])
                      for v in order]
        self.depth = [depths[v] for v in order]
        self.neighbors = [{i: rank[u] for i, u in labeled[v].items()}
                          for v in order]
        self._up = [tuple([(rank[u], i) for i, u in sorted(below[v].items())])
                    for v in order]
        if self.depth.count(self.depth[-1]) != 1:
            raise InvariantError("weak Bruhat graph lacks a unique maximum")

    @cached_property
    def index(self):
        """Map row tuples -> node index, built on first use."""
        return {t.rows: i for i, t in enumerate(self.nodes)}

    def size(self):
        return len(self.nodes)

    def edges(self):
        """Undirected edges as (lower, upper, label), each once."""
        out = []
        for v, nbrs in enumerate(self.neighbors):
            for i, w in nbrs.items():
                if self.depth[v] < self.depth[w]:
                    out.append((v, w, i))
        return out

    def up_edges_into(self, v):
        """Edges (u, i) with s_i(u) = v and depth(u) = depth(v) - 1, in
        label order, as the build stored them."""
        return self._up[v]


class Path(namedtuple("Path", "start labels nodes")):
    """A walk in the graph recorded as its start, labels, and nodes (the
    visited node indices, one more than labels); immutable, compared and
    hashed by value."""
    __slots__ = ()


def shortest_paths_from(graph, src):
    """Minimal paths from src to every node above it in weak order,
    deterministic by lexicographically smallest label sequence."""
    best = {src: ()}
    # the nodes are in (depth, word) order already
    for v in range(graph.size()):
        if v == src or graph.depth[v] <= graph.depth[src]:
            continue
        cands = [best[u] + (i,) for u, i in graph.up_edges_into(v) if u in best]
        if cands:
            best[v] = min(cands)
    out = {}
    for v, labels in best.items():
        nodes = [src]
        for i in labels:
            nodes.append(graph.neighbors[nodes[-1]][i])
        out[v] = Path(src, tuple(labels), tuple(nodes))
    return out


def to_dot(graph):
    """Graphviz source reproducing the Hasse diagram, ranked by depth."""
    lines = ["graph weak_order {", "  rankdir=TB;",
             '  node [shape=box, fontname="monospace"];']
    for v, t in enumerate(graph.nodes):
        label = str(t.serialize()).replace(" ", "")
        lines.append(f'  n{v} [label="{label}"];')
    by_depth = {}
    for v in range(graph.size()):
        by_depth.setdefault(graph.depth[v], []).append(v)
    for d in sorted(by_depth):
        group = "; ".join(f"n{v}" for v in by_depth[d])
        lines.append(f"  {{ rank=same; {group}; }}")
    for v, w, i in graph.edges():
        lines.append(f'  n{v} -- n{w} [label="s{i}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
