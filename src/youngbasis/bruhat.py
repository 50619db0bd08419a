"""The weak Bruhat graph on standard tableaux.

Nodes are the standard tableaux of a shape in canonical order; an edge
(S, T, i) means T = s_i(S) with both endpoints standard.  Depth equals
the inversion count, the column reading tableau is the unique minimum
and the row reading tableau the unique maximum.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from . import perms
from .errors import InvariantError, PreconditionError
from .shapes import _reading_layout, standard_tableaux

__all__ = ["BruhatGraph", "Path", "shortest_path", "shortest_paths_from",
           "to_dot"]


class BruhatGraph:
    """Immutable weak-order Hasse diagram for one shape."""

    def __init__(self, shape):
        self.shape = shape
        self.nodes = standard_tableaux(shape)
        self.depth = [t.depth for t in self.nodes]
        by_word = {t.word: v for v, t in enumerate(self.nodes)}
        boxes = _reading_layout(shape)[0]
        # neighbors[v][i] = endpoint of the edge labeled s_i at v, if any,
        # filled in label order.
        # s_i(T) is standard iff i and i+1 share neither a row nor a
        # column of one component; its word swaps i and i+1 in T's word.
        self.neighbors = []
        for t in self.nodes:
            word = t.word
            where = t.positions
            nbrs = {}
            for i in range(1, shape.n):
                p, p2 = where[i - 1], where[i]
                k, x, y = boxes[p]
                k2, x2, y2 = boxes[p2]
                if k != k2 or (x != x2 and y != y2):
                    w = list(word)
                    w[p], w[p2] = i + 1, i
                    nbrs[i] = by_word[tuple(w)]
            self.neighbors.append(nbrs)
        self._check()

    @cached_property
    def index(self):
        """Map row tuples -> node index, built on first use."""
        return {t.rows: i for i, t in enumerate(self.nodes)}

    def _check(self):
        depths = self.depth
        mins = [v for v in range(len(self.nodes)) if depths[v] == 0]
        maxd = max(depths) if depths else 0
        maxs = [v for v in range(len(self.nodes)) if depths[v] == maxd]
        if len(mins) != 1 or len(maxs) != 1:
            raise InvariantError("weak Bruhat graph lacks unique extremes")
        # connectivity by BFS over undirected edges
        seen = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for v in frontier:
                for w in self.neighbors[v].values():
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
        if len(seen) != len(self.nodes):
            raise InvariantError("weak Bruhat graph is disconnected")

    @property
    def column_node(self):
        return 0

    @property
    def row_node(self):
        return len(self.nodes) - 1

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
        """Edges (u, i) with s_i(u) = v and depth(u) = depth(v) - 1."""
        return [(u, i) for i, u in self.neighbors[v].items()
                if self.depth[u] == self.depth[v] - 1]


class Path(NamedTuple):
    """A walk in the graph recorded as its start, labels, and nodes;
    immutable, compared and hashed by value."""
    start: int
    labels: tuple
    nodes: tuple  # visited node indices, length = len(labels) + 1


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


def shortest_path(graph, src, dst):
    """A minimal path from src up to dst (see shortest_paths_from)."""
    if src == dst:
        return Path(src, (), (src,))
    if not perms.weak_leq(graph.nodes[src].word, graph.nodes[dst].word):
        raise PreconditionError("destination is not above source in weak order")
    paths = shortest_paths_from(graph, src)
    if dst not in paths:
        raise PreconditionError("no upward path found")
    return paths[dst]


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
