"""Brute-force enumerations shared by the tests: keep/skip walks along a
path of the weak Bruhat graph (an oracle for the depth-first subpath
enumeration of ``transition_pathsum``), and r-partitions of n."""

from itertools import product

from youngbasis.shapes import all_partitions


def r_partitions(r, n):
    """Every r-tuple of partitions with n boxes in all."""
    for sizes in product(range(n + 1), repeat=r):
        if sum(sizes) == n:
            yield from product(*(all_partitions(k) for k in sizes))


def keep_skip_walks(graph, path):
    """Every way to keep or skip each label of `path` in which each kept
    label is an edge at the current node, i.e. every visited tableau is
    standard.  Yields (moves, nodes): one bool per label, and the visited
    node indices (one more than labels)."""
    for moves in product((False, True), repeat=len(path.labels)):
        nodes = [path.start]
        for i, kept in zip(path.labels, moves):
            nxt = graph.neighbors[nodes[-1]].get(i) if kept else nodes[-1]
            if nxt is None:
                break
            nodes.append(nxt)
        else:
            yield moves, tuple(nodes)


def walk_weight(ws, graph, path, moves, nodes):
    """Product of the step weights of one walk: the move coefficient for a
    kept label, the stay coefficient for a skipped one."""
    w = ws.field.one
    for i, kept, v in zip(path.labels, moves, nodes):
        t = graph.nodes[v]
        w = w * (ws.move(t, i) if kept else ws.stay(t, i))
    return w
