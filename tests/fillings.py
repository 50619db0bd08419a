"""Fillings of a shape for the tests: a tableau built from its boxes,
the column and row reading tableaux, entries read by box, standardness,
and permutations acting on the entries."""

from youngbasis.errors import PreconditionError
from youngbasis.shapes import _reading_layout, _tableau_of_word


def shape_boxes(shape):
    """All boxes as (component, row, col), by component then row."""
    out = []
    for k, (outer, _inner) in enumerate(shape.components, start=1):
        for x, width in enumerate(outer, start=1):
            for y in range(shape.inner_at(k, x) + 1, width + 1):
                out.append((k, x, y))
    return out


def from_entries(shape, entries):
    """The tableau of a map box -> value, read at the reading order's
    boxes."""
    return _tableau_of_word(
        shape, tuple(map(entries.__getitem__, _reading_layout(shape)[0])))


def entry(t, k, x, y):
    """The entry of t in box (k, x, y)."""
    return t.rows[k - 1][x - 1][y - 1 - t.shape.inner_at(k, x)]


def box_of(t):
    """Map value -> (component, row, col)."""
    return dict(zip(t.word, _reading_layout(t.shape)[0]))


def is_standard(t):
    """Entries increase along each row and down each column; a box and
    the box below it are consecutive reading positions."""
    word = t.word
    boxes, layout = _reading_layout(t.shape)
    return all(word[p] < word[p2] for comp in layout for row in comp
               for p, p2 in zip(row, row[1:])) and \
        all(word[p] < word[p + 1]
            for p, (k, x, y) in enumerate(boxes[:-1])
            if boxes[p + 1] == (k, x + 1, y))


def swap(t, i):
    """Apply the adjacent transposition s_i to the entries: exchange i
    and i+1 in the word."""
    return _tableau_of_word(t.shape, tuple(
        i + 1 if v == i else i if v == i + 1 else v for v in t.word))


def column_reading_tableau(shape):
    """The tableau whose word is the identity: 1..n in the column
    reading order (see shapes._reading_layout)."""
    return _tableau_of_word(shape, tuple(range(1, shape.n + 1)), 0,
                            tuple(range(shape.n)))


def row_reading_tableau(shape):
    """Fill 1..n across the rows: components right to left, and within
    a component the northeast-most connected row group first."""
    entries = {}
    counter = 1
    for k in range(shape.r, 0, -1):
        outer, _ = shape.components[k - 1]
        for group in shape.connected_row_groups(k):
            for x in group:
                for y in range(shape.inner_at(k, x) + 1, outer[x - 1] + 1):
                    entries[(k, x, y)] = counter
                    counter += 1
    return from_entries(shape, entries)


def reading_tableaux(shape):
    """The pair (column reading tableau, row reading tableau)."""
    return column_reading_tableau(shape), row_reading_tableau(shape)


def apply_permutation(t, sigma):
    """Relabel the entries of t by sigma; returns (tableau, standard?)."""
    if len(sigma) != t.shape.n or set(sigma) != set(range(1, t.shape.n + 1)):
        raise PreconditionError("not a permutation of the shape's entries")
    out = _tableau_of_word(t.shape, tuple(sigma[v - 1] for v in t.word))
    return out, is_standard(out)


def alphabetizer(t):
    """Minimal-length coset representative sending the standard alphabet
    of the shape to the alphabet of t (r-partitions only)."""
    if not t.shape.is_r_partition():
        raise PreconditionError("alphabetizer requires empty inner shapes")
    image = []
    for comp in t.rows:
        image.extend(sorted(v for row in comp for v in row))
    return tuple(image)
