"""Fillings of a shape for the tests: a tableau built from its boxes,
the column and row reading tableaux, entries read by box, standardness,
and permutations acting on the entries; and the row spans and connected
row groups of a component, computed box by box."""

from youngbasis.errors import PreconditionError
from youngbasis.shapes import _reading_layout, _tableau_of_word


def inner_at(shape, k, row):
    """The inner width of row `row` of component k: 0 below the inner
    shape."""
    inner = shape.components[k - 1][1]
    return inner[row - 1] if row <= len(inner) else 0


def row_boxes(shape, k, x):
    """The boxes of row x of component k, left to right."""
    return [(k, x, y) for y in range(inner_at(shape, k, x) + 1,
                                     shape.components[k - 1][0][x - 1] + 1)]


def row_groups(shape, k):
    """The nonempty rows of component k as connected pieces, the
    northeast-most first: two rows are joined when some column holds a
    box of each."""
    groups = []
    for x in range(1, len(shape.components[k - 1][0]) + 1):
        cols = {y for _, _, y in row_boxes(shape, k, x)}
        if not cols:
            continue
        above = {y for _, _, y in row_boxes(shape, k, x - 1)} if x > 1 \
            else set()
        if cols & above:
            groups[-1].append(x)
        else:
            groups.append([x])
    return groups


def shape_boxes(shape):
    """All boxes as (component, row, col), by component then row."""
    return [box for k, (outer, _) in enumerate(shape.components, start=1)
            for x in range(1, len(outer) + 1)
            for box in row_boxes(shape, k, x)]


def from_entries(shape, entries):
    """The tableau of a map box -> value, read at the reading order's
    boxes."""
    return _tableau_of_word(
        shape, tuple(map(entries.__getitem__, _reading_layout(shape)[0])))


def entry(t, k, x, y):
    """The entry of t in box (k, x, y)."""
    return t.rows[k - 1][x - 1][y - 1 - inner_at(t.shape, k, x)]


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
        for group in row_groups(shape, k):
            for x in group:
                for box in row_boxes(shape, k, x):
                    entries[box] = counter
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
