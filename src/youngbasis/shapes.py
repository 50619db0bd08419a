"""Shapes and standard tableaux.

A :class:`Shape` is an ordered list of components, each a skew diagram
``outer/inner`` with a page weight.  A plain partition is one component
with empty inner shape and weight 1; an r-partition has r components
with empty inner shapes.  Boxes are addressed as ``(component, row,
column)`` with 1-based rows and columns taken in the outer partition,
so the content of a box is ``column - row``.

Shape strings:  partition ``"3,2,1"``; skew ``"3,3,1/2,1"``;
multi-component ``"(2,1)|(1)"`` with skew components ``"(3,2/1)|(2)"``
and an empty component written ``"()"``.  Page weights may be appended
as ``"@2,3"`` or ``"@q^0,q^2"`` (one token per component, each a
rational or a rational multiple of a power of q).
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property, lru_cache

from .errors import PreconditionError, ShapeParseError
from .fields import QRat, parse_rational
from .perms import inversions, length

__all__ = [
    "Shape", "Tableau", "parse_shape", "shape_from_parts",
    "standard_tableaux", "column_reading_tableau", "row_reading_tableau",
    "reading_tableaux", "apply_permutation", "alphabetizer",
    "all_skew_shapes", "all_partitions",
]


def _check_partition(p):
    p = tuple(int(x) for x in p)
    if any(x <= 0 for x in p) or any(p[i] < p[i + 1] for i in range(len(p) - 1)):
        raise ShapeParseError(f"not a partition: {p}")
    return p


class Shape:
    """A sequence of skew components with page weights."""

    def __init__(self, components, weights=None):
        comps = []
        for outer, inner in components:
            outer = _check_partition(outer) if outer else ()
            inner = _check_partition(inner) if inner else ()
            if len(inner) > len(outer) or any(
                    inner[i] > outer[i] for i in range(len(inner))):
                raise ShapeParseError(f"inner {inner} not contained in outer {outer}")
            comps.append((outer, inner))
        self.components = tuple(comps)
        if weights is None:
            weights = (1,) * len(comps)
        else:
            weights = tuple(weights)
        if len(weights) != len(comps):
            raise ShapeParseError("one page weight per component required")
        self.weights = weights
        self.n = sum(self.component_size(k) for k in range(1, self.r + 1))

    @property
    def r(self):
        return len(self.components)

    def component_size(self, k):
        outer, inner = self.components[k - 1]
        return sum(outer) - sum(inner)

    def inner_at(self, k, row):
        inner = self.components[k - 1][1]
        return inner[row - 1] if row <= len(inner) else 0

    def boxes(self):
        """All boxes as (component, row, col), by component then row."""
        out = []
        for k, (outer, _inner) in enumerate(self.components, start=1):
            for x, width in enumerate(outer, start=1):
                for y in range(self.inner_at(k, x) + 1, width + 1):
                    out.append((k, x, y))
        return out

    def has_box(self, k, x, y):
        outer, _ = self.components[k - 1]
        return 1 <= x <= len(outer) and self.inner_at(k, x) < y <= outer[x - 1]

    def is_r_partition(self):
        return all(not inner for _, inner in self.components)

    def __eq__(self, other):
        return isinstance(other, Shape) and self.components == other.components

    def __hash__(self):
        return hash(self.components)

    def connected_row_groups(self, k):
        """Nonempty rows of component k grouped into connected pieces,
        the northeast-most group first."""
        outer, _ = self.components[k - 1]
        rows = [x for x in range(1, len(outer) + 1)
                if outer[x - 1] > self.inner_at(k, x)]
        groups = []
        for x in rows:
            # row x joins the group above iff rows x-1 and x share a column
            if groups and groups[-1][-1] == x - 1 and \
                    outer[x - 1] > self.inner_at(k, x - 1):
                groups[-1].append(x)
            else:
                groups.append([x])
        return groups

    def to_str(self):
        def comp_str(outer, inner):
            s = ",".join(str(x) for x in outer)
            if inner:
                s += "/" + ",".join(str(x) for x in inner)
            return s

        if self.r == 1 and self.weights == (1,):
            return comp_str(*self.components[0])
        parts = "|".join(f"({comp_str(o, i)})" for o, i in self.components)
        if all(w == 1 for w in self.weights):
            return parts
        return parts + "@" + ",".join(_weight_str(w) for w in self.weights)

    def __repr__(self):
        return f"Shape({self.to_str()!r})"


def _weight_str(w):
    if isinstance(w, QRat):
        terms = w.terms()
        if len(terms) != 1 or w.den != 1:
            raise ShapeParseError("only monomial page weights serialize")
        exp, coeff = terms[0]
        base = f"q^{exp}"
        return base if coeff == 1 else f"{coeff}*{base}"
    return str(Fraction(w))


_WEIGHT_RE = re.compile(r"^(?:(-?\d+(?:/\d+)?)\*)?q\^(-?\d+)$")


def _parse_weight(tok):
    tok = tok.strip()
    m = _WEIGHT_RE.match(tok)
    if m:
        coeff = parse_rational(m.group(1)) if m.group(1) else Fraction(1)
        return QRat.q_power(int(m.group(2))) * coeff
    return parse_rational(tok)


def _parse_component(s):
    s = s.strip()
    if not s:
        return ((), ())
    if "/" in s:
        outer_s, inner_s = s.split("/", 1)
    else:
        outer_s, inner_s = s, ""
    try:
        outer = tuple(int(x) for x in outer_s.split(",") if x.strip() != "")
        inner = tuple(int(x) for x in inner_s.split(",") if x.strip() != "")
    except ValueError as exc:
        raise ShapeParseError(f"bad component {s!r}") from exc
    return (outer, inner)


def parse_shape(text):
    """Parse the shape grammar described in the module docstring."""
    text = text.strip()
    if not text:
        raise ShapeParseError("empty shape string")
    weights = None
    if "@" in text:
        text, wtext = text.split("@", 1)
        weights = tuple(_parse_weight(t) for t in wtext.split(","))
    if "(" in text:
        comps = []
        for part in text.split("|"):
            part = part.strip()
            if not (part.startswith("(") and part.endswith(")")):
                raise ShapeParseError(f"bad component {part!r}")
            comps.append(_parse_component(part[1:-1]))
    else:
        comps = [_parse_component(text)]
    return Shape(comps, weights)


def shape_from_parts(*parts, weights=None):
    """Shape with the given partitions as components (no inner shapes)."""
    return Shape([(tuple(p), ()) for p in parts], weights)


class Tableau:
    """A filling of a shape with 1..n, each exactly once.

    Built from per-component row tuples, which give its word on first
    use, or by the enumeration from its word, which gives its rows on
    first use; ``positions`` and ``box_of`` come from the word.
    Standardness is a property, not an invariant, so nonstandard
    fillings (from permutation actions) are representable.
    """

    def __init__(self, shape, rows):
        self.shape = shape
        self.rows = tuple(tuple(tuple(r) for r in comp) for comp in rows)

    @classmethod
    def from_entries(cls, shape, entries):
        """Build from a map box -> value."""
        rows = []
        for k, (outer, _inner) in enumerate(shape.components, start=1):
            comp = []
            for x in range(1, len(outer) + 1):
                comp.append(tuple(entries[(k, x, y)]
                                  for y in range(shape.inner_at(k, x) + 1,
                                                 outer[x - 1] + 1)))
            rows.append(tuple(comp))
        return cls(shape, rows)

    def entry(self, k, x, y):
        return self.rows[k - 1][x - 1][y - 1 - self.shape.inner_at(k, x)]

    @cached_property
    def rows(self):
        """Per component, the row tuples, read off the word through the
        reading layout."""
        word = self.word
        return tuple(tuple(tuple(map(word.__getitem__, row)) for row in comp)
                     for comp in _reading_layout(self.shape)[1])

    @cached_property
    def box_of(self):
        """Map value -> (component, row, col)."""
        return dict(zip(self.word, _reading_layout(self.shape)[0]))

    def box(self, i):
        """The box (component, row, col) holding i, read through its
        reading position."""
        return _reading_layout(self.shape)[0][self.positions[i - 1]]

    @cached_property
    def is_standard(self):
        for k, comp in enumerate(self.rows, start=1):
            outer = self.shape.components[k - 1][0]
            for row in comp:
                if any(row[j] >= row[j + 1] for j in range(len(row) - 1)):
                    return False
            for x in range(1, len(comp)):
                lo = self.shape.inner_at(k, x)
                for y in range(lo + 1, min(outer[x - 1], outer[x]) + 1):
                    if self.entry(k, x, y) >= self.entry(k, x + 1, y):
                        return False
        return True

    def content(self, i):
        """Plain content col - row of the box holding i."""
        _, x, y = self.box(i)
        return y - x

    def component_of(self, i):
        return self.box(i)[0]

    @cached_property
    def word(self):
        """The permutation carrying the column reading tableau to this
        one: entry p is the entry at position p of the reading order."""
        w = [0] * self.shape.n
        layout_rows = _reading_layout(self.shape)[1]
        for comp, comp_positions in zip(self.rows, layout_rows):
            for row, positions in zip(comp, comp_positions):
                for v, p in zip(row, positions):
                    w[p] = v
        return tuple(w)

    @cached_property
    def positions(self):
        """The inverse word: positions[v - 1] is the reading position of
        the entry v."""
        out = [0] * self.shape.n
        for p, v in enumerate(self.word):
            out[v - 1] = p
        return tuple(out)

    @cached_property
    def inversions(self):
        """Pairs (i, j), i > j, with i strictly southwest of j in the same
        component or in a component further left.  On a standard tableau
        these are the inversions of its word: the column reading order
        reads such an i before j, and reads a larger entry first in no
        other case."""
        return frozenset(inversions(self.word))

    @cached_property
    def depth(self):
        """The number of inversions of a standard tableau, counted on
        its word, which has as many; no inversion set is built."""
        return length(self.word)

    def swap(self, i):
        """Apply the adjacent transposition s_i to the entries."""
        entries = {box: (i + 1 if v == i else i if v == i + 1 else v)
                   for v, box in self.box_of.items()}
        return Tableau.from_entries(self.shape, entries)

    def serialize(self):
        return [[list(r) for r in comp] for comp in self.rows]

    def __eq__(self, other):
        # the word determines the rows on a given shape
        return isinstance(other, Tableau) and self.word == other.word \
            and self.shape.components == other.shape.components

    def __hash__(self):
        return hash(self.word)

    def __repr__(self):
        return f"Tableau({self.serialize()!r})"


@lru_cache(maxsize=512)
def _reading_layout(shape):
    """The column reading order of a shape as (boxes, rows): boxes[p] is
    the box at 0-based position p, and rows[k-1][x-1] the positions of
    row x of component k, left to right.  The order fills the columns
    top to bottom: components left to right, and within a component the
    southwest-most connected row group first."""
    boxes = []
    for k in range(1, shape.r + 1):
        outer, _ = shape.components[k - 1]
        for group in reversed(shape.connected_row_groups(k)):
            cols = sorted({y for x in group
                           for y in range(shape.inner_at(k, x) + 1, outer[x - 1] + 1)})
            for y in cols:
                for x in group:
                    if shape.has_box(k, x, y):
                        boxes.append((k, x, y))
    pos = {box: p for p, box in enumerate(boxes)}
    rows = tuple(
        tuple(tuple(pos[(k, x, y)]
                    for y in range(shape.inner_at(k, x) + 1, width + 1))
              for x, width in enumerate(outer, start=1))
        for k, (outer, _) in enumerate(shape.components, start=1))
    return tuple(boxes), rows


def _tableau_of_word(shape, depth, word, positions):
    """The tableau with this word, depth and inverse word, all three set
    rather than derived; its rows and box_of are left to first use."""
    t = Tableau.__new__(Tableau)
    t.shape = shape
    t.word = word
    t.depth = depth
    t.positions = positions
    return t


def column_reading_tableau(shape):
    """The tableau whose word is the identity: 1..n in the column
    reading order (see _reading_layout)."""
    return _tableau_of_word(shape, 0, tuple(range(1, shape.n + 1)),
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
    return Tableau.from_entries(shape, entries)


def reading_tableaux(shape):
    """The pair (column reading tableau, row reading tableau)."""
    return column_reading_tableau(shape), row_reading_tableau(shape)


def standard_tableaux(shape):
    """All standard tableaux of the shape in canonical order.

    Enumeration places n, n-1, ... at removable corners, depth first on
    an explicit stack (a shape may have more boxes than the interpreter
    allows nested calls), writing each entry into the word at its box's
    reading position and that position into the inverse word.  Placing
    v at position p adds one inversion for each entry placed left of p,
    as all of them are larger; the result is sorted by (depth, word),
    which refines Bruhat order and groups the canonical basis by depth.
    """
    n = shape.n
    # per component: the row lengths still to fill, with a trailing 0
    # row, the inner row lengths and the positions of each row's boxes
    comps = [(list(outer) + [0],
              [shape.inner_at(k, x) for x in range(1, len(outer) + 1)],
              positions)
             for k, ((outer, _), positions)
             in enumerate(zip(shape.components, _reading_layout(shape)[1]),
                          start=1)]

    def corners():
        # the last box of row x+1 is a removable corner; reversed, so
        # that pop() takes them in order
        out = [(rows, x, positions[x][rows[x] - lo - 1])
               for rows, inner, positions in comps
               for x, lo in enumerate(inner)
               if rows[x] > lo and rows[x + 1] < rows[x]]
        out.reverse()
        return out

    found = []  # (depth, word, positions) of each standard tableau
    word = [0] * n
    where = [0] * n  # where[v - 1] is the position of the entry v
    depth = 0
    filled = 0  # bit p set when position p holds an entry
    placed = []  # (rows, x, p, depth before) of the entries n, n-1, ...
    todo = [corners()]  # per search level: the corners not yet tried
    while todo:
        if len(placed) == n:
            found.append((depth, tuple(word), tuple(where)))
        if todo[-1]:
            rows, x, p = todo[-1].pop()
            m = len(placed)
            placed.append((rows, x, p, depth))
            word[p] = n - m
            where[n - m - 1] = p
            # of the m larger entries, those right of p are filled >> p
            depth += m - (filled >> p).bit_count()
            filled |= 1 << p
            rows[x] -= 1
            todo.append(corners())
        else:
            todo.pop()
            if placed:
                rows, x, p, depth = placed.pop()
                rows[x] += 1
                filled ^= 1 << p
    # words are distinct, so the sort never compares positions
    found.sort()
    return [_tableau_of_word(shape, d, w, where) for d, w, where in found]


def apply_permutation(t, sigma):
    """Relabel the entries of t by sigma; returns (tableau, standard?)."""
    if len(sigma) != t.shape.n:
        raise PreconditionError("permutation size does not match shape")
    entries = {box: sigma[v - 1] for v, box in t.box_of.items()}
    out = Tableau.from_entries(t.shape, entries)
    return out, out.is_standard


def alphabetizer(t):
    """Minimal-length coset representative sending the standard alphabet
    of the shape to the alphabet of t (r-partitions only)."""
    if not t.shape.is_r_partition():
        raise PreconditionError("alphabetizer requires empty inner shapes")
    image = []
    for comp in t.rows:
        image.extend(sorted(v for row in comp for v in row))
    return tuple(image)


def all_partitions(n):
    """All partitions of exactly n, in lexicographically decreasing order."""
    out = []

    def rec(remaining, maxpart, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(maxpart, remaining), 0, -1):
            prefix.append(part)
            rec(remaining - part, part, prefix)
            prefix.pop()

    rec(n, n, [])
    return out


def all_skew_shapes(n):
    """Basic skew shapes with exactly n boxes inside an n x n bounding
    box: every row nonempty, and the padded inner partition ends in 0 so
    horizontally translated duplicates are excluded."""
    shapes = []
    for nrows in range(1, n + 1):
        for outer in _bounded_partitions(nrows, n):
            target = sum(outer) - n
            for inner in _inner_choices(outer, target):
                if inner[-1] > 0:
                    continue
                if any(inner[i] >= outer[i] for i in range(len(outer))):
                    continue
                inner_trim = tuple(x for x in inner if x > 0)
                shapes.append(Shape([(outer, inner_trim)]))
    return shapes


def _bounded_partitions(nrows, maxpart):
    """Partitions with exactly nrows parts, each <= maxpart."""
    out = []

    def rec(rows_left, cap, prefix):
        if rows_left == 0:
            out.append(tuple(prefix))
            return
        for part in range(cap, 0, -1):
            prefix.append(part)
            rec(rows_left - 1, part, prefix)
            prefix.pop()

    rec(nrows, maxpart, [])
    return out


def _inner_choices(outer, target):
    """Partitions inner <= outer componentwise with |inner| = target,
    padded with zeros to len(outer)."""
    if target < 0:
        return []
    out = []

    def rec(i, cap, remaining, prefix):
        if remaining == 0:
            out.append(tuple(prefix) + (0,) * (len(outer) - len(prefix)))
            return
        if i == len(outer):
            return
        for part in range(min(cap, outer[i], remaining), 0, -1):
            prefix.append(part)
            rec(i + 1, part, remaining - part, prefix)
            prefix.pop()

    rec(0, outer[0] if outer else 0, target, [])
    return out
