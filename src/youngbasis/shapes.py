"""Shapes and standard tableaux.

A :class:`Shape` is an ordered list of components, each a skew diagram
``outer/inner`` with a page weight.  A plain partition is one component
with empty inner shape and weight 1; an r-partition has r components
with empty inner shapes.  Boxes are addressed as ``(component, row,
column)`` with 1-based rows and columns taken in the outer partition,
so the content of a box is ``column - row``.  A :class:`Tableau` is
stored as its word, the entries in the column reading order; its rows
are a view of the word.

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

from .errors import ShapeParseError
from .fields import QRat, parse_rational
from .perms import inversions, length

__all__ = ["Shape", "Tableau", "parse_shape", "shape_from_parts",
           "standard_tableaux", "all_skew_shapes", "all_partitions"]


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
    """A filling of a shape with 1..n, each exactly once, stored as its
    word: the permutation carrying the column reading tableau to it,
    whose entry p is the entry at position p of the reading order (see
    _reading_layout).  Rows, ``positions`` and ``depth`` are read off
    the word on first use.  Standardness is not checked, so a
    nonstandard filling is representable too.
    """

    def __init__(self, shape, rows):
        """The tableau with these rows per component, the empty rows of
        a skew component included; raises ShapeParseError unless they
        fit the shape and hold the ints 1..n, each once."""
        layout = _reading_layout(shape)[1]
        try:
            lengths = [list(map(len, comp)) for comp in rows]
        except TypeError:  # rows, a component or a row is no sequence
            lengths = None
        if lengths != [list(map(len, comp)) for comp in layout]:
            raise ShapeParseError(
                f"tableau rows do not fit the shape {shape.to_str()}")
        word = [0] * shape.n
        for comp, comp_positions in zip(rows, layout):
            for row, positions in zip(comp, comp_positions):
                for v, p in zip(row, positions):
                    word[p] = v
        if not all(type(v) is int for v in word) or \
                set(word) != set(range(1, shape.n + 1)):
            raise ShapeParseError(
                f"tableau entries are not 1..{shape.n}, each once")
        self.shape = shape
        self.word = tuple(word)

    @cached_property
    def rows(self):
        """Per component, the row tuples, read off the word through the
        reading layout."""
        word = self.word
        return tuple(tuple(tuple(map(word.__getitem__, row)) for row in comp)
                     for comp in _reading_layout(self.shape)[1])

    def box(self, i):
        """The box (component, row, col) holding i, read through its
        reading position."""
        return _reading_layout(self.shape)[0][self.positions[i - 1]]

    def content(self, i):
        """Plain content col - row of the box holding i."""
        _, x, y = self.box(i)
        return y - x

    def component_of(self, i):
        return self.box(i)[0]

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

    def serialize(self):
        """The rows as nested lists, read off the word through the
        reading layout."""
        word = self.word
        return [[[word[p] for p in row] for row in comp]
                for comp in _reading_layout(self.shape)[1]]

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


def _tableau_of_word(shape, word, depth=None, positions=None):
    """The tableau with this word; its depth and inverse word, where
    given, are set rather than derived on first use."""
    t = Tableau.__new__(Tableau)
    t.shape = shape
    t.word = word
    if depth is not None:
        t.depth = depth
    if positions is not None:
        t.positions = positions
    return t


def standard_tableaux(shape):
    """All standard tableaux of the shape in canonical order, (depth,
    word): the nodes of its weak Bruhat graph, which is built breadth
    first from the column reading tableau (see :mod:`bruhat`)."""
    from .bruhat import BruhatGraph
    return BruhatGraph(shape).nodes


def all_partitions(n):
    """All partitions of exactly n, in lexicographically decreasing order:
    (n,) first and (1,) * n last."""
    return _partitions((n,) * n, n)


def all_skew_shapes(n):
    """Basic skew shapes with exactly n boxes inside an n x n bounding box,
    by row count, then outer and inner shape in lexicographically decreasing
    order. Inner rows are capped strictly shorter than outer rows (no empty
    row) and the padded inner shape ends in 0 (no horizontal translates)."""
    # the sort keeps the lexicographic order within a row count; it puts
    # first the empty outer shape, which has no boxes
    return [Shape([(outer, inner)])
            for outer in sorted(_partitions((n,) * n), key=len)[1:]
            for inner in _partitions([x - 1 for x in outer[:-1]],
                                     sum(outer) - n)]


def _partitions(caps, total=None):
    """The partitions with at most len(caps) parts, part i at most
    caps[i], in lexicographically decreasing order: those of total, or of
    any size when total is None. There are none when total < 0."""
    out, prefix, caps = [], [], (*caps, 0)
    free = total is None

    def rec(i, bound, left):
        if not left:
            out.append(tuple(prefix))
            return
        # compares, not min(): the call is a third of the walk's time
        top = caps[i] if caps[i] < bound else bound
        for part in range(left if left < top else top, 0, -1):
            prefix.append(part)
            rec(i + 1, part, left - part)
            prefix.pop()
        if free:
            out.append(tuple(prefix))

    # with free, left never binds and reaches 0 only when the caps left are 0
    rec(0, caps[0], sum(caps) if free else total)
    return out
