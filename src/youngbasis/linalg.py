"""Sparse exact matrices over a pluggable scalar field.

Storage is one dict per column mapping row index to a nonzero numerator,
over one positive int denominator per column in ``dens``: the field's
``split`` form, in lowest terms, so equal matrices have equal ``cols``
and ``dens``.  The numerators are ints on the rationals and the field's
own scalars over 1 elsewhere.  ``get``, ``column``, ``to_rows`` and
``from_rows`` give and take field values (``Fraction``s on the
rationals) through the field's ``join`` and ``split``.

Generator matrices have at most two nonzeros per column and the column
recursion writes whole columns, so column-major is the natural layout.
Such a matrix is also kept as a step table (stays, moves, den): column v
holds stays[v] at row v and, where moves[v] = (b, target), b at row
target, all over den.  :func:`push_column` multiplies a sparse column by
a table's numerators, at most two products per entry.

Serialization reads a stream of columns into rows of cell strings, each
made at its first nonzero column (:func:`cell_rows`), and writes them in
pieces, one joined row at a time: :func:`json_chunks` is the one JSON
writer, of any object, and :func:`csv_chunks` writes CSV.
"""

from __future__ import annotations

import json
from math import gcd, lcm

from .errors import FieldMismatchError, PreconditionError
from .fields import RATIONALS, field_by_name

__all__ = ["Matrix", "matmul", "triangular_solve", "triangular_inverse",
           "integral_pair", "lowest_terms", "split_over_lcm",
           "push_column", "table_columns",
           "cell_rows", "compact_json", "json_chunks",
           "csv_chunks", "matrix_to_json", "matrix_from_json",
           "matrix_to_csv"]


def lowest_terms(col, den):
    """A column over den, both divided by their gcd; a column over 1, as
    every column off the rationals is, is already in lowest terms."""
    if den == 1:
        return col, den
    g = gcd(den, *col.values())
    if g > 1:
        col = {i: x // g for i, x in col.items()}
        den //= g
    return col, den


def split_over_lcm(split, values):
    """A dict of nonzero field values as (numerators, den): den the lcm
    of the values' ``split`` denominators and each numerator scaled to
    it, a value over den itself keeping its numerator object.  Values in
    lowest terms give numerators over den in lowest terms."""
    parts = {k: split(x) for k, x in values.items()}
    den = lcm(*(d for _, d in parts.values()))
    return ({k: x if d == den else x * (den // d)
             for k, (x, d) in parts.items()}, den)


def push_column(col, stay, move):
    """The matrix of a step table times the sparse column col: row u of
    col goes to u times stay[u] and, where move[u] = (b, target), to
    target times b.  A zero sum is dropped, but a product with a zero
    factor is stored: step tables hold no zero move and columns no zero
    entry, so only a table with a planted zero move meets it."""
    out = {}
    for u, val in col.items():
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


def table_columns(stay, move):
    """The numerator columns of a step table: column v holds stay[v] at
    v, unless it is 0, and the move at its target."""
    cols = []
    for v, (a, mv) in enumerate(zip(stay, move)):
        col = {v: a} if a else {}
        if mv is not None:
            col[mv[1]] = mv[0]
        cols.append(col)
    return cols


def _scaled(col, k):
    """A new column of col's numerators times k."""
    return dict(col) if k == 1 else {i: x * k for i, x in col.items()}


def _add_multiple(acc, col, k):
    """Add k times the column col into acc in place, dropping zero sums,
    so a zero k adds nothing: the one accumulate loop of ``Matrix.apply``
    and :func:`triangular_solve`, whose pivot row cancels here."""
    for i, v in col.items():
        w = acc.get(i)
        w = v * k if w is None else w + v * k
        if w:
            acc[i] = w
        else:
            acc.pop(i, None)


class Matrix:
    """Immutable-by-convention sparse matrix with exact entries: column j
    holds the numerators ``cols[j]`` over ``dens[j]``."""

    def __init__(self, nrows, ncols, field, cols=None, basis=None,
                 dens=None):
        self.nrows = nrows
        self.ncols = ncols
        self.field = field
        self.cols = [dict() for _ in range(ncols)] if cols is None else cols
        self.dens = [1] * ncols if dens is None else dens
        self.basis = basis  # optional list of Tableau, canonical order

    @classmethod
    def identity(cls, n, field, basis=None):
        one = field.split(field.one)[0]
        return cls(n, n, field, cols=[{i: one} for i in range(n)],
                   basis=basis)

    @classmethod
    def from_columns(cls, nrows, ncols, field, values, basis=None):
        """The matrix whose column j holds the field values values[j], a
        dict row -> scalar; zero values are dropped."""
        m = cls(nrows, ncols, field, basis=basis)
        for j, col in enumerate(values):
            col = {i: field.coerce(v) for i, v in col.items() if v}
            m.cols[j], m.dens[j] = split_over_lcm(field.split, col)
        return m

    @classmethod
    def from_rows(cls, rows, field, basis=None):
        ncols = len(rows[0]) if rows else 0
        if any(len(row) != ncols for row in rows):
            raise PreconditionError("ragged rows")
        return cls.from_columns(len(rows), ncols, field,
                                map(dict, map(enumerate, zip(*rows))), basis)

    def get(self, i, j):
        x = self.cols[j].get(i)
        return self.field.zero if x is None else \
            self.field.join(x, self.dens[j])

    def column(self, j):
        join, den = self.field.join, self.dens[j]
        return {i: join(x, den) for i, x in self.cols[j].items()}

    def column_stream(self):
        """The columns as a stream of (j, numerators, den)."""
        return zip(range(self.ncols), self.cols, self.dens)

    def nnz(self):
        return sum(len(c) for c in self.cols)

    def to_rows(self):
        rows = [[self.field.zero] * self.ncols for _ in range(self.nrows)]
        for j in range(self.ncols):
            for i, v in self.column(j).items():
                rows[i][j] = v
        return rows

    def apply(self, vec):
        """Matrix times sparse vector (dict row -> scalar).  A column
        over 1 multiplies as its numerators, so a matrix over 1 keeps an
        int vector int."""
        join = self.field.join
        out = {}
        for j, x in vec.items():
            den = self.dens[j]
            _add_multiple(out, self.cols[j], x if den == 1 else join(x, den))
        return out

    def coerce_field(self, field):
        """Re-embed entries into a larger field (rationals into q or
        cyclotomic scalars)."""
        return Matrix.from_columns(self.nrows, self.ncols, field,
                                   map(self.column, range(self.ncols)),
                                   basis=self.basis)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return ((self.nrows, self.ncols) == (other.nrows, other.ncols)
                and self.field == other.field and self.dens == other.dens
                and self.cols == other.cols)

    def is_upper_triangular(self):
        return all(max(col, default=j) <= j
                   for j, col in enumerate(self.cols))

    def _compat(self, other):
        if self.field != other.field:
            raise FieldMismatchError(
                f"matrix fields differ: {self.field.name} vs {other.field.name}")

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols}, {self.field.name}, nnz={self.nnz()})"


def integral_pair(m):
    """m as a pair (S, L) with m = S / L: L the lcm of m's column
    denominators and S the matrix L·m, every column over 1 (an int
    matrix on the rationals).  A column over L itself keeps its dict."""
    den = lcm(*m.dens)
    cols = [col if d == den else _scaled(col, den // d)
            for col, d in zip(m.cols, m.dens)]
    return Matrix(m.nrows, m.ncols, m.field, cols=cols), den


def matmul(a, b):
    """Exact sparse product.  a enters as its integral pair (S, L), so
    the products run on numerators: column j of the result is S applied
    to b's numerators of column j, reduced over L times their
    denominator."""
    a._compat(b)
    if a.ncols != b.nrows:
        raise PreconditionError("inner dimensions do not match")
    s, den = integral_pair(a)
    out = Matrix(a.nrows, b.ncols, a.field)
    for j, (col, d) in enumerate(zip(b.cols, b.dens)):
        out.cols[j], out.dens[j] = lowest_terms(s.apply(col), den * d)
    return out


def triangular_solve(a, b):
    """The X with a X = b for an upper-triangular a, by back substitution
    on b's columns: each is solved from its lowest nonzero row upward,
    keeping the unsolved part as numerators over one int denominator (as
    Bareiss's elimination does) and only each pivot as a field value."""
    a._compat(b)
    if a.nrows != a.ncols:
        raise PreconditionError("inverse of a nonsquare matrix")
    if a.ncols != b.nrows:
        raise PreconditionError("inner dimensions do not match")
    if not a.is_upper_triangular():
        raise PreconditionError("matrix is not upper-triangular")
    for j, col in enumerate(a.cols):
        if j not in col:
            raise PreconditionError(f"zero diagonal entry at {j}")
    split, join = a.field.split, a.field.join
    out = Matrix(a.nrows, b.ncols, a.field, basis=a.basis)
    for j, (rest, den) in enumerate(zip(b.cols, b.dens)):
        rest, x = dict(rest), {}
        for k in range(max(rest, default=-1), -1, -1):
            r = rest.get(k)
            if r is None:
                continue
            col, d = a.cols[k], a.dens[k]
            x[k] = xk = join(r if d == 1 else r * d, den) / col[k]
            # rest - col * xk over m, which cancels row k exactly;
            # products by 1 skipped
            p, dq = split(xk)
            dq *= d
            m = lcm(den, dq)
            rest = _scaled(rest, m // den)
            _add_multiple(rest, col, -p if m == dq else p * -(m // dq))
            rest, den = lowest_terms(rest, m)
        out.cols[j], out.dens[j] = split_over_lcm(split, x)
    return out


def triangular_inverse(a):
    """Inverse of an upper-triangular matrix: :func:`triangular_solve`
    against the identity."""
    return triangular_solve(a, Matrix.identity(a.nrows, a.field))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def cell_rows(field, nrows, ncols, columns, quoted=False):
    """The rows, one string each, of the matrix whose columns the stream
    columns gives as (j, numerators, den) for j = 0, 1, ...: ncols
    comma-separated cells, in brackets (a JSON array) and each cell in
    double quotes if quoted.  A cell is plain ASCII from
    ``[0-9qz^*/+()-]``, so quoted it is its own JSON string.  Zero cells
    share one string.  Cells are memoized per column denominator and
    keyed by their numerator, a scalar by its all-int ``_key``, so each
    distinct (numerator, denominator) pair is formatted once, by the
    field's ``split_str``.

    Every cell is made before this returns; the rows are then joined one
    at a time as the returned iterator is read.  A row is made at its
    first nonzero cell and holds the cells from that column on (on an
    upper-triangular matrix row i from column i), so cell (i, j) is at
    index j - ncols of row i; a row with no nonzero cell stays None."""
    fmt = field.split_str
    to_str = (lambda x, den: f'"{fmt(x, den)}"') if quoted else fmt
    zero = to_str(*field.split(field.zero))
    rows = [None] * nrows
    # a scalar's __hash__ and __eq__ are slow Python; its key is not
    key = None if field == RATIONALS else type(field.one)._key
    memos = {}
    for j, col, den in columns:
        memo = memos.get(den)
        if memo is None:
            memo = memos[den] = {}
        k = j - ncols
        for i, x in col.items():
            c = x if key is None else key(x)
            s = memo.get(c)
            if s is None:
                s = memo[c] = to_str(x, den)
            try:
                rows[i][k] = s
            except TypeError:  # the row's first nonzero cell
                rows[i] = row = [zero] * -k
                row[0] = s
    return _joined(rows, ncols, zero, quoted)


def _joined(rows, ncols, zero, quoted):
    """Each row of :func:`cell_rows` joined, its missing leading zeros a
    string repeat (a row never made is all zeros), and dropped."""
    head, tail = ("[", "]") if quoted else ("", "")
    empty = head + ",".join([zero] * ncols) + tail
    zero += ","
    for i, row in enumerate(rows):
        rows[i] = None
        yield empty if row is None else \
            head + zero * (ncols - len(row)) + ",".join(row) + tail


def compact_json(obj):
    """obj as one line of JSON with sorted keys and no spaces."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def json_chunks(obj):
    """The text of :func:`compact_json` of obj, less its newline, in pieces.
    A dict is written key by key and an iterator as an array, item by item
    as produced: a str item is JSON text, any other item is written by this
    function.  Anything else, a list too, is one ``json.dumps``."""
    if isinstance(obj, dict):
        for i, key in enumerate(sorted(obj)):
            yield ("," if i else "{") + json.dumps(key) + ":"
            yield from json_chunks(obj[key])
        yield "}" if obj else "{}"
    elif hasattr(obj, "__next__"):
        sep = "["
        for item in obj:
            yield sep
            yield from (item,) if isinstance(item, str) else json_chunks(item)
            sep = ","
        yield "]" if sep == "," else "[]"
    else:
        yield compact_json(obj)[:-1]


def csv_chunks(rows, nrows, ncols, basis=None):
    """A header line of basis words, then one line per row of the nrows
    rows of :func:`cell_rows`, each line a piece."""
    if basis is not None:
        words = [" ".join(str(x) for x in t.word) for t in basis]
    else:
        words = [str(j + 1) for j in range(ncols)]
    yield "," + ",".join(words) + "\n"
    labels = words if basis is not None and nrows == ncols \
        else [str(i + 1) for i in range(nrows)]
    for label, row in zip(labels, rows):
        yield label + "," + row + "\n"


def matrix_to_json(m, shape_str=None, params=None):
    """The compact JSON line of {shape, field, params, basis, rows}: the
    join of :func:`json_chunks`."""
    return "".join(json_chunks({
        "basis": [t.serialize() for t in m.basis] if m.basis else None,
        "field": m.field.name, "params": params or {},
        "rows": cell_rows(m.field, m.nrows, m.ncols, m.column_stream(),
                          True),
        "shape": shape_str})) + "\n"


def matrix_from_json(text, shape=None):
    """Re-parse an exported matrix; returns (Matrix, shape_str, params)."""
    obj = json.loads(text)
    field = field_by_name(obj["field"])
    rows = obj["rows"]
    parsed = [[field.parse(v) for v in row] for row in rows]
    basis = None
    if obj.get("basis") and shape is not None:
        from .shapes import Tableau
        basis = [Tableau(shape, rows_) for rows_ in obj["basis"]]
    m = Matrix.from_rows(parsed, field, basis=basis)
    return m, obj.get("shape"), obj.get("params", {})


def matrix_to_csv(m):
    """Header row of basis words, then one line per row of scalar
    strings: the join of :func:`csv_chunks`."""
    rows = cell_rows(m.field, m.nrows, m.ncols, m.column_stream())
    return "".join(csv_chunks(rows, m.nrows, m.ncols, m.basis))
