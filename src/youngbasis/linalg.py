"""Sparse exact matrices over a pluggable scalar field.

Storage is one dict per column mapping row index to a nonzero scalar;
generator matrices have at most two nonzeros per column and the column
recursion writes whole columns, so column-major is the natural layout.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import FieldMismatchError, PreconditionError
from .fields import QRat, field_by_name

__all__ = ["Matrix", "matmul", "triangular_inverse", "tensor_product",
           "direct_sum", "string_rows", "compact_json", "matrix_to_json",
           "matrix_from_json", "matrix_to_csv"]


class Matrix:
    """Immutable-by-convention sparse matrix with exact entries."""

    def __init__(self, nrows, ncols, field, cols=None, basis=None):
        self.nrows = nrows
        self.ncols = ncols
        self.field = field
        self.cols = [dict() for _ in range(ncols)] if cols is None else cols
        self.basis = basis  # optional list of Tableau, canonical order

    @classmethod
    def identity(cls, n, field, basis=None):
        m = cls(n, n, field, basis=basis)
        for i in range(n):
            m.cols[i][i] = field.one
        return m

    @classmethod
    def from_rows(cls, rows, field, basis=None):
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        m = cls(nrows, ncols, field, basis=basis)
        for i, row in enumerate(rows):
            if len(row) != ncols:
                raise PreconditionError("ragged rows")
            for j, v in enumerate(row):
                v = field.coerce(v)
                if v:
                    m.cols[j][i] = v
        return m

    @classmethod
    def diagonal(cls, values, field, basis=None):
        m = cls(len(values), len(values), field, basis=basis)
        for i, v in enumerate(values):
            v = field.coerce(v)
            if v:
                m.cols[i][i] = v
        return m

    def get(self, i, j):
        return self.cols[j].get(i, self.field.zero)

    def column(self, j):
        return dict(self.cols[j])

    def nnz(self):
        return sum(len(c) for c in self.cols)

    def to_rows(self):
        rows = [[self.field.zero] * self.ncols for _ in range(self.nrows)]
        for j, col in enumerate(self.cols):
            for i, v in col.items():
                rows[i][j] = v
        return rows

    def rows_dict(self):
        rows = [dict() for _ in range(self.nrows)]
        for j, col in enumerate(self.cols):
            for i, v in col.items():
                rows[i][j] = v
        return rows

    def apply(self, vec):
        """Matrix times sparse vector (dict row -> scalar)."""
        out = {}
        for j, x in vec.items():
            for i, v in self.cols[j].items():
                acc = out.get(i)
                acc = v * x if acc is None else acc + v * x
                if acc:
                    out[i] = acc
                else:
                    out.pop(i, None)
        return out

    def coerce_field(self, field):
        """Re-embed entries into a larger field (rationals into q or
        cyclotomic scalars)."""
        out = Matrix(self.nrows, self.ncols, field, basis=self.basis)
        for j, col in enumerate(self.cols):
            for i, v in col.items():
                out.cols[j][i] = field.coerce(v)
        return out

    def scale(self, s):
        """Every entry times s; an int s is applied as is, so int
        entries stay ints."""
        if not isinstance(s, int):
            s = self.field.coerce(s)
        out = Matrix(self.nrows, self.ncols, self.field, basis=self.basis)
        for j, col in enumerate(self.cols):
            for i, v in col.items():
                w = v * s
                if w:
                    out.cols[j][i] = w
        return out

    def __add__(self, other):
        self._compat(other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise PreconditionError("dimension mismatch in addition")
        out = Matrix(self.nrows, self.ncols, self.field, basis=self.basis)
        for j in range(self.ncols):
            col = dict(self.cols[j])
            for i, v in other.cols[j].items():
                w = col.get(i)
                w = v if w is None else w + v
                if w:
                    col[i] = w
                else:
                    col.pop(i, None)
            out.cols[j] = col
        return out

    def __sub__(self, other):
        return self + other.scale(-1)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            return False
        if self.field != other.field:
            return False
        for a, b in zip(self.cols, other.cols):
            if len(a) != len(b):
                return False
            for i, v in a.items():
                if i not in b:
                    return False
                w = b[i]
                # one scalar object is equal to itself
                if w is not v and not w == v:
                    return False
        return True

    def is_identity(self):
        if self.nrows != self.ncols:
            return False
        for j, col in enumerate(self.cols):
            if len(col) != 1 or j not in col or not col[j] == self.field.one:
                return False
        return True

    def is_zero(self):
        return all(not col for col in self.cols)

    def is_upper_triangular(self):
        return all(i <= j for j, col in enumerate(self.cols) for i in col)

    def _compat(self, other):
        if self.field != other.field:
            raise FieldMismatchError(
                f"matrix fields differ: {self.field.name} vs {other.field.name}")

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols}, {self.field.name}, nnz={self.nnz()})"


def matmul(a, b):
    """Exact sparse product."""
    a._compat(b)
    if a.ncols != b.nrows:
        raise PreconditionError("inner dimensions do not match")
    out = Matrix(a.nrows, b.ncols, a.field)
    for j in range(b.ncols):
        acc = {}
        for k, x in b.cols[j].items():
            for i, v in a.cols[k].items():
                w = v * x
                cur = acc.get(i)
                cur = w if cur is None else cur + w
                if cur:
                    acc[i] = cur
                else:
                    acc.pop(i, None)
        out.cols[j] = acc
    return out


def triangular_inverse(a):
    """Inverse of an upper-triangular matrix by back substitution."""
    if a.nrows != a.ncols:
        raise PreconditionError("inverse of a nonsquare matrix")
    if not a.is_upper_triangular():
        raise PreconditionError("matrix is not upper-triangular")
    n = a.nrows
    field = a.field
    diag = []
    for j in range(n):
        d = a.cols[j].get(j)
        if not d:
            raise PreconditionError(f"zero diagonal entry at {j}")
        diag.append(d)
    rows = a.rows_dict()
    inv = Matrix(n, n, field, basis=a.basis)
    one = field.one
    for j in range(n):
        # solve a x = e_j; x lives on rows 0..j
        x = {j: one / diag[j]}
        for i in range(j - 1, -1, -1):
            s = None
            for k, v in rows[i].items():
                if k > i and k in x:
                    term = v * x[k]
                    s = term if s is None else s + term
            if s is not None and s:
                x[i] = -s / diag[i]
        inv.cols[j] = {i: v for i, v in x.items() if v}
    return inv


def tensor_product(a, b):
    """Kronecker product with row-major index pairing: the left factor
    is the slowest-varying index."""
    a._compat(b)
    out = Matrix(a.nrows * b.nrows, a.ncols * b.ncols, a.field)
    for ja, cola in enumerate(a.cols):
        for jb, colb in enumerate(b.cols):
            col = {}
            for ia, va in cola.items():
                for ib, vb in colb.items():
                    col[ia * b.nrows + ib] = va * vb
            out.cols[ja * b.ncols + jb] = col
    return out


def direct_sum(blocks):
    """Block-diagonal assembly of same-field matrices."""
    if not blocks:
        raise PreconditionError("direct sum of nothing")
    field = blocks[0].field
    for m in blocks[1:]:
        blocks[0]._compat(m)
    nrows = sum(m.nrows for m in blocks)
    ncols = sum(m.ncols for m in blocks)
    out = Matrix(nrows, ncols, field)
    roff = coff = 0
    for m in blocks:
        for j, col in enumerate(m.cols):
            out.cols[coff + j] = {roff + i: v for i, v in col.items()}
        roff += m.nrows
        coff += m.ncols
    return out


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def string_rows(m, encode=None):
    """Rows of scalar strings, each passed through encode if given.
    Zero cells share one string; each distinct nonzero value is
    formatted and encoded once."""
    fmt = m.field.to_str
    to_str = fmt if encode is None else lambda v: encode(fmt(v))
    zero = to_str(m.field.zero)
    rows = [[zero] * m.ncols for _ in range(m.nrows)]
    # The routes share one object per distinct value, so a cell is found
    # by id first; m keeps every cell alive, so no id is reused here.
    by_id, by_value = {}, {}
    for j, col in enumerate(m.cols):
        for i, v in col.items():
            s = by_id.get(id(v))
            if s is None:
                # Fraction.__hash__ and QRat.__eq__ are slow Python; the
                # integers they compare are not
                if isinstance(v, Fraction):
                    key = (v.numerator, v.denominator)
                elif isinstance(v, QRat):
                    key = v._key()
                else:
                    key = v
                s = by_value.get(key)
                if s is None:
                    s = by_value[key] = to_str(v)
                by_id[id(v)] = s
            rows[i][j] = s
    return rows


def compact_json(obj):
    """obj as one line of JSON with sorted keys and no spaces."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def matrix_to_json(m, shape_str=None, params=None):
    """The compact JSON line of {shape, field, params, basis, rows}.
    Written in pieces in sorted key order, which puts rows between
    params and shape: the cells come JSON-encoded from string_rows, and
    each row is joined once and its list of cells dropped."""
    head = compact_json({
        "basis": [t.serialize() for t in m.basis] if m.basis else None,
        "field": m.field.name,
        "params": params or {},
    })
    rows = string_rows(m, json.dumps)
    parts = [head[:-2], ',"rows":[']
    for i, row in enumerate(rows):
        rows[i] = None
        parts.append((",[" if i else "[") + ",".join(row) + "]")
    parts += ['],"shape":', json.dumps(shape_str), "}\n"]
    return "".join(parts)


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
    m = Matrix.from_rows(parsed, field, basis=basis) if parsed else \
        Matrix(0, 0, field)
    return m, obj.get("shape"), obj.get("params", {})


def matrix_to_csv(m):
    """Header row of basis words, then one line per row of scalar strings."""
    if m.basis is not None:
        words = [" ".join(str(x) for x in t.word) for t in m.basis]
    else:
        words = [str(j + 1) for j in range(m.ncols)]
    lines = ["," + ",".join(words)]
    row_labels = words if m.basis is not None and m.nrows == m.ncols \
        else [str(i + 1) for i in range(m.nrows)]
    for label, row in zip(row_labels, string_rows(m)):
        lines.append(label + "," + ",".join(row))
    return "\n".join(lines) + "\n"
