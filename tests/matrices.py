"""Matrix arithmetic for the tests: scalar multiples, sums and
differences on the column form of ``youngbasis.linalg.Matrix``, and the
identity and zero tests."""

from math import lcm

from youngbasis.errors import PreconditionError
from youngbasis.linalg import Matrix, _add_multiple, _scaled, lowest_terms


def scale(m, s):
    """Every entry of m times s."""
    k, den = m.field.split(m.field.coerce(s))
    out = Matrix(m.nrows, m.ncols, m.field, basis=m.basis)
    if k:
        for j, (col, d) in enumerate(zip(m.cols, m.dens)):
            out.cols[j], out.dens[j] = lowest_terms(_scaled(col, k), d * den)
    return out


def add(a, b):
    a._compat(b)
    if (a.nrows, a.ncols) != (b.nrows, b.ncols):
        raise PreconditionError("dimension mismatch in addition")
    out = Matrix(a.nrows, a.ncols, a.field, basis=a.basis)
    for j, (da, db) in enumerate(zip(a.dens, b.dens)):
        den = lcm(da, db)
        col = _scaled(a.cols[j], den // da)
        _add_multiple(col, b.cols[j], den // db)
        out.cols[j], out.dens[j] = lowest_terms(col, den)
    return out


def sub(a, b):
    return add(a, scale(b, -1))


def is_identity(m):
    return m.nrows == m.ncols and m == Matrix.identity(m.nrows, m.field)


def is_zero(m):
    return all(not col for col in m.cols)
