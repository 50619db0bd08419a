"""Algebra families, their seminormal generator matrices, and relation
verification.

Supported families:

* ``symmetric``      -- the group algebra of S_n on a skew shape,
* ``hecke_A``        -- Iwahori-Hecke of type A (r = 1, u = (1,)),
* ``hecke_B``        -- type B (r = 2, u_1 = u_2^{-1}),
* ``ariki_koike``    -- cyclotomic Hecke with parameters u_1..u_r and q,
* ``wreath_grn``     -- the wreath product Z_r wr S_n (q = 1, u_i = xi^{i-1}),
* ``affine_placed``  -- affine type A on placed shapes; the page weights
  of the shape supply the content weights and the X generators are
  exposed as diagonal matrices.

For q-families q is either symbolic (``q=None``) or an exact rational.
"""

from __future__ import annotations

from fractions import Fraction

from .bruhat import BruhatGraph
from .errors import NonSemisimpleError, PreconditionError
from .fields import (QFIELD, RATIONALS, CyclotomicField, QRat,
                     check_semisimple)
from .linalg import Matrix, matmul
from .weights import plain_axial_weight, q_axial_weight, weighted_content

__all__ = ["AlgebraSpec", "FAMILIES", "seminormal_generator",
           "zeroth_generator", "x_generator", "natural_generator",
           "verify_relations", "WeightScheme"]

FAMILIES = ("symmetric", "hecke_A", "hecke_B", "ariki_koike",
            "wreath_grn", "affine_placed")

_Q_FAMILIES = ("hecke_A", "hecke_B", "ariki_koike", "affine_placed")


class AlgebraSpec:
    """Validated family + parameters for a module of size n."""

    def __init__(self, family, n, r=1, q=None, u=None, check=True):
        if family not in FAMILIES:
            raise PreconditionError(f"unknown family {family!r}")
        self.family = family
        self.n = n
        self.r = r
        self.q = None if q in (None, "sym") else Fraction(q)
        if self.q == 0:
            raise PreconditionError("q must be nonzero")
        if family == "symmetric":
            if r != 1:
                raise PreconditionError("symmetric modules use a single component")
            u = (Fraction(1),)
        elif family == "hecke_A":
            if r != 1:
                raise PreconditionError("type A has r = 1")
            u = (Fraction(1),)
        elif family == "hecke_B":
            if r != 2:
                raise PreconditionError("type B has r = 2")
            if u is None or len(u) != 2:
                raise PreconditionError("type B needs u = (u1, u2)")
            if Fraction(u[0]) * Fraction(u[1]) != 1:
                raise PreconditionError("type B requires u1 = u2^{-1}")
        elif family == "ariki_koike":
            if u is None or len(u) != r:
                raise PreconditionError("ariki_koike needs r parameters u")
        elif family == "wreath_grn":
            if self.q is not None and self.q != 1:
                raise PreconditionError("the wreath product fixes q = 1")
            self.q = Fraction(1)
            u = tuple(range(r))  # exponents of xi, kept implicit
        else:  # affine_placed
            u = ()
        self.u = tuple(Fraction(x) if not isinstance(x, QRat) else x
                       for x in u) if family != "wreath_grn" else tuple(u)
        if check and family in ("hecke_A", "hecke_B", "ariki_koike"):
            qq = QFIELD.q if self.q is None else self.q
            if not check_semisimple(list(self.u), qq, n):
                raise NonSemisimpleError(
                    f"parameters u={self.u} q={self.q} are not semisimple for n={n}")

    @property
    def symbolic_q(self):
        return self.family in _Q_FAMILIES and self.q is None

    def coefficient_field(self):
        """Field of the transition matrix and the T_i generators."""
        if self.family in ("symmetric", "wreath_grn"):
            return RATIONALS
        return QFIELD if self.q is None else RATIONALS

    def page_weights(self, shape):
        if self.family == "affine_placed":
            if not all(shape.weights):
                raise PreconditionError("page weights must be nonzero")
            return shape.weights
        if self.family in ("hecke_B", "ariki_koike"):
            if shape.r != len(self.u):
                raise PreconditionError(
                    f"shape has {shape.r} components, {len(self.u)} parameters given")
            return self.u
        return (Fraction(1),) * shape.r

    def validate_shape(self, shape):
        if self.family in ("symmetric", "hecke_A") and shape.r != 1:
            raise PreconditionError(f"{self.family} expects a single component")
        if self.family in ("wreath_grn", "hecke_B", "ariki_koike") \
                and not shape.is_r_partition():
            raise PreconditionError(f"{self.family} expects an r-partition")
        if self.family in ("hecke_B", "ariki_koike", "wreath_grn") \
                and shape.r != self.r:
            raise PreconditionError(
                f"shape has {shape.r} components but r = {self.r}")
        if shape.n != self.n:
            raise PreconditionError(f"shape has {shape.n} boxes but n = {self.n}")

    def __repr__(self):
        return (f"AlgebraSpec({self.family!r}, n={self.n}, r={self.r}, "
                f"q={'sym' if self.q is None else self.q}, u={self.u})")


class WeightScheme:
    """Seminormal coefficients for one (spec, shape) pair.

    ``stay(t, i)`` is the diagonal coefficient of the i-th generator on
    v_t and ``move(t, i)`` the coefficient on v_{s_i(t)}; ``diag_factor``
    and ``orth_factor_squared`` are the per-inversion factors of the
    transition diagonal and of the squared orthogonal diagonal.
    """

    def __init__(self, spec, shape):
        spec.validate_shape(shape)
        self.spec = spec
        self.shape = shape
        self.field = spec.coefficient_field()
        self.weights = spec.page_weights(shape)
        fam = spec.family
        if fam in ("symmetric", "wreath_grn"):
            self._one = Fraction(1)
            self._qinv = Fraction(1)
        elif spec.q is None:
            self._one = QFIELD.one
            self._qinv = QFIELD.q_inv
        else:
            self._one = Fraction(1)
            self._qinv = 1 / spec.q
        # the coefficient of a pair depends only on the two components
        # and the content difference, so cache by that key
        self._pair_cache = {}
        self._orth_cache = {}

    def _plainlike(self, t, i, j):
        """Rational-limit coefficient, with the wreath cross-component
        convention a = 0."""
        if t.component_of(i) != t.component_of(j):
            return Fraction(0)
        return plain_axial_weight(t, i, j)

    def pair(self, t, i, j):
        """The (i, j) axial coefficient in the active field."""
        key = (t.component_of(i), t.component_of(j),
               t.content(i) - t.content(j))
        cached = self._pair_cache.get(key)
        if cached is not None:
            return cached
        fam = self.spec.family
        if fam in ("symmetric", "wreath_grn"):
            val = self._plainlike(t, i, j)
        else:
            val = q_axial_weight(t, i, j, self.weights, self.spec.q)
        self._pair_cache[key] = val
        return val

    def stay(self, t, i):
        return self.pair(t, i, i + 1)

    def move(self, t, i):
        return self._qinv + self.stay(t, i)

    def diag_factor(self, t, i, j):
        return self._qinv + self.pair(t, i, j)

    def orth_factor_squared(self, t, i, j):
        key = (t.component_of(i), t.component_of(j),
               t.content(i) - t.content(j))
        cached = self._orth_cache.get(key)
        if cached is not None:
            return cached
        a = self.pair(t, i, j)
        num = self._qinv + a
        den = self._qinv * self._qinv - a * a
        if not den:
            from .errors import DegenerateWeightError
            raise DegenerateWeightError(
                f"vanishing orthogonal radicand for pair ({i},{j})")
        val = num * num / den
        self._orth_cache[key] = val
        return val


def _graph_for(spec, shape, graph):
    if graph is None:
        graph = BruhatGraph(shape)
    return graph


def seminormal_generator(spec, shape, i, graph=None):
    """Matrix of the i-th generator on the seminormal basis in canonical
    order: diagonal entry a_i, off-diagonal 1+a_i (or the q-analogues),
    off-diagonal dropped when the swap is nonstandard."""
    if not 1 <= i <= spec.n - 1:
        raise PreconditionError(f"generator index {i} out of range")
    graph = _graph_for(spec, shape, graph)
    ws = WeightScheme(spec, shape)
    m = Matrix(graph.size(), graph.size(), ws.field, basis=graph.nodes)
    for col, t in enumerate(graph.nodes):
        a = ws.field.coerce(ws.stay(t, i))
        if a:
            m.cols[col][col] = a
        target = graph.neighbors[col].get(i)
        if target is not None:
            m.cols[col][target] = ws.field.coerce(ws.move(t, i))
    return m


def zeroth_generator(spec, shape, graph=None):
    """Diagonal matrix of T_0 (or s_0): eigenvalue u_k (or xi^{k-1}) on
    v_T when the entry 1 sits in component k."""
    graph = _graph_for(spec, shape, graph)
    fam = spec.family
    if fam in ("symmetric", "hecke_A"):
        raise PreconditionError(f"{fam} has no zeroth generator")
    if spec.n == 0:
        raise PreconditionError("no zeroth generator without boxes")
    if fam == "affine_placed":
        return x_generator(spec, shape, 1, graph=graph)
    spec.validate_shape(shape)
    if fam == "wreath_grn":
        field = CyclotomicField(spec.r)
        vals = [pow_cyclo(field, t.component_of(1) - 1) for t in graph.nodes]
        return Matrix.diagonal(vals, field, basis=graph.nodes)
    field = spec.coefficient_field()
    vals = [spec.u[t.component_of(1) - 1] for t in graph.nodes]
    return Matrix.diagonal(vals, field, basis=graph.nodes)


def pow_cyclo(field, k):
    out = field.one
    for _ in range(k % field.r):
        out = out * field.xi
    return out


def x_generator(spec, shape, i, graph=None):
    """Diagonal matrix of X^{eps_i}: eigenvalue q^{2 c(T(i))}."""
    if spec.family not in ("affine_placed", "ariki_koike", "hecke_B", "hecke_A"):
        raise PreconditionError(f"{spec.family} has no X generators")
    if not 1 <= i <= spec.n:
        raise PreconditionError(f"X index {i} out of range")
    graph = _graph_for(spec, shape, graph)
    ws = WeightScheme(spec, shape)
    vals = [weighted_content(t, i, ws.weights, spec.q) for t in graph.nodes]
    return Matrix.diagonal(vals, ws.field, basis=graph.nodes)


def conjugate_to_natural(matrix, transition):
    """A^{-1} M A for a seminormal-basis matrix M."""
    from .linalg import triangular_inverse
    amat = transition.matrix
    if matrix.field != amat.field:
        amat = amat.coerce_field(matrix.field)
    out = matmul(matmul(triangular_inverse(amat), matrix), amat)
    out.basis = matrix.basis
    return out


def natural_generator(spec, shape, i, graph=None, transition=None):
    """Generator matrix on the natural basis, by conjugating the
    seminormal matrix with the transition matrix."""
    from .transition import transition_recursive
    graph = _graph_for(spec, shape, graph)
    if transition is None:
        transition = transition_recursive(spec, shape, graph=graph)
    g = seminormal_generator(spec, shape, i, graph=graph) if i >= 1 \
        else zeroth_generator(spec, shape, graph=graph)
    return conjugate_to_natural(g, transition)


# ---------------------------------------------------------------------------
# defining relations
# ---------------------------------------------------------------------------

def _entry_witness(m):
    for j, col in enumerate(m.cols):
        for i, v in sorted(col.items()):
            return {"row": i, "col": j, "value": m.field.to_str(v)}
    return None


def _record(report, name, diff):
    ok = diff.is_zero()
    item = {"relation": name, "status": "pass" if ok else "fail"}
    if not ok:
        item["witness"] = _entry_witness(diff)
    report.append(item)
    return ok


def verify_relations(spec, shape, graph=None):
    """Check every defining relation of the family as an exact matrix
    identity; returns a list of {relation, status[, witness]} dicts."""
    graph = _graph_for(spec, shape, graph)
    n = spec.n
    fam = spec.family
    report = []
    gens = {i: seminormal_generator(spec, shape, i, graph=graph)
            for i in range(1, n)}
    field = spec.coefficient_field()
    ident = Matrix.identity(graph.size(), field)

    q_quadratic = fam in _Q_FAMILIES
    if q_quadratic:
        if spec.q is None:
            coeff = QFIELD.q - QFIELD.q_inv
        else:
            coeff = spec.q - 1 / spec.q

    for i in range(1, n):
        for j in range(i + 2, n):
            _record(report, f"commute s{i} s{j}",
                    matmul(gens[i], gens[j]) - matmul(gens[j], gens[i]))
    for i in range(1, n - 1):
        lhs = matmul(matmul(gens[i], gens[i + 1]), gens[i])
        rhs = matmul(matmul(gens[i + 1], gens[i]), gens[i + 1])
        _record(report, f"braid s{i} s{i+1}", lhs - rhs)
    for i in range(1, n):
        sq = matmul(gens[i], gens[i])
        if q_quadratic:
            _record(report, f"quadratic T{i}",
                    sq - gens[i].scale(coeff) - ident)
        else:
            _record(report, f"involution s{i}", sq - ident)

    if fam in ("hecke_B", "ariki_koike", "wreath_grn") and n >= 1:
        t0 = zeroth_generator(spec, shape, graph=graph)
        g1 = gens[1] if n >= 2 else None
        if t0.field != field:
            # wreath: lift the rational s_i into the cyclotomic field
            lift = {i: g.coerce_field(t0.field) for i, g in gens.items()}
            ident0 = Matrix.identity(graph.size(), t0.field)
        else:
            lift = gens
            ident0 = ident
        if n >= 2:
            g1 = lift[1]
            lhs = matmul(matmul(matmul(t0, g1), t0), g1)
            rhs = matmul(matmul(matmul(g1, t0), g1), t0)
            _record(report, "braid T0 T1 T0 T1", lhs - rhs)
        for i in range(2, n):
            _record(report, f"commute T0 s{i}",
                    matmul(t0, lift[i]) - matmul(lift[i], t0))
        if fam == "wreath_grn":
            acc = ident0
            for _ in range(spec.r):
                acc = matmul(acc, t0)
            _record(report, f"order s0^{spec.r} = 1", acc - ident0)
        else:
            acc = ident0
            for uk in spec.u:
                acc = matmul(acc, t0 - ident0.scale(uk))
            _record(report, "cyclotomic prod (T0 - u_k) = 0", acc)

    if fam == "affine_placed":
        xs = {i: x_generator(spec, shape, i, graph=graph)
              for i in range(1, n + 1)}
        for i in range(1, n):
            for j in range(1, n + 1):
                if abs(i - j) > 1:
                    _record(report, f"commute T{i} X{j}",
                            matmul(gens[i], xs[j]) - matmul(xs[j], gens[i]))
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                _record(report, f"commute X{i} X{j}",
                        matmul(xs[i], xs[j]) - matmul(xs[j], xs[i]))
        if n >= 2:
            lhs = matmul(matmul(matmul(xs[1], gens[1]), xs[1]), gens[1])
            rhs = matmul(matmul(matmul(gens[1], xs[1]), gens[1]), xs[1])
            _record(report, "mixed braid X1 T1 X1 T1", lhs - rhs)
        for i in range(1, n):
            _record(report, f"X{i+1} = T{i} X{i} T{i}",
                    xs[i + 1] - matmul(matmul(gens[i], xs[i]), gens[i]))

    return report
