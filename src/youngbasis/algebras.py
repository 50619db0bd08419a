"""Algebra families, their seminormal generator matrices, and relation
verification.

Every family is one preset of the same seminormal data (A. Ram,
"Seminormal representations of Weyl groups and Iwahori-Hecke algebras",
Proc. LMS 1997): a coefficient q, page weights u_k per component, and
the coefficient of :func:`weights.q_axial_weight`.  Supported families:

* ``symmetric``      -- the group algebra of S_n on a skew shape:
  ``hecke_A`` at q = 1,
* ``hecke_A``        -- Iwahori-Hecke of type A (r = 1, u = (1,)),
* ``hecke_B``        -- type B (r = 2, u_1 = u_2^{-1}),
* ``ariki_koike``    -- cyclotomic Hecke with parameters u_1..u_r and q,
* ``wreath_grn``     -- the wreath product Z_r wr S_n: its s_i are those
  of ``ariki_koike`` at q = 1 with distinct page weights, and s_0 acts
  by xi^{k-1},
* ``affine_placed``  -- affine type A on placed shapes; the page weights
  of the shape supply the content weights and the X generators are
  exposed as diagonal matrices.

An :class:`AlgebraSpec` holds a family and its parameters; the shape
supplies n and r.  A :class:`WeightScheme` is one module: a spec, a
shape and the weak Bruhat graph of that shape.  It turns q and the page
weights into scalars of one coefficient field (rational, or rational
functions of a symbolic q), so every coefficient below is plain field
arithmetic.  Every generator and relation check here, and every route
in :mod:`transition`, takes the scheme alone.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .bruhat import BruhatGraph
from .errors import (DegenerateWeightError, NonSemisimpleError,
                     PreconditionError)
from .fields import (QFIELD, Cyclo, CyclotomicField, QRat, check_semisimple,
                     evaluate_q, field_of)
from .linalg import Matrix, matmul
from .weights import q_axial_weight, weighted_content

__all__ = ["AlgebraSpec", "FAMILIES", "PRESETS", "Preset",
           "seminormal_generator", "zeroth_generator", "x_generator",
           "natural_generator", "verify_relations", "WeightScheme"]


class Preset(NamedTuple):
    """How a family fixes its parameters and names its generators.

    ``u``: "unit" for u = (1,); "given" for one u_k per component
    ("inverse": exactly two, with u_1 u_2 = 1); "distinct" for the
    stand-ins 1, ..., r; None for no u.
    ``q``: "free"; "one" for coefficients at q = 1 with the given q only
    echoed; "pinned" for q = 1, rejecting any other q.
    ``pages``: page weights from "u" or from the placed "shape".
    ``zeroth``: T_0 as None, "u" (diag u_k), "xi" (diag xi^{k-1}) or
    "x1" (X_1), k the component holding the entry 1.
    ``prefix``: generator names s_i or T_i.
    """
    u: str | None
    q: str
    pages: str
    zeroth: str | None
    prefix: str


PRESETS = {
    "symmetric": Preset("unit", "one", "u", None, "s"),
    "hecke_A": Preset("unit", "free", "u", None, "T"),
    "hecke_B": Preset("inverse", "free", "u", "u", "T"),
    "ariki_koike": Preset("given", "free", "u", "u", "T"),
    "wreath_grn": Preset("distinct", "pinned", "u", "xi", "s"),
    "affine_placed": Preset(None, "free", "shape", "x1", "T"),
}

FAMILIES = tuple(PRESETS)


class AlgebraSpec:
    """Validated family + parameters; the shape a scheme is built on
    supplies n and r.

    ``q`` is the parameter as given (echoed in output; None for a
    symbolic q); ``coefficient_q`` is the q the coefficients use, a
    field scalar: ``QFIELD.q`` when symbolic, 1 where the family fixes
    it.
    """

    def __init__(self, family, q=None, u=None):
        preset = self.preset = PRESETS.get(family)
        if preset is None:
            raise PreconditionError(f"unknown family {family!r}")
        self.family = family
        self.q = None if q is None else Fraction(q)
        if self.q == 0:
            raise PreconditionError("q must be nonzero")
        if preset.q == "pinned":
            if self.q not in (None, 1):
                raise PreconditionError(f"{family} fixes q = 1")
            self.q = Fraction(1)
        if preset.q != "free":
            self.coefficient_q = Fraction(1)
        else:
            self.coefficient_q = QFIELD.q if self.q is None else self.q
        if preset.u == "unit":
            u = (1,)
        elif preset.u in ("distinct", None):
            u = ()
        elif u is None:
            raise PreconditionError(f"{family} needs parameters u")
        self.u = tuple(x if isinstance(x, QRat) else Fraction(x) for x in u)
        if preset.u == "inverse" and (len(self.u) != 2
                                      or self.u[0] * self.u[1] != 1):
            raise PreconditionError(
                f"{family} requires two u with u1 = u2^{{-1}}")

    def page_weights(self, shape):
        if self.preset.pages == "shape":
            return shape.weights
        if self.preset.u == "distinct":
            return tuple(range(1, shape.r + 1))
        return self.u

    def validate_shape(self, shape):
        if self.preset.pages == "shape":
            if not all(shape.weights):
                raise PreconditionError("page weights must be nonzero")
        elif self.preset.u != "distinct" and shape.r != len(self.u):
            raise PreconditionError(
                f"shape has {shape.r} components but {self.family} "
                f"has r = {len(self.u)}")
        # T_0 = u_k (or xi^{k-1}) needs the entry 1 at content 0
        if self.preset.zeroth in ("u", "xi") and not shape.is_r_partition():
            raise PreconditionError(f"{self.family} expects an r-partition")
        # at q = 1 with fixed, distinct u the check cannot fail
        if self.preset.q == "free" and not check_semisimple(
                list(self.u), self.coefficient_q, shape.n):
            raise NonSemisimpleError(f"parameters u={self.u} q={self.q} "
                                     f"are not semisimple for n={shape.n}")

    def __repr__(self):
        return (f"AlgebraSpec({self.family!r}, "
                f"q={'sym' if self.q is None else self.q}, u={self.u})")


class WeightScheme:
    """Seminormal coefficients of one spec on the standard tableaux of
    one shape: the one object a request passes around.

    ``graph`` is the weak Bruhat graph of ``shape``, built here unless
    one is given; a given graph of another shape is rejected.
    ``stay(t, i)`` is the diagonal coefficient of the i-th generator on
    v_t and ``move(t, i)`` the coefficient on v_{s_i(t)}; ``diag_factor``
    and ``orth_factor_squared`` are the per-inversion factors of the
    transition diagonal and of the squared orthogonal diagonal.

    One scheme serves every computation of a request: it caches
    coefficients by pair, and generator data and matrices by label.
    """

    def __init__(self, spec, shape, graph=None):
        spec.validate_shape(shape)
        if graph is None:
            graph = BruhatGraph(shape)
        elif graph.shape != shape:
            raise PreconditionError(
                f"graph of shape {graph.shape.to_str()} given for shape "
                f"{shape.to_str()}")
        self.spec = spec
        self.shape = shape
        self.graph = graph
        # q and the page weights become scalars of one field, once: a
        # symbolic page weight takes its value at a rational q
        q = self.q = spec.coefficient_q
        field = self.field = field_of(q)
        self.weights = tuple(
            field.coerce(w) if field is QFIELD else evaluate_q(w, q)
            for w in spec.page_weights(shape))
        self._qinv = 1 / q
        # the coefficient of a pair depends only on the two components
        # and the content difference, so cache by that key
        self._pair_cache = {}
        self._orth_cache = {}
        self._steps = {}
        self._generators = {}

    def pair(self, t, i, j):
        """The (i, j) axial coefficient in the active field."""
        key = (t.component_of(i), t.component_of(j),
               t.content(i) - t.content(j))
        cached = self._pair_cache.get(key)
        if cached is not None:
            return cached
        val = q_axial_weight(t, i, j, self.weights, self.q)
        self._pair_cache[key] = val
        return val

    def stay(self, t, i):
        return self.pair(t, i, i + 1)

    def move(self, t, i):
        return self._qinv + self.stay(t, i)

    def steps(self, label):
        """Per-node stay coefficients and (move coefficient, target) or
        None for one generator label: what one two-term update needs."""
        cached = self._steps.get(label)
        if cached is None:
            stay = []
            move = []
            graph = self.graph
            for t, nbrs in zip(graph.nodes, graph.neighbors):
                stay.append(self.stay(t, label))
                target = nbrs.get(label)
                move.append(None if target is None
                            else (self.move(t, label), target))
            cached = self._steps[label] = (stay, move)
        return cached

    def generator(self, label):
        """The seminormal matrix of one generator label (shared: callers
        must not modify it)."""
        m = self._generators.get(label)
        if m is None:
            coerce = self.field.coerce
            stay, move = self.steps(label)
            size = self.graph.size()
            m = Matrix(size, size, self.field, basis=self.graph.nodes)
            for col, (a, mv) in enumerate(zip(stay, move)):
                a = coerce(a)
                if a:
                    m.cols[col][col] = a
                if mv is not None:
                    m.cols[col][mv[1]] = coerce(mv[0])
            self._generators[label] = m
        return m

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
            raise DegenerateWeightError(
                f"vanishing orthogonal radicand for pair ({i},{j})")
        val = num * num / den
        self._orth_cache[key] = val
        return val


def seminormal_generator(ws, i):
    """Matrix of the i-th generator on the seminormal basis in canonical
    order: diagonal entry a_i, off-diagonal 1+a_i (or the q-analogues),
    off-diagonal dropped when the swap is nonstandard.  Built once per
    scheme; callers must not modify it."""
    if not 1 <= i <= ws.shape.n - 1:
        raise PreconditionError(f"generator index {i} out of range")
    return ws.generator(i)


def zeroth_generator(ws):
    """Diagonal matrix of T_0 (or s_0): eigenvalue u_k (or xi^{k-1}) on
    v_T when the entry 1 sits in component k, or X_1 on placed shapes."""
    spec, shape, nodes = ws.spec, ws.shape, ws.graph.nodes
    kind = spec.preset.zeroth
    if kind is None:
        raise PreconditionError(f"{spec.family} has no zeroth generator")
    if shape.n == 0:
        raise PreconditionError("no zeroth generator without boxes")
    if kind == "x1":
        return x_generator(ws, 1)
    if kind == "xi":
        vals = [Cyclo.xi_power(shape.r, t.component_of(1) - 1) for t in nodes]
        return Matrix.diagonal(vals, CyclotomicField(shape.r), basis=nodes)
    vals = [ws.weights[t.component_of(1) - 1] for t in nodes]
    return Matrix.diagonal(vals, ws.field, basis=nodes)


def x_generator(ws, i):
    """Diagonal matrix of X^{eps_i}: eigenvalue q^{2 c(T(i))}."""
    spec, nodes = ws.spec, ws.graph.nodes
    # symmetric and wreath_grn fix q = 1 and carry no X generators
    if spec.preset.q != "free":
        raise PreconditionError(f"{spec.family} has no X generators")
    if not 1 <= i <= ws.shape.n:
        raise PreconditionError(f"X index {i} out of range")
    vals = [weighted_content(t, i, ws.weights, ws.q) for t in nodes]
    return Matrix.diagonal(vals, ws.field, basis=nodes)


def conjugate_to_natural(matrices, transition):
    """A^{-1} M A for each seminormal-basis matrix M, inverting A once;
    a matrix over a larger field (s_0 of a wreath product) gets A and
    A^{-1} coerced into that field."""
    from .linalg import triangular_inverse
    amat = transition.matrix
    inv = triangular_inverse(amat)
    out = []
    for m in matrices:
        a, a_inv = amat, inv
        if m.field != a.field:
            a, a_inv = a.coerce_field(m.field), a_inv.coerce_field(m.field)
        n = matmul(matmul(a_inv, m), a)
        n.basis = m.basis
        out.append(n)
    return out


def natural_generator(ws, i, transition=None):
    """Generator matrix on the natural basis, by conjugating the
    seminormal matrix with the transition matrix."""
    from .transition import transition_recursive
    if transition is None:
        transition = transition_recursive(ws)
    g = seminormal_generator(ws, i) if i >= 1 else zeroth_generator(ws)
    return conjugate_to_natural([g], transition)[0]


# ---------------------------------------------------------------------------
# defining relations
# ---------------------------------------------------------------------------

def _entry_witness(m):
    for j, col in enumerate(m.cols):
        for i, v in sorted(col.items()):
            return {"row": i, "col": j, "value": m.field.to_str(v)}
    return None


def _record(report, name, lhs, rhs=None):
    """Check lhs == rhs (rhs None: lhs == 0); a failure carries the first
    nonzero entry of lhs - rhs as its witness."""
    ok = lhs.is_zero() if rhs is None else lhs == rhs
    item = {"relation": name, "status": "pass" if ok else "fail"}
    if not ok:
        item["witness"] = _entry_witness(lhs if rhs is None else lhs - rhs)
    report.append(item)
    return ok


def verify_relations(ws):
    """Check every defining relation of the family as an exact matrix
    identity; returns a list of {relation, status[, witness]} dicts."""
    size, n, r = ws.graph.size(), ws.shape.n, ws.shape.r
    preset = ws.spec.preset
    report = []
    gens = {i: seminormal_generator(ws, i) for i in range(1, n)}
    field = ws.field
    ident = Matrix.identity(size, field)
    # T_i^2 = (q - q^-1) T_i + 1, an involution at q = 1
    coeff = ws.q - 1 / ws.q

    for i in range(1, n):
        for j in range(i + 2, n):
            _record(report, f"commute s{i} s{j}",
                    matmul(gens[i], gens[j]), matmul(gens[j], gens[i]))
    for i in range(1, n - 1):
        lhs = matmul(matmul(gens[i], gens[i + 1]), gens[i])
        rhs = matmul(matmul(gens[i + 1], gens[i]), gens[i + 1])
        _record(report, f"braid s{i} s{i+1}", lhs, rhs)
    for i in range(1, n):
        rhs = ident + gens[i].scale(coeff) if coeff else ident
        name = "quadratic T" if preset.prefix == "T" else "involution s"
        _record(report, f"{name}{i}", matmul(gens[i], gens[i]), rhs)

    if preset.zeroth in ("u", "xi") and n >= 1:
        t0 = zeroth_generator(ws)
        if t0.field != field:
            # wreath: lift the rational s_i into the cyclotomic field
            lift = {i: g.coerce_field(t0.field) for i, g in gens.items()}
            ident0 = Matrix.identity(size, t0.field)
        else:
            lift = gens
            ident0 = ident
        if n >= 2:
            g1 = lift[1]
            lhs = matmul(matmul(matmul(t0, g1), t0), g1)
            rhs = matmul(matmul(matmul(g1, t0), g1), t0)
            _record(report, "braid T0 T1 T0 T1", lhs, rhs)
        for i in range(2, n):
            _record(report, f"commute T0 s{i}",
                    matmul(t0, lift[i]), matmul(lift[i], t0))
        if preset.zeroth == "xi":
            acc = ident0
            for _ in range(r):
                acc = matmul(acc, t0)
            _record(report, f"order s0^{r} = 1", acc, ident0)
        else:
            acc = ident0
            for uk in ws.weights:
                acc = matmul(acc, t0 - ident0.scale(uk))
            _record(report, "cyclotomic prod (T0 - u_k) = 0", acc)

    if preset.zeroth == "x1":
        xs = {i: x_generator(ws, i) for i in range(1, n + 1)}
        for i in range(1, n):
            for j in range(1, n + 1):
                if abs(i - j) > 1:
                    _record(report, f"commute T{i} X{j}",
                            matmul(gens[i], xs[j]), matmul(xs[j], gens[i]))
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                _record(report, f"commute X{i} X{j}",
                        matmul(xs[i], xs[j]), matmul(xs[j], xs[i]))
        if n >= 2:
            lhs = matmul(matmul(matmul(xs[1], gens[1]), xs[1]), gens[1])
            rhs = matmul(matmul(matmul(gens[1], xs[1]), gens[1]), xs[1])
            _record(report, "mixed braid X1 T1 X1 T1", lhs, rhs)
        for i in range(1, n):
            _record(report, f"X{i+1} = T{i} X{i} T{i}",
                    xs[i + 1], matmul(matmul(gens[i], xs[i]), gens[i]))

    return report
