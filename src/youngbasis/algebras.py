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
in :mod:`transition`, takes the scheme alone.  :func:`generators` is the
one table that names a module's generators and selects among them.

Every generator is a step table (see :mod:`linalg`): the label's
coefficients times L, the lcm of their denominators, over L -- ints on
the rationals, the field's own scalars over L = 1 elsewhere.  The
scheme caches one table per s_i label, the one table every route and
relation reads; T_0 and the X_i are diagonal tables built when asked
for.  A generator matrix is built from its table when asked for, each
column over L in lowest terms.

:func:`verify_relations` checks each relation on the tables of its
two sides without building a matrix, each side a product of step
tables.  Over the rationals each column of a side is one int, its rows
in base-B digits, by one gather pass per factor, and :func:`_packed`
only locates the first column where the sides differ.  The columns that
are compared as dicts -- that one over the rationals, every column in
order over the other fields -- are the unit column pushed through every
factor, rightmost first, by :func:`linalg.push_column`.  Every right
side is a product of tables too: (c S + d L I) / den, built by
:func:`_plus_identity`, gives the quadratic and cyclotomic factors, the
identity (c = 0, d = 1) and the zero matrix (c = d = 0).  Both sides are
read scaled to the lcm of their denominators, so their numerator
columns compare as they are; a failing relation divides its witness
entry by that lcm.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import partial
from math import lcm, prod
from operator import itemgetter

from .bruhat import BruhatGraph
from .errors import (DegenerateWeightError, NonSemisimpleError,
                     PreconditionError)
from .fields import (QFIELD, RATIONALS, Cyclo, CyclotomicField, QRat,
                     check_semisimple, evaluate_q, field_of)
from .linalg import (Matrix, lowest_terms, matmul, push_column,
                     split_over_lcm, table_columns, triangular_solve)
from .shapes import _reading_layout
from .weights import q_axial_weight, weighted_content

__all__ = ["AlgebraSpec", "FAMILIES", "PRESETS", "Preset", "generators",
           "seminormal_generator", "zeroth_generator", "x_generator",
           "natural_generator", "verify_relations", "WeightScheme"]


class Preset(namedtuple("Preset", "u q zeroth")):
    """How a family fixes its parameters.

    ``u``: "unit" for u = (1,); "given" for one u_k per component
    ("inverse": exactly two, with u_1 u_2 = 1); "distinct" for the
    stand-ins 1, ..., r; None for no u, the page weights of the placed
    shape.
    ``q``: "free"; "one" for coefficients at q = 1 with the given q only
    echoed; "pinned" for q = 1, rejecting any other q.  The generators
    are named T_i for a free q and s_i at q = 1.
    ``zeroth``: T_0 as None, "u" (diag u_k), "xi" (diag xi^{k-1}) or
    "x1" (X_1), k the component holding the entry 1.
    """
    __slots__ = ()


PRESETS = {
    "symmetric": Preset("unit", "one", None),
    "hecke_A": Preset("unit", "free", None),
    "hecke_B": Preset("inverse", "free", "u"),
    "ariki_koike": Preset("given", "free", "u"),
    "wreath_grn": Preset("distinct", "pinned", "xi"),
    "affine_placed": Preset(None, "free", "x1"),
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
        if preset.u in ("unit", "distinct", None):
            if u is not None:
                raise PreconditionError(f"{family} takes no parameters u")
            u = (1,) if preset.u == "unit" else ()
        elif u is None:
            raise PreconditionError(f"{family} needs parameters u")
        self.u = tuple(x if isinstance(x, QRat) else Fraction(x) for x in u)
        if preset.u == "inverse" and (len(self.u) != 2
                                      or self.u[0] * self.u[1] != 1):
            raise PreconditionError(
                f"{family} requires two u with u1 = u2^{{-1}}")

    def page_weights(self, shape):
        if self.preset.u is None:
            return shape.weights
        if self.preset.u == "distinct":
            return tuple(range(1, shape.r + 1))
        return self.u

    def validate_shape(self, shape):
        if self.preset.u is None:
            if not all(shape.weights):
                raise PreconditionError("page weights must be nonzero")
        elif any(w != 1 for w in shape.weights):
            raise PreconditionError(
                f"{self.family} takes its page weights from u, not the shape")
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
            u = ",".join(map(str, self.u))
            q = "sym" if self.q is None else self.q
            raise NonSemisimpleError(f"parameters u={u} q={q} are not "
                                     f"semisimple for n={shape.n}")

    def __repr__(self):
        return (f"AlgebraSpec({self.family!r}, "
                f"q={'sym' if self.q is None else self.q}, u={self.u})")


class WeightScheme:
    """Seminormal coefficients of one spec on the standard tableaux of
    one shape: the one object a request passes around.

    ``graph`` is the weak Bruhat graph of ``shape``, built here unless
    one is given; a given graph of another shape is rejected.
    ``pair(t, i, j)`` is the axial coefficient a of the pair (i, j) of
    t and ``diag_factor(t, i, j)`` is q^-1 + a: at j = i + 1 they are
    the i-th generator's coefficients on v_t and on v_{s_i(t)}.
    ``diag_factor`` and ``orth_factor_squared`` are the per-inversion
    factors of the transition diagonal and of the squared orthogonal
    diagonal.

    One scheme serves every computation of a request: it caches
    coefficients by pair and one step table per generator label.
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
        # boxes[p] is the box at reading position p, so the boxes of a
        # node's entries come from its positions
        self.boxes = _reading_layout(shape)[0]
        # the coefficient a of a pair depends only on _pair_key, so each
        # key holds (a, q^-1 + a): the stay and the move of a generator,
        # and the per-inversion factor of the transition diagonal
        self._pair_cache = {}
        self._scaled_steps = {}

    def _key(self, t, i, j):
        """The coefficient key of the pair (i, j) of t, from the boxes
        at the two entries' reading positions."""
        pos = t.positions
        return _pair_key(self.boxes[pos[i - 1]], self.boxes[pos[j - 1]])

    def _entry(self, t, i, j):
        """(a, q^-1 + a) for the pair (i, j) of t, a its axial
        coefficient: one cache entry per key."""
        key = self._key(t, i, j)
        entry = self._pair_cache.get(key)
        if entry is None:
            a = q_axial_weight(key, self.weights, self.q)
            if a is None:
                raise DegenerateWeightError(
                    f"weighted contents of {i} and {j} coincide "
                    "(1 - q^(2 delta) = 0)")
            entry = self._pair_cache[key] = (a, self._qinv + a)
        return entry

    def pair(self, t, i, j):
        """The (i, j) axial coefficient in the active field."""
        return self._entry(t, i, j)[0]

    def scaled_steps(self, label):
        """The step table of one generator label, built once: per node
        the stay coefficient and the (move coefficient, target) or None,
        what one two-term update needs, scaled by :func:`_scale_steps`
        to numerators over one denominator.  Nodes with one key share
        the key's two objects, so each is split once."""
        cached = self._scaled_steps.get(label)
        if cached is None:
            cache = self._pair_cache
            boxes = self.boxes
            stay = []
            move = []
            for t, nbrs in zip(self.graph.nodes, self.graph.neighbors):
                # self._key(t, label, label + 1), inlined in this loop
                pos = t.positions
                key = _pair_key(boxes[pos[label - 1]], boxes[pos[label]])
                entry = cache.get(key)
                if entry is None:
                    # a miss goes through pair: one call per key
                    self.pair(t, label, label + 1)
                    entry = cache[key]
                stay.append(entry[0])
                target = nbrs.get(label)
                move.append(None if target is None else (entry[1], target))
            cached = self._scaled_steps[label] = _scale_steps(
                self.field.split, stay, move)
        return cached

    def diagonal_steps(self, i):
        """The diagonal step table of X_i (i >= 1: u_k q^{2c}, the
        weighted content of the box of i) or of T_0 (i = 0: u_k, or
        xi^{k-1} on a wreath product, when the entry 1 sits in component
        k), built on each call: a request reads each one once."""
        # per node the box of the entry i, or of the entry 1 for T_0
        boxes = [self.boxes[t.positions[(i or 1) - 1]]
                 for t in self.graph.nodes]
        if i:
            vals = [weighted_content(box, self.weights, self.q)
                    for box in boxes]
        elif self.spec.preset.zeroth == "xi":
            vals = [Cyclo.xi_power(self.shape.r, box[0] - 1) for box in boxes]
        else:
            vals = [self.weights[box[0] - 1] for box in boxes]
        return _scale_steps(
            _zeroth_field(self).split if i == 0 else self.field.split,
            vals, [None] * len(vals))

    def diag_factor(self, t, i, j):
        return self._entry(t, i, j)[1]

    def orth_factor_squared(self, t, i, j):
        a, num = self._entry(t, i, j)
        den = self._qinv * self._qinv - a * a
        if not den:
            raise DegenerateWeightError(
                f"vanishing orthogonal radicand for pair ({i},{j})")
        return num * num / den


def _pair_key(box_i, box_j):
    """The key of a pair of entries for :func:`weights.q_axial_weight`,
    given the boxes holding them: their components and the difference of
    their contents."""
    ki, xi, yi = box_i
    kj, xj, yj = box_j
    return ki, kj, yi - xi - yj + xj


def _scale_steps(split, stay, move):
    """Step coefficients times L, the lcm of their ``split``
    denominators: stays, (move, target) or None, and L.  Each distinct
    coefficient object is split and scaled once (steps drawn from a
    scheme hold one object per key); a coefficient over L itself keeps
    its numerator object.  A zero move (q^-1 + a = 0) becomes None, so
    no column holds an explicit zero."""
    objs = {id(x): x for x in stay}
    objs.update((id(mv[0]), mv[0]) for mv in move if mv is not None)
    scaled, den = split_over_lcm(split, objs)
    nonzero = {k: x for k, x in scaled.items() if x}
    return ([scaled[id(x)] for x in stay],
            [None if mv is None or (b := nonzero.get(id(mv[0]))) is None
             else (b, mv[1]) for mv in move],
            den)


def _table_matrix(steps, field, basis):
    """The matrix of a step table, each column in lowest terms."""
    stay, move, den = steps
    size = len(stay)
    m = Matrix(size, size, field, basis=basis)
    for v, col in enumerate(table_columns(stay, move)):
        m.cols[v], m.dens[v] = lowest_terms(col, den)
    return m


def _zeroth_field(ws):
    """The field of T_0: cyclotomic on a wreath product (xi^{k-1}), the
    scheme's own elsewhere."""
    if ws.spec.preset.zeroth == "xi":
        return CyclotomicField(ws.shape.r)
    return ws.field


def seminormal_generator(ws, i):
    """Matrix of the i-th generator on the seminormal basis in canonical
    order: diagonal entry a_i, off-diagonal 1+a_i (or the q-analogues),
    off-diagonal dropped when the swap is nonstandard.  Built from
    ``ws.scaled_steps(i)`` on each call."""
    if not 1 <= i <= ws.shape.n - 1:
        raise PreconditionError(f"generator index {i} out of range")
    return _table_matrix(ws.scaled_steps(i), ws.field, ws.graph.nodes)


def zeroth_generator(ws):
    """Diagonal matrix of T_0 (or s_0): eigenvalue u_k (or xi^{k-1}) on
    v_T when the entry 1 sits in component k, or X_1 on placed shapes."""
    spec = ws.spec
    kind = spec.preset.zeroth
    if kind is None:
        raise PreconditionError(f"{spec.family} has no zeroth generator")
    if ws.shape.n == 0:
        raise PreconditionError("no zeroth generator without boxes")
    if kind == "x1":
        return x_generator(ws, 1)
    return _table_matrix(ws.diagonal_steps(0), _zeroth_field(ws),
                         ws.graph.nodes)


def x_generator(ws, i):
    """Diagonal matrix of X^{eps_i}: eigenvalue q^{2 c(T(i))}."""
    spec = ws.spec
    # symmetric and wreath_grn fix q = 1 and carry no X generators
    if spec.preset.q != "free":
        raise PreconditionError(f"{spec.family} has no X generators")
    if not 1 <= i <= ws.shape.n:
        raise PreconditionError(f"X index {i} out of range")
    return _table_matrix(ws.diagonal_steps(i), ws.field, ws.graph.nodes)


def generators(ws, gen=None):
    """(name, matrix) per generator, in output order: T0 or s0 (zeroth
    "u" or "xi", with boxes), X1..Xn (zeroth "x1"), then T1.. or s1...
    ``gen`` picks by name before any matrix is built: a digit indexes an
    s_i, T_i or T0, never an X; anything else is a full name, any case."""
    preset, n = ws.spec.preset, ws.shape.n
    prefix = "T" if preset.q == "free" else "s"
    table = [(f"{prefix}{i}", partial(seminormal_generator, ws, i))
             for i in range(1, n)]
    if preset.zeroth == "x1":
        table[:0] = [(f"X{i}", partial(x_generator, ws, i))
                     for i in range(1, n + 1)]
    elif preset.zeroth and n:
        table.insert(0, (f"{prefix}0", partial(zeroth_generator, ws)))
    if gen is not None:
        # a coefficient that does not exist fails every pick
        for i in range(1, n):
            ws.scaled_steps(i)
        key = (prefix + gen if gen.isdigit() else gen).lower()
        table = [entry for entry in table if entry[0].lower() == key]
        if not table:
            raise PreconditionError(f"no generator named {gen!r}")
    return [(name, build()) for name, build in table]


def conjugate_to_natural(matrices, transition):
    """A^{-1} M A for each seminormal-basis matrix M, as the X with
    A X = M A: one product and one back substitution each, and no A^{-1}.
    A matrix over a larger field (s_0 of a wreath product) gets A
    coerced into that field."""
    out = []
    for m in matrices:
        a = transition.matrix
        if m.field != a.field:
            a = a.coerce_field(m.field)
        out.append(triangular_solve(a, matmul(m, a)))
    return out


def natural_generator(ws, i, transition=None):
    """Generator matrix on the natural basis, by conjugating the
    seminormal matrix with the transition matrix."""
    from .transition import transition_recursive
    if transition is None:
        transition = transition_recursive(ws)
    g = zeroth_generator(ws) if i == 0 else seminormal_generator(ws, i)
    return conjugate_to_natural([g], transition)[0]


# ---------------------------------------------------------------------------
# defining relations
# ---------------------------------------------------------------------------

def _plus_identity(steps, c, d, den):
    """The step table of (c S + d L I) / den for the table S over L: the
    identity for c = 0, d = 1, den = L and the zero matrix for c = d = 0.
    With c = 0 it keeps no move, as tables hold no zero move."""
    stay, move, scale = steps
    dl = d * scale
    return ([c * a + dl for a in stay],
            [(c * mv[0], mv[1]) if c and mv else None for mv in move],
            den)


def _columns(factors, k, vs):
    """The numerator columns vs of k times a product of step tables,
    leftmost factor first, one at a time: the unit column {v: k} pushed
    through every factor, rightmost first, by :func:`linalg.push_column`,
    which may keep a zero product as an entry."""
    for v in vs:
        col = {v: k}
        for stay, move, _ in reversed(factors):
            col = push_column(col, stay, move)
        yield col


def _orbits(tables, size):
    """Each node's slot: the number of nodes below it in its orbit
    under the moves of tables.  Column v of a product of the tables
    lies in the orbit of v, so its rows take distinct slots."""
    root = list(range(size))
    for _, move, _ in tables:
        for v, mv in enumerate(move):
            if mv is not None:
                a, b = v, mv[1]
                while root[a] != a:
                    a = root[a]
                while root[b] != b:
                    b = root[b]
                if a > b:
                    a, b = b, a
                root[b] = a
    count = [0] * size
    slot = []
    for u in range(size):
        # root[u] <= u, and nodes below u already name their orbit
        r = root[u] = root[root[u]]
        slot.append(count[r])
        count[r] += 1
    return slot


def _norm(steps):
    """A bound on the absolute column sums of a step table."""
    stay, move, _ = steps
    return max(map(abs, stay)) + max(
        map(abs, map(itemgetter(0), filter(None, move))), default=0)


def _packed(lhs, rhs, kl, kr):
    """The first column where kl times the product lhs and kr times rhs
    differ, or None, each column packed into one int:
    y^T kl F_1...F_m for y_u = B^slot(u) (see :func:`_orbits`), one
    gather pass per factor.  B / 2 exceeds kl prod |F| + kr prod |G|, a
    bound on the entries of the difference of the sides, so two ints
    are equal exactly when their columns are."""
    tables = {id(steps): steps for steps in (*lhs, *rhs)}
    norm = {key: _norm(steps) for key, steps in tables.items()}
    bits = (kl * prod(norm[id(steps)] for steps in lhs)
            + kr * prod(norm[id(steps)] for steps in rhs)).bit_length() + 1
    slot = _orbits(tables.values(), len(lhs[0][0]))

    def side(factors, k):
        y = [k << bits * s for s in slot]
        for stay, move, _ in factors:
            # entry v of y^T S is y_v stay_v + y_t b, move_v = (b, t)
            y = [yv * a + y[mv[1]] * mv[0] if mv else yv * a
                 for yv, a, mv in zip(y, stay, move)]
        return y

    a = side(lhs, kl)
    b = side(rhs, kr)
    # equal lists compare in C
    if a != b:
        return next(v for v, (x, y) in enumerate(zip(a, b)) if x != y)
    return None


def _record(report, name, field, lhs, rhs):
    """Check lhs == rhs for products of step tables over field.  Both
    sides are scaled to the lcm of their denominators, so their
    numerator columns compare as they are.  Over the rationals
    :func:`_packed` locates the first column that differs and
    :func:`_columns` builds only that one; elsewhere it builds every
    column in order.  A missing row and an explicit 0 read alike, and
    the witness is the difference of the sides at the first column's
    smallest differing row, over that lcm."""
    dl = prod(steps[2] for steps in lhs)
    dr = prod(steps[2] for steps in rhs)
    den = lcm(dl, dr)
    if field == RATIONALS:
        v = _packed(lhs, rhs, den // dl, den // dr)
        vs = () if v is None else (v,)
    else:
        vs = range(len(lhs[0][0]))
    item = {"relation": name, "status": "pass"}
    for v, a, b in zip(vs, _columns(lhs, den // dl, vs),
                       _columns(rhs, den // dr, vs)):
        if a != b:
            row = min((i for i in a.keys() | b.keys()
                       if a.get(i, 0) != b.get(i, 0)), default=None)
            if row is not None:
                value = field.join(a.get(row, 0) - b.get(row, 0), den)
                item["status"] = "fail"
                item["witness"] = {"row": row, "col": v,
                                   "value": field.to_str(value)}
                break
    report.append(item)


def verify_relations(ws):
    """Check every defining relation of the family as an exact matrix
    identity; returns a list of {relation, status[, witness]} dicts.

    Each side is a product of step tables (see the module docstring):
    over the rationals packed ints locate a failing column, and the
    columns compared are pushed through the tables as dicts."""
    n, r = ws.shape.n, ws.shape.r
    preset = ws.spec.preset
    field = ws.field
    report = []
    gens = {i: ws.scaled_steps(i) for i in range(1, n)}
    # T_i^2 = (q - q^-1) T_i + 1, an involution at q = 1
    c, d = field.split(ws.q - 1 / ws.q)
    record = partial(_record, report)

    for i in range(1, n):
        for j in range(i + 2, n):
            record(f"commute s{i} s{j}", field,
                   [gens[i], gens[j]], [gens[j], gens[i]])
    for i in range(1, n - 1):
        record(f"braid s{i} s{i+1}", field,
               [gens[i], gens[i + 1], gens[i]],
               [gens[i + 1], gens[i], gens[i + 1]])
    for i in range(1, n):
        # I + (c / d) S / L = (c S + d L I) / (d L)
        rhs = _plus_identity(gens[i], c, d, d * gens[i][2])
        name = "quadratic T" if preset.q == "free" else "involution s"
        record(f"{name}{i}", field, [gens[i], gens[i]], [rhs])

    if preset.zeroth in ("u", "xi") and n >= 1:
        t0 = ws.diagonal_steps(0)
        # on a wreath product T_0 is cyclotomic: the rational s_i
        # numerators times its columns are cyclotomic columns
        field0 = _zeroth_field(ws)
        if n >= 2:
            g1 = gens[1]
            record("braid T0 T1 T0 T1", field0, [t0, g1, t0, g1],
                   [g1, t0, g1, t0])
        for i in range(2, n):
            record(f"commute T0 s{i}", field0, [t0, gens[i]],
                   [gens[i], t0])
        if preset.zeroth == "xi":
            record(f"order s0^{r} = 1", field0, [t0] * r,
                   [_plus_identity(t0, 0, 1, t0[2])])
        else:
            # T0 - a / b = (b S0 - a L0 I) / (b L0)
            factors = []
            for uk in ws.weights:
                a, b = field0.split(uk)
                factors.append(_plus_identity(t0, b, -a, b * t0[2]))
            record("cyclotomic prod (T0 - u_k) = 0", field0, factors,
                   [_plus_identity(t0, 0, 0, 1)])

    if preset.zeroth == "x1":
        xs = {i: ws.diagonal_steps(i) for i in range(1, n + 1)}
        for i in range(1, n):
            for j in range(1, n + 1):
                if abs(i - j) > 1:
                    record(f"commute T{i} X{j}", field,
                           [gens[i], xs[j]], [xs[j], gens[i]])
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                record(f"commute X{i} X{j}", field,
                       [xs[i], xs[j]], [xs[j], xs[i]])
        if n >= 2:
            record("mixed braid X1 T1 X1 T1", field,
                   [xs[1], gens[1], xs[1], gens[1]],
                   [gens[1], xs[1], gens[1], xs[1]])
        for i in range(1, n):
            record(f"X{i+1} = T{i} X{i} T{i}", field, [xs[i + 1]],
                   [gens[i], xs[i], gens[i]])

    return report
