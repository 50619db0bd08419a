import random
import re
from fractions import Fraction as F
from itertools import repeat
from math import lcm, prod

import pytest
from hypothesis import example, given, settings, strategies as st

from reduced_words import reduced_word
from walks import r_partitions
from youngbasis import algebras
from youngbasis.algebras import (AlgebraSpec, WeightScheme,
                                 natural_generator, seminormal_generator,
                                 verify_relations, x_generator,
                                 zeroth_generator)
from youngbasis.bruhat import BruhatGraph
from youngbasis.errors import (DegenerateWeightError, NonSemisimpleError,
                               PreconditionError)
from youngbasis.fields import RATIONALS, CyclotomicField, QRat, evaluate_q
from youngbasis.linalg import Matrix, matmul, push_column
from youngbasis.shapes import (Shape, Tableau, all_partitions,
                               all_skew_shapes, alphabetizer,
                               parse_shape, shape_from_parts)
from youngbasis.transition import (diagonal_closed_form,
                                   orthogonal_diag_squared,
                                   transition_recursive)
from youngbasis.weights import q_axial_weight

S321 = parse_shape("3,2,1")
SPEC_S6 = AlgebraSpec("symmetric")


def _node(graph, *rows):
    return graph.index[Tableau(graph.shape, [rows]).rows]


def test_seminormal_column_with_standard_swap():
    ws = WeightScheme(SPEC_S6, S321)
    g = ws.graph
    m = seminormal_generator(ws, 5)
    t11 = _node(g, (1, 2, 5), (3, 4), (6,))
    t7 = _node(g, (1, 2, 6), (3, 4), (5,))
    col = m.column(t11)
    assert col == {t11: F(-1, 4), t7: F(3, 4)}


def test_seminormal_column_with_nonstandard_swap():
    ws = WeightScheme(SPEC_S6, S321)
    g = ws.graph
    m = seminormal_generator(ws, 3)
    t11 = _node(g, (1, 2, 5), (3, 4), (6,))
    assert m.column(t11) == {t11: F(1)}


def test_seminormal_single_row_is_scalar_one():
    s = parse_shape("4")
    ws = WeightScheme(AlgebraSpec("symmetric"), s)
    for i in range(1, 4):
        m = seminormal_generator(ws, i)
        assert m.to_rows() == [[F(1)]]


def test_seminormal_sparsity():
    for text in ["3,2,1", "3,3,1/2,1", "(2,1)|(2)"]:
        shape = parse_shape(text)
        fam = "symmetric" if shape.r == 1 else "wreath_grn"
        ws = WeightScheme(AlgebraSpec(fam), shape)
        for i in range(1, shape.n):
            m = seminormal_generator(ws, i)
            assert all(len(col) <= 2 for col in m.cols)


def test_zeroth_generator_cyclotomic_eigenvalues():
    shape = parse_shape("(2,1)|(1)")
    spec = AlgebraSpec("ariki_koike", q=5, u=(2, 3))
    g = BruhatGraph(shape)
    m = zeroth_generator(WeightScheme(spec, shape, g))
    for v, t in enumerate(g.nodes):
        expect = F(2) if t.component_of(1) == 1 else F(3)
        assert m.get(v, v) == expect
    specw = AlgebraSpec("wreath_grn")
    mw = zeroth_generator(WeightScheme(specw, shape, g))
    field = CyclotomicField(2)
    for v, t in enumerate(g.nodes):
        expect = field.one if t.component_of(1) == 1 else -field.one
        assert mw.get(v, v) == expect


def test_x_generator_diagonal():
    shape = parse_shape("2")
    ws = WeightScheme(AlgebraSpec("affine_placed"), shape)
    m = x_generator(ws, 1)
    assert m.get(0, 0) == QRat.const(1)
    m2 = x_generator(ws, 2)
    assert m2.get(0, 0) == QRat.q_power(2)
    with pytest.raises(PreconditionError):
        x_generator(WeightScheme(AlgebraSpec("symmetric"), shape), 1)


def test_zeroth_rejected_without_generator():
    shape = parse_shape("2,1")
    with pytest.raises(PreconditionError):
        zeroth_generator(WeightScheme(AlgebraSpec("symmetric"), shape))
    with pytest.raises(PreconditionError):
        zeroth_generator(WeightScheme(AlgebraSpec("hecke_A"), shape))


def test_natural_generator_permutes_when_standard():
    ws = WeightScheme(SPEC_S6, S321)
    g = ws.graph
    tm = transition_recursive(ws)
    m = natural_generator(ws, 5, transition=tm)
    t11 = _node(g, (1, 2, 5), (3, 4), (6,))
    t7 = _node(g, (1, 2, 6), (3, 4), (5,))
    assert m.column(t11) == {t7: F(1)}


def test_natural_generator_straightening_pattern():
    ws = WeightScheme(SPEC_S6, S321)
    g = ws.graph
    tm = transition_recursive(ws)
    m = natural_generator(ws, 3, transition=tm)
    col = m.column(_node(g, (1, 2, 5), (3, 4), (6,)))
    expect = {
        _node(g, (1, 2, 5), (3, 4), (6,)): F(1),
        _node(g, (1, 3, 5), (2, 4), (6,)): F(-1),
        _node(g, (1, 2, 5), (3, 6), (4,)): F(-1),
        _node(g, (1, 3, 5), (2, 6), (4,)): F(1),
        _node(g, (1, 4, 5), (2, 6), (3,)): F(-1),
    }
    assert col == expect


def test_natural_single_row():
    s = parse_shape("3")
    ws = WeightScheme(AlgebraSpec("symmetric"), s)
    for i in (1, 2):
        assert natural_generator(ws, i).to_rows() == [[F(1)]]


def test_natural_integrality_small():
    for n in range(2, 6):
        for lam in all_partitions(n):
            shape = shape_from_parts(lam)
            ws = WeightScheme(AlgebraSpec("symmetric"), shape)
            tm = transition_recursive(ws)
            for i in range(1, n):
                m = natural_generator(ws, i, transition=tm)
                for j in range(m.ncols):
                    assert all(v.denominator == 1
                               for v in m.column(j).values())


def test_restriction_block_structure():
    # generators not moving n respect the box of n
    shapes = ["3,2", "2,2,1", "3,1,1", "3,3,1/2,1"]
    for n in range(2, 6):
        shapes.extend(",".join(map(str, lam)) for lam in all_partitions(n))
    for text in shapes:
        shape = parse_shape(text)
        ws = WeightScheme(AlgebraSpec("symmetric"), shape)
        groups = [t.box_of[shape.n] for t in ws.graph.nodes]
        for i in range(1, shape.n - 1):
            m = seminormal_generator(ws, i)
            for j, col in enumerate(m.cols):
                for r in col:
                    assert groups[r] == groups[j]


def test_alphabetizer_acts_by_relabeling():
    shape = parse_shape("(2,1)|(1)")
    ws = WeightScheme(AlgebraSpec("wreath_grn"), shape)
    g = ws.graph
    gens = {i: seminormal_generator(ws, i) for i in range(1, 4)}
    standard_alpha = [t for t in g.nodes
                      if alphabetizer(t) == tuple(range(1, 5))]
    assert standard_alpha
    for t in g.nodes:
        beta = alphabetizer(t)
        word = reduced_word(beta)
        for t0 in standard_alpha:
            vec = {g.index[t0.rows]: F(1)}
            for i in reversed(word):
                vec = gens[i].apply(vec)
            from youngbasis.shapes import apply_permutation
            image, std = apply_permutation(t0, beta)
            assert std
            assert vec == {g.index[image.rows]: F(1)}


@pytest.mark.parametrize("family,shape_text,kwargs", [
    ("symmetric", "3,2", {}),
    ("symmetric", "3,3,1/2,1", {}),
    ("hecke_A", "3,2", {}),
    ("hecke_A", "2,2", {"q": F(3)}),
    ("hecke_B", "(2,1)|(1)", {"u": (F(2), F(1, 2))}),
    ("ariki_koike", "(2,1)|(1)", {"q": F(5), "u": (2, 3)}),
    ("ariki_koike", "(1)|(1)|(2)", {"u": (2, 3, 5)}),
    ("wreath_grn", "(2,1)|(1)", {}),
    ("wreath_grn", "(1)|(1)|(2)", {}),
    ("affine_placed", "3,1", {}),
    # rational q and a u_k with denominator 2: the cyclotomic relation
    # runs on integer matrices over b·L_0
    ("hecke_B", "(2,1)|(1)", {"q": F(5), "u": (F(2), F(1, 2))}),
])
def test_verify_relations_pass(family, shape_text, kwargs):
    shape = parse_shape(shape_text)
    spec = AlgebraSpec(family, **kwargs)
    report = verify_relations(WeightScheme(spec, shape))
    failures = [r for r in report if r["status"] != "pass"]
    assert not failures, failures


def test_verify_relations_affine_placed_pages():
    shape = parse_shape("(2)|(1,1)@q^0,q^20")
    spec = AlgebraSpec("affine_placed")
    report = verify_relations(WeightScheme(spec, shape))
    assert all(r["status"] == "pass" for r in report)
    names = [r["relation"] for r in report]
    assert any(name.startswith("X") for name in names)
    assert "mixed braid X1 T1 X1 T1" in names


@pytest.mark.parametrize("q", [F(5), None])
def test_affine_t_i_commutes_with_every_x_j_but_x_i_and_x_i_plus_1(q):
    # T_i X_j = X_j T_i for every j not in {i, i+1}, with j = i - 1
    # among them (X_1 T_2 = T_2 X_1 of the presentation), checked by
    # matrix products on placed shapes
    spec = AlgebraSpec("affine_placed", q=q)
    pages = (QRat.q_power(0), QRat.q_power(3))
    checked = set()
    for r, top in ((1, 5), (2, 4)):
        for n in range(3, top + 1):
            for parts in r_partitions(r, n):
                shape = shape_from_parts(*parts, weights=pages[:r])
                ws = WeightScheme(spec, shape)
                xs = {j: x_generator(ws, j) for j in range(1, n + 1)}
                for i in range(1, n):
                    t = seminormal_generator(ws, i)
                    for j in set(xs) - {i, i + 1}:
                        assert matmul(t, xs[j]) == matmul(xs[j], t), \
                            (shape.to_str(), i, j)
                        checked.add(j - i)
    assert checked == {-3, -2, -1, 2, 3, 4}


def _add_to_first_entry(ws, label, j, delta):
    """Add delta to the first nonzero entry of column j of generator
    `label` in ``ws.scaled_steps(label)``, in place: the one table its
    relations, its matrix and every route read.  The table holds
    numerators over L, so delta enters as delta L; where that is no
    integer the table first goes over k L, k its denominator."""
    stay, move, den = ws.scaled_steps(label)
    planted = F(delta) * den
    k = planted.denominator
    if k != 1:
        stay[:] = [a * k for a in stay]
        move[:] = [None if mv is None else (mv[0] * k, mv[1]) for mv in move]
        ws._scaled_steps[label] = (stay, move, den * k)
    planted = int(planted * k)
    rows = [j] if stay[j] else []
    if move[j] is not None:
        rows.append(move[j][1])
    if min(rows) == j:
        stay[j] += planted
    else:
        move[j] = (move[j][0] + planted, move[j][1])


def _entry_witness(m):
    """The witness a failing relation reports: the first nonzero entry
    of lhs - rhs, column by column."""
    for j, col in enumerate(m.cols):
        for i, v in sorted(col.items()):
            return {"row": i, "col": j,
                    "value": m.field.to_str(m.field.join(v, m.dens[j]))}
    return None


def test_verify_relations_reports_a_corrupted_generator():
    # verify_relations reads the step tables cached on the scheme, so a
    # planted error in T_1 must fail exactly the relations whose two
    # sides it makes differ, each with the witness of lhs - rhs
    shape = parse_shape("3,2")
    spec = AlgebraSpec("hecke_A", q=3)
    ws = WeightScheme(spec, shape)
    _add_to_first_entry(ws, 1, 2, 1)
    gens = {i: seminormal_generator(ws, i) for i in range(1, 5)}
    report = {r["relation"]: r for r in verify_relations(ws)}
    coeff = F(3) - F(1, 3)
    ident = Matrix.identity(ws.graph.size(), ws.field)
    diffs = {
        "commute s1 s3": matmul(gens[1], gens[3]) - matmul(gens[3], gens[1]),
        "commute s1 s4": matmul(gens[1], gens[4]) - matmul(gens[4], gens[1]),
        "braid s1 s2": matmul(matmul(gens[1], gens[2]), gens[1])
        - matmul(matmul(gens[2], gens[1]), gens[2]),
        "quadratic T1": matmul(gens[1], gens[1]) - ident
        - gens[1].scale(coeff),
    }
    failing = {name for name, diff in diffs.items() if not diff.is_zero()}
    assert failing >= {"quadratic T1", "braid s1 s2", "commute s1 s4"}
    for name in failing:
        assert report[name]["status"] == "fail"
        assert report[name]["witness"] == _entry_witness(diffs[name])
    passing = {name for name, r in report.items() if r["status"] == "pass"}
    assert passing == set(report) - failing


@pytest.mark.parametrize("family, text, label, delta, must_fail", [
    # symbolic q: every generator enters with L = 1
    ("hecke_A", "3,2", 1, 1, {"quadratic T1", "braid s1 s2"}),
    # L_4 = L_5 = 4, and 1/7 changes the denominator of T_4
    ("symmetric", "3,2,1", 4, F(1, 7), {"involution s4", "braid s4 s5"}),
])
def test_verify_relations_witnesses_survive_scaling(family, text, label,
                                                    delta, must_fail):
    # over the rationals each relation runs on L-scaled integer tables;
    # its witness must still be the first nonzero entry of lhs - rhs
    ws = WeightScheme(AlgebraSpec(family), parse_shape(text))
    n = ws.shape.n
    _add_to_first_entry(ws, label, 2, delta)
    gens = {i: seminormal_generator(ws, i) for i in range(1, n)}
    report = {r["relation"]: r for r in verify_relations(ws)}
    coeff = ws.q - 1 / ws.q
    ident = Matrix.identity(ws.graph.size(), ws.field)
    square = "quadratic T" if family == "hecke_A" else "involution s"
    diffs = {f"{square}{i}": matmul(gens[i], gens[i]) - ident
             - gens[i].scale(coeff) for i in range(1, n)}
    for i in range(1, n):
        for j in range(i + 2, n):
            diffs[f"commute s{i} s{j}"] = (matmul(gens[i], gens[j])
                                           - matmul(gens[j], gens[i]))
    for i in range(1, n - 1):
        diffs[f"braid s{i} s{i+1}"] = (
            matmul(matmul(gens[i], gens[i + 1]), gens[i])
            - matmul(matmul(gens[i + 1], gens[i]), gens[i + 1]))
    assert set(report) == set(diffs)
    failing = {name for name, diff in diffs.items() if not diff.is_zero()}
    assert failing >= must_fail
    for name in failing:
        assert report[name]["status"] == "fail"
        assert report[name]["witness"] == _entry_witness(diffs[name])
    passing = {name for name, r in report.items() if r["status"] == "pass"}
    assert passing == set(report) - failing


def _product(*factors):
    out = factors[0]
    for m in factors[1:]:
        out = matmul(out, m)
    return out


@pytest.mark.parametrize("family, text, kwargs, planted, name", [
    # symbolic q: the T_0 table holds the u_k over 1
    ("hecke_B", "(2,1)|(1)", {"u": (F(2), F(1, 2))}, 0,
     "cyclotomic prod (T0 - u_k) = 0"),
    # T_0 is cyclotomic; verify_relations pushes its columns through the
    # rational s_i tables as they are, and only the reference lifts them
    ("wreath_grn", "(2,1)|(1)", {}, 0, "order s0^2 = 1"),
    ("affine_placed", "(2,1)|(1)@1,q^3", {"q": F(5)}, 1,
     "mixed braid X1 T1 X1 T1"),
])
def test_verify_relations_reports_a_corrupted_diagonal(monkeypatch, family,
                                                       text, kwargs, planted,
                                                       name):
    # T_0 and the X_i are diagonal step tables built by the scheme: an
    # error planted in one fails exactly the relations whose two sides
    # it makes differ, each with the witness of lhs - rhs
    ws = WeightScheme(AlgebraSpec(family, **kwargs), parse_shape(text))
    # the eigenvalue plus 1 on the first node that T_1 moves
    v = next(v for v, mv in enumerate(ws.scaled_steps(1)[1])
             if mv is not None)
    real = WeightScheme.diagonal_steps

    def planting(self, i):
        stay, move, den = real(self, i)
        if i == planted:
            stay[v] += den
        return stay, move, den

    monkeypatch.setattr(WeightScheme, "diagonal_steps", planting)
    n = ws.shape.n
    gens = {i: seminormal_generator(ws, i) for i in range(1, n)}
    if planted == 0:
        t0 = zeroth_generator(ws)
        gens = {i: g.coerce_field(t0.field) for i, g in gens.items()}
        ident = Matrix.identity(ws.graph.size(), t0.field)
        if family == "wreath_grn":
            diffs = {name: matmul(t0, t0) - ident}
        else:
            diffs = {name: _product(*[t0 - ident.scale(u)
                                      for u in ws.weights])}
        diffs["braid T0 T1 T0 T1"] = (_product(t0, gens[1], t0, gens[1])
                                      - _product(gens[1], t0, gens[1], t0))
        for i in range(2, n):
            diffs[f"commute T0 s{i}"] = (matmul(t0, gens[i])
                                         - matmul(gens[i], t0))
    else:
        xs = {i: x_generator(ws, i) for i in range(1, n + 1)}
        x1 = xs[1]
        diffs = {
            name: _product(x1, gens[1], x1, gens[1])
            - _product(gens[1], x1, gens[1], x1),
            "X2 = T1 X1 T1": xs[2] - _product(gens[1], x1, gens[1]),
        }
        for i in range(3, n):
            diffs[f"commute T{i} X1"] = (matmul(gens[i], x1)
                                         - matmul(x1, gens[i]))
        for j in range(2, n + 1):
            diffs[f"commute X1 X{j}"] = matmul(x1, xs[j]) - matmul(xs[j], x1)
    report = {r["relation"]: r for r in verify_relations(ws)}
    failing = {k for k, diff in diffs.items() if not diff.is_zero()}
    assert name in failing
    for k in failing:
        assert report[k]["status"] == "fail"
        assert report[k]["witness"] == _entry_witness(diffs[k])
    passing = {k for k, r in report.items() if r["status"] == "pass"}
    assert passing == set(report) - failing


def test_scheme_takes_only_the_graph_of_its_shape():
    s32 = parse_shape("3,2")
    spec = AlgebraSpec("symmetric")
    with pytest.raises(PreconditionError, match="graph of shape 2,2,1"):
        WeightScheme(spec, s32, BruhatGraph(parse_shape("2,2,1")))
    g = BruhatGraph(s32)
    assert WeightScheme(spec, s32, g).graph is g
    assert WeightScheme(spec, s32).graph.nodes == g.nodes


def test_spec_validation():
    with pytest.raises(PreconditionError):
        AlgebraSpec("hecke_B", u=(2, 3))  # u1*u2 != 1
    spec = AlgebraSpec("ariki_koike", q=2, u=(1, 4))  # u2/u1 = q^2
    with pytest.raises(NonSemisimpleError):
        WeightScheme(spec, parse_shape("(1)|(1)"))
    with pytest.raises(PreconditionError):
        AlgebraSpec("wreath_grn", q=3)
    with pytest.raises(PreconditionError):
        AlgebraSpec("nope")
    spec = AlgebraSpec("symmetric")
    with pytest.raises(PreconditionError):
        spec.validate_shape(parse_shape("(2,1)|(1)"))


def test_natural_generator_for_zeroth():
    shape = parse_shape("(2,1)|(1)")
    spec = AlgebraSpec("ariki_koike", q=5, u=(2, 3))
    ws = WeightScheme(spec, shape)
    g = ws.graph
    tm = transition_recursive(ws)
    m = natural_generator(ws, 0, transition=tm)
    # conjugation preserves the cyclotomic identity (T0-2)(T0-3) = 0
    ident = m.field.one
    from youngbasis.linalg import Matrix
    idm = Matrix.identity(g.size(), m.field)
    prod = matmul(m - idm.scale(2), m - idm.scale(3))
    assert prod.is_zero()


def test_hecke_A_at_q_one_is_symmetric():
    for n in range(1, 7):
        for lam in all_partitions(n):
            shape = shape_from_parts(lam)
            g = BruhatGraph(shape)
            sym = AlgebraSpec("symmetric")
            hecke = AlgebraSpec("hecke_A", q=1)
            wh = WeightScheme(hecke, shape, g)
            wsym = WeightScheme(sym, shape, g)
            assert transition_recursive(wh).matrix \
                == transition_recursive(wsym).matrix
            assert orthogonal_diag_squared(wh) \
                == orthogonal_diag_squared(wsym)


def test_ariki_koike_at_q_one_is_wreath():
    # the s_i do not see u at q = 1: cross-component coefficients vanish
    for u in ((2, 3), (2, 3, 4)):
        r = len(u)
        for n in range(1, 5):
            for parts in r_partitions(r, n):
                shape = shape_from_parts(*parts)
                g = BruhatGraph(shape)
                ak = AlgebraSpec("ariki_koike", q=1, u=u)
                wreath = AlgebraSpec("wreath_grn")
                a = transition_recursive(WeightScheme(ak, shape, g))
                b = transition_recursive(WeightScheme(wreath, shape, g))
                assert a.matrix == b.matrix


def _q_dependent_outputs(ws):
    """Every output of a scheme that depends on q, as lists of columns
    (dicts of nonzero entries)."""
    n = ws.shape.n
    mats = [transition_recursive(ws).matrix]
    mats += [seminormal_generator(ws, i) for i in range(1, n)]
    if ws.spec.preset.zeroth is not None:
        mats.append(zeroth_generator(ws))
    mats += [x_generator(ws, i) for i in range(1, n + 1)]
    out = [[m.column(j) for j in range(m.ncols)] for m in mats]
    out.append([dict(enumerate(orthogonal_diag_squared(ws)))])
    return out


def _at(outputs, q0):
    return [[{i: x for i, v in col.items() if (x := evaluate_q(v, q0))}
             for col in cols] for cols in outputs]


@pytest.mark.parametrize("family,u,pages", [
    ("hecke_A", None, None),
    ("hecke_B", (2, F(1, 2)), None),
    ("ariki_koike", (2, 3), None),
    ("affine_placed", None, (1, QRat.q_power(3))),
    ("affine_placed", None, (QRat.q_power(0), QRat.q_power(5))),
])
def test_symbolic_q_evaluates_to_rational_q(family, u, pages):
    # the symbolic-q objects, evaluated at q0, are those built at q = q0
    r = 1 if family == "hecke_A" else 2
    compared = 0
    for n in range(1, 5):
        for parts in r_partitions(r, n):
            shape = shape_from_parts(*parts)
            if pages is not None:
                shape = Shape(shape.components, pages)
            g = BruhatGraph(shape)
            sym = _q_dependent_outputs(
                WeightScheme(AlgebraSpec(family, u=u), shape, g))
            for q0 in (F(2), F(-3), F(1, 3)):
                try:
                    want = _q_dependent_outputs(WeightScheme(
                        AlgebraSpec(family, q=q0, u=u), shape, g))
                except (NonSemisimpleError, DegenerateWeightError):
                    continue
                assert _at(sym, q0) == want, (shape.to_str(), q0)
                compared += 1
    assert compared >= 30


# every family, rational and symbolic q, a skew shape and shapes of two
# components, where the components of a pair change its coefficient
@pytest.mark.parametrize("family,q,u,text", [
    ("symmetric", None, None, "3,2,1"),
    ("symmetric", None, None, "4,3,2/2,1"),
    ("hecke_A", 5, None, "3,2,1"),
    ("hecke_A", None, None, "3,2"),
    ("hecke_B", 3, (2, F(1, 2)), "(2,1)|(1)"),
    ("ariki_koike", None, (2, 3), "(2,1)|(1,1)"),
    ("affine_placed", None, None, "(2,1)|(1)@1,q^3"),
    ("wreath_grn", None, None, "(2,1)|(1,1)"),
])
def test_keyed_tables_match_a_per_node_recomputation(family, q, u, text):
    """The scaled steps over L and the diagonal, read from one cache
    entry per key, equal the coefficients recomputed at every node by the
    uncached q_axial_weight."""
    ws = WeightScheme(AlgebraSpec(family, q, u), parse_shape(text))
    qinv = 1 / ws.q
    join = ws.field.join

    def axial(t, i, j):
        return q_axial_weight(t, i, j, ws.weights, ws.q)

    nodes, neighbors = ws.graph.nodes, ws.graph.neighbors
    for label in range(1, ws.shape.n):
        sstay, smove, den = ws.scaled_steps(label)
        for v, t in enumerate(nodes):
            a = axial(t, label, label + 1)
            target = neighbors[v].get(label)
            assert join(sstay[v], den) == a and sstay[v] == a * den
            if target is None:
                assert smove[v] is None
            else:
                assert (join(smove[v][0], den), smove[v][1]) == (qinv + a,
                                                                 target)
                assert smove[v] == ((qinv + a) * den, target)
    for t, d in zip(nodes, diagonal_closed_form(ws)):
        want = ws.field.one
        for i, j in sorted(t.inversions):
            want = want * (qinv + axial(t, i, j))
        assert d == want


def _nonzero(col):
    return {i: x for i, x in col.items() if x}


def _reference_columns(factors, k):
    """The numerator columns of k times a product of step tables, each
    column of the rightmost factor pushed through the others as a dict
    with no zero entry: the column-at-a-time reference of the check."""
    *left, (stay, move, _) = factors
    left.reverse()
    for v, (a, mv) in enumerate(zip(stay, move)):
        col = {v: a * k}
        if mv is not None:
            col[mv[1]] = mv[0] * k
        for s, m, _ in left:
            col = push_column(_nonzero(col), s, m)
        yield _nonzero(col)


def _reference_record(report, name, field, lhs, rhs=()):
    """The relation check on dict columns, for every field."""
    dl = prod(steps[2] for steps in lhs)
    dr = prod(steps[2] for steps in rhs)
    den = lcm(dl, dr)
    pairs = zip(_reference_columns(lhs, den // dl),
                _reference_columns(rhs, den // dr) if rhs else repeat({}))
    item = {"relation": name, "status": "pass"}
    for v, (a, b) in enumerate(pairs):
        if a != b:
            row = min(i for i in a.keys() | b.keys() if a.get(i) != b.get(i))
            value = field.join(a.get(row, 0) - b.get(row, 0), den)
            item["status"] = "fail"
            item["witness"] = {"row": row, "col": v,
                               "value": field.to_str(value)}
            break
    report.append(item)


def _reports(ws):
    """verify_relations on ws, and the same with the reference check."""
    report = verify_relations(ws)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algebras, "_record", _reference_record)
        return report, verify_relations(ws)


def _tables(ws):
    """Every step table verify_relations reads, by key: an s_i label,
    0 for T_0, or -i for X_i."""
    keys = list(range(1, ws.shape.n))
    zeroth = ws.spec.preset.zeroth
    if zeroth in ("u", "xi"):
        keys.append(0)
    elif zeroth == "x1":
        keys += [-i for i in range(1, ws.shape.n + 1)]
    return keys


def _plant(ws, key, node, into_move, delta):
    """Add delta (numerators; "L" or "-L" for plus or minus the table's
    denominator) to the stay of node in table key, or to its move where
    into_move and it has one; a move planted to 0 becomes None, as
    tables hold no zero move.  The s_i tables are cached on the scheme
    and change in place; a diagonal table is rebuilt on every call, so
    the scheme's diagonal_steps plants into each."""
    def planted(steps):
        stay, move, den = steps
        d = {"L": den, "-L": -den}.get(delta, delta)
        v = node % len(stay)
        if into_move and move[v] is not None:
            b, t = move[v]
            move[v] = (b + d, t) if b + d else None
        else:
            stay[v] += d
        return steps

    if key > 0:
        planted(ws.scaled_steps(key))
    else:
        real = ws.diagonal_steps
        ws.diagonal_steps = lambda i: (planted(real(i)) if i == -key
                                       else real(i))


_PLANT_SCHEMES = [
    ("symmetric", "3,2,1", {}),
    ("symmetric", "3,3,1/2,1", {}),
    ("hecke_A", "3,2,1", {"q": 5}),
    # c = 0: the quadratic relation's right side is the identity
    ("hecke_A", "3,2,1", {"q": 1}),
    # T_0 braid and commute, and the cyclotomic product against 0
    ("ariki_koike", "(2,1)|(1)", {"u": (2, 3), "q": 7}),
    ("affine_placed", "(2,1)|(1)@1,q^3", {"q": 5}),
    # symbolic q: every column is pushed, and the cyclotomic product is
    # compared with the zero table
    ("hecke_B", "(2,1)|(1)", {"u": (2, F(1, 2))}),
    # s_0^2 against the identity table over the cyclotomic field
    ("wreath_grn", "(2,1)|(1)", {}),
    ("ariki_koike", "(1)|(1)|(1)", {"u": (2, 3, 5)}),
]
_DELTAS = (1, -1, 2, -2, "L", "-L", 7)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_PLANT_SCHEMES), st.integers(0, 99),
       st.integers(0, 999), st.booleans(), st.sampled_from(_DELTAS))
# s1's stay at node 0 becomes -2: S^2 - I holds 3 against the bound
# |S|^2 + 1 = 5, so a base of fewer bits misreads it
@example(_PLANT_SCHEMES[0], 0, 0, False, -1)
def test_packed_relation_check_matches_the_column_reference(
        scheme, table, node, into_move, delta):
    # over the rationals each column of a side is one int; every report
    # entry, witness included, must be the column check's
    family, text, kwargs = scheme
    ws = WeightScheme(AlgebraSpec(family, **kwargs), parse_shape(text))
    keys = _tables(ws)
    _plant(ws, keys[table % len(keys)], node, into_move, delta)
    report, reference = _reports(ws)
    assert report == reference


def _orbit_floor(ws, name, v):
    """The smallest node of v's orbit under the s_i named in a relation
    of the s_i alone."""
    labels = [int(i) for i in re.findall(r"\d+", name)]
    orbit = {v}
    todo = [v]
    while todo:
        u = todo.pop()
        for i in labels:
            t = ws.graph.neighbors[u].get(i)
            if t is not None and t not in orbit:
                orbit.add(t)
                todo.append(t)
    return min(orbit)


@pytest.mark.parametrize("text, key, node, into_move, delta", [
    ("3,2,1", 2, 5, False, 1),
    ("3,2,1", 2, 8, False, "L"),
    ("3,3,1/2,1", 1, 2, False, 7),
    ("3,3,1/2,1", 1, 1, True, -2),
])
def test_packed_witness_rows_past_the_first_slot_of_an_orbit(
        text, key, node, into_move, delta):
    # a witness row that is not its column's first slot is decoded from
    # a higher base-B digit of the packed difference
    ws = WeightScheme(AlgebraSpec("symmetric"), parse_shape(text))
    _plant(ws, key, node, into_move, delta)
    report, reference = _reports(ws)
    assert report == reference
    assert any(r["witness"]["row"] > _orbit_floor(ws, r["relation"],
                                                  r["witness"]["col"])
               for r in report if r["status"] == "fail")


@pytest.mark.parametrize("family, text, kwargs", [
    ("hecke_A", "4,2", {"q": F(101, 3)}),
    ("ariki_koike", "(2)|(1,1)", {"u": (89, F(-3, 7)), "q": F(97, 5)}),
])
def test_packed_check_is_exact_on_large_numerators(family, text, kwargs):
    # B / 2 bounds the entries of both sides: every relation passes
    # unplanted, and +1 in the largest numerator fails as the column
    # check fails
    def build():
        return WeightScheme(AlgebraSpec(family, **kwargs), parse_shape(text))

    ws = build()
    report = verify_relations(ws)
    assert all(r["status"] == "pass" for r in report), report
    # (|numerator|, key, node, into the move) over every table entry
    entries = []
    for key in _tables(ws):
        stay, move, _ = (ws.scaled_steps(key) if key > 0
                         else ws.diagonal_steps(-key))
        for v, (a, mv) in enumerate(zip(stay, move)):
            entries.append((abs(a), key, v, False))
            if mv is not None:
                entries.append((abs(mv[0]), key, v, True))
    _, key, node, into_move = max(entries)
    ws = build()
    _plant(ws, key, node, into_move, 1)
    report, reference = _reports(ws)
    assert report == reference
    assert any(r["status"] == "fail" for r in report)


def _plant_zero_moves(ws, plants):
    """Set the move coefficient of each (label, node) to an explicit 0,
    straight into the scheme's cached s_i tables."""
    for label, node in plants:
        move = ws.scaled_steps(label)[1]
        move[node] = (0, move[node][1])


@pytest.mark.parametrize("family, value", [
    ("hecke_A", None),
    ("symmetric", "8/27"),
])
def test_verify_relations_reads_a_zero_product_as_a_missing_row(family,
                                                                value):
    # push_column keeps the zero products of a zero move as entries; the
    # sides of braid s2 s3 first differ at row 6, not at such an entry
    ws = WeightScheme(AlgebraSpec(family), parse_shape("4,2,1,1,1/3,1"))
    _plant_zero_moves(ws, [(3, 6), (2, 8), (4, 2)])
    report, reference = _reports(ws)
    assert report == reference
    witness = next(r["witness"] for r in report
                   if r["relation"] == "braid s2 s3")
    assert (witness["row"], witness["col"]) == (6, 6)
    if value is not None:
        assert witness["value"] == value


def test_verify_relations_on_planted_zero_moves_matches_the_reference():
    # 1-3 zero moves on every five-box skew shape, three draws a shape
    # on the rationals and one on symbolic q: every report entry must be
    # the zero-dropping column reference's
    rng = random.Random(37)
    shapes = all_skew_shapes(5)
    for family, draws in (("symmetric", 3), ("hecke_A", 1)):
        for shape in shapes * draws:
            ws = WeightScheme(AlgebraSpec(family), shape)
            moves = [(label, v) for label in range(1, shape.n)
                     for v, mv in enumerate(ws.scaled_steps(label)[1])
                     if mv is not None]
            if not moves:
                continue
            _plant_zero_moves(ws, rng.sample(moves,
                                             min(len(moves),
                                                 rng.randint(1, 3))))
            report, reference = _reports(ws)
            assert report == reference, (family, shape.to_str())


@pytest.mark.parametrize("family, text, kwargs", [
    ("symmetric", "3,2,1", {}),
    ("hecke_A", "3,2,1", {"q": 5}),
    ("hecke_B", "(2,1)|(1)", {"u": (2, F(1, 2)), "q": 3}),
    ("ariki_koike", "(2,1)|(1)", {"u": (2, 3), "q": 7}),
    ("affine_placed", "(2,1)|(1)@1,q^3", {"q": 5}),
])
def test_rational_relations_push_only_the_first_differing_column(
        monkeypatch, family, text, kwargs):
    # over the rationals packed ints locate a failing column: a passing
    # relation pushes nothing, and a failing one pushes only the unit
    # column of its witness, through every factor of each side
    calls = []

    def counting_push(col, stay, move):
        calls.append(col)
        return push_column(col, stay, move)

    real = algebras._record
    records = []

    def recording(report, name, field, lhs, rhs):
        calls.clear()
        real(report, name, field, lhs, rhs)
        records.append((report[-1], lhs, rhs, list(calls)))

    monkeypatch.setattr(algebras, "push_column", counting_push)
    monkeypatch.setattr(algebras, "_record", recording)

    def build():
        return WeightScheme(AlgebraSpec(family, **kwargs), parse_shape(text))

    ws = build()
    assert ws.field == RATIONALS
    verify_relations(ws)
    assert records and not any(pushed for *_, pushed in records)
    for key in _tables(build()):
        records.clear()
        ws = build()
        _plant(ws, key, 1, False, 1)
        verify_relations(ws)
        failing = [r for r in records if r[0]["status"] == "fail"]
        assert failing, key
        for item, lhs, rhs, pushed in records:
            if item["status"] == "pass":
                assert not pushed
                continue
            v = item["witness"]["col"]
            nl = len(lhs)
            assert len(pushed) == nl + len(rhs)
            for side in (pushed[:nl], pushed[nl:]):
                # the first push is the unit column v, into the rightmost
                # table
                assert list(side[0]) == [v]
