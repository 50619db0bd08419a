from fractions import Fraction as F

import pytest

from walks import r_partitions
from youngbasis.algebras import (AlgebraSpec, WeightScheme, _entry_witness,
                                 natural_generator, seminormal_generator,
                                 verify_relations, x_generator,
                                 zeroth_generator)
from youngbasis.bruhat import BruhatGraph
from youngbasis.errors import (DegenerateWeightError, NonSemisimpleError,
                               PreconditionError)
from youngbasis.fields import CyclotomicField, QRat, evaluate_q
from youngbasis.linalg import Matrix, matmul
from youngbasis.perms import reduced_word
from youngbasis.shapes import (Shape, Tableau, all_partitions, alphabetizer,
                               parse_shape, shape_from_parts)
from youngbasis.transition import (orthogonal_diag_squared,
                                   transition_recursive)

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
                for col in m.cols:
                    assert all(v.denominator == 1 for v in col.values())


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


def test_verify_relations_reports_a_corrupted_generator():
    # verify_relations reads the generators cached on the scheme, so a
    # planted error in T_1 must fail exactly the relations whose two
    # sides it makes differ, each with the witness of lhs - rhs
    shape = parse_shape("3,2")
    spec = AlgebraSpec("hecke_A", q=3)
    ws = WeightScheme(spec, shape)
    gens = {i: seminormal_generator(ws, i) for i in range(1, 5)}
    col = gens[1].cols[2]
    row = min(col)
    col[row] = col[row] + 1
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
    # over the rationals each relation runs on L-scaled integer matrices;
    # its witness must still be the first nonzero entry of lhs - rhs
    ws = WeightScheme(AlgebraSpec(family), parse_shape(text))
    n = ws.shape.n
    gens = {i: seminormal_generator(ws, i) for i in range(1, n)}
    col = gens[label].cols[2]
    row = min(col)
    col[row] = col[row] + delta
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
    out = [[dict(col) for col in m.cols] for m in mats]
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
