from fractions import Fraction as F
from itertools import product

import pytest

from youngbasis.algebras import (AlgebraSpec, WeightScheme, _entry_witness,
                                 natural_generator, seminormal_generator,
                                 verify_relations, x_generator,
                                 zeroth_generator)
from youngbasis.bruhat import BruhatGraph
from youngbasis.errors import (NonSemisimpleError, PreconditionError)
from youngbasis.fields import CyclotomicField, QRat
from youngbasis.linalg import Matrix, matmul
from youngbasis.perms import reduced_word
from youngbasis.shapes import (Tableau, all_partitions, alphabetizer,
                               parse_shape, shape_from_parts)
from youngbasis.transition import (orthogonal_diag_squared,
                                   transition_recursive)

S321 = parse_shape("3,2,1")
SPEC_S6 = AlgebraSpec("symmetric", 6)


def _node(graph, *rows):
    return graph.index[Tableau(graph.shape, [rows]).rows]


def test_seminormal_column_with_standard_swap():
    g = BruhatGraph(S321)
    m = seminormal_generator(SPEC_S6, S321, 5, graph=g)
    t11 = _node(g, (1, 2, 5), (3, 4), (6,))
    t7 = _node(g, (1, 2, 6), (3, 4), (5,))
    col = m.column(t11)
    assert col == {t11: F(-1, 4), t7: F(3, 4)}


def test_seminormal_column_with_nonstandard_swap():
    g = BruhatGraph(S321)
    m = seminormal_generator(SPEC_S6, S321, 3, graph=g)
    t11 = _node(g, (1, 2, 5), (3, 4), (6,))
    assert m.column(t11) == {t11: F(1)}


def test_seminormal_single_row_is_scalar_one():
    s = parse_shape("4")
    spec = AlgebraSpec("symmetric", 4)
    for i in range(1, 4):
        m = seminormal_generator(spec, s, i)
        assert m.to_rows() == [[F(1)]]


def test_seminormal_sparsity():
    for text in ["3,2,1", "3,3,1/2,1", "(2,1)|(2)"]:
        shape = parse_shape(text)
        fam = "symmetric" if shape.r == 1 else "wreath_grn"
        spec = AlgebraSpec(fam, shape.n, r=shape.r)
        for i in range(1, shape.n):
            m = seminormal_generator(spec, shape, i)
            assert all(len(col) <= 2 for col in m.cols)


def test_zeroth_generator_cyclotomic_eigenvalues():
    shape = parse_shape("(2,1)|(1)")
    spec = AlgebraSpec("ariki_koike", 4, r=2, q=5, u=(2, 3))
    g = BruhatGraph(shape)
    m = zeroth_generator(spec, shape, graph=g)
    for v, t in enumerate(g.nodes):
        expect = F(2) if t.component_of(1) == 1 else F(3)
        assert m.get(v, v) == expect
    specw = AlgebraSpec("wreath_grn", 4, r=2)
    mw = zeroth_generator(specw, shape, graph=g)
    field = CyclotomicField(2)
    for v, t in enumerate(g.nodes):
        expect = field.one if t.component_of(1) == 1 else -field.one
        assert mw.get(v, v) == expect


def test_x_generator_diagonal():
    shape = parse_shape("2")
    spec = AlgebraSpec("affine_placed", 2)
    m = x_generator(spec, shape, 1)
    assert m.get(0, 0) == QRat.const(1)
    m2 = x_generator(spec, shape, 2)
    assert m2.get(0, 0) == QRat.q_power(2)
    with pytest.raises(PreconditionError):
        x_generator(AlgebraSpec("symmetric", 2), shape, 1)


def test_zeroth_rejected_without_generator():
    with pytest.raises(PreconditionError):
        zeroth_generator(AlgebraSpec("symmetric", 3), parse_shape("2,1"))
    with pytest.raises(PreconditionError):
        zeroth_generator(AlgebraSpec("hecke_A", 3), parse_shape("2,1"))


def test_natural_generator_permutes_when_standard():
    g = BruhatGraph(S321)
    tm = transition_recursive(SPEC_S6, S321, graph=g)
    m = natural_generator(SPEC_S6, S321, 5, graph=g, transition=tm)
    t11 = _node(g, (1, 2, 5), (3, 4), (6,))
    t7 = _node(g, (1, 2, 6), (3, 4), (5,))
    assert m.column(t11) == {t7: F(1)}


def test_natural_generator_straightening_pattern():
    g = BruhatGraph(S321)
    tm = transition_recursive(SPEC_S6, S321, graph=g)
    m = natural_generator(SPEC_S6, S321, 3, graph=g, transition=tm)
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
    spec = AlgebraSpec("symmetric", 3)
    for i in (1, 2):
        assert natural_generator(spec, s, i).to_rows() == [[F(1)]]


def test_natural_integrality_small():
    for n in range(2, 6):
        for lam in all_partitions(n):
            shape = shape_from_parts(lam)
            spec = AlgebraSpec("symmetric", n)
            g = BruhatGraph(shape)
            tm = transition_recursive(spec, shape, graph=g)
            for i in range(1, n):
                m = natural_generator(spec, shape, i, graph=g, transition=tm)
                for col in m.cols:
                    assert all(v.denominator == 1 for v in col.values())


def test_restriction_block_structure():
    # generators not moving n respect the box of n
    shapes = ["3,2", "2,2,1", "3,1,1", "3,3,1/2,1"]
    for n in range(2, 6):
        shapes.extend(",".join(map(str, lam)) for lam in all_partitions(n))
    for text in shapes:
        shape = parse_shape(text)
        spec = AlgebraSpec("symmetric", shape.n)
        g = BruhatGraph(shape)
        groups = [t.box_of[shape.n] for t in g.nodes]
        for i in range(1, shape.n - 1):
            m = seminormal_generator(spec, shape, i, graph=g)
            for j, col in enumerate(m.cols):
                for r in col:
                    assert groups[r] == groups[j]


def test_alphabetizer_acts_by_relabeling():
    shape = parse_shape("(2,1)|(1)")
    spec = AlgebraSpec("wreath_grn", 4, r=2)
    g = BruhatGraph(shape)
    gens = {i: seminormal_generator(spec, shape, i, graph=g)
            for i in range(1, 4)}
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
    ("hecke_B", "(2,1)|(1)", {"r": 2, "u": (F(2), F(1, 2))}),
    ("ariki_koike", "(2,1)|(1)", {"r": 2, "q": F(5), "u": (2, 3)}),
    ("ariki_koike", "(1)|(1)|(2)", {"r": 3, "u": (2, 3, 5)}),
    ("wreath_grn", "(2,1)|(1)", {"r": 2}),
    ("wreath_grn", "(1)|(1)|(2)", {"r": 3}),
    ("affine_placed", "3,1", {}),
])
def test_verify_relations_pass(family, shape_text, kwargs):
    shape = parse_shape(shape_text)
    spec = AlgebraSpec(family, shape.n, **kwargs)
    report = verify_relations(spec, shape)
    failures = [r for r in report if r["status"] != "pass"]
    assert not failures, failures


def test_verify_relations_affine_placed_pages():
    shape = parse_shape("(2)|(1,1)@q^0,q^20")
    spec = AlgebraSpec("affine_placed", 4)
    report = verify_relations(spec, shape)
    assert all(r["status"] == "pass" for r in report)
    names = [r["relation"] for r in report]
    assert any(name.startswith("X") for name in names)
    assert "mixed braid X1 T1 X1 T1" in names


def test_verify_relations_reports_a_corrupted_generator():
    # verify_relations reads the generators cached on the scheme, so a
    # planted error in T_1 must fail exactly the relations whose two
    # sides it makes differ, each with the witness of lhs - rhs
    shape = parse_shape("3,2")
    spec = AlgebraSpec("hecke_A", 5, q=3)
    g = BruhatGraph(shape)
    ws = WeightScheme(spec, shape)
    gens = {i: seminormal_generator(spec, shape, i, graph=g, ws=ws)
            for i in range(1, 5)}
    col = gens[1].cols[2]
    row = min(col)
    col[row] = col[row] + 1
    report = {r["relation"]: r for r in verify_relations(spec, shape,
                                                          graph=g, ws=ws)}
    coeff = F(3) - F(1, 3)
    ident = Matrix.identity(g.size(), ws.field)
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


def test_spec_validation():
    with pytest.raises(PreconditionError):
        AlgebraSpec("hecke_B", 3, r=2, u=(2, 3))  # u1*u2 != 1
    with pytest.raises(NonSemisimpleError):
        AlgebraSpec("ariki_koike", 2, r=2, q=2, u=(1, 4))  # u2/u1 = q^2
    with pytest.raises(PreconditionError):
        AlgebraSpec("wreath_grn", 3, r=2, q=3)
    with pytest.raises(PreconditionError):
        AlgebraSpec("nope", 3)
    spec = AlgebraSpec("symmetric", 4)
    with pytest.raises(PreconditionError):
        spec.validate_shape(parse_shape("(2,1)|(1)"))
    with pytest.raises(PreconditionError):
        spec.validate_shape(parse_shape("2,1"))


def test_natural_generator_for_zeroth():
    shape = parse_shape("(2,1)|(1)")
    spec = AlgebraSpec("ariki_koike", 4, r=2, q=5, u=(2, 3))
    g = BruhatGraph(shape)
    tm = transition_recursive(spec, shape, graph=g)
    m = natural_generator(spec, shape, 0, graph=g, transition=tm)
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
            sym = AlgebraSpec("symmetric", n)
            hecke = AlgebraSpec("hecke_A", n, q=1)
            assert transition_recursive(hecke, shape, graph=g).matrix \
                == transition_recursive(sym, shape, graph=g).matrix
            assert orthogonal_diag_squared(hecke, shape, graph=g) \
                == orthogonal_diag_squared(sym, shape, graph=g)


def _r_partitions(r, n):
    for sizes in product(range(n + 1), repeat=r):
        if sum(sizes) == n:
            yield from product(*(all_partitions(k) for k in sizes))


def test_ariki_koike_at_q_one_is_wreath():
    # the s_i do not see u at q = 1: cross-component coefficients vanish
    for u in ((2, 3), (2, 3, 4)):
        r = len(u)
        for n in range(1, 5):
            for parts in _r_partitions(r, n):
                shape = shape_from_parts(*parts)
                g = BruhatGraph(shape)
                ak = AlgebraSpec("ariki_koike", n, r=r, q=1, u=u)
                wreath = AlgebraSpec("wreath_grn", n, r=r)
                assert transition_recursive(ak, shape, graph=g).matrix \
                    == transition_recursive(wreath, shape, graph=g).matrix
