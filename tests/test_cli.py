import csv
import hashlib
import io
import json
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import matrices
from golden import SYMMETRIC_GOLDEN
from youngbasis import fields
from youngbasis.algebras import (AlgebraSpec, WeightScheme,
                                 seminormal_generator, zeroth_generator)
from youngbasis.cli import FAMILY_CHOICES, build_parser, main
from youngbasis.fields import evaluate_q
from youngbasis.linalg import Matrix, matrix_from_json, matrix_to_json
from youngbasis.shapes import all_partitions, parse_shape
from youngbasis.transition import grn_transition, transition_recursive


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_transition_csv_golden(capsys):
    code, out, _ = run_cli(capsys, "transition", "--shape", "3,2",
                           "--family", "symmetric", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith(",1 2 3 4 5")
    cells = {}
    header = lines[0].split(",")[1:]
    for line in lines[1:]:
        parts = line.split(",")
        for w, v in zip(header, parts[1:]):
            cells[(parts[0], w)] = v
    # match golden values keyed by basis word
    basis, rows = SYMMETRIC_GOLDEN["3,2"]
    from youngbasis.shapes import Tableau
    s = parse_shape("3,2")
    words = [" ".join(map(str, Tableau(s, [b]).word)) for b in basis]
    for i in range(5):
        for j in range(5):
            assert F(cells[(words[i], words[j])]) == F(rows[i][j])


def test_transition_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "transition", "--shape", "3,2",
                           "--family", "hecke_A", "--format", "json")
    assert code == 0
    s = parse_shape("3,2")
    m, shape_str, params = matrix_from_json(out, shape=s)
    assert shape_str == "3,2"
    assert params["family"] == "hecke_A"
    assert m.nrows == 5
    # byte-identical reruns
    code2, out2, _ = run_cli(capsys, "transition", "--shape", "3,2",
                             "--family", "hecke_A", "--format", "json")
    assert out2 == out


def _csv_cells(text):
    """Cell strings of each matrix in CSV output, labels dropped."""
    mats = []
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        if line.startswith(","):
            mats.append([])
        else:
            mats[-1].append(line.split(",")[1:])
    return mats


@pytest.mark.parametrize("text,spec,flags", [
    ("(2)|(1)|(1)", AlgebraSpec("wreath_grn"),
     ("--family", "grn", "--r", "3")),
    ("3,2,1", AlgebraSpec("hecke_A"), ("--family", "hecke_A")),
])
def test_json_and_csv_round_trip(capsys, text, spec, flags):
    # rational transition and cyclotomic s0 for grn, q-rational for hecke_A
    shape = parse_shape(text)
    ws = WeightScheme(spec, shape)
    if spec.family == "wreath_grn":
        tm = grn_transition(ws)
        gens = [zeroth_generator(ws)]
    else:
        tm = transition_recursive(ws)
        gens = []
    gens += [seminormal_generator(ws, i) for i in range(1, shape.n)]
    for command, want in (("transition", [tm.matrix]), ("seminormal", gens)):
        code, out, _ = run_cli(capsys, command, "--shape", text, *flags,
                               "--format", "json")
        assert code == 0
        obj = json.loads(out)
        blocks = obj.get("generators", [obj])
        assert [matrix_from_json(json.dumps(b))[0] for b in blocks] == want
        if command == "transition":
            # parsing and re-serializing gives back the same bytes
            assert matrix_to_json(*matrix_from_json(out, shape=shape)) == out
        code, out, _ = run_cli(capsys, command, "--shape", text, *flags,
                               "--format", "csv")
        assert code == 0
        cells = _csv_cells(out)
        assert [Matrix.from_rows([[m.field.parse(c) for c in row]
                                  for row in rows], m.field)
                for m, rows in zip(want, cells)] == want


def test_transition_oracles_agree(capsys):
    outs = []
    for oracle in ("recursive", "pathsum", "word"):
        code, out, _ = run_cli(capsys, "transition", "--shape", "2,2,1",
                               "--oracle", oracle, "--format", "json")
        assert code == 0
        outs.append(json.loads(out)["rows"])
    assert outs[0] == outs[1] == outs[2]


def test_grn_transition_via_family_flag(capsys):
    code, out, _ = run_cli(capsys, "transition", "--shape", "(2,1)|(1)",
                           "--family", "wreath_grn", "--r", "2",
                           "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert len(obj["rows"]) == 8
    assert obj["field"] == "rational"


def test_graph_dot(capsys):
    code, out, _ = run_cli(capsys, "graph", "--shape", "3,2,1",
                           "--format", "dot")
    assert code == 0
    assert out.count("[label=\"s") == 24  # edges of the 16-node diagram
    assert out.count("n15") >= 1


def test_tableaux_listing(capsys):
    code, out, _ = run_cli(capsys, "tableaux", "--shape", "3,2",
                           "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["count"] == 5
    assert obj["tableaux"][0]["depth"] == 0
    assert obj["tableaux"][0]["word"] == [1, 2, 3, 4, 5]


def test_seminormal_and_natural(capsys):
    code, out, _ = run_cli(capsys, "seminormal", "--shape", "2,1",
                           "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert [g["name"] for g in obj["generators"]] == ["s1", "s2"]
    code, out, _ = run_cli(capsys, "natural", "--shape", "2,1",
                           "--format", "json", "--gen", "2")
    assert code == 0
    obj = json.loads(out)
    assert [g["name"] for g in obj["generators"]] == ["s2"]
    assert obj["generators"][0]["rows"] == [["0", "1"], ["1", "0"]]


def test_natural_generator_values(capsys):
    code, out, _ = run_cli(capsys, "natural", "--shape", "2,1",
                           "--format", "json", "--gen", "1")
    obj = json.loads(out)
    # the column swap of the minimal tableau straightens to minus itself
    rows = obj["generators"][0]["rows"]
    assert rows[0][0] == "-1"


def test_natural_solves_once_per_generator_and_never_inverts(capsys,
                                                             monkeypatch):
    from youngbasis import algebras, linalg
    real = algebras.triangular_solve
    inverses, calls = [], []

    def solving(a, b):
        calls.append(a.nrows)
        return real(a, b)

    monkeypatch.setattr(linalg, "triangular_inverse",
                        lambda a: inverses.append(a.nrows))
    monkeypatch.setattr(algebras, "triangular_solve", solving)
    cases = [(["--shape", "4,3,1"], 7),
             (["--shape", "(2,1)|(1)@1,q^3", "--family", "affine_placed",
               "--q", "5"], 7),
             (["--shape", "(2,1)|(1)", "--family", "grn", "--r", "2"], 4)]
    for argv, n_gens in cases:
        calls.clear()
        code, out, _ = run_cli(capsys, "natural", *argv, "--format", "json")
        assert code == 0, argv
        assert len(json.loads(out)["generators"]) == n_gens, argv
        assert (inverses, len(calls)) == ([], n_gens), (argv, calls)


def _count_table_matrices(monkeypatch):
    """A list that records each generator matrix built from a step table
    (``algebras._table_matrix``): the s_i label of the table, or
    "diagonal" for a table of T_0 or an X_i."""
    from youngbasis import algebras
    real_matrix = algebras._table_matrix
    real_steps = WeightScheme.scaled_steps
    labels, built = {}, []

    def scaled_steps(self, label):
        steps = real_steps(self, label)
        labels[id(steps)] = label  # the scheme keeps the table alive
        return steps

    def table_matrix(steps, field, basis):
        built.append(labels.get(id(steps), "diagonal"))
        return real_matrix(steps, field, basis)

    monkeypatch.setattr(WeightScheme, "scaled_steps", scaled_steps)
    monkeypatch.setattr(algebras, "_table_matrix", table_matrix)
    return built


@pytest.mark.parametrize("argv, gen", [
    ("--shape 4,3,1", "3"),
    ("--family affine_placed --shape (2,1)|(1)@1,q^3 --q 5", "x1"),
    # s_0 of a wreath product lives in a larger field than A
    ("--family grn --shape (2,1)|(1)", "0"),
])
def test_natural_gen_builds_and_conjugates_one_generator(capsys, monkeypatch,
                                                         argv, gen):
    from youngbasis import algebras
    code, out, _ = run_cli(capsys, "natural", *argv.split(" "))
    assert code == 0
    everything = json.loads(out)["generators"]
    real_matmul, real_solve = algebras.matmul, algebras.triangular_solve
    products, solves = [], []

    def counting_matmul(a, b):
        products.append(a.nrows)
        return real_matmul(a, b)

    def counting_solve(a, b):
        solves.append(a.nrows)
        return real_solve(a, b)

    monkeypatch.setattr(algebras, "matmul", counting_matmul)
    monkeypatch.setattr(algebras, "triangular_solve", counting_solve)
    built = _count_table_matrices(monkeypatch)
    code, out, _ = run_cli(capsys, "natural", *argv.split(" "), "--gen", gen)
    assert code == 0
    picked = json.loads(out)["generators"]
    assert picked == [g for g in everything
                      if g["name"].lower() in (gen, f"s{gen}", f"t{gen}")]
    assert len(picked) == 1
    assert len(products) == len(solves) == 1  # A X = M A
    assert built == [int(gen) if gen.isdigit() and gen != "0"
                     else "diagonal"]


@pytest.mark.parametrize("argv, calls", [
    # one per label, plus T_0 or each X_i
    ("--shape 3,2", 4),
    ("--family hecke_A --q 5 --shape 3,2,1", 5),
    ("--family hecke_B --u 2,1/2 --shape (2,1)|(1)", 3 + 1),
    ("--family grn --shape (2,1)|(1)", 3 + 1),
    ("--family affine_placed --shape (2,1)|(1)@1,q^3 --q 5", 3 + 4),
])
def test_verify_splits_each_generator_once(capsys, monkeypatch, argv, calls):
    # every route and relation reads one step table per generator, the
    # s_i tables and the diagonal T_0 or X_i tables alike
    from youngbasis import algebras
    real = algebras._scale_steps
    seen = []

    def counting(split, stay, move):
        seen.append(len(stay))
        return real(split, stay, move)

    monkeypatch.setattr(algebras, "_scale_steps", counting)
    code, out, _ = run_cli(capsys, "verify", *argv.split(" "))
    assert code == 0 and json.loads(out)["failures"] == 0
    assert len(seen) == calls


@pytest.mark.parametrize("argv", [
    "--family grn --shape ()|()",
    "--family hecke_B --u 2,1/2 --shape ()|()",
    "--family ariki_koike --u 2,3,5 --shape ()|()|()",
])
def test_a_shape_without_boxes_has_no_generators(capsys, argv):
    for command in ("seminormal", "natural"):
        code, out, err = run_cli(capsys, command, *argv.split(" "))
        assert (code, err) == (0, "")
        assert json.loads(out)["generators"] == []
        code, out, err = run_cli(capsys, command, *argv.split(" "),
                                 "--format", "csv")
        assert (code, out, err) == (0, "", "")
        code, out, err = run_cli(capsys, command, *argv.split(" "),
                                 "--gen", "0")
        assert (code, out) == (3, "")
        assert "no generator named '0'" in json.loads(err)["message"]


def test_gen_on_a_module_with_an_undefined_coefficient_exits_3(capsys):
    # s_2 has no coefficient here, so no generator is given, s_1 included
    argv = ["--family", "affine_placed", "--shape", "(2)|(1)@q^0,q^2"]
    for command in ("seminormal", "natural"):
        for gen in (None, "1", "x1", "9"):
            extra = [] if gen is None else ["--gen", gen]
            code, out, err = run_cli(capsys, command, *argv, *extra)
            assert (code, out) == (3, "")
            assert "coincide" in json.loads(err)["message"]


@pytest.mark.parametrize("command", ["tableaux", "transition"])
def test_a_thousand_boxes_in_one_row(capsys, command):
    # a depth or an inversion set built from all n(n-1)/2 pairs made
    # 4000 boxes take seconds
    for boxes in ("1000", "4000"):
        code, out, _ = run_cli(capsys, command, "--shape", boxes)
        assert code == 0
        obj = json.loads(out)
        assert len(obj["tableaux" if command == "tableaux" else "basis"]) == 1


@pytest.mark.parametrize("argv", [
    "natural --shape 4,3,1",
    "seminormal --family hecke_A --shape 3,2,2",
    "natural --family affine_placed --shape (2,1)|(1)@1,q^3 --q 5",
    "verify --family grn --r 2 --shape (2,1)|(1)",
    "transition --oracle word --shape 3,2",
    "orthogonal --family hecke_A --shape 3,2",
])
def test_each_request_builds_one_scheme(capsys, monkeypatch, argv):
    real = WeightScheme.__init__
    calls = []

    def counting(self, *args, **kwargs):
        calls.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(WeightScheme, "__init__", counting)
    code, _, _ = run_cli(capsys, *argv.split(" "))
    assert code == 0
    assert len(calls) == 1


def test_orthogonal_csv(capsys):
    code, out, _ = run_cli(capsys, "orthogonal", "--shape", "2,1",
                           "--format", "csv")
    assert code == 0
    assert out.strip().split("\n") == ["word,diag_squared", "1 2 3,1",
                                       "1 3 2,3"]


def test_verify_pass_and_fail_codes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--shape", "3,2")
    assert code == 0
    assert json.loads(out)["failures"] == 0
    code, out, _ = run_cli(capsys, "verify", "--shape", "(2,1)|(1)",
                           "--family", "ariki_koike", "--u", "2,3",
                           "--q", "5")
    assert code == 0


def test_kernel_caches_leak_no_state_between_requests(capsys):
    """One process runs many requests, as the benchmark worker does; the
    memoized polynomial kernel must not change any of their outputs."""
    argv = ("transition", "--family", "hecke_A", "--shape", "3,2,2",
            "--format", "json")
    for f in (fields._igcd, fields._imul):
        f.cache_clear()
    code, cold, _ = run_cli(capsys, *argv)
    assert code == 0
    code, _, _ = run_cli(capsys, "transition", "--family", "ariki_koike",
                         "--u", "2,3", "--shape", "(2,1)|(1,1)")
    assert code == 0
    code, warm, _ = run_cli(capsys, *argv)
    assert code == 0 and warm == cold
    # the op count of symbolic hecke_A 4,3,2 is that of the uncached kernel
    code, out, _ = run_cli(capsys, "bench", "--family", "hecke_A",
                           "--shape", "4,3,2", "--format", "json")
    assert code == 0 and json.loads(out)[0]["scalar_ops"] == 9770


def test_bench(capsys):
    code, out, _ = run_cli(capsys, "bench", "--partitions-of", "4",
                           "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("shape,f,")
    assert len(lines) == 6  # header + 5 partitions
    # shapes come in the order of all_partitions: lexicographically decreasing
    code, out, _ = run_cli(capsys, "bench", "--partitions-of", "6",
                           "--format", "csv")
    assert code == 0
    shapes = [row["shape"] for row in csv.DictReader(io.StringIO(out))]
    assert shapes == [",".join(map(str, p)) for p in all_partitions(6)]
    code, out, _ = run_cli(capsys, "bench", "--shape", "3,2",
                           "--format", "json")
    rec = json.loads(out)[0]
    assert rec["f"] == 5 and rec["scalar_ops"] <= rec["op_bound"]
    # bench takes the same family arguments as the other subcommands
    code, out, _ = run_cli(capsys, "bench", "--shape", "(2,1)|(1)",
                           "--family", "grn", "--r", "2", "--format", "json")
    assert code == 0
    assert json.loads(out)[0]["f"] == 8


def test_bench_partitions_of_zero_and_a_negative_size(capsys):
    # all_partitions(0) is the empty partition, as --shape "()" gives
    code, out, _ = run_cli(capsys, "bench", "--partitions-of", "0",
                           "--format", "json")
    assert code == 0
    assert [(r["shape"], r["f"]) for r in json.loads(out)] == [("", 1)]
    code, empty, _ = run_cli(capsys, "bench", "--shape", "()",
                             "--format", "json")
    assert code == 0 and json.loads(empty)[0]["f"] == 1
    for size in ("-1", "x"):
        code, out, err = run_cli(capsys, "bench", "--partitions-of", size)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1
        diag = json.loads(err)
        assert diag["error"] == "parse" and "--partitions-of" in diag["message"]


@pytest.mark.parametrize("argv, option", [
    ("verify --shape 3,2 --oracle-cap", "--oracle-cap"),
    ("transition --shape 3,2 --oracle pathsum --pathsum-cap",
     "--pathsum-cap"),
])
def test_a_negative_oracle_cap_is_a_parse_error(capsys, argv, option):
    for value in ("-1", "-3", "x"):
        code, out, err = run_cli(capsys, *argv.split(" "), value)
        assert (code, out) == (2, "")
        assert err.count("\n") == 1
        diag = json.loads(err)
        assert diag["error"] == "parse" and option in diag["message"]
    # a cap of 0 is a cap: verify skips the oracles, pathsum refuses n = 5
    code, out, _ = run_cli(capsys, *argv.split(" "), "0")
    if option == "--oracle-cap":
        assert code == 0
        names = [c["relation"] for c in json.loads(out)["checks"]]
        assert "triple-oracle agreement" not in names
    else:
        assert (code, out) == (3, "")


_VERIFY_PER_FAMILY = [
    "--shape 3,2",
    "--family hecke_A --shape 3,2,1",
    "--family hecke_B --u 2,1/2 --q 5 --shape (2,1)|(1)",
    "--family ariki_koike --u 2,3 --shape (2,1)|(1)",
    "--family grn --shape (2,1)|(1,1)",
    "--family affine_placed --shape (2,1)|(1)@1,q^3 --q 5",
]


@pytest.mark.parametrize("argv", _VERIFY_PER_FAMILY)
def test_verify_multiplies_no_matrices(capsys, monkeypatch, argv):
    # the relations push columns through step tables, and the word route
    # applies numerator matrices: no product, no generator matrix, and
    # no matrix scaled or coerced
    from youngbasis import algebras, linalg
    real_matmul = linalg.matmul
    products, other = [], []

    def counting_matmul(a, b):
        products.append(a.nrows)
        return real_matmul(a, b)

    def counting(owner, name):
        real = getattr(owner, name)
        return lambda m, x: other.append(name) or real(m, x)

    monkeypatch.setattr(linalg, "matmul", counting_matmul)
    monkeypatch.setattr(algebras, "matmul", counting_matmul)
    built = _count_table_matrices(monkeypatch)
    for owner, name in ((matrices, "scale"), (Matrix, "coerce_field")):
        monkeypatch.setattr(owner, name, counting(owner, name))
    code, out, _ = run_cli(capsys, "verify", *argv.split(" "))
    assert code == 0 and json.loads(out)["failures"] == 0
    assert (products, built, other) == ([], [], [])
    # the counters count: natural conjugates by one product and a solve
    code, _, _ = run_cli(capsys, "natural", "--gen", "1", *argv.split(" "))
    assert code == 0 and len(products) == 1 and built == [1]


def test_a_fault_in_the_step_scaling_fails_the_relations(capsys,
                                                         monkeypatch):
    # all three routes read the scaled steps, so they agree on a faulty
    # scaling; the relations on the same tables fail (s_1 of 3,2 moves
    # nothing), and so does the closed-form diagonal, which reads the
    # unscaled coefficients
    from youngbasis import algebras
    real = algebras._scale_steps

    def mutant(split, stay, move):
        stay, move, den = real(split, stay, move)
        return stay, [None if mv is None else (mv[0] + 1, mv[1])
                      for mv in move], den

    monkeypatch.setattr(algebras, "_scale_steps", mutant)
    code, out, _ = run_cli(capsys, "verify", "--shape", "3,2")
    assert code == 4
    status = {c["relation"]: c["status"] for c in json.loads(out)["checks"]}
    assert status["triple-oracle agreement"] == "pass"
    assert status["transition structure"] == "pass"
    assert status["involution s2"] == status["braid s1 s2"] == "fail"


@pytest.mark.parametrize("argv", [
    "transition --family affine_placed --shape (2,1)|(1)@1,q^3 --r 5",
    "transition --family grn --shape (2,1)|(1) --r 3",
    "verify --shape 3,2 --r 2",
    "bench --family grn --shape (2,1)|(1) --r 1",
])
def test_r_must_match_the_shape(capsys, argv):
    code, out, err = run_cli(capsys, *argv.split(" "))
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "precondition"


def test_exit_code_2_on_parse_error(capsys):
    code, _, err = run_cli(capsys, "transition", "--shape", "3,4")
    assert code == 2
    diag = json.loads(err.strip().split("\n")[-1])
    assert diag["error"] == "parse"


@pytest.mark.parametrize("argv", [
    "transition --shape 2,1 --family bogus",
    "transition --shape 2,1 --format xml",
    "transition --family hecke_A",
    "transition --shape 4,3,1 --oracle pathsum --pathsum-cap x",
])
def test_usage_errors_exit_2_with_one_diagnostic_line(capsys, argv):
    code, out, err = run_cli(capsys, *argv.split(" "))
    assert (code, out) == (2, "")
    lines = err.splitlines()
    assert len(lines) == 1
    diagnostic = json.loads(lines[0])
    assert set(diagnostic) == {"error", "message"}
    assert diagnostic["error"] == "parse"


@pytest.mark.parametrize("option", ["--shape=--", "--q=--", "--u=--",
                                    "--r=--", "--family=--"])
def test_double_dash_as_an_option_value_is_a_parse_error(capsys, option):
    argv = ["transition", "--shape=2,1", option]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "parse"


@pytest.mark.parametrize("command, formats", [
    ("tableaux", {"json", "csv"}), ("graph", {"dot"}),
    ("seminormal", {"json", "csv"}), ("natural", {"json", "csv"}),
    ("transition", {"json", "csv"}), ("orthogonal", {"json", "csv"}),
    ("verify", {"json"}), ("bench", {"json", "csv"}),
])
def test_format_offers_only_what_the_command_writes(capsys, command,
                                                    formats):
    for fmt in ("json", "csv", "dot"):
        code, out, err = run_cli(capsys, command, "--shape", "2,1",
                                 "--format", fmt)
        if fmt in formats:
            assert code == 0, (fmt, err)
            if fmt == "json":
                json.loads(out)
        else:
            assert (code, out) == (2, ""), fmt
            assert json.loads(err)["error"] == "parse"


def test_graph_writes_dot_by_default(capsys):
    code, out, _ = run_cli(capsys, "graph", "--shape", "2,1")
    assert code == 0
    assert out.startswith("graph weak_order {")


def test_help_still_prints_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["transition", "-h"])
    assert exc.value.code == 0
    assert "--format {json,csv}" in capsys.readouterr().out


def test_exit_code_3_on_precondition(capsys):
    code, _, err = run_cli(capsys, "transition", "--shape", "(2,1)|(1)",
                           "--family", "ariki_koike")
    assert code == 3
    code, _, err = run_cli(capsys, "transition", "--shape", "(2,1)|(1)",
                           "--family", "ariki_koike", "--u", "1,4",
                           "--q", "2")
    assert code == 3
    diag = json.loads(err.strip().split("\n")[-1])
    assert diag["error"] == "precondition"


@pytest.mark.parametrize("flags", [
    "--family hecke_A --shape 3,2",
    "--family hecke_B --u 2,1/2 --shape (2,1)|(1)",
    "--family ariki_koike --u 2,3 --shape (2,1)|(1)",
    "--family affine_placed --shape (2,1)|(1)@1,3",
])
def test_q_one_specializations_compute(capsys, flags):
    argv = flags.split(" ") + ["--q", "1"]
    code, out, _ = run_cli(capsys, "transition", *argv)
    assert code == 0
    code, out, _ = run_cli(capsys, "verify", *argv)
    assert code == 0
    assert json.loads(out)["failures"] == 0


def test_hecke_A_at_q_one_matches_symmetric_and_q_minus_one_fails(capsys):
    rows = []
    for flags in (("--family", "hecke_A", "--q", "1"),
                  ("--family", "symmetric")):
        code, out, _ = run_cli(capsys, "transition", "--shape", "3,2", *flags)
        assert code == 0
        rows.append(json.loads(out)["rows"])
    assert rows[0] == rows[1]
    # q = -1 makes same-component pairs degenerate
    code, out, err = run_cli(capsys, "transition", "--shape", "3,2",
                             "--family", "hecke_A", "--q", "-1")
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "precondition"


def test_pathsum_cap_flag(capsys):
    code, _, _ = run_cli(capsys, "transition", "--shape", "4,4",
                         "--oracle", "pathsum")
    assert code == 3
    code, out, _ = run_cli(capsys, "transition", "--shape", "4,4",
                           "--oracle", "pathsum", "--pathsum-cap", "8",
                           "--format", "json")
    assert code == 0
    assert len(json.loads(out)["rows"]) == 14


def test_pathsum_walks_a_deep_path_without_recursing():
    # each column's subpaths are enumerated on an explicit stack, so a
    # path of 199 steps computes under a recursion limit of 120
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys; from youngbasis.cli import main; "
            "sys.setrecursionlimit(120); "
            "sys.exit(main(['transition', '--shape', '200,1', "
            "'--oracle', 'pathsum', '--pathsum-cap', '300']))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120,
                          env={"PYTHONPATH": str(src)})
    assert (done.returncode, done.stderr) == (0, "")
    assert len(json.loads(done.stdout)["rows"]) == 200


# one shape of each algebra family
_FAMILY_ARGV = [
    "--shape 3,2,1",
    "--family hecke_A --shape 3,2",
    "--family hecke_B --u 2,1/2 --shape (2,1)|(1)",
    "--family ariki_koike --u 2,3 --q 5 --shape (2,1)|(1)",
    "--family wreath_grn --shape (2,1)|(1)",
    "--family affine_placed --shape (2,1)|(1)@1,q^3",
]


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("route", ["recursive", "pathsum", "word",
                                   "seminormal", "natural"])
@pytest.mark.parametrize("family_argv", _FAMILY_ARGV)
def test_out_file(tmp_path, capsys, family_argv, route, fmt):
    # a route is a transition oracle or a generator command
    argv = [*family_argv.split(" "), "--format", fmt]
    argv = [route, *argv] if route in ("seminormal", "natural") else \
        ["transition", *argv, "--oracle", route]
    code, expected, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    target = tmp_path / f"a.{fmt}"
    assert run_cli(capsys, *argv, "--out", str(target)) == (0, "", "")
    assert target.read_bytes() == expected.encode()
    assert list(tmp_path.iterdir()) == [target]


def test_out_file_is_left_as_it_was_when_the_output_fails_midway(
        tmp_path, capsys, monkeypatch):
    # the basis is written before the first grid of cells is made, and
    # the second grid runs out of memory
    from youngbasis import cli
    original, calls = cli.cell_rows, []

    def cell_rows(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise MemoryError
        return original(*args, **kwargs)
    monkeypatch.setattr(cli, "cell_rows", cell_rows)
    target = tmp_path / "a.json"
    target.write_text("old")
    code, out, err = run_cli(capsys, "seminormal", "--shape", "3,2",
                             "--out", str(target))
    assert (code, out) == (3, "") and len(calls) == 2
    assert [json.loads(line) for line in err.splitlines()] == [
        {"error": "memory", "message": "out of memory"}]
    assert target.read_text() == "old"
    assert list(tmp_path.iterdir()) == [target]


def test_out_writes_through_a_symlink_and_keeps_the_mode(tmp_path, capsys):
    argv = ["seminormal", "--shape", "3,2"]
    code, expected, _ = run_cli(capsys, *argv)
    assert code == 0
    target, link = tmp_path / "a.json", tmp_path / "link.json"
    target.write_text("old")
    target.chmod(0o600)
    link.symlink_to(target)
    assert run_cli(capsys, *argv, "--out", str(link)) == (0, "", "")
    assert link.is_symlink() and target.read_text() == expected
    assert target.stat().st_mode & 0o777 == 0o600
    assert sorted(tmp_path.iterdir()) == [target, link]


def test_out_to_a_file_that_is_not_regular_is_written_directly():
    src = Path(__file__).resolve().parent.parent / "src"
    argv = [sys.executable, "-m", "youngbasis.cli", "seminormal", "--shape",
            "3,2"]
    expected = subprocess.run(argv, capture_output=True, text=True,
                              timeout=120, env={"PYTHONPATH": str(src)})
    done = subprocess.run([*argv, "--out", "/dev/stdout"],
                          capture_output=True, text=True, timeout=120,
                          env={"PYTHONPATH": str(src)})
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == expected.stdout != ""


def test_out_file_is_not_created_when_a_column_fails_the_check(tmp_path,
                                                                capsys):
    target = tmp_path / "a.json"
    code, out, err = run_cli(capsys, "transition", "--family",
                             "affine_placed", "--shape", "(1)|(1)@q^2,1",
                             "--out", str(target))
    assert (code, out) == (4, "")
    assert json.loads(err)["error"] == "invariant"
    assert list(tmp_path.iterdir()) == []


def test_out_to_a_missing_directory_exits_3(tmp_path, capsys):
    target = tmp_path / "missing" / "a.json"
    code, out, err = run_cli(capsys, "transition", "--shape", "2,1",
                             "--out", str(target))
    assert code == 3 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "precondition"
    assert not target.parent.exists()


@pytest.mark.parametrize("argv, message", [
    ("seminormal --shape (1)|(1) --family ariki_koike --u 2,2",
     "parameters u=2,2 q=sym are not semisimple for n=2"),
    ("transition --shape (2,1)|(1) --family ariki_koike --u 1,4 --q 2",
     "parameters u=1,4 q=2 are not semisimple for n=4"),
])
def test_non_semisimple_diagnostic_spells_parameters_as_given(
        capsys, argv, message):
    code, out, err = run_cli(capsys, *argv.split(" "))
    assert code == 3 and out == ""
    assert json.loads(err) == {"error": "precondition", "message": message}


def test_exit_code_4_on_verification_failure(capsys, monkeypatch):
    import youngbasis.cli as cli_mod

    def fake_verify(ws):
        return [{"relation": "planted", "status": "fail",
                 "witness": {"row": 0, "col": 0, "value": "1"}}]

    monkeypatch.setattr(cli_mod, "verify_relations", fake_verify)
    code, out, _ = run_cli(capsys, "verify", "--shape", "2,1")
    assert code == 4
    assert json.loads(out)["failures"] == 1


def test_cached_parser_keeps_no_per_call_state(capsys):
    requests = [
        ["transition", "--shape", "3,2", "--family", "hecke_A", "--q", "5",
         "--format", "csv"],
        ["transition", "--shape", "3,2"],
        ["verify", "--shape", "(2,1)|(1)", "--family", "ariki_koike",
         "--u", "2,3", "--oracle-cap", "3"],
        ["bench", "--shape", "2,1"],
    ]

    def outputs(argvs):
        outs = []
        for argv in argvs:
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            # bench prints a time; the rest of its output is fixed
            outs.append(re.sub(r",\d+\.\d{6},", ",T,", out))
        return outs

    alone = []
    for argv in requests:
        build_parser.cache_clear()
        alone += outputs([argv])
    build_parser.cache_clear()
    assert outputs(requests) == alone
    assert outputs(requests[::-1]) == alone[::-1]
    assert build_parser() is build_parser()


@pytest.mark.parametrize("text", ["(2,1)|(1)@1,q^3", "(2)|(1,1)@q^0,q^5"])
def test_symbolic_page_weights_at_numeric_q(capsys, text):
    shape = parse_shape(text)
    symbolic = transition_recursive(
        WeightScheme(AlgebraSpec("affine_placed"), shape)).matrix
    code, out, _ = run_cli(capsys, "transition", "--family", "affine_placed",
                           "--shape", text, "--q", "5")
    assert code == 0
    numeric = matrix_from_json(out)[0]
    assert numeric.field.name == "rational"
    assert (numeric.nrows, numeric.ncols) == (symbolic.nrows, symbolic.ncols)
    for i in range(symbolic.nrows):
        for j in range(symbolic.ncols):
            assert numeric.get(i, j) == evaluate_q(symbolic.get(i, j), 5)
    code, out, _ = run_cli(capsys, "verify", "--family", "affine_placed",
                           "--shape", text, "--q", "5")
    assert code == 0
    assert json.loads(out)["failures"] == 0


@pytest.mark.parametrize("argv, expected", [
    ("transition --shape=3,2 --family=hecke_A --q=1/0", 2),
    ("transition --shape=(2,1)|(1) --family=ariki_koike --u=1/0,2", 2),
    ("transition --shape=1 --family=affine_placed --q=0", 3),
    ("transition --shape=(2,1)|(1)@0,3 --family=affine_placed --q=1", 3),
    ("verify --shape=@1 --family=ariki_koike --u=1", 0),
    ("tableaux --shape=(1)|(1)@1,1/0*q^2", 2),
    ("transition --shape=(1)|(1)@1,1/0*q^2 --family=affine_placed", 2),
])
def test_former_tracebacks_exit_cleanly(capsys, argv, expected):
    code, out, err = run_cli(capsys, *argv.split(" "))
    assert code == expected
    if code:
        assert out == ""
        assert json.loads(err)["error"] in ("parse", "precondition")


@pytest.mark.parametrize("shape, column", [
    ("(1)|(1)@1,q^2", None), ("(2)|(1)@1,q^4", None),
    ("(2,1)|(1)@1,q^4", None), ("(1)|(1)@q^2,1", 1),
    ("(2,1)|(1)@q^4,1", 3),
])
def test_a_zero_move_coefficient_exits_cleanly(capsys, shape, column):
    # page weights a factor q^2 apart make a move q^-1 + a vanish; where
    # it lies on the recursion's path, a diagonal entry is 0
    argv = ["--family", "affine_placed", "--shape", shape]
    code, out, err = run_cli(capsys, "verify", *argv)
    report = json.loads(out)
    failed = [c for c in report["checks"] if c["status"] == "fail"]
    if column is None:
        assert (code, err, report["failures"], failed) == (0, "", 0, [])
        assert run_cli(capsys, "natural", *argv)[0] == 0
        return
    message = f"zero diagonal in column {column}"
    assert (code, err, report["failures"]) == (4, "", 1)
    assert failed == [{"relation": "transition structure", "status": "fail",
                       "witness": {"message": message}}]
    # transition checks the diagonal by every route, and natural that
    # of the matrix it inverts
    for command in (["transition"], ["transition", "--oracle", "word"],
                    ["transition", "--oracle", "pathsum"], ["natural"]):
        code, out, err = run_cli(capsys, *command, *argv)
        assert (code, out) == (4, ""), command
        assert err.splitlines() == [json.dumps({"error": "invariant",
                                                "message": message})]


def test_a_degenerate_module_fails_where_each_command_first_meets_it(
        capsys):
    # on (2)|(1) the weighted contents of 1 and 2 coincide, so the step
    # table of label 1 cannot be built.  transition meets the zero
    # diagonal of column 1 before column 2 needs that table; natural
    # builds every generator before it checks the diagonal, and verify
    # builds them for its relations first
    argv = ["--family", "affine_placed", "--shape", "(2)|(1)"]
    for oracle in ("recursive", "word", "pathsum"):
        code, out, err = run_cli(capsys, "transition", "--oracle", oracle,
                                 *argv)
        assert (code, out, json.loads(err)) == (4, "", {
            "error": "invariant", "message": "zero diagonal in column 1"})
    for command in ("natural", "verify"):
        code, out, err = run_cli(capsys, command, *argv)
        assert (code, out, json.loads(err)["error"]) == \
            (3, "", "precondition")
        assert "weighted contents of 1 and 2 coincide" in err


@pytest.mark.parametrize("argv", [
    "transition --shape 3,2", "transition --shape 3,2 --oracle word",
    "transition --shape 3,2 --oracle pathsum", "natural --shape 3,2",
    "verify --shape 3,2",
])
def test_only_verify_packs_bruhat_counts(capsys, monkeypatch, argv):
    # transition and natural check only the diagonal, the one rule a
    # route can break (see test_bruhat.py's lifting test); verify runs
    # the full structural check, which packs each node's counts once
    from youngbasis import perms, transition
    calls = []
    prefix_counts = perms.prefix_counts

    def counting(w):
        calls.append(w)
        return prefix_counts(w)

    monkeypatch.setattr(perms, "prefix_counts", counting)
    monkeypatch.setattr(transition, "prefix_counts", counting)
    code, _, err = run_cli(capsys, *argv.split(" "))
    assert (code, err) == (0, "")
    graph = WeightScheme(AlgebraSpec("symmetric"), parse_shape("3,2")).graph
    assert calls == ([t.word for t in graph.nodes]
                     if argv.startswith("verify") else [])


@pytest.mark.parametrize("family, shape", [
    ("symmetric", "2,1"), ("hecke_A", "2,1"), ("grn", "(2)|(1)"),
    ("wreath_grn", "(2)|(1)"), ("affine_placed", "(2)|(1)@1,q^3"),
])
def test_u_rejected_where_the_family_takes_none(capsys, family, shape):
    code, out, err = run_cli(capsys, "transition", "--family", family,
                             "--shape", shape, "--u", "7")
    assert (code, out) == (3, "")
    diagnostic = json.loads(err)
    assert diagnostic["error"] == "precondition"
    assert "takes no parameters u" in diagnostic["message"]


@pytest.mark.parametrize("argv, weights", [
    ("--shape 2,1", "@5"),
    ("--family hecke_A --q 3 --shape 2,1", "@q^2"),
    ("--family ariki_koike --u 2,3 --q 5 --shape (2)|(1)", "@7,9"),
    ("--family grn --shape (1)|(1)", "@2,3"),
])
def test_shape_weights_rejected_where_the_family_takes_them_from_u(
        capsys, argv, weights):
    # only affine_placed reads its page weights from the shape (argv
    # ends in the shape, so the weights are appended to it)
    for command in ("transition", "verify"):
        code, out, err = run_cli(capsys, command, *(argv + weights).split())
        assert (code, out) == (3, "")
        diagnostic = json.loads(err)
        assert diagnostic["error"] == "precondition"
        assert "page weights from u" in diagnostic["message"]
    # weights of 1 change nothing
    ones = "@" + ",".join(["1"] * (weights.count(",") + 1))
    assert run_cli(capsys, "transition", *(argv + ones).split()) == \
        run_cli(capsys, "transition", *argv.split())


# ---------------------------------------------------------------------------
# fuzzing the CLI contract: exit 0, or 2/3/4 with one JSON line on stderr
# ---------------------------------------------------------------------------

_SHAPES = ["1", "2,1", "3,2", "2,2,1", "4,1", "3,1,1", "5", "1,1,1,1,1",
           "3,3,1/2,1", "3,2/1", "(2,1)|(1)", "(1)|(1)|(2)", "(3,2/1)|(2)",
           "(2)|()", "(2,1)|(1)@2,3", "(2)|(1)@q^0,q^2", "3,1@1/2",
           "(2)|(1)@1,3/2*q^2", "(1)|(1)@1,q^2"]
_NON_DIGITS = ",()|/@q^-*x"


@st.composite
def _shape_strings(draw):
    """A valid shape with n <= 5, possibly mangled.  Edits never create a
    digit next to a digit and only lower digits, so n stays <= 5."""
    text = list(draw(st.sampled_from(_SHAPES)))
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(text)))
        kind = draw(st.sampled_from(["insert", "replace", "lower"]))
        if kind == "insert":
            text.insert(i, draw(st.sampled_from(_NON_DIGITS)))
        elif i < len(text) and kind == "replace":
            text[i] = draw(st.sampled_from(_NON_DIGITS))
        elif i < len(text) and text[i].isdigit():
            text[i] = str(draw(st.integers(0, int(text[i]))))
    return "".join(text)


_GOOD = st.sampled_from(["1", "-1", "2", "3", "1/2", "-3/2", "5"])
_RATIONALS = _GOOD | _GOOD | st.sampled_from(["0", "1/0", "x", ""])


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(["transition", "orthogonal", "verify",
                                "seminormal", "natural"]),
       shape=_shape_strings(),
       family=st.sampled_from(FAMILY_CHOICES),
       q=st.just("sym") | _RATIONALS,
       u=st.none() | st.lists(_RATIONALS, min_size=1,
                              max_size=3).map(",".join),
       r=st.none() | st.integers(0, 3),
       gen=st.none() | st.sampled_from(["0", "1", "x1", "X2", "s1", "t1",
                                        "9", ""]))
def test_cli_fuzz_exit_codes_and_diagnostics(capsys, command, shape, family,
                                             q, u, r, gen):
    argv = [command, f"--shape={shape}", f"--family={family}", f"--q={q}"]
    if u is not None:
        argv.append(f"--u={u}")
    if r is not None:
        argv.append(f"--r={r}")
    if gen is not None and command in ("seminormal", "natural"):
        argv.append(f"--gen={gen}")
    code, _, err = run_cli(capsys, *argv)
    assert code in (0, 2, 3, 4)
    if code:
        lines = err.splitlines()
        assert len(lines) == 1
        assert set(json.loads(lines[0])) == {"error", "message"}


# stdout SHA-256 of seminormal and natural requests: every algebra family
# in both formats, and the three kinds of --gen pick
GENERATOR_DIGESTS = {
    "seminormal --shape 4,2,1 --format json":
        "77b9fe98e71d63fd3e5d8581b4dec24cd1fd8b9e4d0919220b325ba0f7730516",
    "seminormal --shape 4,2,1 --format csv":
        "2f0d1b4a49cc3fe5a7a3c5a32fb365b689b1b2174891d1df2788ba8ae1c03a1d",
    "natural --shape 4,2,1 --format json":
        "92adb12e66afa3e415dc7cc0b27770e1dc5b837527f3a5f72dbbcdb159d3972c",
    "natural --shape 4,2,1 --format csv":
        "3fd461ab8580f747fea45b5f760afa51d33eb7bad95435aabefab859d687c208",
    "seminormal --family hecke_A --shape 3,2 --format json":
        "0346a3a24595951b4864b74acd6b32c859b98321ef66ff9d1d8dbe7964314e9a",
    "seminormal --family hecke_A --shape 3,2 --format csv":
        "2853d80b2895d509c8489dd1884982c8293425ba25eab0ebcdbdf5f347a62f70",
    "natural --family hecke_A --shape 3,2 --format json":
        "98458617db115ef3636472f16f771baa8fbad37e1dbb87e7c3c79da3acc0fda0",
    "natural --family hecke_A --shape 3,2 --format csv":
        "85e96e95c2ab95ce01423c44f59aa3804fb346859983da88545ed19b9f48e094",
    ("seminormal --family hecke_B --u 2,1/2 --q 3 --shape (2,1)|(1)"
     " --format json"):
        "f7e2e2ae849c099dc20aff9ee9c1f3090bfe856270098f755b656ba1fd96ced4",
    ("seminormal --family hecke_B --u 2,1/2 --q 3 --shape (2,1)|(1)"
     " --format csv"):
        "10b4750fa7a8c772894aa8aeca8e7ee252f31a5a0fdbfb553749886eac070075",
    "natural --family hecke_B --u 2,1/2 --q 3 --shape (2,1)|(1) --format json":
        "dcf534a2e85f470e7a772f0e7cf43b0ce577111de7c108a2cba624f773671f77",
    "natural --family hecke_B --u 2,1/2 --q 3 --shape (2,1)|(1) --format csv":
        "423619879965713496844eda3e1cc336a53c08336bf94f09a91e40f108c87605",
    ("seminormal --family ariki_koike --u 2,3 --q 5 --shape (2,1)|(1)"
     " --format json"):
        "2eca749eba4ac06563aa4d2432e5ad0563b93bc5a6407f4475e78f15126af10b",
    ("seminormal --family ariki_koike --u 2,3 --q 5 --shape (2,1)|(1)"
     " --format csv"):
        "5322284e15db8849499e6dcb6bfb551fd854436b2909b4deea3f999dabac1320",
    ("natural --family ariki_koike --u 2,3 --q 5 --shape (2,1)|(1)"
     " --format json"):
        "4eb9a23fa5583fb60824ad033b7654e0ba1a179c813aeaf73b55dd728d079fc7",
    ("natural --family ariki_koike --u 2,3 --q 5 --shape (2,1)|(1)"
     " --format csv"):
        "00ad0e76f50114a9c8dbeef2f7f865bab12b0caf10bd92904023c1be6aa65bca",
    "seminormal --family grn --shape (2,1)|(1) --format json":
        "fbb517c49b76c61fdacb4f1efbe06ceb36c08577e1df767d21ebd57b6752fa87",
    "seminormal --family grn --shape (2,1)|(1) --format csv":
        "7feab5e2df3d37b2f266e7f41968b95ee023a5c009ae4f5e3847c35a07f1e552",
    "natural --family grn --shape (2,1)|(1) --format json":
        "daa8387edcf339cd76727680ae1da0aceb4b13f9cb0df688f3a4812ec52dc92d",
    "natural --family grn --shape (2,1)|(1) --format csv":
        "bdfdd042a538bcace6f77c43c8366dfb382372e2c3e7cc7d75960e572414cff4",
    ("seminormal --family affine_placed --shape (2,1)|(1)@1,q^3 --q 5"
     " --format json"):
        "60b6e314034d587bfc979efe7cc7f03ab4c5cfe90e2c7dabe46507d596f3fa9b",
    ("seminormal --family affine_placed --shape (2,1)|(1)@1,q^3 --q 5"
     " --format csv"):
        "d7cb77231a26eda7178b2f412f46ccaef13875e745932fb5af63541e618b9e27",
    ("natural --family affine_placed --shape (2,1)|(1)@1,q^3 --q 5"
     " --format json"):
        "a2b3994374f338a8ace181708bbe97d3e1f08e6d1c3c1717b3d4076661379718",
    ("natural --family affine_placed --shape (2,1)|(1)@1,q^3 --q 5"
     " --format csv"):
        "43085d141a72a9b27d66976ecfc8daaecd5ad3a5cdd5e689e439c9f5861ecf2b",
    "natural --family hecke_A --q 5 --shape 3,2 --gen 1":
        "2b21d4d7351641e77784a3540260918d6b365e6673b4596536febb3acb6421a3",
    "natural --family grn --shape (2,1)|(1) --gen 0 --format csv":
        "482da87d471680525a7ada92cb8d764b4c29f070ea6b7cbad24b6229c7b814f8",
    "seminormal --family affine_placed --shape (2,1)|(1)@1,q^3 --q 5 --gen x1":
        "294deefccdd2b646388e6c621e4d259d481d969f9896d8673497f0d3ef23a560",
    # no generators, the empty shape, and a large output
    "seminormal --shape 1":
        "6b4149688a196d315127035c64de962ee2b5cc279db4a94081b4b558cb784fce",
    "seminormal --shape 1 --format csv":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "natural --shape ()":
        "2187129ff7699cd11ae69186e62b6cd0a318e454cfd15ddd9858009bd81f76f9",
    "seminormal --shape 4,3,2,1 --format json":
        "971d1a9f96d16625b435d7520463325b84726d3c196eef940bc6f28fe9e835d0",
    "seminormal --shape 4,3,2,1 --format csv":
        "665e42ff96d8856af20489558f474bde5a32d05d5043ab45d43b1bc7db13e4dc",
    "natural --shape 4,3,2,1 --gen 1 --format json":
        "549ba03fc6ee796764584087a7b4ff48718890704d0e867e2f68411a655e5357",
    # symbolic q, a cyclotomic T_0, and two integer u
    "natural --family hecke_A --shape 3,2,1 --format json":
        "92aec2cb4a742db8dd280ee9ae0e300f925fbdb360f8d469d807e5f06e80388e",
    "natural --family grn --r 2 --shape (2,1)|(2) --gen 0":
        "d069d0f495987687cdac157ea7c068aface5c5441e80786367db2d47d8023149",
    ("natural --family ariki_koike --u 2,3 --q 7 --shape (2,1)|(1,1)"
     " --format csv"):
        "15947f3ee000ef46f70c2ace127669e1da295f372dd694ed6e03b17219220a01",
}


@pytest.mark.parametrize("request_line", sorted(GENERATOR_DIGESTS))
def test_generator_outputs_are_byte_identical(capsys, request_line):
    code, out, err = run_cli(capsys, *request_line.split(" "))
    assert (code, err) == (0, "")
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == GENERATOR_DIGESTS[request_line]


@pytest.mark.parametrize("family, shape, option, value, code", [
    ("hecke_A", "3,2", "--q", "-1/2", 0),
    ("hecke_B", "(2,1)|(1)", "--u", "-2,-1/2", 0),
    ("hecke_B", "(2,1)|(1)", "--u", "-1,-1", 3),  # u_1 / u_2 = 1
])
def test_negative_rationals_parse_as_written(capsys, family, shape, option,
                                             value, code):
    argv = ["transition", "--family", family, "--shape", shape]
    spaced = run_cli(capsys, *argv, option, value)
    joined = run_cli(capsys, *argv, f"{option}={value}")
    assert spaced == joined and spaced[0] == code
    if code:
        assert json.loads(spaced[2])["error"] == "precondition"


def _run_under_memory_limit(argv, megabytes):
    """The CLI on argv in a child process under an address-space limit."""
    import resource
    limit = megabytes * 2 ** 20

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = Path(__file__).resolve().parent.parent / "src"
    return subprocess.run([sys.executable, "-m", "youngbasis.cli", *argv],
                          capture_output=True, text=True, timeout=120,
                          preexec_fn=cap, env={"PYTHONPATH": str(src)})


@pytest.mark.parametrize("argv", [
    ["transition", "--shape", "6,5,2", "--format", "json"],
    ["transition", "--shape", "6,5,2", "--format", "csv"],
    ["natural", "--shape", "5,4,3", "--format", "json"],
    ["seminormal", "--shape", "6,5,3", "--format", "json"],
    ["verify", "--shape", "6,5,2"],
    ["bench", "--shape", "6,5,3"],
])
def test_running_out_of_memory_exits_3_with_one_diagnostic(argv):
    # only in a child under an address-space limit.  transition on 6,5,2
    # exits 3 from 20 to 149 MB in both formats and fits from 150 MB;
    # bench, which holds two depth levels, on 6,5,3 (f = 15,015) exits 3
    # from 20 to 180 MB and fits from 220 MB; natural on 5,4,3 exits 3
    # with no output up to 130 MB and fits from 131-132 MB (196 MB
    # written);
    # seminormal on 6,5,3 exits 3 with no output from 20 to 105 MB,
    # and from 115 MB writes its 645 kB basis before the first
    # 15,015-square grid fails; verify on 6,5,2
    # exits 3 from 20 to 250 MB and fits from 270 MB.  So 60 MB keeps a
    # margin from every edge
    done = _run_under_memory_limit(argv, 60)
    assert done.returncode == 3 and done.stdout == ""
    lines = done.stderr.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": "memory",
                                    "message": "out of memory"}


def _without_seconds(text):
    """bench's CSV rows without the wall-time column."""
    return [row[:2] + row[3:] for row in csv.reader(io.StringIO(text))]


@pytest.mark.parametrize("argv, megabytes", [
    ("transition --shape 5,4,3 --format json", 80),
    ("transition --oracle word --shape 5,4,3 --format json", 70),
    ("bench --shape 5,4,3", 45),
    ("seminormal --shape 4,3,2,1 --format json", 60),
    ("seminormal --shape 5,4,3 --gen 1 --format json", 50),
    ("verify --shape 5,4,3", 90),
])
def test_matrix_commands_stream_under_a_limit_the_whole_output_exceeds(
        capsys, argv, megabytes):
    # every route streams its columns, holding at most two depth levels,
    # and transition writes them through the diagonal check into a grid
    # of cells from the diagonal on.  On 5,4,3: transition fits from
    # 44 MB, where the matrix, a dense grid of cells and the output text
    # together needed 125 MB; the word oracle fits from 49 MB, where its
    # whole matrix needed 88 MB; bench fits from 28 MB, where its matrix
    # needed 68 MB.  seminormal holds one generator's grid at a time: on
    # 4,3,2,1 it fits from 25 MB, where every grid and the output text
    # together needed 110 MB.  A grid's row starts at its first nonzero
    # column, so 5,4,3 --gen 1 fits from 42 MB, where its full
    # 2,112-square grid needed 60 MB.  verify, whose relation check
    # holds one int per column and side, fits from 67 MB on 5,4,3
    argv = argv.split(" ")
    done = _run_under_memory_limit(argv, megabytes)
    assert (done.returncode, done.stderr) == (0, "")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    if argv[0] == "bench":
        assert _without_seconds(done.stdout) == _without_seconds(out)
    else:
        assert done.stdout == out


def test_a_closed_stdout_pipe_exits_3_with_one_diagnostic():
    # the rows are written one at a time: the reader takes 10 bytes of
    # an 11.7 MB CSV and closes the pipe while they are being written
    src = Path(__file__).resolve().parent.parent / "src"
    with subprocess.Popen(
            [sys.executable, "-m", "youngbasis.cli", "transition",
             "--shape", "5,4,3", "--format", "csv"], stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, env={"PYTHONPATH": str(src)}) as child:
        assert len(child.stdout.read(10)) == 10
        child.stdout.close()
        err = child.stderr.read().decode()
        assert child.wait(timeout=120) == 3
    assert err.splitlines() == [json.dumps({
        "error": "precondition",
        "message": "cannot write stdout: Broken pipe"})]


@pytest.mark.parametrize("argv", [
    "--shape 3,2,1", "--shape 3,2,1 --family hecke_A --q 5/3",
    "--shape 3,2 --family hecke_A",
])
def test_verify_fails_a_closed_form_diagonal_off_in_one_entry(
        capsys, monkeypatch, argv):
    from youngbasis import transition
    real = transition.diagonal_closed_form

    def status():
        code, out, _ = run_cli(capsys, "verify", *argv.split(" "))
        check, = [c for c in json.loads(out)["checks"]
                  if c["relation"] == "diagonal closed form"]
        return code, check["status"]

    assert status() == (0, "pass")
    for index in (0, -1):
        def shifted(ws):
            diag = real(ws)
            diag[index] = diag[index] + F(1, 2)
            return diag

        monkeypatch.setattr(transition, "diagonal_closed_form", shifted)
        assert status() == (4, "fail")
