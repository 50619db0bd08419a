import json
import re
from fractions import Fraction as F

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from golden import SYMMETRIC_GOLDEN
from youngbasis.algebras import (AlgebraSpec, WeightScheme,
                                 seminormal_generator, zeroth_generator)
from youngbasis.cli import FAMILY_CHOICES, build_parser, main
from youngbasis.fields import evaluate_q
from youngbasis.linalg import Matrix, matrix_from_json, matrix_to_json
from youngbasis.shapes import parse_shape
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


def test_natural_inverts_the_transition_matrix_once(capsys, monkeypatch):
    from youngbasis import linalg
    real = linalg.triangular_inverse
    calls = []

    def counting(a):
        calls.append(a.nrows)
        return real(a)

    monkeypatch.setattr(linalg, "triangular_inverse", counting)
    cases = [(["--shape", "4,3,1"], 7),
             (["--shape", "(2,1)|(1)@1,q^3", "--family", "affine_placed",
               "--q", "5"], 7),
             (["--shape", "(2,1)|(1)", "--family", "grn", "--r", "2"], 4)]
    for argv, n_gens in cases:
        calls.clear()
        code, out, _ = run_cli(capsys, "natural", *argv, "--format", "json")
        assert code == 0, argv
        assert len(json.loads(out)["generators"]) == n_gens, argv
        assert len(calls) == 1, (argv, calls)


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


def test_bench(capsys):
    code, out, _ = run_cli(capsys, "bench", "--partitions-of", "4",
                           "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("shape,f,")
    assert len(lines) == 6  # header + 5 partitions
    code, out, _ = run_cli(capsys, "bench", "--shape", "3,2",
                           "--format", "json")
    rec = json.loads(out)[0]
    assert rec["f"] == 5 and rec["scalar_ops"] <= rec["op_bound"]
    # bench takes the same family arguments as the other subcommands
    code, out, _ = run_cli(capsys, "bench", "--shape", "(2,1)|(1)",
                           "--family", "grn", "--r", "2", "--format", "json")
    assert code == 0
    assert json.loads(out)[0]["f"] == 8


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


def test_out_file(tmp_path, capsys):
    target = tmp_path / "a.json"
    code, out, _ = run_cli(capsys, "transition", "--shape", "2,1",
                           "--out", str(target))
    assert code == 0 and out == ""
    obj = json.loads(target.read_text())
    assert obj["shape"] == "2,1"


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
])
def test_former_tracebacks_exit_cleanly(capsys, argv, expected):
    code, out, err = run_cli(capsys, *argv.split(" "))
    assert code == expected
    if code:
        assert out == ""
        assert json.loads(err)["error"] in ("parse", "precondition")


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


# ---------------------------------------------------------------------------
# fuzzing the CLI contract: exit 0, or 2/3/4 with one JSON line on stderr
# ---------------------------------------------------------------------------

_SHAPES = ["1", "2,1", "3,2", "2,2,1", "4,1", "3,1,1", "5", "1,1,1,1,1",
           "3,3,1/2,1", "3,2/1", "(2,1)|(1)", "(1)|(1)|(2)", "(3,2/1)|(2)",
           "(2)|()", "(2,1)|(1)@2,3", "(2)|(1)@q^0,q^2", "3,1@1/2"]
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
       r=st.none() | st.integers(0, 3))
def test_cli_fuzz_exit_codes_and_diagnostics(capsys, command, shape, family,
                                             q, u, r):
    argv = [command, f"--shape={shape}", f"--family={family}", f"--q={q}"]
    if u is not None:
        argv.append(f"--u={u}")
    if r is not None:
        argv.append(f"--r={r}")
    code, _, err = run_cli(capsys, *argv)
    assert code in (0, 2, 3, 4)
    if code:
        lines = err.splitlines()
        assert len(lines) == 1
        assert set(json.loads(lines[0])) == {"error", "message"}
