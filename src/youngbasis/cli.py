"""Command-line front end.

Subcommands: tableaux, graph, seminormal, natural, transition,
orthogonal, verify, bench.  Exit codes: 0 success, 2 parse error,
3 precondition violation, 4 invariant/verification failure.  Errors are
also emitted on stderr as single-line JSON diagnostics.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import transition as tr
from .algebras import (AlgebraSpec, FAMILIES, WeightScheme,
                       conjugate_to_natural, seminormal_generator,
                       verify_relations, x_generator, zeroth_generator)
from .bruhat import BruhatGraph, to_dot
from .errors import (InvariantError, PreconditionError, ShapeParseError,
                     YoungBasisError)
from .fields import parse_rational
from .linalg import matrix_to_csv, matrix_to_json, string_rows
from .shapes import all_partitions, parse_shape, shape_from_parts


FAMILY_CHOICES = FAMILIES + ("grn",)  # "grn" is shorthand for wreath_grn


def _add_family(p):
    p.add_argument("--family", default="symmetric", choices=FAMILY_CHOICES)
    p.add_argument("--r", type=int, default=None,
                   help="number of components (validated against the shape)")
    p.add_argument("--q", default="sym",
                   help="'sym' for symbolic q, or an exact rational")
    p.add_argument("--u", default=None,
                   help="comma-separated exact rationals u_1,...,u_r")


def _add_common(p, family=True, formats=("json", "csv")):
    p.add_argument("--shape", required=True, help="shape string")
    if family:
        _add_family(p)
    p.add_argument("--format", default=formats[0], choices=formats)
    p.add_argument("--out", default=None, help="output file (default stdout)")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors reach ``main`` as parse
    errors, so they get a one-line diagnostic and exit 2 (subparsers
    are of the same class)."""

    def error(self, message):
        raise ShapeParseError(message)


@functools.cache
def build_parser():
    # built once per process: parse_args keeps no state in the parser
    ap = _Parser(
        prog="youngbasis",
        description="Exact transition matrices between Young's bases")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tableaux", help="list standard tableaux")
    _add_common(p, family=False)

    p = sub.add_parser("graph", help="weak Bruhat graph as DOT")
    _add_common(p, family=False, formats=("dot",))

    for name in ("seminormal", "natural"):
        p = sub.add_parser(name, help=f"{name} generator matrices")
        _add_common(p)
        p.add_argument("--gen", default=None,
                       help="one generator: an index 1..n-1, or 0 / x<i>")

    p = sub.add_parser("transition", help="natural-to-seminormal matrix")
    _add_common(p)
    p.add_argument("--oracle", default="recursive",
                   choices=["recursive", "pathsum", "word"])
    p.add_argument("--pathsum-cap", type=int, default=tr.PATHSUM_DEFAULT_CAP,
                   help="raise the size cap of the pathsum oracle")

    p = sub.add_parser("orthogonal",
                       help="squared seminormal-to-orthogonal diagonal")
    _add_common(p)

    p = sub.add_parser("verify", help="relation + structure check suite")
    _add_common(p, formats=("json",))
    p.add_argument("--oracle-cap", type=int, default=tr.PATHSUM_DEFAULT_CAP)

    p = sub.add_parser("bench", help="timing/op-count table for the recursion")
    p.add_argument("--shape", default=None)
    p.add_argument("--partitions-of", type=int, default=None,
                   help="benchmark every partition of this size")
    _add_family(p)
    p.add_argument("--format", default="csv", choices=["json", "csv"])
    p.add_argument("--out", default=None)
    return ap


def _parse_u(text):
    if text is None:
        return None
    return tuple(parse_rational(tok) for tok in text.split(","))


def make_scheme(args, shape=None):
    """The request's scheme: the family arguments on the shape given, or
    else on --shape."""
    if shape is None:
        shape = parse_shape(args.shape)
    family = "wreath_grn" if args.family == "grn" else args.family
    q = None if args.q == "sym" else parse_rational(args.q)
    u = _parse_u(args.u)
    if args.r not in (None, shape.r):
        raise PreconditionError(
            f"--r {args.r} but the shape has {shape.r} components")
    return WeightScheme(AlgebraSpec(family, q=q, u=u), shape)


def _emit(args, text):
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise PreconditionError(
                f"cannot write {args.out}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _json_params(spec, shape, extra=None):
    params = {"family": spec.family, "r": shape.r,
              "q": "sym" if spec.q is None else str(spec.q)}
    if spec.preset.q == "free" and spec.u:  # the Hecke families echo u
        params["u"] = [str(x) for x in spec.u]
    if extra:
        params.update(extra)
    return params


def cmd_tableaux(args):
    shape = parse_shape(args.shape)
    graph = BruhatGraph(shape)
    rows = []
    for t in graph.nodes:
        rows.append({
            "tableau": t.serialize(),
            "word": list(t.word),
            "inversions": sorted(map(list, t.inversions)),
            "depth": t.depth,
        })
    if args.format == "json":
        _emit(args, json.dumps({"shape": shape.to_str(), "count": len(rows),
                                "tableaux": rows},
                               sort_keys=True, separators=(",", ":")) + "\n")
    else:
        lines = ["tableau,word,depth,inversions"]
        for rec in rows:
            lines.append(",".join([
                json.dumps(rec["tableau"]).replace(",", " "),
                " ".join(map(str, rec["word"])),
                str(rec["depth"]),
                " ".join(f"({i}>{j})" for i, j in rec["inversions"]),
            ]))
        _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_graph(args):
    shape = parse_shape(args.shape)
    _emit(args, to_dot(BruhatGraph(shape)))
    return 0


def _generator_list(ws, natural):
    gens = []
    tmat = tr.transition_recursive(ws) if natural else None
    preset, n = ws.spec.preset, ws.shape.n
    prefix = preset.prefix
    if preset.zeroth in ("u", "xi"):
        gens.append((f"{prefix}0", zeroth_generator(ws)))
    if preset.zeroth == "x1":
        gens += [(f"X{i}", x_generator(ws, i)) for i in range(1, n + 1)]
    gens += [(f"{prefix}{i}", seminormal_generator(ws, i))
             for i in range(1, n)]
    if natural:
        mats = conjugate_to_natural([m for _, m in gens], tmat)
        gens = [(name, m) for (name, _), m in zip(gens, mats)]
    return gens


def _cmd_generators(args, natural):
    ws = make_scheme(args)
    gens = _generator_list(ws, natural)
    if args.gen is not None:
        key = args.gen if not args.gen.isdigit() else None
        wanted = []
        for name, m in gens:
            if key is not None and name.lower() == key.lower():
                wanted.append((name, m))
            elif key is None and name[1:] == args.gen and name[0] in "sT":
                wanted.append((name, m))
        if not wanted:
            raise PreconditionError(f"no generator named {args.gen!r}")
        gens = wanted
    if args.format == "json":
        obj = {
            "shape": ws.shape.to_str(),
            "params": _json_params(ws.spec, ws.shape, {
                "basis_kind": "natural" if natural else "seminormal"}),
            "basis": [t.serialize() for t in ws.graph.nodes],
            "generators": [
                {"name": name, "field": m.field.name, "rows": string_rows(m)}
                for name, m in gens],
        }
        _emit(args, json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")
    else:
        chunks = []
        for name, m in gens:
            chunks.append(f"# generator {name}\n" + matrix_to_csv(m))
        _emit(args, "".join(chunks))
    return 0


def cmd_seminormal(args):
    return _cmd_generators(args, natural=False)


def cmd_natural(args):
    return _cmd_generators(args, natural=True)


def cmd_transition(args):
    ws = make_scheme(args)
    if args.oracle == "recursive":
        tm = tr.transition_recursive(ws)
    elif args.oracle == "pathsum":
        tm = tr.transition_pathsum(ws, n_cap=args.pathsum_cap)
    else:
        tm = tr.transition_word(ws)
    del ws  # free the scheme's caches before the output is built
    tr.check_structure(tm)
    if args.format == "json":
        _emit(args, matrix_to_json(tm.matrix, tm.shape.to_str(),
                                   _json_params(tm.spec, tm.shape,
                                                {"oracle": args.oracle})))
    else:
        _emit(args, matrix_to_csv(tm.matrix))
    return 0


def cmd_orthogonal(args):
    ws = make_scheme(args)
    field = ws.field
    strs = [field.to_str(field.coerce(v))
            for v in tr.orthogonal_diag_squared(ws)]
    if args.format == "json":
        obj = {"shape": ws.shape.to_str(), "field": field.name,
               "params": _json_params(ws.spec, ws.shape),
               "basis": [t.serialize() for t in ws.graph.nodes],
               "diag_squared": strs}
        _emit(args, json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")
    else:
        lines = ["word,diag_squared"]
        for t, v in zip(ws.graph.nodes, strs):
            lines.append(" ".join(map(str, t.word)) + "," + v)
        _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_verify(args):
    # one scheme: every check shares its coefficients and generators
    ws = make_scheme(args)
    report = verify_relations(ws)
    tm = tr.transition_recursive(ws)
    try:
        tr.check_structure(tm)
        report.append({"relation": "transition structure", "status": "pass"})
    except InvariantError as exc:
        report.append({"relation": "transition structure", "status": "fail",
                       "witness": {"message": str(exc)}})
    diag = tr.diagonal_closed_form(ws)
    ok = all(tm.matrix.get(i, i) == d for i, d in enumerate(diag))
    report.append({"relation": "diagonal closed form",
                   "status": "pass" if ok else "fail"})
    if ws.shape.n <= args.oracle_cap:
        tp = tr.transition_pathsum(ws, n_cap=args.oracle_cap)
        twd = tr.transition_word(ws)
        ok = tp.matrix == tm.matrix and twd.matrix == tm.matrix
        report.append({"relation": "triple-oracle agreement",
                       "status": "pass" if ok else "fail"})
    failures = [r for r in report if r["status"] != "pass"]
    out = {"shape": ws.shape.to_str(), "family": ws.spec.family,
           "checks": report, "failures": len(failures)}
    _emit(args, json.dumps(out, sort_keys=True, separators=(",", ":")) + "\n")
    return 4 if failures else 0


def cmd_bench(args):
    shapes = []
    if args.partitions_of:
        shapes = [shape_from_parts(p) for p in all_partitions(args.partitions_of)]
    if args.shape:
        shapes.append(parse_shape(args.shape))
    if not shapes:
        raise PreconditionError("bench needs --shape or --partitions-of")
    records = [tr.bench_transition(make_scheme(args, shape))
               for shape in shapes]
    if args.format == "json":
        _emit(args, json.dumps(records, sort_keys=True,
                               separators=(",", ":")) + "\n")
    else:
        import csv
        import io
        cols = ["shape", "f", "seconds", "scalar_ops", "mults", "adds",
                "op_bound"]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(cols)
        for rec in records:
            writer.writerow([f"{rec[c]:.6f}" if c == "seconds" else rec[c]
                             for c in cols])
        _emit(args, buf.getvalue())
    return 0


_COMMANDS = {
    "tableaux": cmd_tableaux,
    "graph": cmd_graph,
    "seminormal": cmd_seminormal,
    "natural": cmd_natural,
    "transition": cmd_transition,
    "orthogonal": cmd_orthogonal,
    "verify": cmd_verify,
    "bench": cmd_bench,
}


def _diag(kind, exc):
    sys.stderr.write(json.dumps({"error": kind, "message": str(exc)}) + "\n")


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except ShapeParseError as exc:
        _diag("parse", exc)
        return 2
    except ValueError as exc:
        _diag("parse", exc)
        return 2
    except PreconditionError as exc:
        _diag("precondition", exc)
        return 3
    except InvariantError as exc:
        _diag("invariant", exc)
        return 4
    except YoungBasisError as exc:  # pragma: no cover
        _diag("internal", exc)
        return 4


if __name__ == "__main__":
    sys.exit(main())
