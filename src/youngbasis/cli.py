"""Command-line front end.

Subcommands: tableaux, graph, seminormal, natural, transition,
orthogonal, verify, bench.  Exit codes: 0 success, 2 parse error,
3 precondition violation or out of memory, 4 invariant/verification
failure.  Errors are also emitted on stderr as single-line JSON
diagnostics.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from itertools import chain, count

from . import transition as tr
from .algebras import (AlgebraSpec, FAMILIES, WeightScheme,
                       conjugate_to_natural, generators, verify_relations)
from .bruhat import BruhatGraph, to_dot
from .errors import (InvariantError, PreconditionError, ShapeParseError,
                     YoungBasisError)
from .fields import parse_rational
from .linalg import cell_rows, compact_json, csv_chunks, json_chunks
# unused here; perfbench/selftest.py patches this name
from .linalg import matrix_to_json  # noqa: F401
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


# a token that reads as a negative rational or a list of them, such as
# -1/2 or -2,-1/2; parse_rational rejects a malformed one
_NEGATIVE_VALUE = re.compile(r"^-\.?\d[\d./,-]*$")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors reach ``main`` as parse
    errors, so they get a one-line diagnostic and exit 2 (subparsers
    are of the same class).  A token that looks like a negative rational
    list is a value, as argparse takes a negative integer: so
    ``--q -1/2`` and ``--u -2,-1/2`` parse as written."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_VALUE

    def error(self, message):
        raise ShapeParseError(message)

    def _get_values(self, action, arg_strings):
        # argparse drops a "--" even when it is the value of an option
        # written as --shape=--, which leaves the option an empty list;
        # the value is what was written, and is checked as any other
        if action.option_strings and action.nargs is None \
                and arg_strings == ["--"]:
            value = self._get_value(action, "--")
            self._check_value(action, value)
            return value
        return super()._get_values(action, arg_strings)


def nonnegative_int(text):
    """An int >= 0; argparse turns the ValueError into a usage error."""
    n = int(text)
    if n < 0:
        raise ValueError(text)
    return n


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
    p.add_argument("--pathsum-cap", type=nonnegative_int,
                   default=tr.PATHSUM_DEFAULT_CAP,
                   help="largest n the pathsum oracle computes")

    p = sub.add_parser("orthogonal",
                       help="squared seminormal-to-orthogonal diagonal")
    _add_common(p)

    p = sub.add_parser("verify", help="relation + structure check suite")
    _add_common(p, formats=("json",))
    p.add_argument("--oracle-cap", type=nonnegative_int,
                   default=tr.PATHSUM_DEFAULT_CAP,
                   help="largest n on which the three routes are compared")

    p = sub.add_parser("bench", help="timing/op-count table for the recursion")
    p.add_argument("--shape", default=None)
    p.add_argument("--partitions-of", type=nonnegative_int, default=None,
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
    """Write text, a string or an iterable of string pieces, to the
    --out file or to stdout.  A regular or new --out file is replaced
    whole after the last piece (:func:`_replace_file`)."""
    pieces = (text,) if isinstance(text, str) else text
    if args.out:
        try:
            if os.path.exists(args.out) and not os.path.isfile(args.out):
                # such as /dev/stdout or a FIFO: written as it is
                with open(args.out, "w") as fh:
                    fh.writelines(pieces)
            else:
                _replace_file(os.path.realpath(args.out), pieces)
        except OSError as exc:
            raise PreconditionError(
                f"cannot write {args.out}: {exc.strerror}") from None
    else:
        try:
            # flushed here, so a closed pipe is reported as --out's
            # errors are and not at shutdown
            sys.stdout.writelines(pieces)
            sys.stdout.flush()
        except BrokenPipeError as exc:
            # what is still buffered goes to devnull at shutdown
            try:
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            except (AttributeError, OSError):  # stdout has no descriptor
                pass
            raise PreconditionError(
                f"cannot write stdout: {exc.strerror}") from None


def _replace_file(path, pieces):
    """Write pieces to a new file beside path and move it onto path after
    the last piece, so a failure midway leaves path as it was and no new
    file.  An existing path must be writable, as open(path, "w") needs,
    and passes its permissions on; a new path gets open's defaults."""
    mode = None
    if os.path.exists(path):
        open(path, "a").close()  # fails where open(path, "w") would
        mode = os.stat(path).st_mode
    for i in count():
        tmp = f"{path}.{os.getpid()}.{i}.tmp"
        try:
            fh = open(tmp, "x")
            break
        except FileExistsError:
            pass
    try:
        with fh:
            if mode is not None:
                os.chmod(tmp, mode)
            fh.writelines(pieces)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _json_head(ws, **extra):
    """The basis, params (extra ones added) and shape of a JSON output."""
    spec = ws.spec
    params = {"family": spec.family, "r": ws.shape.r,
              "q": "sym" if spec.q is None else str(spec.q), **extra}
    if spec.preset.q == "free" and spec.u:  # the Hecke families echo u
        params["u"] = [str(x) for x in spec.u]
    return {"basis": [t.serialize() for t in ws.graph.nodes],
            "params": params, "shape": ws.shape.to_str()}


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
        _emit(args, compact_json({"shape": shape.to_str(), "count": len(rows),
                                  "tableaux": rows}))
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


def _cmd_generators(args, natural):
    ws = make_scheme(args)
    tmat = tr.transition_recursive(ws) if natural else None
    gens = generators(ws, args.gen)
    if natural:
        # the solve needs a nonzero diagonal, checked once gens are built
        for _ in tr.nonzero_diagonal(tmat.matrix.column_stream()):
            pass
        mats = conjugate_to_natural([m for _, m in gens], tmat)
        gens = [(name, m) for (name, _), m in zip(gens, mats)]
    quoted = args.format == "json"
    # a grid is made when the writer reaches it, so one is held at a time
    grids = ((name, m, cell_rows(m.field, m.nrows, m.ncols,
                                 m.column_stream(), quoted))
             for name, m in gens)
    if quoted:
        _emit(args, chain(json_chunks(dict(
            _json_head(ws, basis_kind="natural" if natural else "seminormal"),
            generators=({"field": m.field.name, "name": name, "rows": rows}
                        for name, m, rows in grids))), "\n"))
    else:
        _emit(args, chain.from_iterable(
            chain((f"# generator {name}\n",),
                  csv_chunks(rows, m.nrows, m.ncols, m.basis))
            for name, m, rows in grids))
    return 0


def cmd_seminormal(args):
    return _cmd_generators(args, natural=False)


def cmd_natural(args):
    return _cmd_generators(args, natural=True)


def cmd_transition(args):
    ws = make_scheme(args)
    graph, field, f = ws.graph, ws.field, ws.graph.size()
    if args.oracle == "recursive":
        columns = tr.recursive_columns(ws)
    elif args.oracle == "pathsum":
        columns = tr.pathsum_columns(ws, n_cap=args.pathsum_cap)
    else:
        columns = tr.word_columns(ws)
    quoted = args.format == "json"
    # every column's diagonal is checked and the grid of cells complete
    # before a byte is written; a route holds at most two depth levels
    # and the grid an upper-triangular matrix's cells from the diagonal
    rows = cell_rows(field, f, f, tr.nonzero_diagonal(columns), quoted)
    head = _json_head(ws, oracle=args.oracle) if quoted else None
    del ws, columns  # free the scheme's caches
    if quoted:
        _emit(args, chain(json_chunks(dict(head, field=field.name,
                                           rows=rows)), "\n"))
    else:
        _emit(args, csv_chunks(rows, f, f, graph.nodes))
    return 0


def cmd_orthogonal(args):
    ws = make_scheme(args)
    field = ws.field
    strs = [field.to_str(v) for v in tr.orthogonal_diag_squared(ws)]
    if args.format == "json":
        _emit(args, compact_json(dict(_json_head(ws), field=field.name,
                                      diag_squared=strs)))
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
    ok = all(tm.matrix.get(i, i) == d
             for i, d in enumerate(tr.diagonal_closed_form(ws)))
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
    _emit(args, compact_json(out))
    return 4 if failures else 0


def cmd_bench(args):
    shapes = []
    if args.partitions_of is not None:
        shapes = [shape_from_parts(p) for p in all_partitions(args.partitions_of)]
    if args.shape:
        shapes.append(parse_shape(args.shape))
    if not shapes:
        raise PreconditionError("bench needs --shape or --partitions-of")
    records = [tr.bench_transition(make_scheme(args, shape))
               for shape in shapes]
    if args.format == "json":
        _emit(args, compact_json(records))
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
    except (ShapeParseError, ValueError) as exc:
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
    except MemoryError:
        pass
    # out of memory: leaving the handler drops its traceback, and with it
    # every frame that held the request's data, before the diagnostic
    _diag("memory", "out of memory")
    return 3


if __name__ == "__main__":
    sys.exit(main())
