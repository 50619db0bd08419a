"""Per-layer tracing of youngbasis from outside the package.

``Tracer.install`` wraps the public functions named in ``SPANS`` and
``COUNTS``.  Each target is resolved by name; a target that no longer
exists is listed in ``Tracer.missing`` and skipped.  A module-level
function is replaced in every ``youngbasis`` module that holds it, so
``from .linalg import matmul`` style aliases are traced too.
``Tracer.uninstall`` puts every original back.

A span records (id, name, start, end, parent id, request id).  Spans
stay in memory until ``write_spans``.  Self time (a span's duration minus
the time covered by its child spans) is summed per name as the spans
close.  Work the tracer does after a wrapped call (counting nonzeros,
sampling scalars) runs inside a ``trace.bookkeeping`` span, so it is
charged to no layer.  The ``cli.self`` root span wraps each request, so
the self times of one request add up to its duration.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import operator
import random
import re
import statistics
import sys
import time
from collections import defaultdict
from fractions import Fraction

# (span name, target, hook run after the call)
SPANS = (
    ("shapes.standard_tableaux", "youngbasis.shapes:standard_tableaux",
     "_after_tableaux"),
    ("bruhat.graph", "youngbasis.bruhat:BruhatGraph.__init__", "_after_graph"),
    ("algebras.verify_relations", "youngbasis.algebras:verify_relations",
     None),
    ("algebras.seminormal_generator",
     "youngbasis.algebras:seminormal_generator", None),
    ("transition.recursive", "youngbasis.transition:transition_recursive",
     "_after_transition"),
    ("transition.check_structure", "youngbasis.transition:check_structure",
     None),
    ("transition.pathsum", "youngbasis.transition:transition_pathsum",
     "_after_transition"),
    ("transition.word", "youngbasis.transition:transition_word",
     "_after_transition"),
    ("transition.grn", "youngbasis.transition:grn_transition",
     "_after_transition"),
    ("transition.orthogonal", "youngbasis.transition:orthogonal_diag_squared",
     "_after_values"),
    ("perms.bruhat_leq", "youngbasis.perms:bruhat_leq", None),
    ("linalg.serialize", "youngbasis.linalg:matrix_to_json",
     "_after_serialize"),
    ("linalg.serialize", "youngbasis.linalg:matrix_to_csv",
     "_after_serialize"),
    ("linalg.matmul", "youngbasis.linalg:matmul", None),
    ("linalg.triangular_inverse", "youngbasis.linalg:triangular_inverse",
     None),
)

# (counter name, target): calls are counted, not timed
COUNTS = (
    ("algebras.pair", "youngbasis.algebras:WeightScheme.pair"),
    ("weights.axial_weight", "youngbasis.weights:plain_axial_weight"),
    ("weights.axial_weight", "youngbasis.weights:q_axial_weight"),
)

OP_COUNTER = "youngbasis.transition:OpCounter"
ROOT = "cli.self"
BOOKKEEPING = "trace.bookkeeping"

PAIRS_PER_RESULT = 4
PAIR_POOL = 64
REPLAY_SECONDS = 0.2


def resolve(target):
    """(owner, attribute, object) for "module:Name.attr", or None."""
    modname, _, path = target.partition(":")
    try:
        owner = importlib.import_module(modname)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    obj = vars(owner).get(attr) if isinstance(owner, type) \
        else getattr(owner, attr, None)
    if obj is None:
        return None
    return owner, attr, obj


_EXPONENT = re.compile(r"\^(-?\d+)")


def scalar_size(v):
    """(largest numerator/denominator bit length, q-degree span) of an
    exact scalar, read from its public string form unless it is a
    Fraction."""
    if isinstance(v, (int, Fraction)):
        v = Fraction(v)
        return max(v.numerator.bit_length(), v.denominator.bit_length()), 0
    text = v.to_str() if hasattr(v, "to_str") else str(v)
    bits = max((int(d).bit_length()
                for d in re.findall(r"\d+", _EXPONENT.sub("", text))),
               default=0)
    span = 0
    if "q" in text:
        for part in text.split(")/("):
            part = part.strip("()").replace("^-", "^~")
            exps = []
            for term in re.findall(r"[+-]?[^+-]+", part):
                if "q^" in term:
                    exps.append(int(term.split("^")[1].replace("~", "-")))
                else:
                    exps.append(1 if "q" in term else 0)
            span = max(span, max(exps) - min(exps))
    return bits, span


class Tracer:
    def __init__(self, seed):
        self.rng = random.Random(f"trace:{seed}")
        self.spans = []
        self.stack = []  # [span id, name, start, time covered by children]
        self.next_id = 0
        self.request = 0
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.pairs = []
        self.pairs_seen = 0
        self.patches = []  # (owner, attribute, original)
        self.missing = []
        self.op_counter = None

    # -- spans ------------------------------------------------------------

    def _enter(self, name):
        self.stack.append([self.next_id, name, time.perf_counter(), 0.0])
        self.next_id += 1

    def _exit(self):
        end = time.perf_counter()
        sid, name, start, covered = self.stack.pop()
        dur = end - start
        self.self_s[name] += dur - covered
        self.calls[name] += 1
        parent = None
        if self.stack:
            self.stack[-1][3] += dur
            parent = self.stack[-1][0]
        self.spans.append((sid, name, start, end, parent, self.request))

    def root(self, main, argv):
        """Run one request under the root span."""
        self.request += 1
        self._enter(ROOT)
        try:
            return main(argv)
        finally:
            self._exit()

    # -- wrapping ---------------------------------------------------------

    def install(self):
        found = resolve(OP_COUNTER)
        if found is None:
            self.missing.append(OP_COUNTER)
        else:
            self.op_counter = found[2]
        for name, target, hook in SPANS:
            self._wrap(target, lambda fn, name=name, hook=hook:
                       self._timed(name, fn, hook))
        for name, target in COUNTS:
            self._wrap(target, lambda fn, name=name: self._counted(name, fn))

    def uninstall(self):
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches = []

    def _wrap(self, target, make):
        found = resolve(target)
        if found is None or not inspect.isfunction(found[2]):
            self.missing.append(target)
            return
        owner, attr, fn = found
        wrapper = make(fn)
        if isinstance(owner, type):
            self._patch(owner, attr, wrapper)
            return
        for modname, module in list(sys.modules.items()):
            if modname == "youngbasis" or modname.startswith("youngbasis."):
                for name, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, name, wrapper)

    def _patch(self, owner, attr, wrapper):
        self.patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _timed(self, name, fn, hook):
        after = getattr(self, hook) if hook else None
        params = list(inspect.signature(fn).parameters)
        # position of the counter argument, if the function takes one
        slot = params.index("counter") \
            if self.op_counter is not None and "counter" in params else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counter = None
            if slot is not None and len(args) <= slot \
                    and kwargs.get("counter") is None:
                counter = kwargs["counter"] = self.op_counter()
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if after is not None:
                self._enter(BOOKKEEPING)
                try:
                    after(args, result, counter)
                except (AttributeError, TypeError, KeyError) as exc:
                    # the program changed shape under the hook: report it
                    note = f"{name} hook: {type(exc).__name__}: {exc}"
                    if note not in self.missing:
                        self.missing.append(note)
                finally:
                    self._exit()
            return result
        return wrapper

    def _counted(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- hooks ------------------------------------------------------------

    def _after_tableaux(self, args, result, counter):
        self.counts["shapes.tableaux"] += len(result)

    def _after_graph(self, args, result, counter):
        graph = args[0]
        self.counts["bruhat.nodes"] += len(graph.nodes)
        self.counts["bruhat.edges"] += \
            sum(len(nbrs) for nbrs in graph.neighbors) // 2

    def _after_transition(self, args, result, counter):
        m = result.matrix
        values = [v for col in m.cols for v in col.values()]
        self.counts["transition.nnz"] += len(values)
        if counter is not None:
            self.counts["transition.scalar_ops"] += counter.total()
            self.counts["transition.op_bound"] += 2 * (m.ncols ** 2 + m.ncols)
        self._observe(values)

    def _after_values(self, args, result, counter):
        self._observe([v for v in result if v])

    def _after_serialize(self, args, result, counter):
        m = args[0]
        self.counts["linalg.serialize_bytes"] += len(result.encode())
        self.counts["linalg.cells"] += m.nrows * m.ncols
        self.counts["linalg.nonzero_cells"] += m.nnz()

    def _observe(self, values):
        """Coefficient growth over every value; a seeded sample of
        operand pairs for the scalar replay."""
        for v in values:
            bits, span = scalar_size(v)
            if bits > self.counts["fields.coeff_bits_max"]:
                self.counts["fields.coeff_bits_max"] = bits
            if span > self.counts["fields.qdeg_span_max"]:
                self.counts["fields.qdeg_span_max"] = span
        if len(values) < 2:
            return
        for _ in range(PAIRS_PER_RESULT):
            pair = tuple(self.rng.sample(values, 2))
            self.pairs_seen += 1
            if len(self.pairs) < PAIR_POOL:
                self.pairs.append(pair)
            else:
                j = self.rng.randrange(self.pairs_seen)
                if j < PAIR_POOL:
                    self.pairs[j] = pair

    # -- results ----------------------------------------------------------

    def write_spans(self, path):
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for sid, name, start, end, parent, req in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "request": req}) + "\n")

    def replay_us(self, op):
        """Median microseconds per operation over repeated passes of the
        sampled operand pairs."""
        if not self.pairs:
            return 0.0
        per_op = []
        total = 0.0
        while total < REPLAY_SECONDS:
            t0 = time.perf_counter()
            for a, b in self.pairs:
                op(a, b)
            dt = time.perf_counter() - t0
            total += dt
            per_op.append(dt / len(self.pairs) * 1e6)
            if len(per_op) >= 1000:
                break
        return statistics.median(per_op)

    def metrics(self):
        s, calls, n = self.self_s, self.calls, self.counts
        out = {"cli.self_s": s[ROOT], "trace.bookkeeping_s": s[BOOKKEEPING]}
        for name, _target, _hook in SPANS:
            out[name + "_s"] = s[name]
        out.update({
            "shapes.tableaux": n["shapes.tableaux"],
            "bruhat.nodes": n["bruhat.nodes"],
            "bruhat.edges": n["bruhat.edges"],
            "algebras.pair_calls": calls["algebras.pair"],
            "weights.axial_weight_calls": calls["weights.axial_weight"],
            "algebras.pair_cache_hit_ratio":
                1 - calls["weights.axial_weight"] / calls["algebras.pair"]
                if calls["algebras.pair"] else 0.0,
            "transition.scalar_ops": n["transition.scalar_ops"],
            "transition.ops_over_bound":
                n["transition.scalar_ops"] / n["transition.op_bound"]
                if n["transition.op_bound"] else 0.0,
            "transition.us_per_op":
                s["transition.recursive"] * 1e6 / n["transition.scalar_ops"]
                if n["transition.scalar_ops"] else 0.0,
            "transition.nnz": n["transition.nnz"],
            "perms.bruhat_leq_calls": calls["perms.bruhat_leq"],
            "linalg.serialize_bytes": n["linalg.serialize_bytes"],
            "linalg.cells": n["linalg.cells"],
            "linalg.zero_cell_ratio":
                1 - n["linalg.nonzero_cells"] / n["linalg.cells"]
                if n["linalg.cells"] else 0.0,
            "linalg.matmul_calls": calls["linalg.matmul"],
            "fields.mul_us": self.replay_us(operator.mul),
            "fields.add_us": self.replay_us(operator.add),
            "fields.coeff_bits_max": n["fields.coeff_bits_max"],
            "fields.qdeg_span_max": n["fields.qdeg_span_max"],
        })
        return out
