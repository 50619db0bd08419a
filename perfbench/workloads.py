"""Request lists of the three benchmark workloads.

A request is an argv list for ``youngbasis.cli.main``.  A template may
hold the token ``Q``; the seed replaces it with one value of ``Q_POOL``
per request.  The seed also shuffles the request order.  Nothing else
depends on the seed, so every run of a workload does the same work up
to the choice of q.

The benchmark never passes ``--threads`` and never repeats a request
within a run.
"""

from __future__ import annotations

import json
import os
import random

Q = "{q}"
# semisimple rational values of q for every family request that takes one
Q_POOL = ("5", "7", "11")

HERE = os.path.dirname(os.path.abspath(__file__))
SKEW_SHAPES_FILE = os.path.join(HERE, "skew_shapes_n5.txt")
DIGESTS_FILE = os.path.join(HERE, "digests.json")


def _split(lines):
    # shape strings hold no spaces, so a space-separated line is an argv
    return [line.split(" ") for line in lines]


RATIONAL_LARGE = _split([
    "transition --shape 4,3,2,1 --format json",
    "transition --shape 5,4,3/2,1 --format csv",
    "transition --shape (3,2)|(2,1) --family grn --r 2 --format json",
    "transition --shape (3,1)|(2,1) --family ariki_koike --u 2,3 --q {q} --format json",
])

QSYMBOLIC = _split([
    "transition --family hecke_A --shape 4,3,2 --format json",
    "transition --family hecke_A --shape 3,2,2,1 --format json",
    "transition --family ariki_koike --u 2,3 --shape (2,1)|(2,1) --format json",
    "orthogonal --family hecke_A --shape 4,3,1 --format json",
])

VERIFY_FAMILIES = _split([
    "verify --family hecke_A --shape 4",
    "verify --family hecke_A --shape 3,1",
    "verify --family hecke_A --shape 2,2",
    "verify --family hecke_A --shape 2,1,1",
    "verify --family hecke_A --shape 1,1,1,1",
    "verify --family hecke_B --u 2,1/2 --shape (2,1)|(1)",
    "verify --family hecke_B --u 3,1/3 --shape (1)|(2)",
    "verify --family ariki_koike --u 2,3 --q {q} --shape (2,1)|(1)",
    "verify --family ariki_koike --u 2,3 --q {q} --shape (1,1)|(2)",
    "verify --family ariki_koike --u 2,3,5 --q {q} --shape (1)|(1)|(1)",
    "verify --family grn --r 2 --shape (2,1)|(1)",
    "verify --family grn --r 2 --shape (2)|(2)",
    "verify --family grn --r 3 --shape (1)|(1)|(1)",
    "verify --family grn --r 3 --shape (2)|(1)|(1)",
    "verify --family affine_placed --shape (2,1)|(1)@1,q^3",
    "verify --family affine_placed --shape (2)|(1,1)@q^0,q^5",
])

# Error paths, with the exit code the CLI contract requires.  Each must
# also write a one-line JSON diagnostic on stderr.
VERIFY_ERRORS = [
    ("transition --shape 3,,x", 2),
    ("transition --shape 4,3,1 --oracle pathsum", 3),
    ("transition --family hecke_A --shape 3,2 --q -1", 3),
    ("transition --family hecke_A --shape 2,1 --q 1/0", 2),
    ("transition --family ariki_koike --shape (1)|(1) --u 1/0,2", 2),
]

# Known defects: the seed commit ends these requests in an uncaught
# exception of this type instead of exit 2.
KNOWN_DEFECTS = {
    "transition --family hecke_A --shape 2,1 --q 1/0": "ZeroDivisionError",
    "transition --family ariki_koike --shape (1)|(1) --u 1/0,2":
        "ZeroDivisionError",
}

# One small request per workload for the smoke mode.
SMOKE = {
    "rational_large": "transition --shape 3,2,1 --format json".split(" "),
    "qsymbolic":
        "transition --family hecke_A --shape 3,2 --format json".split(" "),
    "verify_sweep": "verify --shape 3,1/1".split(" "),
}


def skew_shapes_n5():
    with open(SKEW_SHAPES_FILE) as fh:
        return [line.strip() for line in fh if line.strip()]


def templates(workload):
    if workload == "rational_large":
        return RATIONAL_LARGE
    if workload == "qsymbolic":
        return QSYMBOLIC
    if workload == "verify_sweep":
        sweep = [["verify", "--shape", s] for s in skew_shapes_n5()]
        return sweep + VERIFY_FAMILIES + _split(r for r, _ in VERIFY_ERRORS)
    raise KeyError(workload)


WORKLOADS = ("rational_large", "qsymbolic", "verify_sweep")


def requests(workload, seed):
    """The seeded request list of one run: q drawn from the pool, order
    shuffled."""
    rng = random.Random(f"{workload}:{seed}")
    out = [[rng.choice(Q_POOL) if tok == Q else tok for tok in argv]
           for argv in templates(workload)]
    rng.shuffle(out)
    return out


def expand(argv):
    """Every request a template can become under any seed."""
    if Q not in argv:
        return [list(argv)]
    return [[q if tok == Q else tok for tok in argv] for q in Q_POOL]


def all_requests():
    out = []
    for workload in WORKLOADS:
        for argv in templates(workload):
            out.extend(expand(argv))
    out.extend(SMOKE.values())
    return out


def key(argv):
    return json.dumps(argv, separators=(",", ":"))


def load_digests():
    with open(DIGESTS_FILE) as fh:
        return json.load(fh)
