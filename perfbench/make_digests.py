"""Write the expected-outcome table of the benchmark.

    python3 perfbench/make_digests.py --write    # from a checkout root

Runs every request any seed can produce, in one process, and records
its exit code and the SHA-256 of its stdout in ``digests.json``; it
first freezes the list of skew shapes with five boxes into
``skew_shapes_n5.txt``.  The table defines correct output, so it is
generated once, on the commit the benchmark was defined on; later
commits must reproduce it.  Without ``--write`` it only compares the
current program with the committed table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from worker import import_cli, run_request  # noqa: E402

EMPTY_SHA256 = hashlib.sha256(b"").hexdigest()


def expected_outcome(line, reply, contract_exit):
    """The table entry for one request, checked against the contract."""
    if line in workloads.KNOWN_DEFECTS:
        name = workloads.KNOWN_DEFECTS[line]
        if reply["exception"] is not None \
                and not reply["exception"].startswith(name + ":"):
            raise SystemExit(f"{line}: expected {name}, got {reply}")
        return {"exit": 2, "sha256": EMPTY_SHA256, "known_defect": name}
    if reply["exception"] is not None or reply["exit"] != contract_exit:
        raise SystemExit(f"{line}: expected exit {contract_exit}, got {reply}")
    if contract_exit != 0 and not reply["diagnostic"]:
        raise SystemExit(f"{line}: no one-line JSON diagnostic")
    return {"exit": reply["exit"], "sha256": reply["sha256"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--write", action="store_true",
                    help="rewrite the table instead of comparing with it")
    args = ap.parse_args()
    cli = import_cli(os.getcwd())
    if args.write:
        from youngbasis.shapes import all_skew_shapes
        with open(workloads.SKEW_SHAPES_FILE, "w") as fh:
            fh.writelines(s.to_str() + "\n" for s in all_skew_shapes(5))
    contract = {line: code for line, code in workloads.VERIFY_ERRORS}
    table = {}
    for argv in workloads.all_requests():
        line = " ".join(argv)
        reply = run_request(cli.main, argv)
        table[workloads.key(argv)] = expected_outcome(
            line, reply, contract.get(line, 0))
    if args.write:
        with open(workloads.DIGESTS_FILE, "w") as fh:
            json.dump(table, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {len(table)} entries")
        return 0
    committed = workloads.load_digests()
    differ = sorted(k for k in table if committed.get(k) != table[k])
    for k in differ:
        print(f"differs: {k}")
    print(f"{len(table)} requests, {len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
