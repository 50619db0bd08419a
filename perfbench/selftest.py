"""Self-tests of the benchmark.

    python3 perfbench/selftest.py      # from a checkout root

Checks that the smoke mode passes, that a wrong output, exit code or
exception is graded as failed, that the tracer restores what it wraps
and reports targets it cannot find, that span self times add up to the
traced wall time, and that the speed scaling does what it says.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from worker import import_cli, run_request  # noqa: E402

ROOT = os.getcwd()
SELF_TIME_TOLERANCE = 0.03


def test_smoke():
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           "--smoke"], capture_output=True, text=True,
                          timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, result
    assert result["attempted"] == 2 * len(workloads.SMOKE), result


def test_wrong_outcomes_fail():
    cli = import_cli(ROOT)
    digests = workloads.load_digests()
    argv = workloads.SMOKE["rational_large"]
    expected = digests[workloads.key(argv)]
    assert run.grade(expected, run_request(cli.main, argv)) == "ok"

    # one changed character in the output
    original = cli.matrix_to_json
    cli.matrix_to_json = lambda *a, **k: original(*a, **k).replace("1", "2", 1)
    try:
        reply = run_request(cli.main, argv)
    finally:
        cli.matrix_to_json = original
    assert reply["exit"] == 0 and reply["sha256"] != expected["sha256"]
    assert run.grade(expected, reply) == "failed"

    # the right output under the wrong exit code
    assert run.grade(dict(expected, exit=3), run_request(cli.main, argv)) \
        == "failed"

    # an uncaught exception is reported, not raised, and fails the request
    parse = cli.parse_shape

    def broken(text):
        raise RuntimeError("injected")
    cli.parse_shape = broken
    try:
        reply = run_request(cli.main, argv)
    finally:
        cli.parse_shape = parse
    assert reply["exception"] == "RuntimeError: injected", reply
    assert run.grade(expected, reply) == "failed"

    # a known defect that still raises is open, not failed
    bad = workloads.VERIFY_ERRORS[-1][0].split(" ")
    reply = run_request(cli.main, bad)
    assert run.grade(digests[workloads.key(bad)], reply) == "open", reply


def test_tracer_restores_and_reports_missing():
    import_cli(ROOT)
    from youngbasis import algebras, linalg, perms, transition
    before = (linalg.matmul, algebras.matmul, perms.bruhat_leq,
              transition.bruhat_leq, algebras.WeightScheme.pair,
              vars(algebras.WeightScheme)["pair"])
    spans = tracer.SPANS
    tracer.SPANS = spans + (("gone", "youngbasis.linalg:no_such_fn", None),)
    try:
        t = tracer.Tracer(0)
        t.install()
    finally:
        tracer.SPANS = spans
    assert t.missing == ["youngbasis.linalg:no_such_fn"], t.missing
    assert linalg.matmul is algebras.matmul is not before[0]
    assert transition.bruhat_leq is perms.bruhat_leq is not before[2]
    t.uninstall()
    after = (linalg.matmul, algebras.matmul, perms.bruhat_leq,
             transition.bruhat_leq, algebras.WeightScheme.pair,
             vars(algebras.WeightScheme)["pair"])
    assert all(a is b for a, b in zip(before, after))


def test_self_times_add_up():
    reqs = [workloads.expand(workloads.RATIONAL_LARGE[3])[0],
            workloads.RATIONAL_LARGE[2], workloads.QSYMBOLIC[3]]
    deadline = time.monotonic() + run.RUN_LIMIT_S
    spans = os.path.join(ROOT, run.OUT_DIR, "spans-selftest.jsonl.gz")
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    wall, _replies, metrics, grades = run.traced_pass(
        ROOT, reqs, workloads.load_digests(), 0, spans, deadline)
    assert grades == ["ok"] * len(reqs), grades
    total = sum(v for k, v in metrics.items() if k.endswith("_s"))
    assert abs(total - wall) <= SELF_TIME_TOLERANCE * wall, (total, wall)


def test_speed_scaling():
    cost = 2 * calibrate.REFERENCE_CHUNK_S  # a core at half speed
    speed = calibrate.SpeedLog([(0.01 * i, cost) for i in range(100)])
    assert abs(speed.scale(0.2, 0.5) - 0.5) < 1e-12
    # an interval with no sample inside borrows its neighbours
    assert abs(speed.scale(0.205, 0.206) - 0.5) < 1e-12
    try:
        calibrate.SpeedLog([(0.0, cost)])
    except ValueError:
        pass
    else:
        raise AssertionError("a log with too few samples was accepted")


def main():
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            try:
                fn()
                print(f"PASS {name}")
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
