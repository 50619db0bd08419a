"""youngbasis benchmark driver.

Run from the root of a checkout:

    python3 perfbench/run.py --workload rational_large --seed 1 \
        --seconds 15 --trace 0
    python3 perfbench/run.py --smoke

One client issues the seeded request list of a workload in a closed
loop: each request is an argv list for ``youngbasis.cli.main``, sent to
a fresh worker process (``worker.py``) only after the previous reply.
Every reply is checked against ``digests.json``.  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.

The driver pins itself to one core; the workers and the speed probe
(``calibrate.py``) inherit that core.  Times are the CPU time of the
worker, scaled to reference speed by the probe (see ``calibrate.py``).

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  After
the request list it keeps spawning workers to time set-up until
``--seconds`` have passed since the start.  ``--trace 1`` runs the list
untraced, then again in a worker with the layer functions wrapped (see
``tracer.py``), and reports the per-layer metrics; the spans go to
``.perfbench/spans-<workload>.jsonl.gz``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from calibrate import SpeedLog  # noqa: E402

SETUP_SPAWNS = 5       # set-up samples taken before the request list
MAX_SETUP_SPAWNS = 60  # cap on the samples that fill the rest of --seconds
RUN_LIMIT_S = 170.0    # a run that takes longer is abandoned
OUT_DIR = ".perfbench"


class BenchError(Exception):
    pass


def _python(script):
    return [sys.executable, os.path.join(HERE, script)]


class Worker:
    """One worker process.  ``setup`` is (spawn time, ready time, CPU
    seconds used until ready)."""

    def __init__(self, root, deadline):
        self.deadline = deadline
        spawned = time.monotonic()
        # a fixed hash seed gives every run the same dict and set layouts
        self.proc = subprocess.Popen(_python("worker.py") + [root],
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE,
                                     env=dict(os.environ, PYTHONHASHSEED="0"))
        try:
            ready = self.recv()
        except BaseException:
            self.kill()
            raise
        self.setup = (spawned, ready["ready"], ready["cpu"])

    def recv(self):
        left = self.deadline - time.monotonic()
        if left <= 0 or not select.select([self.proc.stdout], [], [], left)[0]:
            raise BenchError("run time limit reached")
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"worker exited with {self.proc.wait()}")
        return json.loads(line)

    def call(self, msg):
        self.proc.stdin.write((json.dumps(msg) + "\n").encode())
        self.proc.stdin.flush()
        return self.recv()

    def close(self):
        """Stop the worker and return its peak RSS in KiB."""
        try:
            return self.call({"op": "quit"})["peak_rss_kb"]
        finally:
            self.kill()

    def kill(self):
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class Probe:
    """The speed probe; ``stop`` returns its SpeedLog."""

    def __init__(self):
        self.proc = subprocess.Popen(_python("calibrate.py"),
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE)

    def stop(self):
        try:
            out, _ = self.proc.communicate(b"stop\n", timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise BenchError("speed probe did not stop")
        return SpeedLog(json.loads(out))


def grade(expected, reply):
    """'ok', 'open' (a known defect still raises) or 'failed'."""
    if expected is None:
        return "failed"
    if reply["exception"] is not None:
        name = reply["exception"].split(":", 1)[0]
        return "open" if name == expected.get("known_defect") else "failed"
    if reply["exit"] != expected["exit"] \
            or reply["sha256"] != expected["sha256"]:
        return "failed"
    if expected["exit"] != 0 and not reply["diagnostic"]:
        return "failed"
    return "ok"


def run_pass(worker, reqs, digests):
    """Issue every request in order; returns (wall seconds, replies,
    grades)."""
    replies = []
    grades = []
    t0 = time.perf_counter()
    for argv in reqs:
        reply = worker.call({"op": "run", "argv": argv})
        verdict = grade(digests.get(workloads.key(argv)), reply)
        if verdict == "failed":
            sys.stderr.write(f"FAILED {' '.join(argv)}: {reply}\n")
        replies.append(reply)
        grades.append(verdict)
    return time.perf_counter() - t0, replies, grades


def request_times(speed, replies):
    """Reference-speed seconds of each request."""
    return [r["cpu"] * speed.scale(r["start"], r["end"]) for r in replies]


def nearest_rank(values, p):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def spawn_setup(root, deadline):
    w = Worker(root, deadline)
    w.close()
    return w.setup


def untraced_run(root, reqs, digests, seconds, deadline):
    start = time.monotonic()
    probe = Probe()
    try:
        spawn_setup(root, deadline)  # warm-up: file and bytecode caches
        setups = [spawn_setup(root, deadline) for _ in range(SETUP_SPAWNS)]
        worker = Worker(root, deadline)
        setups.append(worker.setup)
        try:
            _wall, replies, grades = run_pass(worker, reqs, digests)
        finally:
            rss_kb = worker.close()
        while time.monotonic() - start < seconds \
                and len(setups) < MAX_SETUP_SPAWNS:
            setups.append(spawn_setup(root, deadline))
    finally:
        speed = probe.stop()
    times = request_times(speed, replies)
    metrics = {
        "list_s": sum(times),
        "request_p50_s": statistics.median(times),
        "request_p95_s": nearest_rank(times, 0.95),
        "request_max_s": max(times),
        "setup_s": statistics.median(cpu * speed.scale(t0, t1)
                                     for t0, t1, cpu in setups),
        "peak_rss_mb": rss_kb / 1024,
        "ok_ratio": grades.count("ok") / len(grades),
    }
    return metrics, grades


def traced_pass(root, reqs, digests, seed, spans_path, deadline):
    """Returns (wall seconds, replies, per-layer metrics, grades)."""
    worker = Worker(root, deadline)
    try:
        note = worker.call({"op": "trace_on", "seed": seed})
        wall, replies, grades = run_pass(worker, reqs, digests)
        out = worker.call({"op": "trace_off", "spans": spans_path})
    finally:
        worker.close()
    for target in note["missing"] + out["missing"]:
        sys.stderr.write(f"trace: not traced: {target}\n")
    return wall, replies, out["metrics"], grades


def traced_run(root, workload, reqs, digests, seed, deadline):
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    spans_path = os.path.join(root, OUT_DIR, f"spans-{workload}.jsonl.gz")
    probe = Probe()
    try:
        worker = Worker(root, deadline)
        try:
            plain_wall, plain, grades = run_pass(worker, reqs, digests)
        finally:
            worker.close()
        wall, traced, metrics, traced_grades = traced_pass(
            root, reqs, digests, seed, spans_path, deadline)
    finally:
        speed = probe.stop()
    metrics["trace.overhead_ratio"] = \
        sum(request_times(speed, traced)) / sum(request_times(speed, plain))
    metrics["trace.wall_s"] = wall
    metrics["trace.untraced_wall_s"] = plain_wall
    metrics["cli.known_defects_open"] = grades.count("open")
    return metrics, grades + traced_grades


def report(spec, section, metrics, grades):
    """The result line, with exactly the metrics BENCHMARK.json lists."""
    out = {}
    for m in spec[section]:
        if m["name"] not in metrics:
            raise BenchError(f"metric {m['name']} was not measured")
        out[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
    failed = grades.count("failed")
    return {"correct": failed == 0, "attempted": len(grades),
            "failed": failed, "metrics": out}


def smoke(root, digests, deadline):
    """One small request per workload, untraced and traced."""
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    spans = os.path.join(root, OUT_DIR, "spans-smoke.jsonl.gz")
    grades = []
    for argv in workloads.SMOKE.values():
        worker = Worker(root, deadline)
        try:
            grades += run_pass(worker, [argv], digests)[2]
        finally:
            worker.close()
        grades += traced_pass(root, [argv], digests, 0, spans, deadline)[3]
    failed = grades.count("failed")
    return {"correct": failed == 0, "attempted": len(grades),
            "failed": failed, "metrics": {}}


def pin_to_one_core():
    """Run the driver, its workers and the speed probe on one core, so
    the probe sees the speed the workers get."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except OSError as exc:  # unpinned, the scaling is only less exact
        sys.stderr.write(f"could not pin to one core: {exc}\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0,
                    help="least time an untraced run measures")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one small request per workload")
    args = ap.parse_args(argv)
    if not args.smoke and args.workload is None:
        ap.error("--workload is required")
    root = os.getcwd()
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        if not os.path.isfile(os.path.join(root, "src", "youngbasis",
                                           "cli.py")):
            raise BenchError("run from a checkout root: src/youngbasis "
                             "is missing")
        pin_to_one_core()
        digests = workloads.load_digests()
        if args.smoke:
            result = smoke(root, digests, deadline)
        else:
            with open(os.path.join(root, "BENCHMARK.json")) as fh:
                spec = json.load(fh)
            reqs = workloads.requests(args.workload, args.seed)
            if args.trace:
                metrics, grades = traced_run(root, args.workload, reqs,
                                             digests, args.seed, deadline)
                result = report(spec, "per_layer", metrics, grades)
            else:
                metrics, grades = untraced_run(root, reqs, digests,
                                               args.seconds, deadline)
                result = report(spec, "end_to_end", metrics, grades)
    except (BenchError, OSError, ValueError) as exc:
        sys.stderr.write(f"benchmark error: {exc}\n")
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
