"""Benchmark worker: runs CLI requests in one process, one at a time.

Started by ``run.py`` as ``python perfbench/worker.py <checkout root>``.
It imports ``youngbasis.cli`` from ``<root>/src``, prints a ready line
(with its CPU time so far),
then answers one JSON line per request line on stdin:

* ``{"op": "run", "argv": [...]}`` runs ``youngbasis.cli.main(argv)``
  with stdout and stderr captured, and answers with the exit code, the
  SHA-256 of stdout, whether stderr is a one-line JSON diagnostic, the
  uncaught exception, if any, the call's start and end on the monotonic
  clock and the CPU time it used;
* ``{"op": "trace_on", "seed": n}`` wraps the layer functions
  (see ``tracer.py``); ``{"op": "trace_off", "spans": path}`` restores
  them, writes the spans and answers with the per-layer metrics;
* ``{"op": "quit"}`` answers with the peak RSS and exits.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback


def is_diagnostic(err):
    """True if `err` is exactly one line holding a JSON object with an
    "error" key."""
    if not err.endswith("\n") or err.count("\n") != 1:
        return False
    try:
        obj = json.loads(err)
    except ValueError:
        return False
    return isinstance(obj, dict) and "error" in obj


def run_request(main, argv, tracer=None):
    """Run one CLI request; the exception of a crashing request is
    reported, not raised."""
    out = io.StringIO()
    err = io.StringIO()
    code = None
    exception = None
    start = time.monotonic()
    c0 = time.process_time()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if tracer is None:
                code = main(argv)
            else:
                code = tracer.root(main, argv)
        except SystemExit as exc:  # argparse errors
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # the worker must go on to the next request
            exception = f"{type(exc).__name__}: {exc}"
            err.write(traceback.format_exc())
    cpu = time.process_time() - c0
    end = time.monotonic()
    text = out.getvalue()
    return {
        "exit": code,
        "exception": exception,
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "diagnostic": is_diagnostic(err.getvalue()),
        "start": start,
        "end": end,
        "cpu": cpu,
    }


def import_cli(root):
    src = os.path.join(os.path.abspath(root), "src")
    sys.path.insert(0, src)
    from youngbasis import cli
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise ImportError(f"youngbasis.cli imported from {cli.__file__}, "
                          f"not from {src}")
    return cli


def serve(root):
    # answers go to a private copy of stdout; fd 1 itself is pointed at
    # stderr so a stray write from the program cannot break the protocol
    proto = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)

    def reply(obj):
        proto.write(json.dumps(obj) + "\n")
        proto.flush()

    cli = import_cli(root)
    reply({"ready": time.monotonic(), "cpu": time.process_time()})
    tracer = None
    for line in sys.stdin:
        msg = json.loads(line)
        op = msg["op"]
        if op == "run":
            reply(run_request(cli.main, msg["argv"], tracer))
        elif op == "trace_on":
            from tracer import Tracer
            tracer = Tracer(msg["seed"])
            tracer.install()
            reply({"missing": tracer.missing})
        elif op == "trace_off":
            tracer.uninstall()
            tracer.write_spans(msg["spans"])
            reply({"metrics": tracer.metrics(), "missing": tracer.missing})
            tracer = None
        elif op == "quit":
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            reply({"peak_rss_kb": rss_kb})
            return
        else:
            raise ValueError(f"unknown op {op!r}")


if __name__ == "__main__":
    serve(sys.argv[1])
