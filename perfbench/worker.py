"""Runs one batch of ops in a fresh interpreter.

    python3 perfbench/worker.py OPS_JSON OUT_JSON --limit SECONDS [--trace SPANS_GZ]

Each op is one call of `towerlim.cli.dispatch` on the argv given in
OPS_JSON, in order, closed loop with one client.  A per-op time limit
(an interval timer) stops an op that runs too long; the batch goes on.
Exceptions are mapped to the command line's exit codes.  The worker
times the reference computation of reference.py before each op, after
the last one, and on a CPU-time timer (SIGPROF) in the middle of ops.
It writes, per op, the exit code, the wall time without the timer's
samples, the time it started (before its reference sample) and the JSON
report text (the op's time includes rendering it, as `--json` does);
then every reference sample with the time it ended, the process's peak
resident set size and, when traced, the per-layer aggregates.  With
--trace it also writes every span to SPANS_GZ.
"""

import argparse
import builtins
import json
import os
import resource
import signal
import sys
from time import perf_counter

import reference

# Exceptions by the exit code `towerlim.cli.main` gives them.
EXIT_BY_EXCEPTION = (
    (2, ("ParseError", "UnresolvedReference", "DimensionMismatch", "FileNotFoundError")),
    (3, ("DepthLimited", "NoStabilization", "TooLarge")),
    (4, ("IllDefined", "TowerError", "SimplicialError", "ShapeError",
         "DegreeMismatch", "UnknownSuite", "ValueError")),
)


class OpTimeout(BaseException):
    """Raised by the interval timer; a BaseException so that no
    `except Exception` inside the program can swallow it."""


def _on_alarm(signum, frame):
    raise OpTimeout()


class SpeedProbe:
    """Reference samples as (time taken, seconds per repetition), and the
    time the timer's samples took."""

    def __init__(self):
        self.samples = []
        self.cost = 0.0
        self.busy = False

    def take(self, reps):
        """A sample between ops, with the timer's samples held off."""
        self.busy = True
        self.samples.append((perf_counter(), reference.sample(reps)))
        self.busy = False

    def _on_prof(self, signum, frame):
        if self.busy:
            return
        self.busy = True
        t0 = perf_counter()
        d = reference.sample()
        t1 = perf_counter()
        self.samples.append((t1, d))
        self.cost += t1 - t0
        self.busy = False

    def start(self):
        signal.signal(signal.SIGPROF, self._on_prof)
        every = reference.SAMPLE_EVERY_S
        signal.setitimer(signal.ITIMER_PROF, every, every)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)


def import_program(root):
    """Import towerlim from ROOT/src, refusing any other copy."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "towerlim", "cli.py")):
        raise SystemExit("perfbench: no towerlim sources under %s" % src)
    sys.path.insert(0, src)
    import towerlim.cli
    if not os.path.abspath(towerlim.cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit("perfbench: imported towerlim from outside %s" % src)
    return towerlim.cli


def exception_codes(cli):
    table = []
    for code, names in EXIT_BY_EXCEPTION:
        for name in names:
            cls = getattr(cli, name, None) or getattr(builtins, name, None)
            if isinstance(cls, type):
                table.append((cls, code))
    return table


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("ops")
    ap.add_argument("out")
    ap.add_argument("--limit", type=float, required=True)
    ap.add_argument("--trace", default=None)
    args = ap.parse_args(argv)
    root = os.getcwd()
    cli = import_program(root)
    codes = exception_codes(cli)
    with open(args.ops, encoding="utf-8") as fh:
        ops = json.load(fh)

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    signal.signal(signal.SIGALRM, _on_alarm)
    probe = SpeedProbe()
    results = []
    loop_start = perf_counter()
    probe.start()
    for i, op in enumerate(ops):
        mark = perf_counter()
        probe.take(3)
        if tracer is not None:
            tracer.begin_op(i)
        code, text, error = None, None, None
        signal.setitimer(signal.ITIMER_REAL, args.limit)
        cost0 = probe.cost
        t0 = perf_counter()
        try:
            code, report, _ = cli.dispatch(op["argv"])
            text = cli.report_json(report)      # what `towerlim ... --json` prints
        except OpTimeout:
            error = "timeout"
        except Exception as exc:
            error = type(exc).__name__
            code = next((c for cls, c in codes if isinstance(exc, cls)), None)
        finally:
            t1 = perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
        results.append({"code": code, "error": error, "mark": mark,
                        "wall": t1 - t0 - (probe.cost - cost0), "report_text": text})
    probe.take(3)
    probe.stop()
    loop_wall = perf_counter() - loop_start

    out = {"results": results, "samples": probe.samples, "loop_wall": loop_wall,
           "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        out["layers"] = tracer.summary()
        out["spans"] = tracer.span_count()
        tracer.write_spans(args.trace)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
