"""The towerlim benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it imports towerlim from ./src
and reads towers/, tests/golden/ and BENCHMARK.json).  Workloads: tails,
interleave, shape, lab (see BENCHMARK.json for why each is there).

A run writes the workload's base set of queries (see workloads.py) to
files, checks the golden reports in an untimed batch, and then makes
passes.  A pass asks every query of the base set once, in an order
drawn from the seed, in a fresh interpreter (worker.py), closed loop
with one client.  Passes continue until the ops have taken --seconds of
wall time, and there are at least three.  Every answer is judged by
oracle.py.

Times are reported at the reference speed of reference.py: each op's
wall time is scaled by REF_S over the reference times taken around and
during it.

With --trace 0 the last line of output is the JSON result with the
end-to-end metrics; with --trace 1 the same passes are run again with
the per-layer wrappers of tracing.py installed, the known cliffs and
defects (workloads.hard_ops) are run as well, and the last line holds
the per-layer metrics named in BENCHMARK.json.  Span files go to
.perfbench_out/.
"""

import argparse
import bisect
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import reference  # noqa: E402
import workloads  # noqa: E402

OP_LIMIT_S = 20.0        # per-op guard in the timed passes
HARD_LIMIT_S = 10.0      # per-op guard for the known cliffs
MIN_PASSES = 3           # so that a workload's 90th percentile has 10 samples beyond it
SETUP_REPEATS = 12
REF_WINDOW = 2           # ops on each side whose reference samples scale an op
WORK_DIR = ".perfbench_work"
OUT_DIR = ".perfbench_out"

SETUP_SNIPPET = ("import sys, time; sys.path.insert(0, %r); import reference; "
                 "r0 = reference.sample(3); sys.path.insert(0, 'src'); "
                 "t = time.perf_counter(); import towerlim.cli; "
                 "t = time.perf_counter() - t; print(t, r0, reference.sample(3))" % HERE)


class BenchError(Exception):
    pass


def time_setup():
    """Time of `import towerlim.cli` in a fresh interpreter, raw and at
    the reference speed."""
    proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET],
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise BenchError("importing towerlim failed:\n" + proc.stderr)
    t, r0, r1 = map(float, proc.stdout.split())
    return t, t * reference.REF_S / ((r0 + r1) / 2)


def run_worker(ops, directory, tag, limit, spans=None):
    """Run one batch in a fresh interpreter; returns the worker's output."""
    ops_path = os.path.join(directory, tag + "-ops.json")
    out_path = os.path.join(directory, tag + "-out.json")
    with open(ops_path, "w", encoding="utf-8") as fh:
        json.dump([{"argv": op["argv"], "family": op["family"]} for op in ops], fh)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), ops_path, out_path,
           "--limit", str(limit)]
    if spans:
        cmd += ["--trace", spans]
    budget = limit * len(ops) + 120
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=budget)
    if proc.returncode != 0:
        raise BenchError("worker failed:\n" + proc.stderr[-4000:])
    with open(out_path, encoding="utf-8") as fh:
        return json.load(fh)


def timed_passes(workload, seed, seconds, base, directory):
    """Passes until the ops have used `seconds` of wall time, and at least
    MIN_PASSES; each is (order, worker output)."""
    passes = []
    spent = 0.0
    while spent < seconds or len(passes) < MIN_PASSES:
        k = len(passes)
        order = workloads.pass_order(workload, seed, k, len(base))
        out = run_worker([base[q] for q in order], directory, "pass%d" % k, OP_LIMIT_S)
        passes.append((order, out))
        spent += out["loop_wall"]
    return passes


def scaled_walls(out):
    """Each op's wall time at the reference speed: scaled by REF_S over
    the median of the reference samples taken from the start of the
    REF_WINDOW-th op before it to the end of the REF_WINDOW-th op after
    it (for a long op, mostly its own timer samples)."""
    results, samples = out["results"], out["samples"]
    times = [t for t, _ in samples]
    walls = []
    for i, res in enumerate(results):
        j = i + REF_WINDOW + 1
        lo = bisect.bisect_left(times, results[max(0, i - REF_WINDOW)]["mark"])
        hi = bisect.bisect_left(times, results[j]["mark"]) if j < len(results) else len(times)
        local = statistics.median(d for _, d in samples[lo:hi])
        walls.append(res["wall"] * reference.REF_S / local)
    return walls


def percentile(sorted_values, q):
    """Nearest-rank percentile."""
    k = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[k]


def judge_all(pairs):
    import oracle
    counts = {"ok": 0, "failed": 0, "wrong": 0}
    bad = []
    for op, res in pairs:
        verdict = oracle.judge(op, res)
        if verdict == "wrong":
            counts["failed"] += 1
        counts[verdict] += 1
        if verdict != "ok":
            bad.append((verdict, op, res))
    return counts, bad


def describe(verdict, op, res):
    return "%s: %s (%s, code %s, error %s, %.2f s)" % (
        verdict, " ".join(op["argv"][:1] + op["argv"][2:]), op["family"],
        res["code"], res["error"], res["wall"])


def environment():
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BASES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for need in ("src/towerlim/cli.py", "towers", "tests/golden", "BENCHMARK.json"):
        if not os.path.exists(need):
            print("perfbench: run from a source checkout; %s is missing" % need,
                  file=sys.stderr)
            return 2
    directory = os.path.join(WORK_DIR, "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(directory)
    try:
        return bench(args, directory)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass


def bench(args, directory):
    base = workloads.BASES[args.workload](workloads.Writer(directory, "in"))
    golden = workloads.golden_ops(args.workload)
    pairs = []
    if golden:
        pairs += zip(golden, run_worker(golden, directory, "golden", OP_LIMIT_S)["results"])
    passes = timed_passes(args.workload, args.seed, args.seconds, base, directory)
    setups = [time_setup() for _ in range(SETUP_REPEATS)]

    samples = [[] for _ in base]        # per query, its times at the reference speed
    raw = []
    for order, out in passes:
        pairs += [(base[q], res) for q, res in zip(order, out["results"])]
        raw += [res["wall"] for res in out["results"]]
        for q, w in zip(order, scaled_walls(out)):
            samples[q].append(w)
    counts, bad = judge_all(pairs)
    pooled = sorted(w for ws in samples for w in ws)
    n = len(pooled)
    p90 = percentile(pooled, 0.9)
    e2e = {
        # every pass is the same work; a query's median over the passes
        # is its cost, and the base set's total cost gives the rate
        "ops_per_s": {"value": len(base) / sum(statistics.median(ws) for ws in samples),
                      "unit": "ops/s"},
        "latency_p50_ms": {"value": 1000 * statistics.median(pooled), "unit": "ms"},
        "latency_p90_ms": {"value": 1000 * p90, "unit": "ms"},
        "peak_rss_mb": {"value": max(out["maxrss_kb"] for _, out in passes) / 1024,
                        "unit": "MB"},
        "setup_s": {"value": statistics.median(s for _, s in setups), "unit": "s"},
    }
    busy = sum(out["loop_wall"] for _, out in passes)
    raw.sort()
    print("perfbench %s seed %d: %d queries x %d passes = %d timed ops, %d golden, "
          "%.2f s busy; %s" % (args.workload, args.seed, len(base), len(passes), n,
                              len(golden), busy, json.dumps(environment())))
    print("  pass loop times (s): %s" % " ".join("%.3f" % out["loop_wall"] for _, out in passes))
    print("  reference speed: median sample %.3f ms (REF_S %.3f ms), %d samples" % (
        1000 * statistics.median(d for _, out in passes for _, d in out["samples"]),
        1000 * reference.REF_S, sum(len(out["samples"]) for _, out in passes)))
    print("  latency samples %d, beyond p90 %d" % (n, sum(1 for w in pooled if w > p90)))
    print("  wall clock, unscaled: %.2f ops/s, p50 %.3f ms, p90 %.3f ms, setup %.4f s" % (
        n / sum(raw), 1000 * statistics.median(raw), 1000 * percentile(raw, 0.9),
        statistics.median(t for t, _ in setups)))
    for item in bad[:20]:
        print("  " + describe(*item))
    attempted = len(pairs)
    ratios = {"fail_ratio": {"value": counts["failed"] / attempted, "unit": "ratio"},
              "wrong_ratio": {"value": counts["wrong"] / attempted, "unit": "ratio"}}
    for name, m in list(e2e.items()) + list(ratios.items()):
        print("  %-16s %12.4f %s" % (name, m["value"], m["unit"]))

    metrics = e2e
    if args.trace:
        metrics = traced(args, base, passes, directory)
    result = {"correct": counts["failed"] == 0, "attempted": attempted,
              "failed": counts["failed"], "metrics": metrics}
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# per-layer metrics


def merge_layers(outs):
    """Sum the per-pass aggregates of the traced workers."""
    total = {}
    for out in outs:
        for name, d in out["layers"].items():
            t = total.setdefault(name, {"calls": 0, "self_s": 0.0, "raised": 0,
                                        "distinct": 0, "found": 0})
            t["calls"] += d["calls"]
            t["self_s"] += d.get("self_s", 0.0)
            t["raised"] += sum(d.get("raised", {}).values())
            t["distinct"] += d.get("distinct", 0)
            t["found"] += d.get("found", 0)
            for field in ("max_dim", "max_bits", "max_degree", "max_simplices"):
                if field in d:
                    t[field] = max(t.get(field, 0), d[field])
    return total


FIELDS = ("calls", "self_s", "raised", "max_dim", "max_bits", "max_degree")


def layer_value(metric, total):
    """The value of one per-layer metric of BENCHMARK.json."""
    def get(name, field):
        return total.get(name, {}).get(field, 0)

    if metric == "procat.matmul_per_search":
        c = get("procat.find_interleaving", "calls")
        return get("procat.matmul_in_search", "calls") / c if c else 0.0
    if metric == "simplicial.max_simplices":
        return get("simplicial.homology_invariants", "max_simplices")
    head, field = metric.rsplit(".", 1)
    if "." not in head and field == "self_s":           # a whole layer
        return sum(d["self_s"] for name, d in total.items() if name.split(".")[0] == head)
    if field == "repeat_ratio":
        d = get(head, "distinct")
        return get(head, "calls") / d if d else 0.0
    if field == "found_ratio":
        c = get(head, "calls")
        return get(head, "found") / c if c else 0.0
    if field in FIELDS:
        return get(head, field)
    raise BenchError("no rule for the per-layer metric %s" % metric)


def traced(args, base, passes, directory):
    """Re-run the same passes traced, then the known cliffs and defects."""
    os.makedirs(OUT_DIR, exist_ok=True)
    for name in os.listdir(OUT_DIR):          # keep only the latest run's spans
        if name.startswith("spans-%s-" % args.workload):
            os.remove(os.path.join(OUT_DIR, name))
    outs = []
    for k, (order, _) in enumerate(passes):
        spans = os.path.join(OUT_DIR, "spans-%s-pass%d.tsv.gz" % (args.workload, k))
        outs.append(run_worker([base[q] for q in order], directory, "traced%d" % k,
                               OP_LIMIT_S, spans))
    total = merge_layers(outs)
    plain = sum(sum(scaled_walls(out)) for _, out in passes)
    traced_time = sum(sum(scaled_walls(out)) for out in outs)
    extra = {"trace.overhead_ratio": traced_time / plain,
             "trace.spans": sum(out["spans"] for out in outs)}
    print("  traced: %d spans, ops took %.2f s traced vs %.2f s untraced (at the reference "
          "speed), peak RSS %.1f MB" % (extra["trace.spans"], traced_time, plain,
                                        max(o["maxrss_kb"] for o in outs) / 1024))

    hard = workloads.hard_ops(args.workload, workloads.Writer(directory, "hard"))
    counts = {"ok": 0, "failed": 0, "wrong": 0}
    results = []
    if hard:
        results = run_worker(hard, directory, "hard", HARD_LIMIT_S)["results"]
        counts, bad = judge_all(zip(hard, results))
        for item in bad:
            print("  hard case " + describe(*item))
    extra["hard.failed"] = counts["failed"]
    extra["hard.wrong"] = counts["wrong"]
    extra["hard.no_stabilization"] = sum(1 for r in results if r["error"] == "NoStabilization")
    print("  hard cases: %d run, %d failed, %d wrong, %d NoStabilization"
          % (len(hard), counts["failed"], counts["wrong"], extra["hard.no_stabilization"]))

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)["per_layer"]
    metrics = {m["name"]: {"value": extra[m["name"]] if m["name"] in extra
                           else layer_value(m["name"], total), "unit": m["unit"]}
               for m in spec}
    with open(os.path.join(OUT_DIR, "layers-%s.json" % args.workload),
              "w", encoding="utf-8") as fh:
        json.dump({"seed": args.seed, "environment": environment(), "metrics": metrics,
                   "raw": total}, fh, indent=1, sort_keys=True)
    return metrics


if __name__ == "__main__":
    sys.exit(main())
