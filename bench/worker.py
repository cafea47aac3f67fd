"""One workload in one process: set up, run the timed operations, check the outputs.

Started by run.py.  It writes JSON lines to stdout: {"event": "ready"}
as soon as the set-up is done (run.py times the set-up from process
start to this line), then {"event": "result", ...}.  With --setup-only
it stops after the first line.  With --pauses K it writes
{"event": "pause", "count": c} before ops spread evenly over the run,
K in all, and waits for a line on stdin before going on; run.py times c
more set-ups meanwhile.  With --trace 1 it runs the operations twice
from the same inputs, untraced and then traced, and reports the
per-layer metrics and the difference of the two walls.
"""

import argparse
import collections
import json
import os
import resource
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")


def _emit(event, **fields):
    print(json.dumps({"event": event, **fields}), flush=True)


def run_ops(workload, rounds, tracer=None, pauses=0):
    """Run whole rounds of the workload's operations; returns the op records and checks."""
    records, results = [], []
    n_ops = rounds * len(workload.round)
    pause_before = collections.Counter(i * n_ops // pauses for i in range(pauses))
    for index in range(n_ops):
        kind = workload.round[index % len(workload.round)]
        if index in pause_before:
            _emit("pause", count=pause_before[index])
            sys.stdin.readline()
        if tracer is not None:
            tracer.op = index
        start = time.perf_counter()
        try:
            output = workload.op(kind)
            error = None
        except Exception as exc:  # a failed operation is counted, not fatal
            output, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.op = None
        records.append({"kind": kind, "seconds": elapsed, "error": error})
        if error is None:
            if tracer is not None:
                tracer.paused = True
            results.extend(workload.check_op(kind, output))
            if tracer is not None:
                tracer.paused = False
    return records, results


def _wall(records):
    return sum(r["seconds"] for r in records)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--pauses", type=int, default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "monopole_lab", "__init__.py")):
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if not workloads.cli.__file__.startswith(SRC):
        print(f"error: monopole_lab imported from {workloads.cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    make = workloads.WORKLOADS[args.workload]
    rounds = max(1, round(args.seconds / make.round_s))

    workload = make(args.seed, OUT_DIR)
    workload.prepare()
    _emit("ready")
    if args.setup_only:
        return 0
    records, results = run_ops(workload, rounds, pauses=args.pauses)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    results.extend(workload.check_run())

    layers = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            traced = make(args.seed, OUT_DIR)
            tracer.op = "prepare"
            traced.prepare()
            tracer.op = None
            traced_records, traced_results = run_ops(traced, rounds, tracer)
        finally:
            tracer.uninstall()
        results.extend(traced_results + traced.check_run())
        layers = tracer.layer_metrics(_wall(traced_records) - _wall(records))
        tracer.write(os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json"))
        for record in traced_records:
            record["traced"] = True
        records = records + traced_records

    _emit(
        "result",
        peak_rss_mb=peak_rss_mb,
        records=records,
        checks=[{"name": n, "passed": bool(p), "detail": d} for n, p, d in results],
        layers=layers,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
