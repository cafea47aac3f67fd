"""Benchmark entry point: one workload, one seed, one result line.

    python3 bench/run.py --workload evolve-n256 --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout and builds nothing: the package
is imported from ./src.  The workload runs in a fresh worker process
(bench/worker.py).  With --trace 0 the set-up is also timed in
SETUP_CHILDREN further processes that stop after it; they run while the
worker waits between ops, spread over the run, so that they meet the
same drift of the machine's speed as the ops do.  setup_s is the median
over all of them.  The last line of stdout is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics.  With --trace 1 the metrics are the
per-layer ones of bench/spans.py.  Details of the run (every op time,
every check) go to .bench_out/.  The exit status is 0 when every check
passed and 1, after the result line, when a check failed; it is 2, with
no result line, when a worker could not run or ran out of time.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_CHILDREN = 4
TIME_LIMIT_S = 170.0


class WorkerError(Exception):
    pass


def spawn(argv, deadline, on_pause=None):
    """Run one worker; returns (seconds from the spawn to its ready line, its result event).

    on_pause() runs whenever the worker pauses, and the worker then goes on.
    """
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(BENCH_DIR, "worker.py"), *argv],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        cwd=ROOT,
    )
    timer = threading.Timer(max(deadline - started, 0.0), proc.kill)
    timer.start()
    ready, result = None, None
    try:
        for line in proc.stdout:
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                print(line, end="", file=sys.stderr)
                continue
            if event.get("event") == "ready":
                ready = time.perf_counter() - started
            elif event.get("event") == "pause":
                for _ in range(event["count"]):
                    on_pause()
                proc.stdin.write("go\n")
                proc.stdin.flush()
            elif event.get("event") == "result":
                result = event
    except BaseException:
        proc.kill()
        raise
    finally:
        proc.stdin.close()
        proc.stdout.close()
        proc.wait()
        timer.cancel()
    if proc.returncode != 0 or ready is None:
        raise WorkerError(f"worker {' '.join(argv)} exited {proc.returncode}")
    return ready, result


def main(argv=None):
    parser = argparse.ArgumentParser(description="monopole-lab benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + TIME_LIMIT_S
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]

    setups = []

    def time_setup():
        setups.append(spawn(common + ["--setup-only"], deadline)[0])

    pauses = 0 if args.trace else SETUP_CHILDREN
    try:
        ready, result = spawn(common + ["--trace", str(args.trace), "--pauses", str(pauses)], deadline, time_setup)
        setups.append(ready)
        if result is None:
            raise WorkerError("worker ended without a result")
    except WorkerError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    records = result["records"]
    correct = all(c["passed"] for c in result["checks"]) and any(r["error"] is None for r in records)
    if args.trace:
        metrics = result["layers"]
    else:
        ok = [r["seconds"] for r in records if r["error"] is None]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": sum(r["seconds"] for r in records), "unit": "s"},
            "op_p50_s": {"value": statistics.median(ok), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    summary = {
        "correct": correct,
        "attempted": len(records),
        "failed": sum(r["error"] is not None for r in records),
        "metrics": metrics,
    }
    details = dict(summary, workload=args.workload, seed=args.seed, setup_samples_s=setups, **result)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=1)
    for check in result["checks"]:
        if not check["passed"]:
            print(f"check {check['name']} FAILED: {check['detail']}", file=sys.stderr)
    errors = sorted({r["error"] for r in records if r["error"]})
    for error in errors:
        print(f"failed op: {error}", file=sys.stderr)
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
