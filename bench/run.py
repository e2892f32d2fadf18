"""Benchmark of conestab: one workload, one seed, one line of JSON.

    python3 bench/run.py --workload fd-ladder --seed 20260810 --seconds 20 --trace 0

Run from the root of a checkout; conestab is imported from its ``src``.
Workloads: fd-ladder, margin-sweep, invariant-suites (see bench/README.md).
With --trace 0 it prints the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced pass, made in its own process after an
untraced one whose outputs it must match bit for bit.  Every measurement
runs in fresh child processes, so one workload's memory or caches never
reach another's figures.  The last line of output is
{"correct", "attempted", "failed", "metrics"}; metric names and units come
from BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEFAULT_SEED = 20260810
SETUP_REPEATS = 7
TIME_LIMIT_S = 170.0


def _child(args, deadline: float) -> dict:
    """Run child.py with args; return its last output line as JSON."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"), *args],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"child {' '.join(args)} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"child {' '.join(args)} printed nothing")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S

    if not os.path.isfile(os.path.join(ROOT, "src", "conestab", "__init__.py")):
        print(f"no conestab source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    if args.workload not in {w["name"] for w in declared["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    seed = str(args.seed)
    try:
        values = {}
        if not args.trace:
            setups = [_child(["setup", args.workload, seed], deadline)["setup_s"]
                      for _ in range(SETUP_REPEATS)]
            values["setup_s"] = statistics.median(setups)
        run = _child(["run", args.workload, seed, repr(args.seconds)], deadline)
        if args.trace:
            traced = _child(["trace", args.workload, seed], deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    problems = run["problems"]
    if args.trace:
        if traced["digest"] != run["digest"]:
            problems.append("traced outputs differ from untraced outputs")
        values.update(traced["layers"])
        print(f"tracing overhead: traced pass {traced['traced_s']:.3f} s, "
              f"untraced median {run['wall_s']:.3f} s "
              f"({100.0 * (traced['traced_s'] / run['wall_s'] - 1.0):+.1f}%)")
    else:
        for key in ("wall_s", "peak_rss_mb", "oracle_rel_gap"):
            values[key] = run[key]
    if set(values) != {m["name"] for m in wanted}:
        print(f"metrics {sorted(values)} do not match BENCHMARK.json", file=sys.stderr)
        return 1
    print(f"{args.workload} seed {seed}: {run['passes']} pass(es), "
          f"{run['attempted']} operations, {run['failed']} failed")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
