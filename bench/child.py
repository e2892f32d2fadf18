"""One fresh process of a benchmark run; started by run.py, not by hand.

    child.py setup WORKLOAD SEED            time set-up alone
    child.py run WORKLOAD SEED SECONDS      untraced passes, checked
    child.py trace WORKLOAD SEED            one traced pass

Set-up is importing conestab, making the workload's inputs from the seed
and filling its sigma_grid cache.  ``run`` then repeats whole passes as
long as the next one is expected to end within SECONDS (at least one pass)
and checks the outputs.  ``trace``
installs the tracer before filling the grid cache and records one pass.
Both print a digest of the pass outputs, so run.py can tell that tracing
changed no output bit.  The last line of output is one JSON object.
"""

import hashlib
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _dump(outputs) -> str:
    return json.dumps(outputs, sort_keys=True)


def _digest(dumped: str) -> str:
    return hashlib.sha256(dumped.encode()).hexdigest()


def main(argv) -> int:
    role, name, seed = argv[0], argv[1], int(argv[2])
    start = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads  # imports numpy and conestab
    import conestab
    source = os.path.join(ROOT, "src", "conestab")
    if os.path.dirname(os.path.abspath(conestab.__file__)) != source:
        print(f"conestab imported from {conestab.__file__}, not {source}", file=sys.stderr)
        return 2
    workdir = os.path.join(HERE, "out")
    os.makedirs(workdir, exist_ok=True)
    workload = workloads.WORKLOADS[name](seed, workdir)
    try:
        if role == "trace":
            return _trace(workload, workdir)
        workload.setup()
        setup_s = time.perf_counter() - start
        if role == "setup":
            print(json.dumps({"setup_s": setup_s}))
            return 0
        return _run(workload, float(argv[3]))
    finally:
        workload.close()


def _run(workload, seconds: float) -> int:
    import oracle

    oracle.self_test()
    passes, times = [], []
    began = time.perf_counter()
    while True:
        t = time.perf_counter()
        passes.append(_dump(workload.run_pass()))
        times.append(time.perf_counter() - t)
        # stop before a pass that would run past the window
        if time.perf_counter() - began + times[-1] > seconds:
            break
    check = workload.check(json.loads(passes[0]))
    problems = list(check.problems)
    problems += [f"pass {k} differs from pass 0" for k, p in enumerate(passes) if p != passes[0]]
    print(json.dumps({
        "problems": problems,
        "attempted": check.attempted * len(passes),
        "failed": check.failed * len(passes),
        "passes": len(passes),
        "wall_s": statistics.median(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "oracle_rel_gap": check.gap,
        "digest": _digest(passes[0]),
    }))
    return 0


def _trace(workload, workdir: str) -> int:
    import spans

    tracer = spans.Tracer()
    tracer.install()
    workload.setup()
    workload.trace_fields(tracer)
    tracer.recording = True
    t = time.perf_counter()
    outputs = _dump(workload.run_pass())
    traced_s = time.perf_counter() - t
    tracer.recording = False
    tracer.write(os.path.join(workdir, f"spans-{workload.name}.jsonl"))
    print(json.dumps({"layers": tracer.metrics(), "traced_s": traced_s,
                      "digest": _digest(outputs)}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
