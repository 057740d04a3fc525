"""One round of a workload, in the fresh interpreter that run.py starts.

Prints one JSON line: set-up time (from the parent's clock reading just
before this interpreter was started, to `import twoelem` done and inputs
built), solve time (the whole task list), peak resident memory, task counts,
and the outcome of the correctness checks.  With --trace 1 it also reports
the per-layer metrics and writes the round's spans as JSON lines.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--t0", type=float, required=True,
                   help="time.monotonic() read by the parent before starting this process")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans", default=None, help="file for the traced round's spans")
    args = p.parse_args(argv)

    import twoelem          # noqa: F401  (set-up includes the import)
    import twoelem.cli      # noqa: F401  (loaded so that the tracer wraps it)

    import checks
    from workloads import WORKLOADS

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    workload = WORKLOADS[args.workload]
    inputs = workload.setup(args.seed)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tasks = workload.tasks(inputs)
    results, errors = {}, []
    start = time.perf_counter()
    for i, (name, fn) in enumerate(tasks):
        if tracer:
            tracer.task = i
        try:
            results[name] = fn()
        except Exception as exc:  # a failed operation is counted, not fatal
            errors.append(f"{name}: {type(exc).__name__}: {exc}")
    solve_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems = []
    try:
        workload.check(inputs, results)
    except checks.CheckFailed as exc:
        problems.append(str(exc))
    except Exception as exc:  # malformed output is a failed check
        problems.append(f"{type(exc).__name__}: {exc}")

    out = {
        "setup_s": setup_s,
        "solve_s": solve_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(tasks),
        "failed": len(errors),
        "correct": not problems,
        "errors": errors,
        "problems": problems,
    }
    if tracer:
        out["layers"] = tracer.layer_metrics()
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
