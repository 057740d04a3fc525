"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a twoelem checkout.  Each round runs the workload's
whole task list in a fresh interpreter (worker.py), so it starts with empty
caches, as a `twoelem` command does.  Rounds are started while another one
fits in --seconds, and always at least one.  With --trace 0 the metrics are
the end-to-end ones (medians over the rounds); with --trace 1 they are the
per-layer ones, from spans taken around twoelem's module boundaries.  Raw
rounds and spans are written under perfbench/out/.  The exit code is 0
whenever a result is printed, also when "correct" is false (the failed
checks go to stderr); it is not 0 when no round could run.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
RUN_LIMIT_S = 170       # a run ends within 180 s
MIN_SETUPS = 5          # set-up samples per run; extra set-up-only starts fill up

sys.path.insert(0, str(HERE))
from tracing import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class RoundFailed(RuntimeError):
    pass


def _child(args, t_start, extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    env["PYTHONHASHSEED"] = "0"
    timeout = RUN_LIMIT_S - (time.monotonic() - t_start)
    if timeout <= 0:
        raise RoundFailed("run time limit reached")
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(args.trace), "--t0", repr(t0)] + extra
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise RoundFailed(f"round exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise RoundFailed(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), time.monotonic() - t0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=list(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "twoelem" / "__init__.py").is_file():
        print(f"no twoelem sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    t_start = time.monotonic()
    rounds, durations = [], []
    try:
        while True:
            extra = []
            if args.trace:
                extra = ["--spans", str(OUT / f"spans-{tag}-round{len(rounds)}.jsonl")]
            result, took = _child(args, t_start, extra)
            rounds.append(result)
            durations.append(took)
            if time.monotonic() - t_start + statistics.median(durations) > args.seconds:
                break
        setups = [r["setup_s"] for r in rounds]
        while not args.trace and len(setups) < MIN_SETUPS:
            setups.append(_child(args, t_start, ["--setup-only"])[0]["setup_s"])
    except RoundFailed as exc:
        print(f"{tag}: {exc}", file=sys.stderr)
        return 1

    for r in rounds:
        for line in r["errors"] + r["problems"]:
            print(f"{tag}: {line}", file=sys.stderr)
    if args.trace:
        metrics = {name: {"value": statistics.median(r["layers"][name] for r in rounds),
                          "unit": unit} for name, unit in LAYER_METRICS.items()}
        metrics["trace.solve_s"] = {"value": statistics.median(r["solve_s"] for r in rounds),
                                    "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "solve_s": {"value": statistics.median(r["solve_s"] for r in rounds), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in rounds),
                            "unit": "MB"},
        }
    summary = {
        "correct": all(r["correct"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }
    with open(OUT / f"run-{tag}.json", "w") as fh:
        json.dump({"summary": summary, "rounds": rounds, "setups": setups,
                   "round_wall_s": durations}, fh, indent=1)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
