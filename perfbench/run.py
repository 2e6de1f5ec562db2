"""Benchmark of the cogrelay toolkit: one seeded workload, timed from outside.

    python3 perfbench/run.py --workload exact_search --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports the program from
``src/``.  Each pass of the workload runs in a fresh interpreter
(``worker.py``), so the program's caches start empty as they do for a
user.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics: set-up time (the median
over several fresh interpreters of the time from spawn to the first
timed call), operations per second and the peak resident memory.  ``--trace 1`` runs the same untraced pass, then
a traced pass over the same rounds, and reports the per-layer metrics
and the tracing overhead; its spans and metrics are written under
``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
TIME_LIMIT = 170.0  # seconds for the whole run, worker passes included
SETUP_PROBES = 4  # set-up-only interpreters, besides the timed pass
UNITS = {"setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}


class WorkerFailed(RuntimeError):
    pass


def run_worker(args, extra, deadline):
    """Run one worker pass; returns (set-up seconds, its JSON outcome).

    A set-up-only pass has no outcome, and None stands for it.
    """
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed), *extra]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerFailed(f"worker passed the {TIME_LIMIT:.0f} s limit")
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited with code {proc.returncode}")
    lines = out.splitlines()
    ready = [float(line.split()[1]) for line in lines
             if line.startswith("READY ")]
    if not ready:
        raise WorkerFailed("worker never reported READY")
    if "--setup-only" in extra:
        return ready[0] - spawned, None
    if not lines[-1].startswith("{"):
        raise WorkerFailed("worker printed no outcome")
    return ready[0] - spawned, json.loads(lines[-1])


def untraced(args, deadline):
    setups = [run_worker(args, ["--setup-only"], deadline)[0]
              for _ in range(SETUP_PROBES)]
    setup, outcome = run_worker(args, ["--seconds", str(args.seconds)],
                                deadline)
    setups.append(setup)
    metrics = dict(outcome["metrics"], setup_s=statistics.median(setups))
    return outcome, {k: {"value": v, "unit": UNITS[k]}
                     for k, v in sorted(metrics.items())}


def traced(args, deadline):
    _, plain = run_worker(args, ["--seconds", str(args.seconds)], deadline)
    _, spans = run_worker(args, ["--rounds", str(plain["rounds"]),
                                 "--trace-dir", os.path.join(HERE, "out")],
                          deadline)
    if spans["digest"] != plain["digest"]:
        print("the traced pass computed other results than the plain one",
              file=sys.stderr)
        plain["wrong"] += 1
    metrics = {k: {"value": v, "unit": u}
               for k, (v, u) in spans["layers"].items()}
    metrics["tracing.overhead_pct"] = {
        "value": 100.0 * (spans["op_seconds"] / plain["op_seconds"] - 1.0),
        "unit": "%"}
    return plain, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT
    for need in ("src/cogrelay", "configs"):
        if not os.path.isdir(need):
            print(f"error: no {need}/ here; run from the root of a checkout",
                  file=sys.stderr)
            return 2
    try:
        outcome, metrics = (traced if args.trace else untraced)(args, deadline)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"{args.workload} seed {args.seed}: {outcome['rounds']} rounds, "
          f"{outcome['attempted']} calls, {outcome['failed']} failed, "
          f"{outcome['wrong']} wrong", file=sys.stderr)
    print(json.dumps({"correct": outcome["wrong"] == 0,
                      "attempted": outcome["attempted"],
                      "failed": outcome["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
