"""One pass of a workload in a fresh interpreter: set up, time, check.

Started by ``run.py`` from the root of a checkout.  Once the program is
imported and the first round is drawn it prints ``READY`` and the
system-wide monotonic clock, so that the parent can time the set-up
from the spawn; then it times and checks the rounds and prints its
outcome as one JSON line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="start rounds until the calls took this long")
    parser.add_argument("--rounds", type=int, default=0,
                        help="run exactly this many rounds instead")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-dir", default=None,
                        help="trace the pass and write its spans here")
    return parser.parse_args(argv)


def run_rounds(workload, first, seconds, rounds, tracer, check):
    """Time whole rounds of calls; returns the pass's outcome.

    A call is timed in CPU seconds of this process: on a shared host the
    wall time also counts the time the process waits for a core, which
    varies with the neighbours' load and not with the program.  The
    program runs in one thread, so the two agree on a quiet host.
    Rounds start until the calls have taken ``seconds`` (or for exactly
    ``rounds`` rounds).  With ``check``, each round's outputs are checked
    as soon as the round ends, outside the timed calls, and then
    dropped.  Peak memory is read when the calls of round 0 end, before
    their checks: heap fragmentation still grows it by about 1 MB a
    round, so a later read would charge a faster program more memory.
    """
    from workloads import call
    digest = hashlib.sha256()
    timings = []  # (round, config id, seconds, failed)
    wrong = 0
    ops, done, measured = first, 0, 0.0
    while True:
        records = []
        for op in ops:
            if tracer is not None:
                tracer.op = len(timings) + len(records)
            start = time.process_time()
            try:
                out = call(op)
            except Exception as exc:  # a failed op is counted, not fatal
                out = exc
            records.append((op, out, time.process_time() - start))
        if done == 0:  # the same work in every run, however long
            peak_rss_mb = (resource.getrusage(resource.RUSAGE_SELF)
                           .ru_maxrss / 1024.0)
        verdicts = judge(records) if check else [None] * len(records)
        for (op, out, dt), verdict in zip(records, verdicts):
            digest.update(f"{op.label} {outcome_text(op, out)}\n".encode())
            timings.append((done, id(op.config), dt, verdict is not None))
            report(op, out, verdict)
            wrong += verdict not in (None, "error")
        measured += sum(dt for *_, dt in records)
        done += 1
        if done >= rounds if rounds else measured >= seconds:
            break
        ops = workload.round(done)
    return {"rounds": done, "attempted": len(timings),
            "failed": sum(t[3] for t in timings), "wrong": wrong,
            "op_seconds": measured, "digest": digest.hexdigest(),
            "metrics": {"ops_per_s": ops_per_s(timings),
                        "peak_rss_mb": peak_rss_mb}}


def judge(records):
    """Each record's verdict: None, "error" (raised or "unverified") or a
    list of the ways its output is wrong, by the checks."""
    import checks  # only now: the checking code is no part of the set-up
    steps = {}
    verdicts = []
    for op, out, _ in records:
        if isinstance(out, Exception):
            verdicts.append("error")
            continue
        if op.kind == "sim":
            found = checks.check_simulation(op.config, op.policy.probs, out,
                                            out[0].slots)
        elif out.status == "unverified":
            verdicts.append("error")
            continue
        else:
            if id(op.config) not in steps:  # CPT and ST share a config
                steps[id(op.config)] = checks.StepPolicies(op.config)
            check = {"lp": checks.check_exact, "cpt": checks.check_cpt,
                     "st": checks.check_st}[op.kind]
            found = check(op.config, out, steps[id(op.config)])
            if (op.min_mu_s is not None and out.status == "ok"
                    and not out.mu_s >= op.min_mu_s):
                found.append(f"mu_s {out.mu_s!r} < {op.min_mu_s!r}")
        verdicts.append(found or None)
    return verdicts


def outcome_text(op, out):
    """What a call returned, for the digest that shows a traced pass
    computed the same as the plain one."""
    if isinstance(out, Exception):
        return type(out).__name__
    if op.kind == "sim":
        return repr([s.su_packets_delivered for s in out])
    return f"{out.status} {out.mu_s!r}"


def report(op, out, verdict):
    """Name a failed or wrong call on standard error."""
    if verdict == "error":
        what = (f"raised {type(out).__name__}: {out}"
                if isinstance(out, Exception) else out.status)
        print(f"failed: {op.kind} {op.label}: {what}", file=sys.stderr)
    elif verdict:
        for line in verdict:
            print(f"WRONG: {op.kind} {op.label}: {line}", file=sys.stderr)


def ops_per_s(timings):
    """Operations with no failed call, per CPU second of all calls.

    An operation is one exact search, one config's CPT and ST searches
    (the two calls share the config), or one simulated policy.  The rate
    is a mean on purpose: the host's slow spells come in bursts, and a
    median moved by up to half again as much as the mean when one
    covered part of a run (exact_search, ten seeds: IQR over median 0.31
    for the median operation time, 0.17 for this rate).
    """
    times, bad = {}, set()
    for round_, config, dt, failed in timings:
        times[round_, config] = times.get((round_, config), 0.0) + dt
        if failed:
            bad.add((round_, config))
    return (len(times) - len(bad)) / sum(times.values())


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    sys.path[:0] = [os.path.join(root, "src"), HERE]
    tracer = None
    if args.trace_dir is not None:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
    import workloads
    workload = workloads.Workload(args.workload, root, args.seed)
    first = workload.round(0)
    print(f"READY {time.monotonic()!r}", flush=True)
    if args.setup_only:
        return 0

    outcome = run_rounds(workload, first, args.seconds, args.rounds, tracer,
                         check=tracer is None)
    if tracer is not None:
        os.makedirs(args.trace_dir, exist_ok=True)
        stem = os.path.join(args.trace_dir,
                            f"{args.workload}-seed{args.seed}")
        tracer.write(stem + ".spans.jsonl")
        layers = tracer.layer_metrics()
        with open(stem + ".layers.json", "w", encoding="utf-8") as fh:
            json.dump({k: {"value": v, "unit": u}
                       for k, (v, u) in layers.items()}, fh, indent=1)
        outcome["layers"] = layers
    print(json.dumps(outcome), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
