#!/usr/bin/env python3
"""Run every shipped sweep spec and drop the CSVs under results/.

Usage:
    python3 scripts/run_experiments.py [--only NAME ...] [--simulate]

--only filters by spec basename (e.g. --only arrival_rate).  --simulate
re-runs each sweep with the slot-level simulator attached, writing a
second CSV with per-point gap columns next to the analytic one; the
simulated pass takes about 2.5 times as long as the analytic one (the
arrival-rate sweep: 12.5 s analytic, 31 s simulated on a 2-core host),
so start with a single spec.

Standard output gets one line per written CSV in the format of
``sha256sum`` (digest, two spaces, path from the repository root), so
the outputs of two checkouts can be diffed and ``sha256sum -c`` run on
either; the per-spec progress and timing lines go to standard error.
"""

import argparse
import dataclasses
import hashlib
import os
import sys
import time
from pathlib import Path

from cogrelay.experiments_cli import load_spec, run_sweep

REPO = Path(__file__).resolve().parents[1]
SPEC_DIR = REPO / "configs"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--only", nargs="*", default=None,
                    help="substring filter on spec file names")
    ap.add_argument("--simulate", action="store_true",
                    help="also run the simulator-backed variant of each sweep")
    args = ap.parse_args(argv)

    specs = sorted(SPEC_DIR.glob("sweep_*.spec"))
    if args.only:
        specs = [s for s in specs
                 if any(token in s.stem for token in args.only)]
    if not specs:
        print("no specs matched", file=sys.stderr)
        return 1

    (REPO / "results").mkdir(exist_ok=True)
    failures = 0
    for path in specs:
        overrides = {}
        variants = [("", overrides)]
        if args.simulate:
            variants.append(("sim", {"simulate": "true",
                                     "n_slots": "200000",
                                     "seeds": "1 2"}))
        for tag, extra in variants:
            spec, errors = load_spec(str(path), overrides=dict(extra))
            if errors:
                print(f"{path.name}: {'; '.join(errors)}", file=sys.stderr)
                failures += 1
                continue
            out = REPO / spec.output_path
            if tag:
                out = out.with_name(out.stem + "_sim" + out.suffix)
            out.parent.mkdir(parents=True, exist_ok=True)
            spec = dataclasses.replace(spec, output_path=str(out))
            t0 = time.time()
            written = run_sweep(spec)
            print(f"{path.name}{' [' + tag + ']' if tag else '':s} "
                  f"-> {written}  ({time.time() - t0:.1f}s)", file=sys.stderr)
            digest = hashlib.sha256(Path(written).read_bytes()).hexdigest()
            print(f"{digest}  {os.path.relpath(written, REPO)}", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
