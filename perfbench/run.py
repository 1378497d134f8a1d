#!/usr/bin/env python3
"""The repository's benchmark: the paper-shaped SPE loop, end to end.

Run from the repository root::

    python3 perfbench/run.py --workload fit_credit --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --list          # every metric with its unit

One run generates its inputs from ``--seed``, fits a Self-paced Ensemble,
saves and mmap-loads it, predicts with it, serves it from a worker pool
behind the async gateway, detects drift, retrains and hot-swaps under
load (see ``loop.py``). ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer breakdown of a separate traced run
(``layers.py``). The program under test is imported from ``src/``.

Standard output: a fingerprint line, a human-readable report (metrics
with units, request accounting per tenant and phase, ladder rungs) and,
as the last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. A failed correctness gate makes
``correct`` false and the exit code 1. ``--out FILE`` appends the
fingerprint and all metrics as one JSON line for ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import catalog  # noqa: E402
from common import SRC, WorkDir, fingerprint, log, stop_resource_tracker  # noqa: E402


def _args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w for w, _ in catalog.WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies every table size (6.74 gives fit_credit 1.01M training rows)")
    parser.add_argument("--out", help="append fingerprint + metrics as a JSON line")
    parser.add_argument("--list", action="store_true", help="print every metric and exit")
    args = parser.parse_args(argv)
    if not args.list and args.workload is None:
        parser.error("--workload is required")
    return args


def _import_program() -> None:
    sys.path.insert(0, SRC)
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        log(f"cannot import the program from {SRC}: {exc}")
        sys.exit(2)


def main(argv=None) -> int:
    args = _args(argv)
    if args.list:
        print(catalog.listing())
        return 0
    _import_program()
    from loop import run_workload

    fp = fingerprint(args.workload, args.seed, args.scale)
    print("fingerprint " + json.dumps(fp, sort_keys=True), flush=True)
    try:
        with WorkDir() as workdir:
            report = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace), args.scale, workdir)
    finally:
        stop_resource_tracker()

    units = catalog.units()
    names = ([m[0] for m in catalog.PER_LAYER] if args.trace
             else [m[0] for m in catalog.END_TO_END])
    values = report.layers if args.trace else report.e2e
    for name in names:
        if not math.isfinite(values[name]):
            report.failures.append(f"{name} was not measured")
            values[name] = 0.0
    print(f"== {args.workload} seed={args.seed} trace={args.trace} ==")
    for name in names:
        print(f"  {name:<34} {values[name]:>14.6g} {units[name]}")
    if not args.trace:
        print("== serving figures of this run without a bound (see catalog.py) ==")
        for name, unit, *_ in catalog.UNBOUNDED:
            print(f"  {name:<34} {report.e2e[name]:>14.6g} {unit}")
    print("== requests: attempted = succeeded + failed, by tenant and phase ==")
    for (tenant, phase), row in sorted(report.accounting.items()):
        attempted = row["attempted"]
        parts = ", ".join(f"{k}={v}" for k, v in sorted(row.items()) if k != "attempted")
        print(f"  {tenant:<7} {phase:<8} attempted={attempted} {parts}")
        if row.get("admitted_then_refused"):
            print(f"  {tenant:<7} {phase:<8} ADMITTED THEN REFUSED: {row['admitted_then_refused']}")
    for note in report.notes:
        print(f"  {note}")
    for failure in report.failures:
        print(f"GATE FAILED: {failure}")

    correct = not report.failures
    metrics = {name: {"value": float(values[name]), "unit": units[name]} for name in names}
    if args.out:
        with open(args.out, "a") as handle:
            handle.write(json.dumps({"fingerprint": fp, "trace": args.trace,
                                     "correct": correct, "e2e": report.e2e,
                                     "layers": report.layers}) + "\n")
    print(json.dumps({"correct": correct, "attempted": report.attempted,
                      "failed": report.failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
