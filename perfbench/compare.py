#!/usr/bin/env python3
"""Summarise or compare runs recorded with ``run.py --out FILE``.

    python3 perfbench/compare.py runs.jsonl              # spread per metric
    python3 perfbench/compare.py parent.jsonl change.jsonl

For each workload and end-to-end metric it prints the median of the runs
and their spread (distance between the first and third quartile, as
``statistics.quantiles(values, n=4)`` gives them, over the median). Given
two files it also prints the change of the median against the metric's
bound and flags a regression. It refuses to compare runs whose host
fingerprints (cores, machine, Python, numpy) or input scale differ: such
numbers measure different things. Git sha and dirty flag are what a
comparison varies, so they are shown, not matched.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from collections import defaultdict

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import catalog  # noqa: E402


def load(path: str):
    with open(path) as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _key(record) -> str:
    fp = record["fingerprint"]
    return json.dumps([fp["host"], fp["inputs"]["scale"]], sort_keys=True)


def check_fingerprints(*groups) -> None:
    """Exit with an error when the runs come from different hosts or scales."""
    keys = {_key(r) for group in groups for r in group}
    if len(keys) > 1:
        sys.exit("refusing to compare runs with different fingerprints:\n  "
                 + "\n  ".join(sorted(keys)))


def spread(values):
    """(median, IQR / median) of ``values``."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def by_workload(records):
    out = defaultdict(lambda: defaultdict(list))
    for r in records:
        if r["trace"]:
            continue
        for name, value in r["e2e"].items():
            out[r["fingerprint"]["inputs"]["workload"]][name].append(value)
    return out


def main(argv) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__)
        return 2
    groups = [load(p) for p in argv]
    check_fingerprints(*groups)
    tables = [by_workload(g) for g in groups]
    bounds = {m[0]: (m[2], m[3]) for m in catalog.END_TO_END}
    worst = 0
    for workload in sorted(tables[0]):
        shas = sorted({r["fingerprint"]["code"]["git_sha"][:10] for g in groups for r in g
                       if r["fingerprint"]["inputs"]["workload"] == workload})
        print(f"== {workload} (code {', '.join(shas)}) ==")
        for name, (better, bound) in bounds.items():
            base = tables[0][workload].get(name)
            if not base:
                continue
            med, rel = spread(base)
            line = (f"  {name:<20} n={len(base):<3} median={med:<12.6g} "
                    f"spread={rel:6.1%} bound={bound:.0%}{'  WIDE' if rel > bound else ''}")
            if len(tables) == 2 and tables[1][workload].get(name):
                med2, rel2 = spread(tables[1][workload][name])
                change = (med2 - med) / abs(med) if med else 0.0
                worse = change > bound if better == "lower" else -change > bound
                worst |= worse
                line += (f" | median={med2:<12.6g} spread={rel2:6.1%} "
                         f"change={change:+.1%}{'  REGRESSION' if worse else ''}")
            print(line)
    return 1 if worst else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
