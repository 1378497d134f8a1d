#!/usr/bin/env python
"""Consolidate the BENCH_*.json artifacts into one trajectory report.

``make bench-smoke`` writes six independent JSON artifacts (parallel
scaling, streaming memory, fastpath speedups, serving latency, monitoring
overhead, chaos SLOs). This tool flattens them into a single markdown document —
``BENCH_report.md`` at the repo root — with a headline table up top (the
numbers each benchmark itself calls out) and a full flattened metric
appendix, so one file tracks the whole performance trajectory across
commits instead of five diverging ones.

Missing artifacts are reported, not fatal: the report covers whatever has
been run.

Usage: python tools/bench_report.py [--out BENCH_report.md]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The artifacts `make bench-smoke` produces, in the order it runs them.
ARTIFACTS = (
    "BENCH_parallel.json",
    "BENCH_streaming.json",
    "BENCH_fastpath.json",
    "BENCH_serving.json",
    "BENCH_monitoring.json",
    "BENCH_chaos.json",
    "BENCH_telemetry.json",
)

#: Top-level keys that are configuration, not measured metrics.
_NON_METRIC_KEYS = {"benchmark", "dataset", "config", "headline", "memory_metric"}

#: repro-lint report written by `make lint`; summarised in the headline.
LINT_REPORT = "LINT_report.json"


def lint_summary_line(root: str = REPO_ROOT) -> str:
    """One-line repro-lint summary from ``LINT_report.json``, if present."""
    path = os.path.join(root, LINT_REPORT)
    if not os.path.exists(path):
        return f"Lint: no `{LINT_REPORT}` found — run `make lint`."
    try:
        with open(path) as handle:
            doc = json.load(handle)
        summary = doc.get("summary", {})
        total = summary.get("total", "?")
        suppressed = summary.get("pragma_suppressed", 0)
        baselined = summary.get("baseline_suppressed", 0)
        files = doc.get("files_scanned", "?")
        status = "clean" if total == 0 else f"**{total} finding(s)**"
    except (ValueError, OSError):
        return f"Lint: `{LINT_REPORT}` unreadable — rerun `make lint`."
    return (
        f"Lint: repro-lint {status} over {files} files "
        f"({suppressed} pragma-suppressed, {baselined} baselined)."
    )


def _python_lines(directory: str) -> int:
    """Physical lines (newlines, as ``wc -l`` counts) of every ``.py`` file
    under ``directory``."""
    total = 0
    for dirpath, _, names in os.walk(directory):
        for name in names:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as handle:
                    total += handle.read().count(b"\n")
    return total


def code_size_line(root: str = REPO_ROOT) -> str:
    """Physical lines of Python under ``src/repro`` and, separately, under
    ``src/repro/serving`` — the net-LoC headline, produced by a tool."""
    package = _python_lines(os.path.join(root, "src", "repro"))
    serving = _python_lines(os.path.join(root, "src", "repro", "serving"))
    return (
        f"Code size: {package:,} lines of Python under `src/repro`, "
        f"{serving:,} under `src/repro/serving`."
    )


def flatten_numeric(value: Any, prefix: str = "") -> List[Tuple[str, Any]]:
    """Depth-first (dotted-path, scalar) pairs for every numeric/bool leaf."""
    out: List[Tuple[str, Any]] = []
    if isinstance(value, dict):
        for key, child in value.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            out.extend(flatten_numeric(child, path))
    elif isinstance(value, list):
        for index, child in enumerate(value):
            # Lists of row dicts (parallel/streaming results) label rows by
            # their identifying string fields instead of a bare index.
            label = str(index)
            if isinstance(child, dict):
                tags = [
                    str(child[k])
                    for k in ("model", "mode", "n_jobs", "rows",
                              "workers", "tenant")
                    if k in child
                ]
                if tags:
                    label = "/".join(tags)
            out.extend(flatten_numeric(child, f"{prefix}[{label}]"))
    elif isinstance(value, bool) or isinstance(value, (int, float)):
        out.append((prefix, value))
    return out


def _fmt(value: Any) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def _markdown_table(headers: List[str], rows: List[List[str]]) -> List[str]:
    lines = ["| " + " | ".join(headers) + " |"]
    lines.append("|" + "|".join(" --- " for _ in headers) + "|")
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return lines


def build_report(root: str = REPO_ROOT) -> Tuple[str, List[str]]:
    """Return ``(markdown, missing_artifact_names)``."""
    headline_rows: List[List[str]] = []
    detail_sections: List[str] = []
    missing: List[str] = []

    for name in ARTIFACTS:
        path = os.path.join(root, name)
        if not os.path.exists(path):
            missing.append(name)
            continue
        with open(path) as handle:
            doc: Dict[str, Any] = json.load(handle)
        bench = doc.get("benchmark", name)
        dataset = doc.get("dataset", {})
        dataset_label = dataset.get("name", "-") if isinstance(dataset, dict) else "-"

        for key, value in flatten_numeric(doc.get("headline", {})):
            headline_rows.append([str(bench), key, _fmt(value)])

        detail_rows = []
        for key, value in sorted(
            pair
            for top_key, top_value in doc.items()
            if top_key not in _NON_METRIC_KEYS
            for pair in flatten_numeric(top_value, top_key)
        ):
            detail_rows.append([key, _fmt(value)])
        section = [f"### {bench} (`{name}`, dataset: {dataset_label})", ""]
        section.extend(_markdown_table(["metric", "value"], detail_rows))
        detail_sections.append("\n".join(section))

    lines = [
        "# Benchmark trajectory report",
        "",
        "Consolidated from the `BENCH_*.json` artifacts written by",
        "`make bench-smoke` (regenerate with `python tools/bench_report.py`).",
        "",
        lint_summary_line(root),
        code_size_line(root),
        "",
        "## Headlines",
        "",
    ]
    if headline_rows:
        lines.extend(
            _markdown_table(["benchmark", "metric", "value"], headline_rows)
        )
    else:
        lines.append("_No benchmark headlines available._")
    if missing:
        lines += ["", "Missing artifacts (benchmark not run): " + ", ".join(missing)]
    lines += ["", "## All metrics", ""]
    lines.extend(detail_sections or ["_No benchmark artifacts found._"])
    return "\n".join(lines) + "\n", missing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        default=os.path.join(REPO_ROOT, "BENCH_report.md"),
        help="output markdown path (default: BENCH_report.md at repo root)",
    )
    args = parser.parse_args(argv)

    report, missing = build_report()
    with open(args.out, "w") as handle:
        handle.write(report)

    # Headline table (everything up to the appendix) goes to stdout.
    print(report.split("\n## All metrics", 1)[0].rstrip())
    print(f"\nwrote {args.out}")
    if missing:
        print(f"note: {len(missing)} artifact(s) missing: {', '.join(missing)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
