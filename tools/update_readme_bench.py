"""Regenerate README's fastpath performance table from BENCH_fastpath.json.

Run after ``make bench-fastpath``:

    python tools/update_readme_bench.py

Rewrites the block between the ``BENCH_FASTPATH_TABLE_START`` / ``_END``
markers in README.md so the published numbers always come from the
committed benchmark artifact, never from hand-editing.
"""

import json
import pathlib
import re
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
README = REPO_ROOT / "README.md"
ARTIFACT = REPO_ROOT / "BENCH_fastpath.json"
START = "<!-- BENCH_FASTPATH_TABLE_START -->"
END = "<!-- BENCH_FASTPATH_TABLE_END -->"


def render_table(report: dict) -> str:
    ds = report["dataset"]
    packed = report["results"]["predict_packed"]
    lines = [
        f"Checkerboard |P|={ds['n_minority']}, |N|={ds['n_majority']} "
        f"(IR {ds['imbalance_ratio']}), {report['config']['n_estimators']} "
        "depth-8 trees; every fastpath/legacy pair asserted bit-identical.",
        "",
        "| Path | Legacy | Fastpath | Speedup |",
        "|---|---|---|---|",
        "| `predict_proba`, bulk, packed kernel "
        f"| {packed['bulk_legacy_seconds']:.3f}s | {packed['bulk_fastpath_seconds']:.3f}s "
        f"| **{packed['bulk_speedup']:.2f}×** |",
        f"| `predict_proba`, {packed['serve_batch']}-row serving batches, packed "
        f"| | | **{packed['serve_speedup']:.2f}×** |",
    ]
    return "\n".join(lines)


def main() -> int:
    report = json.loads(ARTIFACT.read_text())
    readme = README.read_text()
    pattern = re.compile(
        re.escape(START) + r".*?" + re.escape(END), flags=re.DOTALL
    )
    if not pattern.search(readme):
        print("README markers not found", file=sys.stderr)
        return 1
    README.write_text(
        pattern.sub(f"{START}\n{render_table(report)}\n{END}", readme)
    )
    print(f"README table regenerated from {ARTIFACT.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
