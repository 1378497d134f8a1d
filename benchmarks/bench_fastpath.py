"""Fastpath speedups: ensemble predict_proba, packed vs per-tree.

Times ensemble ``predict_proba`` of an SPE fitted on the checkerboard
benchmark at the paper's "highly imbalanced" shape (IR = 100): the chunked
per-tree path (``packed="never"``) vs the packed path, in bulk (one big
batch) and serving style (512-row batches).

Every timed pair is also checked for the fastpath equivalence contract:
the packed path must be *bit-identical* to the per-tree path on the same
model. The bulk ``predict_proba`` speedup is asserted against a floor
(``REPRO_FASTPATH_MIN_SPEEDUP``, default 1.2 — conservative so shared CI
runners don't flake; the committed full-scale run shows the real margin).
The fit's packed majority scoring is checked bit for bit against the
per-tree scorer by ``tests/test_fastpath_equivalence.py``
(``TestScoringFastpath``).

Writes ``BENCH_fastpath.json`` at the repo root. ``REPRO_SCALE`` scales the
dataset; runs standalone or under pytest like every other bench.
"""

import json
import os
import pathlib
import time

import numpy as np

from conftest import bench_scale, save_result

from repro.core import SelfPacedEnsembleClassifier
from repro.datasets import make_checkerboard
from repro.parallel import ensemble_predict_proba
from repro.tree import DecisionTreeClassifier

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
ARTIFACT = REPO_ROOT / "BENCH_fastpath.json"
MIN_SPEEDUP = float(os.environ.get("REPRO_FASTPATH_MIN_SPEEDUP", "1.2"))
SERVE_BATCH = 512
N_ESTIMATORS = 10


def _best_of(fn, repeats):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def _serve(estimators, X, classes, packed):
    out = []
    for lo in range(0, X.shape[0], SERVE_BATCH):
        out.append(
            ensemble_predict_proba(
                estimators, X[lo : lo + SERVE_BATCH], classes, packed=packed
            )
        )
    return np.vstack(out)


def run_fastpath_bench(scale: float) -> dict:
    n_min = max(60, int(500 * scale))
    n_maj = max(600, int(50000 * scale))
    repeats = 3
    X, y = make_checkerboard(n_min, n_maj, random_state=0)
    X_test, _ = make_checkerboard(n_min, n_maj, random_state=1000)
    base = DecisionTreeClassifier(max_depth=8, random_state=0)
    classes = np.array([0, 1])

    model = SelfPacedEnsembleClassifier(
        estimator=base, n_estimators=N_ESTIMATORS, random_state=0
    ).fit(X, y)
    results = {}

    # --- predict_proba: packed traversal vs per-tree -------------------- #
    trees = model.estimators_
    proba_fast, t_bulk_fast = _best_of(
        lambda: ensemble_predict_proba(trees, X_test, classes), repeats
    )
    proba_legacy, t_bulk_legacy = _best_of(
        lambda: ensemble_predict_proba(trees, X_test, classes, packed="never"),
        repeats,
    )
    assert np.array_equal(proba_fast, proba_legacy), "packed traversal diverged"
    assert np.array_equal(model.predict_proba(X_test), proba_legacy), (
        "packed predict diverged"
    )
    _, t_serve_fast = _best_of(lambda: _serve(trees, X_test, classes, "auto"), repeats)
    _, t_serve_legacy = _best_of(
        lambda: _serve(trees, X_test, classes, "never"), repeats
    )
    results["predict_packed"] = {
        "bulk_legacy_seconds": round(t_bulk_legacy, 4),
        "bulk_fastpath_seconds": round(t_bulk_fast, 4),
        "bulk_speedup": round(t_bulk_legacy / t_bulk_fast, 2),
        "serve_batch": SERVE_BATCH,
        "serve_speedup": round(t_serve_legacy / t_serve_fast, 2),
    }

    headline_predict = results["predict_packed"]["bulk_speedup"]
    report = {
        "benchmark": "fastpath",
        "dataset": {
            "name": "checkerboard",
            "n_minority": n_min,
            "n_majority": n_maj,
            "n_features": int(X.shape[1]),
            "imbalance_ratio": round(n_maj / n_min, 1),
        },
        "config": {
            "n_estimators": N_ESTIMATORS,
            "max_depth": 8,
            "min_speedup_asserted": MIN_SPEEDUP,
        },
        "cpu_count": os.cpu_count(),
        "results": results,
        "headline": {
            "predict_proba_speedup": headline_predict,
            "bit_identical": True,
        },
    }

    assert headline_predict >= MIN_SPEEDUP, (
        f"predict_proba speedup {headline_predict} < floor {MIN_SPEEDUP}"
    )
    return report


def _render(report: dict) -> str:
    ds = report["dataset"]
    r = report["results"]
    lines = [
        "Fastpath speedups (checkerboard "
        f"|P|={ds['n_minority']}, |N|={ds['n_majority']}, IR={ds['imbalance_ratio']}, "
        f"{report['config']['n_estimators']} trees, depth 8) — all paths bit-identical",
        f"{'path':<28} {'legacy_s':>10} {'fast_s':>10} {'speedup':>8}",
        f"{'predict bulk (packed)':<28} {r['predict_packed']['bulk_legacy_seconds']:>10.4f} "
        f"{r['predict_packed']['bulk_fastpath_seconds']:>10.4f} "
        f"{r['predict_packed']['bulk_speedup']:>7.2f}x",
        f"{'serve x512 (packed)':<28} {'':>10} {'':>10} "
        f"{r['predict_packed']['serve_speedup']:>7.2f}x",
    ]
    return "\n".join(lines)


def run_and_save() -> dict:
    report = run_fastpath_bench(bench_scale())
    ARTIFACT.write_text(json.dumps(report, indent=2) + "\n")
    save_result("fastpath", _render(report))
    print(f"wrote {ARTIFACT}")
    return report


def test_fastpath_bench(run_once):
    run_once(run_and_save)


if __name__ == "__main__":
    run_and_save()
