"""Parallel-engine scaling: ensemble fit/predict wall-clock vs ``n_jobs``.

Times ``SelfPacedEnsembleClassifier`` and ``BaggingClassifier`` on a large
checkerboard dataset for ``n_jobs`` ∈ {1, 2, 4}, checks the engine's
determinism guarantee (all settings must produce identical probabilities),
and writes the machine-readable artefact ``BENCH_parallel.json`` at the
repository root — the seed of the repo's performance trajectory.

Runs standalone (``python benchmarks/bench_parallel_scaling.py``) or under
pytest like every other bench. ``REPRO_SCALE`` scales the dataset.
"""

import json
import os
import pathlib

import numpy as np

from conftest import bench_scale, save_result

from repro.core import SelfPacedEnsembleClassifier
from repro.datasets import make_checkerboard
from repro.ensemble import BaggingClassifier
from repro.tree import DecisionTreeClassifier
from repro.utils.timing import timed_call

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
ARTIFACT = REPO_ROOT / "BENCH_parallel.json"
N_JOBS_GRID = (1, 2, 4)


def _build_model(name: str, n_jobs: int):
    base = DecisionTreeClassifier(max_depth=8, random_state=0)
    if name == "SelfPacedEnsembleClassifier":
        return SelfPacedEnsembleClassifier(
            estimator=base,
            n_estimators=10,
            n_jobs=n_jobs,
            random_state=0,
        )
    return BaggingClassifier(
        estimator=base,
        n_estimators=10,
        n_jobs=n_jobs,
        random_state=0,
    )


def run_scaling(scale: float) -> dict:
    n_min, n_maj = max(50, int(2000 * scale)), max(500, int(20000 * scale))
    X_train, y_train = make_checkerboard(n_min, n_maj, random_state=0)
    X_test, _ = make_checkerboard(n_min, n_maj, random_state=1000)

    results = []
    for model_name in ("SelfPacedEnsembleClassifier", "BaggingClassifier"):
        reference = None
        for n_jobs in N_JOBS_GRID:
            model = _build_model(model_name, n_jobs)
            _, fit_seconds = timed_call(model.fit, X_train, y_train)
            proba, predict_seconds = timed_call(model.predict_proba, X_test)
            if reference is None:
                reference = proba
            max_diff = float(np.max(np.abs(proba - reference)))
            results.append(
                {
                    "model": model_name,
                    "n_jobs": n_jobs,
                    "fit_seconds": round(fit_seconds, 4),
                    "predict_seconds": round(predict_seconds, 4),
                    "max_abs_diff_vs_n_jobs_1": max_diff,
                }
            )
            assert max_diff == 0.0, (
                f"{model_name} with n_jobs={n_jobs} diverged from n_jobs=1"
            )

    return {
        "benchmark": "parallel_scaling",
        "dataset": {
            "name": "checkerboard",
            "n_minority": n_min,
            "n_majority": n_maj,
            "n_features": int(X_train.shape[1]),
        },
        "cpu_count": os.cpu_count(),
        "n_jobs_grid": list(N_JOBS_GRID),
        "results": results,
    }


def _render(report: dict) -> str:
    ds = report["dataset"]
    lines = [
        "Parallel scaling: fit/predict seconds vs n_jobs "
        f"(checkerboard |P|={ds['n_minority']}, |N|={ds['n_majority']}, "
        f"cpus={report['cpu_count']})",
        f"{'model':<30} {'n_jobs':>6} {'fit_s':>10} {'predict_s':>10}",
    ]
    for row in report["results"]:
        lines.append(
            f"{row['model']:<30} {row['n_jobs']:>6} "
            f"{row['fit_seconds']:>10.4f} {row['predict_seconds']:>10.4f}"
        )
    return "\n".join(lines)


def run_and_save() -> dict:
    report = run_scaling(bench_scale())
    ARTIFACT.write_text(json.dumps(report, indent=2) + "\n")
    save_result("parallel_scaling", _render(report))
    print(f"wrote {ARTIFACT}")
    return report


def test_parallel_scaling(run_once):
    run_once(run_and_save)


if __name__ == "__main__":
    run_and_save()
