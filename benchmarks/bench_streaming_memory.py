"""Streaming-training memory: peak RAM vs dataset rows, out-of-core vs in-memory.

Trains ``SelfPacedEnsembleClassifier`` (full in-memory arrays) against
``StreamingSelfPacedEnsembleClassifier`` (``mode="exact"`` and
``mode="reservoir"``) over an on-disk ``NPYSource`` while growing the
majority class, and records per-run peak memory two ways:

* ``tracemalloc`` peak — Python/NumPy allocations during ``fit`` only (the
  metric the sublinearity check uses; memory-mapped file pages never appear
  here because they are not allocations);
* ``ru_maxrss`` — the OS-level high-water mark, reported for context.

Each (mode, rows) cell runs in its own subprocess so high-water marks never
leak between configurations. The parent fits a log-log slope of peak
allocation vs rows per mode and asserts the streaming paths stay sublinear
(slope well under 1) while writing the machine-readable artefact
``BENCH_streaming.json`` at the repository root. A fixed probe set's
probability digest is also compared to double-check the exact streaming
mode reproduces the in-memory model bit-for-bit end to end.

Runs standalone (``python benchmarks/bench_streaming_memory.py``) or under
pytest. ``REPRO_SCALE`` scales the row grid.
"""

import argparse
import hashlib
import json
import os
import pathlib
import resource
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
ARTIFACT = REPO_ROOT / "BENCH_streaming.json"
SRC_DIR = REPO_ROOT / "src"

N_FEATURES = 32
N_MINORITY = 150
N_ESTIMATORS = 5
MODES = ("in_memory", "stream_exact", "stream_reservoir")
#: Streaming peak-allocation growth must stay well below proportional.
SUBLINEAR_SLOPE_LIMIT = 0.5


def _make_dataset(n_majority: int, directory: pathlib.Path) -> dict:
    """Write a wide checkerboard-based task as .npy files; returns paths."""
    from repro.datasets import make_checkerboard

    rng = np.random.RandomState(0)
    X_core, y = make_checkerboard(
        n_minority=N_MINORITY, n_majority=n_majority, random_state=0
    )
    # Pad to N_FEATURES columns so the feature matrix (the term streaming
    # removes from memory) dominates the footprint at bench scale.
    noise = rng.randn(len(y), N_FEATURES - X_core.shape[1])
    X = np.hstack([X_core, noise])
    x_path = directory / f"x_{n_majority}.npy"
    y_path = directory / f"y_{n_majority}.npy"
    np.save(x_path, X)
    np.save(y_path, y)
    return {"x": str(x_path), "y": str(y_path), "rows": int(len(y))}


def _probe_set() -> np.ndarray:
    from repro.datasets import make_checkerboard

    rng = np.random.RandomState(123)
    X_core, _ = make_checkerboard(
        n_minority=100, n_majority=400, random_state=123
    )
    return np.hstack([X_core, rng.randn(len(X_core), N_FEATURES - X_core.shape[1])])


def _build_model(mode: str):
    from repro.core import SelfPacedEnsembleClassifier
    from repro.streaming import StreamingSelfPacedEnsembleClassifier
    from repro.tree import DecisionTreeClassifier

    base = DecisionTreeClassifier(max_depth=8, random_state=0)
    common = dict(
        estimator=base, n_estimators=N_ESTIMATORS, k_bins=10, random_state=0
    )
    if mode == "in_memory":
        return SelfPacedEnsembleClassifier(**common)
    return StreamingSelfPacedEnsembleClassifier(
        mode="exact" if mode == "stream_exact" else "reservoir", **common
    )


def run_worker(config: dict) -> dict:
    """One (mode, dataset) measurement; prints a JSON result line."""
    from repro.streaming import NPYSource
    from repro.utils.timing import timed_call

    mode = config["mode"]
    model = _build_model(mode)
    tracemalloc.start()
    if mode == "in_memory":
        X = np.load(config["x"])
        y = np.load(config["y"])
        _, fit_seconds = timed_call(model.fit, X, y)
    else:
        # Fixed 4096-row blocks: small enough that every grid point streams
        # multiple blocks, so the per-block transient is a constant and the
        # slope isolates what actually grows with the dataset.
        source = NPYSource(config["x"], config["y"], block_size=4096)
        _, fit_seconds = timed_call(model.fit, source)
    _, traced_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    proba = model.predict_proba(_probe_set())
    return {
        "mode": mode,
        "rows": config["rows"],
        "fit_seconds": round(fit_seconds, 4),
        "tracemalloc_peak_mb": round(traced_peak / 2**20, 3),
        "ru_maxrss_mb": round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1
        ),
        "proba_digest": hashlib.sha256(
            np.ascontiguousarray(proba).tobytes()
        ).hexdigest()[:16],
    }


def _spawn_worker(config: dict) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    out = subprocess.run(
        [sys.executable, str(pathlib.Path(__file__).resolve()), "--worker",
         json.dumps(config)],
        capture_output=True,
        text=True,
        env=env,
    )
    if out.returncode != 0:
        raise RuntimeError(
            f"bench worker {config['mode']}@{config['rows']} failed "
            f"(exit {out.returncode}):\n{out.stderr}"
        )
    return json.loads(out.stdout.strip().splitlines()[-1])


def _loglog_slope(rows, peaks) -> float:
    """Least-squares slope of log(peak) vs log(rows) — 1.0 means linear."""
    lx, ly = np.log(np.asarray(rows, float)), np.log(np.asarray(peaks, float))
    return float(np.polyfit(lx, ly, 1)[0])


def run_streaming_memory(scale: float) -> dict:
    majority_grid = [max(2000, int(round(n * scale))) for n in (20000, 40000, 80000)]
    results = []
    with tempfile.TemporaryDirectory(prefix="bench_streaming_") as tmp:
        datasets = [
            _make_dataset(n_maj, pathlib.Path(tmp)) for n_maj in majority_grid
        ]
        for mode in MODES:
            for dataset in datasets:
                results.append(_spawn_worker({"mode": mode, **dataset}))

    by_mode = {
        mode: [r for r in results if r["mode"] == mode] for mode in MODES
    }
    scaling = {
        mode: round(
            _loglog_slope(
                [r["rows"] for r in rows],
                [r["tracemalloc_peak_mb"] for r in rows],
            ),
            3,
        )
        for mode, rows in by_mode.items()
    }
    for mode in ("stream_exact", "stream_reservoir"):
        assert scaling[mode] < SUBLINEAR_SLOPE_LIMIT, (
            f"{mode} peak memory slope {scaling[mode]} is not sublinear"
        )
    for exact, ref in zip(by_mode["stream_exact"], by_mode["in_memory"]):
        assert exact["proba_digest"] == ref["proba_digest"], (
            f"exact streaming diverged from in-memory at rows={ref['rows']}"
        )
    return {
        "benchmark": "streaming_memory",
        "dataset": {
            "name": "checkerboard+noise",
            "n_features": N_FEATURES,
            "n_minority": N_MINORITY,
            "majority_grid": majority_grid,
        },
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
        "n_estimators": N_ESTIMATORS,
        "memory_metric": "tracemalloc peak during fit (MB); ru_maxrss for context",
        "results": results,
        "peak_memory_slope_vs_rows": scaling,
        "sublinear_slope_limit": SUBLINEAR_SLOPE_LIMIT,
        "streaming_sublinear": True,
    }


def _render(report: dict) -> str:
    lines = [
        "Streaming training memory: peak alloc / RSS / wall-time vs rows "
        f"(|P|={report['dataset']['n_minority']}, "
        f"d={report['dataset']['n_features']}, "
        f"n_estimators={report['n_estimators']})",
        f"{'mode':<18} {'rows':>8} {'fit_s':>8} {'peak_alloc_mb':>14} "
        f"{'rss_mb':>8}",
    ]
    for row in report["results"]:
        lines.append(
            f"{row['mode']:<18} {row['rows']:>8} {row['fit_seconds']:>8.3f} "
            f"{row['tracemalloc_peak_mb']:>14.3f} {row['ru_maxrss_mb']:>8.1f}"
        )
    lines.append(
        "log-log slope of peak alloc vs rows (1.0 = linear): "
        + ", ".join(
            f"{m}={s}" for m, s in report["peak_memory_slope_vs_rows"].items()
        )
    )
    return "\n".join(lines)


def run_and_save() -> dict:
    from conftest import bench_scale, save_result

    report = run_streaming_memory(bench_scale())
    ARTIFACT.write_text(json.dumps(report, indent=2) + "\n")
    save_result("streaming_memory", _render(report))
    print(f"wrote {ARTIFACT}")
    return report


def test_streaming_memory(run_once):
    run_once(run_and_save)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--worker", help="internal: JSON config for one cell")
    args = parser.parse_args()
    if args.worker:
        print(json.dumps(run_worker(json.loads(args.worker))))
    else:
        sys.path.insert(0, str(pathlib.Path(__file__).parent))
        run_and_save()


if __name__ == "__main__":
    main()
