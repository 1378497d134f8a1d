"""Serving path: single-server latency + multi-process fleet behaviour.

Measures the production loop the persistence + serving subsystem exists
for — train once, save, then serve heavy traffic:

* **cold load** — ``load_model`` + ``ModelServer`` construction (which
  eagerly builds the packed kernel), i.e. the time from
  "process starts" to "first request can be served warm";
* **warm micro-batch latency** — p50/p99 per-request latency through the
  server's batching queue at request sizes 1 / 64 / 512, for a
  default-config SPE (packed-forest kernel);
* **fleet phases** (the ``WorkerPool`` serving plane) —
  throughput-vs-workers curve (1/2/4 forked workers over one mmap'd
  artifact), per-extra-worker *private* memory against the artifact size
  (the zero-copy claim: the model lives once in the page cache, workers
  pay only interpreter churn), bounded-queue saturation/overflow
  behaviour, and a fleet-wide hot swap under sustained load.

Correctness is asserted on every configuration: bit-identity of the
served path, the overflow contract (admitted work is always served), and
**zero dropped requests across a fleet swap**. Performance *floors* are
asserted only where this machine can honestly show them: the >=2x
speedup at 4 workers needs >=4 usable cores, and the <10% memory bound
needs the full-scale artifact (churn is constant, the artifact scales) —
when a floor is skipped, the JSON records ``asserted: false`` with the
reason instead of silently passing.

``REPRO_SCALE`` scales the dataset; runs standalone or under pytest like
every other bench.
"""

import json
import os
import pathlib
import tempfile
import threading
import time

import numpy as np

from conftest import bench_scale, save_result

from repro.core import SelfPacedEnsembleClassifier
from repro.datasets import make_checkerboard
from repro.exceptions import ServerOverloadedError
from repro.persistence import load_model, save_model
from repro.serving import ModelServer, WorkerPool

from repro.tree import DecisionTreeClassifier

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
ARTIFACT = REPO_ROOT / "BENCH_serving.json"
BATCH_SIZES = (1, 64, 512)
N_ESTIMATORS = 10
COLD_REPEATS = 5
FLEET_WORKERS = (1, 2, 4)
FLEET_BATCH = 256
MEMORY_LIMIT_PCT = 10.0
OVERFLOW_SUBMITS = 3000
OVERFLOW_MAX_PENDING = 16
OVERFLOW_MAX_BATCH = 4
OVERFLOW_ROWS = 64
SPEEDUP_FLOOR_AT_4 = 2.0


def _percentiles(latencies_ms):
    arr = np.asarray(latencies_ms)
    return {
        "p50_ms": round(float(np.percentile(arr, 50)), 4),
        "p99_ms": round(float(np.percentile(arr, 99)), 4),
    }


def _bench_variant(name, clf, X_serve, tmp_dir, requests_per_batch):
    path = os.path.join(tmp_dir, f"{name}.npz")
    save_model(clf, path)
    artifact_kb = round(os.path.getsize(path) / 1024, 1)

    cold = []
    for _ in range(COLD_REPEATS):
        start = time.perf_counter()
        server = ModelServer(load_model(path))
        cold.append((time.perf_counter() - start) * 1e3)
        server.close()
    server = ModelServer(load_model(path))
    assert server.packed_, f"{name}: artifact did not load into a packed kernel"

    batches = {}
    for batch in BATCH_SIZES:
        n_requests = requests_per_batch[batch]
        rows = [
            X_serve[(i * batch) % (len(X_serve) - batch) :][:batch]
            for i in range(n_requests)
        ]
        # bit-identity of the served path vs the in-process model
        assert np.array_equal(server.predict_proba(rows[0]), clf.predict_proba(rows[0]))
        latencies = []
        for chunk in rows:
            start = time.perf_counter()
            server.predict_proba(chunk)
            latencies.append((time.perf_counter() - start) * 1e3)
        batches[str(batch)] = {"n_requests": n_requests, **_percentiles(latencies)}
    server.close()
    return {
        "artifact_kb": artifact_kb,
        "cold_load_ms": _percentiles(cold) | {"repeats": COLD_REPEATS},
        "warm_batches": batches,
    }


# --------------------------------------------------------------------- #
# fleet phases (WorkerPool serving plane)
# --------------------------------------------------------------------- #
def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _fit_fleet_model(scale: float):
    """A deliberately *large* SPE whose artifact dwarfs per-worker churn.

    Pure-noise features grow the member trees to their depth bound, so the
    artifact scales with the data while per-worker interpreter churn (the
    thing the memory phase subtracts the model from) stays constant.
    """
    rng = np.random.RandomState(7)
    n = max(20000, int(200000 * scale))
    X = rng.normal(size=(n, 8))
    y = (rng.uniform(size=n) < 0.3).astype(int)
    clf = SelfPacedEnsembleClassifier(
        estimator=DecisionTreeClassifier(max_depth=20, random_state=0),
        n_estimators=max(8, int(18 * scale)),
        random_state=0,
    ).fit(X, y)
    return clf


def _pump(pool, X_serve, n_requests, batch=FLEET_BATCH):
    """Fire ``n_requests`` batches through the pool as fast as admission
    allows; returns (rows/s, futures). Push-back is retried, never dropped."""
    futures = []
    start = time.perf_counter()
    i = 0
    while len(futures) < n_requests:
        rows = X_serve[(i * batch) % (len(X_serve) - batch) :][:batch]
        i += 1
        try:
            futures.append(pool.submit(rows))
        except ServerOverloadedError:
            time.sleep(0.0005)
    for future in futures:
        future.result()
    elapsed = time.perf_counter() - start
    return n_requests * batch / elapsed, futures


def _fleet_throughput(path, X_serve, n_requests):
    curve = []
    for n_workers in FLEET_WORKERS:
        with WorkerPool(
            path, n_workers=n_workers, mmap=True, max_pending=512
        ) as pool:
            _pump(pool, X_serve, max(10, n_requests // 10))  # warm-up
            rows_per_s, _ = _pump(pool, X_serve, n_requests)
        curve.append({"workers": n_workers, "rows_per_s": round(rows_per_s, 1)})
    base = curve[0]["rows_per_s"]
    for row in curve:
        row["speedup_vs_1"] = round(row["rows_per_s"] / base, 2)
    achieved = curve[-1]["speedup_vs_1"]
    cores = _usable_cores()
    assertable = cores >= max(FLEET_WORKERS)
    if assertable:
        assert achieved >= SPEEDUP_FLOOR_AT_4, (
            f"fleet throughput must scale >= {SPEEDUP_FLOOR_AT_4}x at "
            f"{max(FLEET_WORKERS)} workers, got {achieved}x"
        )
    scaling = {
        "target_speedup_at_4": SPEEDUP_FLOOR_AT_4,
        "achieved_speedup_at_4": achieved,
        "usable_cores": cores,
        "asserted": assertable,
    }
    if not assertable:
        scaling["reason"] = (
            f"only {cores} usable core(s): forked workers time-slice one "
            "CPU, so the >=2x floor cannot be honestly demonstrated here"
        )
    return curve, scaling


def _fleet_memory(path, artifact_kb, X_serve, scale):
    """Per-extra-worker private RSS after sustained traffic, vs artifact.

    Workers inherit the mmap'd arrays and the pre-fork packed kernel
    copy-on-write; serving never writes them, so each worker's *private*
    pages are interpreter churn, not a model copy. ``baseline_private_kb``
    is sampled at worker start, before the worker loads its active model
    and batcher; the worker serves from its fork queue directly, with no
    second queue or thread whose buffers would count against it.
    """
    with WorkerPool(
        path, n_workers=max(FLEET_WORKERS), mmap=True, max_pending=512
    ) as pool:
        _pump(pool, X_serve, 40)
        per_worker = pool.worker_stats()
    deltas = {
        wid: round(stats["private_kb"] - stats["baseline_private_kb"], 1)
        for wid, stats in per_worker.items()
        if stats["private_kb"] is not None
    }
    memory = {
        "artifact_kb": artifact_kb,
        "limit_pct_of_artifact": MEMORY_LIMIT_PCT,
        "per_worker_private_delta_kb": {str(k): v for k, v in deltas.items()},
    }
    if not deltas:  # smaps_rollup unavailable (non-Linux)
        memory.update(asserted=False, reason="/proc/self/smaps_rollup unavailable")
        return memory
    worst = max(deltas.values())
    worst_pct = round(100.0 * worst / artifact_kb, 2)
    memory["worst_delta_kb"] = worst
    memory["worst_delta_pct_of_artifact"] = worst_pct
    # Churn is ~constant; the artifact scales with REPRO_SCALE. The <10%
    # bound is the full-scale claim — at smoke scale the same churn sits
    # against a small artifact, so asserting would test the scale knob,
    # not the sharing.
    assertable = scale >= 1.0
    memory["asserted"] = assertable
    if assertable:
        assert worst_pct < MEMORY_LIMIT_PCT, (
            f"per-extra-worker private delta {worst} KiB is "
            f"{worst_pct}% of the {artifact_kb} KiB artifact "
            f"(limit {MEMORY_LIMIT_PCT}%) — the fleet is copying the model"
        )
    else:
        memory["reason"] = (
            f"smoke scale {scale}: constant churn vs a down-scaled artifact"
        )
    return memory


def _fleet_overflow(path, X_serve):
    """Saturation: back-to-back submits into a 2-worker pool with a small
    admission bound must push back with ServerOverloadedError at the door,
    and every request the pool admitted must be served — admission is
    checked once per worker, so nothing admitted is rejected later."""
    with WorkerPool(
        path,
        n_workers=2,
        mmap=True,
        max_pending=OVERFLOW_MAX_PENDING,
        max_batch=OVERFLOW_MAX_BATCH,
    ) as pool:
        futures = []
        for i in range(OVERFLOW_SUBMITS):  # no early stop on push-back
            start = (i * OVERFLOW_ROWS) % (len(X_serve) - OVERFLOW_ROWS)
            rows = X_serve[start : start + OVERFLOW_ROWS]
            try:
                futures.append(pool.submit(rows))
            except ServerOverloadedError:
                pass
        failed = []
        for future in futures:
            try:
                assert future.result().shape == (OVERFLOW_ROWS, 2)
            except ServerOverloadedError as exc:  # admitted, then rejected
                failed.append(repr(exc))
        rejected = pool.n_overflows_
    assert not failed, (
        f"{len(failed)} of {len(futures)} admitted requests failed: {failed[:3]}"
    )
    assert rejected > 0, "saturating the pool never overflowed"
    assert rejected + len(futures) == OVERFLOW_SUBMITS
    return {
        "n_workers": 2,
        "max_pending": OVERFLOW_MAX_PENDING,
        "max_batch": OVERFLOW_MAX_BATCH,
        "rows_per_request": OVERFLOW_ROWS,
        "n_submitted": OVERFLOW_SUBMITS,
        "n_admitted": len(futures),
        "n_rejected": rejected,
        "all_admitted_served": True,
    }


def _fleet_swap_under_load(path_v1, path_v2, X_serve):
    """Fleet-wide hot swap under sustained traffic: every submitted
    request resolves (old or new version), zero dropped, fleet converges."""
    dropped, served_versions = [], set()
    with WorkerPool(
        path_v1, n_workers=2, mmap=True, model_version="v1", max_pending=512
    ) as pool:
        futures, stop = [], threading.Event()

        def traffic():
            i = 0
            while not stop.is_set() and len(futures) < 600:
                rows = X_serve[(i * 64) % (len(X_serve) - 64) :][:64]
                i += 1
                try:
                    futures.append(pool.submit_scored(rows))
                except ServerOverloadedError:
                    stop.wait(0.001)

        threads = [threading.Thread(target=traffic) for _ in range(2)]
        for thread in threads:
            thread.start()
        time.sleep(0.2)  # traffic flowing before the swap lands
        swap_start = time.perf_counter()
        pool.swap_model(path_v2, version="v2")
        swap_ms = (time.perf_counter() - swap_start) * 1e3
        converged = pool.stats()["model_versions"]
        # post-convergence traffic: the curve must show the fleet actually
        # answering from the new version, not just acking the broadcast
        post_swap = [pool.submit_scored(X_serve[:64]) for _ in range(10)]
        stop.set()
        for thread in threads:
            thread.join()
        futures.extend(post_swap)
        for future in futures:
            try:
                served_versions.add(future.result().model_version)
            except BaseException as exc:  # a dropped/failed request
                dropped.append(repr(exc))
    assert not dropped, f"requests dropped across the fleet swap: {dropped[:3]}"
    assert set(converged.values()) == {"v2"}, converged
    assert {"v1", "v2"} <= served_versions, served_versions
    return {
        "n_requests": len(futures),
        "n_dropped": len(dropped),
        "swap_broadcast_ms": round(swap_ms, 1),
        "versions_served": sorted(served_versions),
        "fleet_converged": True,
    }


def run_fleet_bench(scale: float, tmp_dir: str) -> dict:
    clf = _fit_fleet_model(scale)
    path_v1 = os.path.join(tmp_dir, "fleet_v1.npz")
    path_v2 = os.path.join(tmp_dir, "fleet_v2.npz")
    save_model(clf, path_v1)
    save_model(clf, path_v2)  # same bytes, new version: swap cost is real
    artifact_kb = round(os.path.getsize(path_v1) / 1024, 1)
    rng = np.random.RandomState(1000)
    X_serve = rng.normal(size=(8192, 8))

    n_requests = max(20, int(120 * scale))
    curve, scaling = _fleet_throughput(path_v1, X_serve, n_requests)
    memory = _fleet_memory(path_v1, artifact_kb, X_serve, scale)
    overflow = _fleet_overflow(path_v1, X_serve)
    swap = _fleet_swap_under_load(path_v1, path_v2, X_serve)
    return {
        "artifact_kb": artifact_kb,
        "request_batch": FLEET_BATCH,
        "workers_curve": curve,
        "scaling": scaling,
        "memory": memory,
        "overflow": overflow,
        "swap_under_load": swap,
    }


def run_serving_bench(scale: float) -> dict:
    n_min = max(60, int(500 * scale))
    n_maj = max(600, int(50000 * scale))
    X, y = make_checkerboard(n_min, n_maj, random_state=0)
    X_serve, _ = make_checkerboard(n_min, n_maj, random_state=1000)
    base = DecisionTreeClassifier(max_depth=8, random_state=0)
    requests_per_batch = {1: max(50, int(200 * scale)), 64: 50, 512: 20}

    results = {}
    with tempfile.TemporaryDirectory() as tmp_dir:
        spe = SelfPacedEnsembleClassifier(
            estimator=base, n_estimators=N_ESTIMATORS, random_state=0
        ).fit(X, y)
        results["spe_packed"] = _bench_variant(
            "spe_packed", spe, X_serve, tmp_dir, requests_per_batch
        )
        fleet = run_fleet_bench(scale, tmp_dir)

    return {
        "benchmark": "serving",
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
            "batch_sizes": list(BATCH_SIZES),
        },
        "cpu_count": os.cpu_count(),
        "results": results,
        "fleet": fleet,
        "headline": {
            "cold_load_p50_ms": results["spe_packed"]["cold_load_ms"]["p50_ms"],
            "batch1_p50_ms": results["spe_packed"]["warm_batches"]["1"]["p50_ms"],
            "bit_identical": True,
            "fleet_rows_per_s_4w": fleet["workers_curve"][-1]["rows_per_s"],
            "fleet_speedup_at_4w": fleet["scaling"]["achieved_speedup_at_4"],
            "fleet_worker_delta_pct": fleet["memory"].get(
                "worst_delta_pct_of_artifact"
            ),
            "swap_zero_dropped": fleet["swap_under_load"]["n_dropped"] == 0,
        },
    }


def _render(report: dict) -> str:
    ds = report["dataset"]
    lines = [
        "Serving latency (checkerboard "
        f"|P|={ds['n_minority']}, |N|={ds['n_majority']}, IR={ds['imbalance_ratio']}, "
        f"{report['config']['n_estimators']} trees) — served == in-process, bit-identical",
        f"{'variant':<16} {'cold p50':>10} {'b=1 p50/p99':>16} {'b=64 p50/p99':>16} "
        f"{'b=512 p50/p99':>16}",
    ]
    for name, res in report["results"].items():
        batches = res["warm_batches"]
        lines.append(
            f"{name:<16} {res['cold_load_ms']['p50_ms']:>8.2f}ms "
            + " ".join(
                f"{batches[str(b)]['p50_ms']:>7.3f}/{batches[str(b)]['p99_ms']:<7.3f}"
                for b in (1, 64, 512)
            )
        )
    fleet = report["fleet"]
    curve = " ".join(
        f"{row['workers']}w={row['rows_per_s']:.0f}r/s({row['speedup_vs_1']}x)"
        for row in fleet["workers_curve"]
    )
    memory = fleet["memory"]
    delta = (
        f"{memory['worst_delta_kb']:.0f}KiB/worker "
        f"({memory['worst_delta_pct_of_artifact']}% of "
        f"{memory['artifact_kb']:.0f}KiB artifact)"
        if "worst_delta_kb" in memory
        else "n/a"
    )
    swap = fleet["swap_under_load"]
    lines += [
        f"fleet (mmap'd, {fleet['request_batch']}-row requests): {curve}"
        + ("" if fleet["scaling"]["asserted"] else "  [speedup floor not asserted: "
           + fleet["scaling"]["reason"] + "]"),
        f"fleet memory: {delta}; overflow: "
        f"{fleet['overflow']['n_rejected']} rejected at the door, "
        f"all {fleet['overflow']['n_admitted']} admitted served",
        f"fleet swap under load: {swap['n_requests']} requests, "
        f"{swap['n_dropped']} dropped, versions {swap['versions_served']}, "
        f"broadcast {swap['swap_broadcast_ms']}ms",
    ]
    return "\n".join(lines)


def run_and_save() -> dict:
    report = run_serving_bench(bench_scale())
    ARTIFACT.write_text(json.dumps(report, indent=2) + "\n")
    save_result("serving", _render(report))
    print(f"wrote {ARTIFACT}")
    return report


def test_serving_bench(run_once):
    run_once(run_and_save)


if __name__ == "__main__":
    run_and_save()
