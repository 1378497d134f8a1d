"""Chaos harness: the serving plane's SLOs under deterministic faults.

Replays a PaySim-style scoring burst through the ``serve()`` fleet while a
seeded :class:`repro.chaos.FaultPlan` breaks it on schedule — one worker
is killed mid-burst, a second is killed the instant a fleet-wide model
swap reaches it — and *asserts* the fault-tolerance SLOs instead of
eyeballing them:

* **zero hung futures** — every submitted request resolves within a
  bounded wait: scored, or failed with a *typed* error
  (``WorkerCrashedError`` / ``DeadlineExceededError`` /
  ``ServerOverloadedError``). A future that is still pending after the
  grace window is a hang, and the bench fails.
* **zero silent drops** — submitted == scored + typed failures, exactly.
  Nothing vanishes, nothing is scored twice (each future resolves once).
* **bounded recovery** — after the burst the pool is back at full
  capacity (every slot alive and answering) within the respawn-backoff
  bound, measured and recorded.
* **swap survives the crash** — the fleet converges onto the new version
  even though a worker died mid-broadcast (the respawn source is the new
  artifact).

A second phase stalls a worker under tight per-request deadlines: the
stalled requests must fail *typed* (``DeadlineExceededError``), never
block the caller for the length of the stall.

The plan is seeded and the traffic is generated — the same faults hit the
same requests on every run. ``REPRO_SCALE`` scales the burst; runs
standalone or under pytest like every other bench.
"""

import json
import os
import pathlib
import tempfile
import time
from concurrent.futures import TimeoutError as FutureTimeoutError

import numpy as np

from conftest import bench_scale, save_result

from repro import telemetry
from repro.chaos import FaultPlan, KillOnSwap, KillWorker, StallWorker
from repro.core import SelfPacedEnsembleClassifier
from repro.datasets import make_payment_simulation
from repro.exceptions import (
    DeadlineExceededError,
    ServerOverloadedError,
    WorkerCrashedError,
)
from repro.persistence import save_model
from repro.serving import serve
from repro.tree import DecisionTreeClassifier

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
ARTIFACT = REPO_ROOT / "BENCH_chaos.json"
BATCH = 32  # rows per request — small on purpose: more requests in flight
REQUEST_DEADLINE_S = 10.0  # generous per-request budget; expiry = failure
HANG_GRACE_S = 30.0  # a future unresolved this long after the burst hung
RECOVERY_BOUND_S = 15.0
RESPAWN_BACKOFF_S = 0.1


def _reconcile_telemetry(pool, stats: dict) -> dict:
    """One ``telemetry.snapshot()`` after the burst must tell the same
    story as the legacy ``stats()`` dict — the registry is the source of
    truth and ``stats()`` a view, so any disagreement is a bug."""
    label = {"pool": pool.telemetry_label_}
    counters = {
        "n_requests": "repro_pool_requests_total",
        "n_crashes": "repro_pool_crashes_total",
        "n_respawns": "repro_pool_respawns_total",
        "n_deadline_expired": "repro_pool_deadline_expired_total",
        "n_swaps": "repro_pool_swaps_total",
    }
    reconciled = {}
    for stat_key, metric in counters.items():
        registry_value = int(telemetry.metric_value(metric, label))
        assert registry_value == stats[stat_key], (
            f"{metric}={registry_value} disagrees with "
            f"stats()[{stat_key!r}]={stats[stat_key]}"
        )
        reconciled[metric] = registry_value
    roundtrip = telemetry.metric_value("repro_pool_roundtrip_seconds", label)
    swap = telemetry.metric_value("repro_pool_swap_seconds", label)
    assert roundtrip["count"] > 0, "no roundtrip latencies recorded"
    assert swap["count"] >= 1, "the mid-burst fleet swap left no duration"
    snap = telemetry.snapshot()
    assert "repro_pool_requests_total" in snap["metrics"]
    return {
        "stats_match_registry": True,
        "counters": reconciled,
        "roundtrip_p50_s": roundtrip["p50"],
        "roundtrip_p99_s": roundtrip["p99"],
        "swap_count": swap["count"],
        "swap_p99_s": swap["p99"],
    }


def _fit_and_save(tmp_dir):
    X, y = make_payment_simulation(n_samples=4000, random_state=0)
    clf = SelfPacedEnsembleClassifier(
        estimator=DecisionTreeClassifier(max_depth=6, random_state=0),
        n_estimators=5,
        random_state=0,
    ).fit(X, y)
    retrained = SelfPacedEnsembleClassifier(
        estimator=DecisionTreeClassifier(max_depth=6, random_state=0),
        n_estimators=5,
        random_state=1,
    ).fit(X, y)
    path_v1 = os.path.join(tmp_dir, "paysim_v1.npz")
    path_v2 = os.path.join(tmp_dir, "paysim_v2.npz")
    save_model(clf, path_v1)
    save_model(retrained, path_v2)
    rng = np.random.RandomState(77)
    X_serve = X[rng.randint(0, len(X), size=8192)]
    return path_v1, path_v2, X_serve


def _settle(futures):
    """Resolve every future within the grace window; classify outcomes."""
    outcomes = {"scored": 0, "crashed": 0, "deadline": 0, "hung": 0, "other": 0}
    versions = set()
    for future in futures:
        try:
            scored = future.result(timeout=HANG_GRACE_S)
        except DeadlineExceededError:
            outcomes["deadline"] += 1
        except WorkerCrashedError:
            outcomes["crashed"] += 1
        except FutureTimeoutError:
            outcomes["hung"] += 1  # SLO violation: asserted below
        except BaseException:
            outcomes["other"] += 1  # untyped failure: asserted below
        else:
            outcomes["scored"] += 1
            versions.add(scored.model_version)
    return outcomes, versions


def run_burst_phase(path_v1, path_v2, X_serve, scale: float) -> dict:
    """Kill two workers — one mid-burst, one mid-swap — under load."""
    n_requests = max(80, int(400 * scale))
    swap_at = n_requests // 2
    plan = FaultPlan(
        [
            # worker 0 dies serving its 10th request of the burst
            KillWorker(worker=0, after_requests=10),
            # worker 1 dies the instant the fleet swap broadcast reaches it
            KillOnSwap(worker=1, on_swap=1),
        ],
        seed=7,
    )
    futures = []
    rejected_overload = 0
    rejected_no_workers = 0
    swap_ms = None
    burst_start = time.perf_counter()
    with serve(
        path_v1,
        n_workers=2,
        model_version="v1",
        max_pending=256,
        respawn_backoff=RESPAWN_BACKOFF_S,
        chaos=plan,
    ) as pool:
        for i in range(n_requests):
            if i == swap_at:
                t0 = time.perf_counter()
                pool.swap_model(path_v2, version="v2", wait=False)
                swap_ms = round((time.perf_counter() - t0) * 1e3, 2)
            # Closed-loop pacing: cap requests in flight, like a client
            # fleet with bounded concurrency. An unpaced spray would park
            # the whole burst on the two doomed workers before the first
            # crash is even detectable.
            while sum(1 for f in futures if not f.done()) >= 32:
                time.sleep(0.001)
            rows = X_serve[(i * BATCH) % (len(X_serve) - BATCH) :][:BATCH]
            try:
                futures.append(
                    pool.submit_scored(rows, deadline=REQUEST_DEADLINE_S)
                )
            except ServerOverloadedError:
                rejected_overload += 1  # typed push-back at the door
                time.sleep(0.002)
            except WorkerCrashedError:
                rejected_no_workers += 1  # whole fleet briefly down
                time.sleep(0.01)
        outcomes, versions = _settle(futures)
        burst_s = time.perf_counter() - burst_start

        recovery_start = time.perf_counter()
        pool.wait_healthy(timeout=RECOVERY_BOUND_S)
        recovery_s = round(time.perf_counter() - recovery_start, 3)
        # convergence: both slots answering from the swapped version
        deadline = time.monotonic() + RECOVERY_BOUND_S
        while time.monotonic() < deadline:
            stats = pool.stats()
            if set(stats["model_versions"].values()) == {"v2"}:
                break
            time.sleep(0.05)
        stats = pool.stats()
        post_swap = pool.score(X_serve[:BATCH])
        # fresh stats(): post_swap itself is request n+1 in both ledgers
        reconciliation = _reconcile_telemetry(pool, pool.stats())

    typed_failures = (
        outcomes["crashed"] + outcomes["deadline"]
        + rejected_overload + rejected_no_workers
    )
    accounted = outcomes["scored"] + typed_failures
    submitted = n_requests  # every loop iteration ended in exactly one bucket
    assert outcomes["hung"] == 0, f"{outcomes['hung']} futures hung past {HANG_GRACE_S}s"
    assert outcomes["other"] == 0, f"{outcomes['other']} requests failed UNtyped"
    assert accounted == submitted, (
        f"silent drops: {submitted} submitted, {accounted} accounted for"
    )
    assert stats["n_crashes"] >= 2, stats
    assert stats["n_respawns"] >= 2, stats
    assert set(stats["model_versions"].values()) == {"v2"}, stats["model_versions"]
    assert post_swap.model_version == "v2"
    assert outcomes["scored"] > 0 and "v1" in versions, versions
    return {
        "n_requests": submitted,
        "plan": {"seed": plan.seed, "faults": [repr(f) for f in plan.faults]},
        "outcomes": outcomes,
        "rejected_overload": rejected_overload,
        "rejected_no_live_workers": rejected_no_workers,
        "typed_failures": typed_failures,
        "silent_drops": submitted - accounted,
        "versions_served": sorted(versions),
        "swap_broadcast_ms": swap_ms,
        "burst_s": round(burst_s, 3),
        "recovery_s": recovery_s,
        "recovery_bound_s": RECOVERY_BOUND_S,
        "n_crashes": stats["n_crashes"],
        "n_respawns": stats["n_respawns"],
        "worker_generations": stats["worker_generations"],
        "fleet_converged_to": sorted(set(stats["model_versions"].values())),
        "telemetry": reconciliation,
    }


def run_deadline_phase(path_v1, X_serve) -> dict:
    """A stalled worker under tight deadlines: typed expiry, no blocking."""
    plan = FaultPlan(
        [StallWorker(worker=0, after_requests=3, seconds=1.5)], seed=7
    )
    with serve(
        path_v1,
        n_workers=1,
        model_version="v1",
        respawn_backoff=RESPAWN_BACKOFF_S,
        chaos=plan,
    ) as pool:
        futures = [
            pool.submit_scored(
                X_serve[i * BATCH : (i + 1) * BATCH], deadline=0.25
            )
            for i in range(10)
        ]
        outcomes, _ = _settle(futures)
        expired = pool.stats()["n_deadline_expired"]
    assert outcomes["hung"] == 0 and outcomes["other"] == 0, outcomes
    assert outcomes["deadline"] >= 1, (
        f"the 1.5s stall never expired a 0.25s deadline: {outcomes}"
    )
    assert expired >= outcomes["deadline"]
    return {
        "stall_s": 1.5,
        "deadline_s": 0.25,
        "n_requests": 10,
        "outcomes": outcomes,
        "pool_n_deadline_expired": expired,
    }


def run_chaos_bench(scale: float) -> dict:
    with tempfile.TemporaryDirectory() as tmp_dir:
        path_v1, path_v2, X_serve = _fit_and_save(tmp_dir)
        burst = run_burst_phase(path_v1, path_v2, X_serve, scale)
        deadlines = run_deadline_phase(path_v1, X_serve)
    return {
        "benchmark": "chaos",
        "dataset": {"name": "payment_simulation", "request_batch": BATCH},
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
        "burst": burst,
        "deadlines": deadlines,
        "headline": {
            "zero_hung_futures": burst["outcomes"]["hung"] == 0
            and deadlines["outcomes"]["hung"] == 0,
            "zero_silent_drops": burst["silent_drops"] == 0,
            "all_failures_typed": burst["outcomes"]["other"] == 0
            and deadlines["outcomes"]["other"] == 0,
            "n_workers_killed": burst["n_crashes"],
            "killed_mid_swap": True,
            "recovery_s": burst["recovery_s"],
            "fleet_converged": burst["fleet_converged_to"] == ["v2"],
            "stats_matches_registry": burst["telemetry"]["stats_match_registry"],
        },
    }


def _render(report: dict) -> str:
    burst = report["burst"]
    dl = report["deadlines"]
    out = burst["outcomes"]
    return "\n".join(
        [
            "Chaos harness (PaySim burst, seeded FaultPlan: kill w0 mid-burst, "
            "kill w1 mid-swap)",
            f"burst: {burst['n_requests']} requests -> {out['scored']} scored, "
            f"{burst['typed_failures']} failed typed "
            f"(crash={out['crashed']}, deadline={out['deadline']}, "
            f"overload={burst['rejected_overload']}, "
            f"fleet-down={burst['rejected_no_live_workers']}), "
            f"{out['hung']} hung, {burst['silent_drops']} silently dropped",
            f"faults: {burst['n_crashes']} crashes, {burst['n_respawns']} respawns, "
            f"generations {burst['worker_generations']}; recovery "
            f"{burst['recovery_s']}s (bound {burst['recovery_bound_s']}s)",
            f"swap: broadcast {burst['swap_broadcast_ms']}ms mid-burst, one worker "
            f"killed mid-swap, fleet converged to {burst['fleet_converged_to']}",
            f"deadlines: {dl['n_requests']} requests vs a {dl['stall_s']}s stall at "
            f"deadline={dl['deadline_s']}s -> {dl['outcomes']['deadline']} expired "
            f"typed, {dl['outcomes']['scored']} scored, {dl['outcomes']['hung']} hung",
            f"telemetry: snapshot reconciles with stats() "
            f"({burst['telemetry']['counters']}), roundtrip p99 "
            f"{burst['telemetry']['roundtrip_p99_s']:.4f}s, "
            f"{burst['telemetry']['swap_count']} swap duration(s) recorded",
        ]
    )


def run_and_save() -> dict:
    report = run_chaos_bench(bench_scale())
    ARTIFACT.write_text(json.dumps(report, indent=2) + "\n")
    save_result("chaos", _render(report))
    print(f"wrote {ARTIFACT}")
    return report


def test_chaos_bench(run_once):
    run_once(run_and_save)


if __name__ == "__main__":
    run_and_save()
