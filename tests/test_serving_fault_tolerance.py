"""Fault tolerance of the serving plane: worker supervision (crash
detection, typed in-flight failure, backoff respawn), per-request
deadlines at every layer, the gateway's circuit breaker, swap atomicity
against corrupt challengers, and the pool's close() edge cases.

Process-killing tests are marked ``chaos`` (select with ``-m chaos``);
they use seeded :class:`repro.chaos.FaultPlan` kills or ``os.kill`` on
pool worker pids, never anything the supervisor shouldn't survive. Each
kill test runs pinned to one CPU and then to all of them.
"""

import asyncio
import os
import shutil
import signal
import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest

from repro.chaos import FaultPlan, KillOnSwap, KillWorker, StallWorker
from repro.exceptions import (
    CircuitOpenError,
    DeadlineExceededError,
    FleetTimeoutError,
    PersistenceError,
    ServerOverloadedError,
    WorkerCrashedError,
)
from repro.persistence import save_model
from repro.registry import get_classifier, toy_imbalanced_split
from repro.serving import AsyncGateway, ModelServer, WorkerPool
from repro.serving.pool import _rebuild_exception

from affinity import under_each_cpu_set

#: Fast supervision knobs shared by every pool in this file.
FAST = dict(respawn_backoff=0.05, respawn_backoff_cap=0.4)


@pytest.fixture(scope="module")
def toy():
    return toy_imbalanced_split()


@pytest.fixture(scope="module")
def champion(toy):
    X, y = toy
    return get_classifier(
        "spe", base="tree", n_estimators=5, random_state=0
    ).fit(X, y)


@pytest.fixture(scope="module")
def challenger(toy):
    X, y = toy
    return get_classifier(
        "spe", base="tree", n_estimators=5, random_state=1
    ).fit(X, y)


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory, champion, challenger):
    root = tmp_path_factory.mktemp("artifacts")
    p1, p2 = str(root / "champion.npz"), str(root / "challenger.npz")
    save_model(champion, p1)
    save_model(challenger, p2)
    return p1, p2


def _wait_for(predicate, timeout=30.0, interval=0.01):
    limit = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < limit, "condition never became true"
        time.sleep(interval)


class TestRebuildException:
    """Worker-side exceptions must resurface under their real type —
    library exceptions first, then builtins, never flattened."""

    def test_builtin_exceptions_resolve_by_name(self):
        exc = _rebuild_exception("ValueError", "bad feature count")
        assert type(exc) is ValueError and "bad feature count" in str(exc)
        exc = _rebuild_exception("MemoryError", "worker OOM")
        assert type(exc) is MemoryError
        exc = _rebuild_exception("TimeoutError", "too slow")
        assert type(exc) is TimeoutError

    def test_library_exceptions_win_over_builtins(self):
        exc = _rebuild_exception("PersistenceError", "checksum mismatch")
        assert type(exc) is PersistenceError
        exc = _rebuild_exception("DeadlineExceededError", "expired")
        assert type(exc) is DeadlineExceededError

    def test_unknown_or_non_exception_names_fall_back(self):
        exc = _rebuild_exception("NoSuchExceptionType", "detail")
        assert type(exc) is RuntimeError
        assert "NoSuchExceptionType" in str(exc) and "detail" in str(exc)
        # `int` is a builtin but not an exception: never "rebuilt" into one.
        exc = _rebuild_exception("int", "detail")
        assert type(exc) is RuntimeError

    def test_worker_raised_builtin_resurfaces_typed(self, artifacts, toy):
        X, _ = toy
        with WorkerPool(artifacts[0], n_workers=1) as pool:
            future = pool.submit(np.zeros((4, X.shape[1] + 3)))
            with pytest.raises(ValueError, match="features"):
                future.result(timeout=30)


@pytest.mark.chaos
class TestSupervision:
    @under_each_cpu_set
    def test_chaos_kill_fails_inflight_typed_and_respawns(
        self, artifacts, toy
    ):
        X, _ = toy
        plan = FaultPlan([KillWorker(worker=0, after_requests=1)])
        with WorkerPool(
            artifacts[0], n_workers=2, model_version="v1", chaos=plan, **FAST
        ) as pool:
            doomed = pool.submit(X[:4])  # round-robin starts at worker 0
            healthy = pool.submit(X[:4])
            with pytest.raises(WorkerCrashedError, match="not scored"):
                doomed.result(timeout=30)
            assert healthy.result(timeout=30).shape == (4, 2)
            pool.wait_healthy(timeout=30)
            stats = pool.stats()
            assert stats["n_crashes"] == 1 and stats["n_respawns"] == 1
            assert stats["worker_states"] == {0: "alive", 1: "alive"}
            assert stats["worker_crashes"] == {0: 1, 1: 0}
            assert stats["worker_generations"] == {0: 1, 1: 0}
            # The healed fleet serves on — including the respawned slot.
            for _ in range(4):
                assert pool.predict_proba(X[:4]).shape == (4, 2)

    @under_each_cpu_set
    def test_external_sigkill_detected_and_respawned(self, artifacts, toy):
        X, _ = toy
        with WorkerPool(artifacts[0], n_workers=2, **FAST) as pool:
            os.kill(pool.worker_pids()[0], signal.SIGKILL)
            pool.wait_healthy(timeout=30)
            stats = pool.stats()
            assert stats["n_crashes"] >= 1 and stats["n_respawns"] >= 1
            assert pool.predict_proba(X[:8]).shape == (8, 2)

    @under_each_cpu_set
    def test_whole_fleet_down_raises_typed_at_submit(self, artifacts, toy):
        X, _ = toy
        pool = WorkerPool(
            artifacts[0],
            n_workers=1,
            respawn_backoff=5.0,  # long: the fleet stays down for the check
            respawn_backoff_cap=5.0,
        )
        try:
            os.kill(pool.worker_pids()[0], signal.SIGKILL)
            _wait_for(lambda: pool.stats()["n_crashes"] >= 1)
            with pytest.raises(WorkerCrashedError, match="no live workers"):
                pool.submit(X[:4])
        finally:
            pool.close()

    @under_each_cpu_set
    def test_worker_stats_with_whole_fleet_down_returns_immediately(
        self, artifacts
    ):
        """Regression: a stats round-trip that starts after the only
        worker's crash was detected must return `{}` at once — not
        register a waiter nobody can wake and block out its timeout
        (which made wait_healthy burn its whole budget on one call)."""
        pool = WorkerPool(
            artifacts[0],
            n_workers=1,
            respawn_backoff=5.0,
            respawn_backoff_cap=5.0,
        )
        try:
            os.kill(pool.worker_pids()[0], signal.SIGKILL)
            _wait_for(lambda: pool.stats()["n_crashes"] >= 1)
            t0 = time.monotonic()
            assert pool.worker_stats(timeout=10.0) == {}
            assert time.monotonic() - t0 < 1.0
        finally:
            pool.close()

    @under_each_cpu_set
    def test_wait_healthy_timeout_names_the_silent_slot(self, artifacts, toy):
        """Every slot reads alive while one is stuck: the timeout names
        the slot that did not answer the last stats round, with its
        generation and pid, and not the slot that did."""
        X, _ = toy
        plan = FaultPlan([StallWorker(worker=0, after_requests=1, seconds=2.0)])
        with WorkerPool(
            artifacts[0], n_workers=2, chaos=plan, **FAST
        ) as pool:
            stalled = pool.submit(X[:4])  # round-robin: slot 0
            pid = pool.worker_pids()[0]
            with pytest.raises(FleetTimeoutError) as info:
                pool.wait_healthy(timeout=0.5)
            message = str(info.value)
            assert "{0: 'alive', 1: 'alive'}" in message
            assert f"no answer from slot 0 (generation 0, pid {pid})" in message
            assert "slot 1" not in message
            assert stalled.result(timeout=30).shape == (4, 2)

    @under_each_cpu_set
    def test_repeat_crashes_track_generations_and_counters(
        self, artifacts, toy
    ):
        X, _ = toy
        with WorkerPool(artifacts[0], n_workers=1, **FAST) as pool:
            for expected in (1, 2):
                os.kill(pool.worker_pids()[0], signal.SIGKILL)
                pool.wait_healthy(timeout=30)
                stats = pool.stats()
                assert stats["worker_crashes"][0] == expected
                assert stats["worker_generations"][0] == expected
            assert pool.stats()["n_respawns"] == 2
            assert pool.predict_proba(X[:4]).shape == (4, 2)

    @under_each_cpu_set
    def test_midswap_crash_converges_onto_the_new_version(
        self, artifacts, challenger, toy
    ):
        """A worker killed the instant the swap broadcast reaches it must
        not fail or hang the swap: its respawn source was repointed before
        the broadcast, so the fleet still converges onto the challenger."""
        X, _ = toy
        plan = FaultPlan([KillOnSwap(worker=1, on_swap=1)])
        with WorkerPool(
            artifacts[0], n_workers=2, model_version="v1", chaos=plan, **FAST
        ) as pool:
            installed = pool.swap_model(artifacts[1], version="v2", timeout=30)
            assert installed == "v2"
            pool.wait_healthy(timeout=30)
            stats = pool.stats()
            assert stats["model_versions"] == {0: "v2", 1: "v2"}
            assert stats["n_crashes"] == 1 and stats["n_respawns"] == 1
            scored = pool.score(X[:8])
            assert scored.model_version == "v2"
            assert np.array_equal(
                scored.proba, challenger.predict_proba(X[:8])
            )

    @under_each_cpu_set
    def test_kill_mid_reply_write_leaves_the_other_workers_answering(
        self, artifacts, toy
    ):
        """SIGKILL worker 0 while it writes a multi-MB reply. A future
        callback stalls the parent's reader after the first big reply, so
        worker 0 fills its reply pipe and blocks mid-write on the second.
        Whatever the kill interrupts, the doomed future resolves typed,
        slot 1 still answers and the fleet heals: a dead writer poisons
        only its own pipe."""
        X, _ = toy
        big = np.tile(X, (1500, 1))  # 202,500 rows: a 3.2 MB reply
        for delay in (0.0, 0.05, 0.3):
            release = threading.Event()
            with WorkerPool(artifacts[0], n_workers=2, **FAST) as pool:
                pid = pool.worker_pids()[0]
                first = pool.submit(big)  # round-robin: slot 0
                first.add_done_callback(lambda _: release.wait(10))
                healthy = pool.submit(X[:4])  # slot 1
                doomed = pool.submit(big)  # slot 0, behind `first`
                time.sleep(delay)
                os.kill(pid, signal.SIGKILL)
                release.set()
                try:
                    assert doomed.result(timeout=30).shape == big.shape[:1] + (2,)
                except WorkerCrashedError:
                    pass
                assert healthy.result(timeout=30).shape == (4, 2)
                pool.wait_healthy(10)
                assert pool.predict_proba(X[:8]).shape == (8, 2)


class TestDeadlines:
    def test_pool_rejects_pre_expired_deadlines(self, artifacts, toy):
        X, _ = toy
        with WorkerPool(artifacts[0], n_workers=1) as pool:
            with pytest.raises(DeadlineExceededError, match="at submission"):
                pool.submit(X[:4], deadline=0)
            with pytest.raises(DeadlineExceededError):
                pool.submit_scored(X[:4], deadline=-1.0)
            assert pool.stats()["n_deadline_expired"] == 2

    @pytest.mark.chaos
    @under_each_cpu_set
    def test_deadline_expires_typed_behind_a_stalled_worker(
        self, artifacts, toy
    ):
        """A request stuck behind a stalled worker fails fast with the
        typed deadline error (from the parent supervisor) instead of
        waiting out the stall — and the stalled request itself, with no
        deadline, is still served once the worker wakes."""
        X, _ = toy
        plan = FaultPlan(
            [StallWorker(worker=0, after_requests=1, seconds=0.6)]
        )
        with WorkerPool(
            artifacts[0], n_workers=1, chaos=plan, **FAST
        ) as pool:
            stalled = pool.submit(X[:4])
            start = time.monotonic()
            hurried = pool.submit(X[:4], deadline=0.1)
            with pytest.raises(DeadlineExceededError):
                hurried.result(timeout=30)
            assert time.monotonic() - start < 0.5  # failed during the stall
            assert stalled.result(timeout=30).shape == (4, 2)
            assert pool.stats()["n_deadline_expired"] >= 1

    def test_modelserver_deadline_contract(self, champion, toy):
        X, _ = toy
        server = ModelServer(champion)
        try:
            with pytest.raises(DeadlineExceededError):
                server.submit(X[:4], deadline=0)
            assert server.submit(X[:4], deadline=30.0).result(
                timeout=30
            ).shape == (4, 2)
            assert server.stats()["n_deadline_expired"] == 1
        finally:
            server.close()

    def test_gateway_deadline_contract(self):
        backend = _OverloadedBackend()

        async def run():
            gateway = AsyncGateway(backend, retry_interval=0.001)
            with pytest.raises(DeadlineExceededError):
                await gateway.submit(np.zeros((1, 3)), deadline=0)
            # Held under backpressure past its budget: fails typed.
            with pytest.raises(DeadlineExceededError):
                await gateway.submit(np.zeros((1, 3)), deadline=0.05)
            stats = gateway.stats()
            backend.healthy = True
            await gateway.close()
            return stats

        stats = asyncio.run(run())
        assert stats["n_deadline_expired"] == 2
        assert stats["n_backpressure_waits"] >= 1


class _OverloadedBackend:
    """Pushes back on every submit until ``healthy`` is flipped."""

    def __init__(self):
        self.healthy = False
        self.n_served = 0

    def submit(self, rows, *, deadline=None):
        if not self.healthy:
            raise ServerOverloadedError("backend full")
        self.n_served += 1
        future = Future()
        future.set_result(np.zeros((len(rows), 2)))
        return future


class _CrashingBackend:
    """Every future fails WorkerCrashedError until ``healthy`` flips."""

    def __init__(self):
        self.healthy = False
        self.n_submits = 0

    def submit(self, rows, *, deadline=None):
        self.n_submits += 1
        future = Future()
        if self.healthy:
            future.set_result(np.zeros((len(rows), 2)))
        else:
            future.set_exception(WorkerCrashedError("worker died"))
        return future


class TestCircuitBreaker:
    def test_disabled_by_default_never_sheds(self):
        backend = _CrashingBackend()

        async def run():
            gateway = AsyncGateway(backend)
            for _ in range(8):
                with pytest.raises(WorkerCrashedError):
                    await gateway.submit(np.zeros((1, 3)))
            stats = gateway.stats()
            await gateway.close()
            return stats

        stats = asyncio.run(run())
        assert stats["breaker"]["state"] == "closed"
        assert stats["breaker"]["n_shed"] == 0
        assert stats["breaker"]["failure_streak"] == 8

    def test_opens_after_the_failure_streak_and_sheds(self):
        backend = _CrashingBackend()

        async def run():
            gateway = AsyncGateway(
                backend, breaker_threshold=3, breaker_cooldown=60.0
            )
            for _ in range(3):
                with pytest.raises(WorkerCrashedError):
                    await gateway.submit(np.zeros((1, 3)))
            # Open: shed at the door, no backend traffic.
            submits_before = backend.n_submits
            with pytest.raises(CircuitOpenError, match="open"):
                await gateway.submit(np.zeros((1, 3)))
            assert backend.n_submits == submits_before
            stats = gateway.stats()
            await gateway.close()
            return stats

        stats = asyncio.run(run())
        assert stats["breaker"]["state"] == "open"
        assert stats["breaker"]["n_opens"] == 1
        assert stats["breaker"]["n_shed"] == 1

    def test_half_open_probe_success_closes(self):
        backend = _CrashingBackend()

        async def run():
            gateway = AsyncGateway(
                backend, breaker_threshold=2, breaker_cooldown=0.05
            )
            for _ in range(2):
                with pytest.raises(WorkerCrashedError):
                    await gateway.submit(np.zeros((1, 3)))
            backend.healthy = True  # backend recovers while breaker is open
            await asyncio.sleep(0.06)  # cooldown elapses → half-open
            proba = await gateway.submit(np.zeros((1, 3)))  # the probe
            stats = gateway.stats()
            await gateway.close()
            return proba, stats

        proba, stats = asyncio.run(run())
        assert proba.shape == (1, 2)
        assert stats["breaker"]["state"] == "closed"
        assert stats["breaker"]["failure_streak"] == 0

    def test_failed_probe_reopens(self):
        backend = _CrashingBackend()

        async def run():
            gateway = AsyncGateway(
                backend, breaker_threshold=2, breaker_cooldown=0.05
            )
            for _ in range(2):
                with pytest.raises(WorkerCrashedError):
                    await gateway.submit(np.zeros((1, 3)))
            await asyncio.sleep(0.06)
            with pytest.raises(WorkerCrashedError):  # probe admitted, fails
                await gateway.submit(np.zeros((1, 3)))
            stats = gateway.stats()
            backend.healthy = True
            await gateway.close()
            return stats

        stats = asyncio.run(run())
        assert stats["breaker"]["state"] == "open"
        assert stats["breaker"]["n_opens"] == 2

    def test_on_shed_fallback_degrades_gracefully(self):
        backend = _CrashingBackend()
        fallback = np.full((1, 2), 0.5)
        shed_log = []

        def on_shed(rows, tenant, exc):
            shed_log.append((tenant, type(exc).__name__))
            return fallback

        async def run():
            gateway = AsyncGateway(
                backend,
                breaker_threshold=1,
                breaker_cooldown=60.0,
                on_shed=on_shed,
            )
            with pytest.raises(WorkerCrashedError):
                await gateway.submit(np.zeros((1, 3)))
            answer = await gateway.submit(np.zeros((1, 3)), tenant="team-a")
            stats = gateway.stats()
            await gateway.close()
            return answer, stats

        answer, stats = asyncio.run(run())
        assert answer is fallback
        assert shed_log == [("team-a", "CircuitOpenError")]
        assert stats["breaker"]["n_shed"] == 1

    def test_overload_pushbacks_trip_then_recovery_closes(self):
        """Backend overload counts toward the streak; the request held
        under backpressure is still served once the backend recovers, and
        that success closes the breaker again."""
        backend = _OverloadedBackend()

        async def run():
            gateway = AsyncGateway(
                backend,
                breaker_threshold=2,
                breaker_cooldown=60.0,
                retry_interval=0.001,
            )
            held = asyncio.ensure_future(gateway.submit(np.zeros((1, 3))))
            await asyncio.sleep(0.03)  # drain retries; streak >= threshold
            assert gateway.stats()["breaker"]["state"] == "open"
            with pytest.raises(CircuitOpenError):
                await gateway.submit(np.zeros((1, 3)))
            backend.healthy = True
            proba = await held  # backpressured request was never dropped
            stats = gateway.stats()
            await gateway.close()
            return proba, stats

        proba, stats = asyncio.run(run())
        assert proba.shape == (1, 2)
        assert stats["breaker"]["state"] == "closed"
        assert stats["breaker"]["n_opens"] == 1


class TestSwapAtomicity:
    def test_corrupt_challenger_rejected_fleet_keeps_old_version(
        self, artifacts, champion, toy, tmp_path
    ):
        """A corrupt challenger raises PersistenceError from the parent's
        up-front validation: no worker ever hears about it, every worker
        keeps serving the old version, and healing the artifact (the flip
        is an XOR) lets the same swap succeed."""
        X, _ = toy
        corrupt = str(tmp_path / "challenger.npz")
        shutil.copy(artifacts[1], corrupt)
        plan = FaultPlan(seed=0)
        plan.corrupt(corrupt)
        with WorkerPool(
            artifacts[0], n_workers=2, model_version="v1"
        ) as pool:
            with pytest.raises(PersistenceError):
                pool.swap_model(corrupt, version="v2")
            stats = pool.stats()
            assert stats["model_versions"] == {0: "v1", 1: "v1"}
            assert stats["n_swaps"] == 0  # rejected before the broadcast
            scored = pool.score(X[:8])
            assert scored.model_version == "v1"
            assert np.array_equal(
                scored.proba, champion.predict_proba(X[:8])
            )
            plan.corrupt(corrupt)  # XOR twice restores the artifact
            assert pool.swap_model(corrupt, version="v2") == "v2"
            assert pool.stats()["model_versions"] == {0: "v2", 1: "v2"}

    def test_fire_and_forget_swap_registers_no_waiter(self, artifacts):
        """A ``wait=False`` swap converges through the acks alone and
        leaves no waiter behind for the rest of the pool's life."""
        with WorkerPool(artifacts[0], n_workers=2, model_version="v1") as pool:
            pool.swap_model(artifacts[1], version="v2", wait=False)
            _wait_for(
                lambda: pool.stats()["model_versions"] == {0: "v2", 1: "v2"}
            )
            assert pool._swap_waits == {}


class TestCloseEdgeCases:
    def test_close_with_inflight_requests_resolves_everything(
        self, artifacts, toy
    ):
        """Close never drops admitted work: the stop sentinel queues FIFO
        behind pending requests, so every in-flight future resolves."""
        X, _ = toy
        pool = WorkerPool(artifacts[0], n_workers=2)
        futures = [pool.submit(X[: 4 + i % 8]) for i in range(20)]
        pool.close()
        for i, future in enumerate(futures):
            assert future.result(timeout=30).shape == (4 + i % 8, 2)

    def test_double_close_is_idempotent(self, artifacts):
        pool = WorkerPool(artifacts[0], n_workers=1)
        pool.close()
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.submit(np.zeros((1, 4)))
        pool.close()

    def test_context_exit_during_active_swap_never_hangs(
        self, artifacts, toy
    ):
        """Leaving the context while a wait=False swap is still in flight
        must drain cleanly: the broadcast and the stop sentinel are FIFO
        per worker, so the swap acks land before the workers stop and
        every submitted request resolves (stamped by whichever side of
        the flip served it)."""
        X, _ = toy
        with WorkerPool(
            artifacts[0], n_workers=2, model_version="v1"
        ) as pool:
            futures = [pool.submit_scored(X[:8]) for _ in range(10)]
            pool.swap_model(artifacts[1], version="v2", wait=False)
        for future in futures:
            scored = future.result(timeout=30)
            assert scored.proba.shape == (8, 2)
            assert scored.model_version in {"v1", "v2"}

    @pytest.mark.chaos
    @under_each_cpu_set
    def test_close_with_a_crashed_worker_fails_leftovers_typed(
        self, artifacts, toy
    ):
        """Closing a pool whose only worker crashed must not hang on the
        dead process, and every unanswered future fails typed."""
        X, _ = toy
        plan = FaultPlan([KillWorker(worker=0, after_requests=2)])
        pool = WorkerPool(
            artifacts[0],
            n_workers=1,
            chaos=plan,
            respawn_backoff=30.0,  # no respawn before close
            respawn_backoff_cap=30.0,
        )
        try:
            assert pool.submit(X[:4]).result(timeout=30).shape == (4, 2)
            doomed = pool.submit(X[:4])  # request #2 kills the worker
            stragglers = []
            try:
                stragglers.append(pool.submit(X[:4]))
            except WorkerCrashedError:
                pass  # supervisor already marked the fleet down: also typed
        finally:
            pool.close()
        for future in [doomed, *stragglers]:
            with pytest.raises(WorkerCrashedError):
                future.result(timeout=30)
