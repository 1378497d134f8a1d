"""The multi-process serving plane: ``serve()`` facade dispatch,
``WorkerPool`` fleet semantics (shared model, round-robin dispatch,
overflow, fleet-wide hot swap with zero drops), the ``AsyncGateway``
front door (admission control, fairness, backpressure), and the
lifecycle controller's broadcast-path promotion."""

import asyncio
import os
import threading
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import serve
from repro.chaos import FaultPlan, StallWorker
from repro.exceptions import (
    DeadlineExceededError,
    PersistenceError,
    ServerOverloadedError,
    WorkerCrashedError,
)
from repro.persistence import save_model
from repro.registry import get_classifier, toy_imbalanced_split
from repro.serving import (
    AsyncGateway,
    ModelServer,
    ServerConfig,
    WorkerPool,
)

from affinity import cpu_sets, pinned


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


class TestServeFacade:
    def test_zero_workers_is_modelserver(self, champion):
        server = serve(champion, threshold=0.3)
        try:
            assert isinstance(server, ModelServer)
            assert server.threshold == 0.3
            assert server.mmap is False  # mmap=None resolves off in-process
        finally:
            server.close()

    def test_workers_make_a_pool_with_mmap_on(self, artifacts):
        with serve(artifacts[0], n_workers=2, model_version="v1") as pool:
            assert isinstance(pool, WorkerPool)
            assert pool.mmap is True  # mmap=None resolves on for a fleet
            assert pool.stats()["model_versions"] == {0: "v1", 1: "v1"}

    def test_config_object_with_overrides(self, champion):
        config = ServerConfig(threshold=0.2, max_batch=64)
        server = serve(champion, config, threshold=0.7)
        try:
            assert server.threshold == 0.7  # override wins
            assert server.max_batch == 64  # config survives
        finally:
            server.close()

    def test_invalid_field_lists_valid_ones(self, champion):
        with pytest.raises(TypeError, match="n_workers"):
            serve(champion, n_worker=3)

    def test_negative_workers_rejected(self, champion):
        with pytest.raises(ValueError, match="n_workers"):
            serve(champion, n_workers=-1)

    def test_config_is_frozen(self):
        config = ServerConfig()
        with pytest.raises(Exception):
            config.threshold = 0.1


class TestWorkerPool:
    def test_fleet_scores_identically_to_the_model(
        self, artifacts, champion, toy
    ):
        X, _ = toy
        expected = champion.predict_proba(X)
        with WorkerPool(artifacts[0], n_workers=2) as pool:
            assert np.array_equal(pool.predict_proba(X), expected)
            # every dispatch round-robins; both workers served traffic
            for _ in range(6):
                pool.predict_proba(X[:8])
            per_worker = pool.worker_stats()
            assert all(w["n_requests"] >= 3 for w in per_worker.values())

    def test_version_stamps_and_predict(self, artifacts, champion, toy):
        X, _ = toy
        with WorkerPool(artifacts[0], model_version="v1") as pool:
            scored = pool.score(X[:16])
            assert scored.model_version == "v1"
            labels = pool.predict(X[:32])
            assert set(labels) <= set(champion.classes_)

    def test_live_model_pool(self, champion, toy):
        """A fitted model (no artifact) is shared through plain fork CoW."""
        X, _ = toy
        with WorkerPool(champion, n_workers=2, mmap=False) as pool:
            assert np.array_equal(
                pool.predict_proba(X), champion.predict_proba(X)
            )

    def test_fleet_swap_converges_and_scores_challenger(
        self, artifacts, challenger, toy
    ):
        X, _ = toy
        with WorkerPool(artifacts[0], n_workers=2, model_version="v1") as pool:
            installed = pool.swap_model(artifacts[1], version="v2")
            assert installed == "v2"
            stats = pool.stats()
            assert stats["model_versions"] == {0: "v2", 1: "v2"}
            assert stats["n_swaps"] == 1
            assert np.array_equal(
                pool.predict_proba(X), challenger.predict_proba(X)
            )

    def test_swap_under_traffic_drops_nothing(self, artifacts, toy):
        """Requests submitted continuously across a fleet swap all resolve
        (old or new version) — none dropped, none failed."""
        X, _ = toy
        with WorkerPool(artifacts[0], n_workers=2, model_version="v1") as pool:
            futures, stop = [], threading.Event()

            def traffic():
                while not stop.is_set() and len(futures) < 400:
                    try:
                        futures.append(pool.submit_scored(X[:16]))
                    except ServerOverloadedError:
                        stop.wait(0.002)  # push-back is back-off, not a drop

            threads = [threading.Thread(target=traffic) for _ in range(2)]
            for thread in threads:
                thread.start()
            try:
                pool.swap_model(artifacts[1], version="v2")
            finally:
                stop.set()
                for thread in threads:
                    thread.join()
            assert futures, "traffic threads never submitted"
            results = [f.result(timeout=60) for f in futures]
            versions = {r.model_version for r in results}
            assert versions <= {"v1", "v2"} and "v2" in versions or versions == {"v1"}
            assert all(r.proba.shape == (16, 2) for r in results)

    def test_bad_artifact_swap_leaves_fleet_serving(self, artifacts, toy):
        X, _ = toy
        with WorkerPool(artifacts[0], model_version="v1") as pool:
            with pytest.raises(PersistenceError):
                pool.swap_model(artifacts[0] + ".missing", version="vX")
            assert pool.stats()["model_versions"] == {0: "v1", 1: "v1"}
            assert pool.predict_proba(X[:8]).shape == (8, 2)

    def test_live_model_swap_rejected(self, artifacts, champion):
        with WorkerPool(artifacts[0]) as pool:
            with pytest.raises(TypeError, match="artifact path"):
                pool.swap_model(champion)

    @settings(
        max_examples=3,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        max_pending=st.integers(1, 16),
        max_batch=st.sampled_from([1, 4, 64, 256]),
        rows=st.sampled_from([1, 64, 512, 4096]),
    )
    @example(max_pending=16, max_batch=4, rows=64)
    @example(max_pending=2, max_batch=1, rows=4096)
    def test_overflow_raises_and_counts(
        self, artifacts, champion, toy, max_pending, max_batch, rows
    ):
        """Admission is checked once per worker, at the pool's queue: a
        saturated 2-worker fleet pushes back at submission, and every
        request it admitted is scored exactly or fails typed with a
        crash/deadline — never with an overload. Holds with the test
        process (and so the fleet it forks) pinned to one CPU and to all."""
        X, _ = toy
        for cpus in cpu_sets():
            with pinned(cpus):
                self._overflow_round(
                    artifacts, champion, X, max_pending, max_batch, rows
                )

    @staticmethod
    def _overflow_round(artifacts, champion, X, max_pending, max_batch, rows):
        pool = WorkerPool(
            artifacts[0], n_workers=2, max_pending=max_pending, max_batch=max_batch
        )
        try:
            admitted, n_overflows = [], 0
            for i in range(3000):  # back-to-back, no stop at an overflow
                batch = X[(np.arange(rows) + i) % len(X)]
                try:
                    admitted.append((batch, pool.submit(batch)))
                except ServerOverloadedError:
                    n_overflows += 1
            assert n_overflows > 0, "the bounded fork queues never pushed back"
            assert pool.stats()["n_overflows"] == n_overflows
            for batch, future in admitted:
                try:
                    proba = future.result(timeout=60)
                except (WorkerCrashedError, DeadlineExceededError):
                    continue
                assert np.array_equal(proba, champion.predict_proba(batch))
        finally:
            pool.close()

    def test_worker_batches_and_answers_stats_in_fifo_order(
        self, artifacts, toy
    ):
        """Each worker coalesces its queued requests into kernel calls,
        and a stats message queued behind k requests is answered after
        them: it counts every one."""
        X, _ = toy
        # Hold each worker on its first request so the rest queue up.
        plan = FaultPlan(
            [StallWorker(worker=w, after_requests=1, seconds=0.3) for w in (0, 1)]
        )
        with WorkerPool(
            artifacts[0], n_workers=2, max_batch=64, chaos=plan
        ) as pool:
            futures = []

            def traffic(offset):
                for i in range(100):
                    futures.append(pool.submit(X[offset + i % 50 :][:4]))

            threads = [threading.Thread(target=traffic, args=(o,)) for o in (0, 7)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            per_worker = pool.worker_stats()  # FIFO behind all 200 requests
            for future in futures:
                assert future.result(timeout=60).shape == (4, 2)
        assert set(per_worker) == {0, 1}
        for stats in per_worker.values():
            assert stats["n_requests"] >= len(futures) // 2
            assert stats["n_overflows"] == 0
        assert sum(s["n_rows"] for s in per_worker.values()) == 4 * len(futures)
        assert sum(s["n_batches"] for s in per_worker.values()) < sum(
            s["n_requests"] for s in per_worker.values()
        )

    def test_worker_stats_report_memory_and_server_health(
        self, artifacts, toy
    ):
        X, _ = toy
        with WorkerPool(artifacts[0], n_workers=2) as pool:
            pool.predict_proba(X[:4])
            per_worker = pool.worker_stats()
            assert set(per_worker) == {0, 1}
            for stats in per_worker.values():
                assert stats["packed"] is True
                assert "private_kb" in stats and "baseline_private_kb" in stats

    def test_closed_pool_rejects_submits(self, artifacts):
        pool = WorkerPool(artifacts[0])
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.submit(np.zeros((1, 10)))
        pool.close()  # idempotent

    def test_rejects_bad_construction(self, artifacts):
        with pytest.raises(ValueError, match="n_workers"):
            WorkerPool(artifacts[0], n_workers=0)
        with pytest.raises(ValueError, match="threshold"):
            WorkerPool(artifacts[0], threshold=1.5)


class _FakeBackend:
    """Records submission order; optionally pushes back until released."""

    def __init__(self, reject=False):
        self.order = []
        self.reject = reject
        self.n_rejected = 0

    def submit(self, rows):
        if self.reject:
            self.n_rejected += 1
            raise ServerOverloadedError("backend full")
        self.order.append(int(rows[0][0]))
        future = Future()
        future.set_result(np.zeros((len(rows), 2)))
        return future


def _tagged(tag):
    return np.full((1, 3), float(tag))


class TestAsyncGateway:
    def test_scores_through_a_real_pool(self, artifacts, toy):
        X, _ = toy

        async def run():
            with WorkerPool(artifacts[0], n_workers=2) as pool:
                async with AsyncGateway(pool) as gateway:
                    outs = await asyncio.gather(
                        *[
                            gateway.submit(X[i : i + 4], tenant=f"t{i % 2}")
                            for i in range(8)
                        ]
                    )
                    stats = gateway.stats()
            return outs, stats

        outs, stats = asyncio.run(run())
        assert all(o.shape == (4, 2) for o in outs)
        served = sum(t["served"] for t in stats["tenants"].values())
        assert served == 8

    def test_fair_round_robin_across_tenants(self):
        """Tenant A floods 6 requests, tenant B sends 2: the drain still
        alternates A,B,A,B before A's backlog — backend order interleaves
        instead of serving A's queue to exhaustion first."""
        backend = _FakeBackend()

        async def run():
            gateway = AsyncGateway(backend)
            coros = [gateway.submit(_tagged(10 + i), tenant="a") for i in range(6)]
            coros += [gateway.submit(_tagged(20 + i), tenant="b") for i in range(2)]
            await asyncio.gather(*coros)
            await gateway.close()

        asyncio.run(run())
        assert backend.order[:4] == [10, 20, 11, 21]
        assert backend.order[4:] == [12, 13, 14, 15]

    def test_admission_control_bounds_each_tenant(self):
        """With the backend pushing back, a tenant's gateway queue fills
        to its bound and further submits are rejected at the door; the
        admitted requests are held under backpressure (never dropped) and
        all served once the backend recovers."""
        backend = _FakeBackend(reject=True)

        async def run():
            gateway = AsyncGateway(
                backend, max_pending_per_tenant=2, retry_interval=0.001
            )
            # Tasks run in creation order before the drain gets control:
            # items 0..1 fill the bound, 2..3 are rejected at the door.
            tasks = [
                asyncio.ensure_future(gateway.submit(_tagged(i), tenant="a"))
                for i in range(4)
            ]
            await asyncio.sleep(0.02)  # drain spins against the full backend
            assert gateway.stats()["n_backpressure_waits"] >= 1
            backend.reject = False  # backend recovers
            results = await asyncio.gather(*tasks, return_exceptions=True)
            await gateway.close()
            return results, gateway.stats()

        results, stats = asyncio.run(run())
        served = [r for r in results if isinstance(r, np.ndarray)]
        rejected = [r for r in results if isinstance(r, ServerOverloadedError)]
        assert len(served) == 2 and len(rejected) == 2
        assert all("tenant 'a'" in str(r) for r in rejected)
        assert stats["tenants"]["a"] == {
            "submitted": 2,
            "served": 2,
            "rejected": 2,
            "queued": 0,
        }

    def test_closed_gateway_rejects_submits(self):
        async def run():
            gateway = AsyncGateway(_FakeBackend())
            await gateway.close()
            with pytest.raises(RuntimeError, match="closed"):
                await gateway.submit(_tagged(1))

        asyncio.run(run())


class _PathOnlyServer(ModelServer):
    """A ModelServer that insists on the fleet contract: swaps arrive as
    artifact paths (what WorkerPool broadcasts), never live objects."""

    swaps_by_path = True

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.swap_paths = []

    def swap_model(self, model, *, version=None):
        assert isinstance(model, (str, os.PathLike)), (
            "broadcast-path promotion must ship an artifact path, got "
            f"{type(model).__name__}"
        )
        self.swap_paths.append(os.fspath(model))
        return super().swap_model(model, version=version)


class TestLifecycleBroadcastPromotion:
    def test_controller_promotes_fleet_backends_by_artifact_path(
        self, tmp_path
    ):
        """When the serving backend swaps by path (WorkerPool contract),
        the controller promotes through the registry's persisted artifact
        instead of the in-memory challenger."""
        from repro.datasets import make_checkerboard
        from repro.lifecycle import (
            ArtifactRegistry,
            LifecycleController,
            RetrainPolicy,
        )
        from repro.monitoring import DriftMonitor, ReferenceSketch

        X, y = make_checkerboard(
            n_minority=150, n_majority=1500, random_state=0
        )
        rng = np.random.RandomState(3)
        champion = get_classifier(
            "tree", max_depth=4, random_state=0
        ).fit(X, y)
        registry = ArtifactRegistry(tmp_path / "artifacts")
        server = _PathOnlyServer(champion, model_version="v1")
        monitor = DriftMonitor(
            ReferenceSketch().fit(X, y), window_size=800, min_window=200
        )
        controller = LifecycleController(
            server,
            registry,
            monitor,
            "logistic",
            policy=RetrainPolicy(cooldown=0),
            min_lift=-np.inf,
        )
        try:
            for _ in range(4):
                idx = rng.choice(len(y), 200)
                controller.process(X[idx], y[idx])
            promoted = None
            for _ in range(20):
                idx = rng.choice(len(y), 200)
                Xb, yb = X[idx] + 3.0, y[idx].copy()
                yb[rng.uniform(size=len(yb)) < 0.2] = 1
                event = controller.process(Xb, yb)
                if event.promoted:
                    promoted = event
                    break
            assert promoted is not None, "drift never promoted a challenger"
            assert server.swap_paths == [registry.path(promoted.promoted_version)]
            assert server.model_version == promoted.promoted_version
        finally:
            server.close()


class TestThresholdForPrecisionMoved:
    def test_canonical_home_is_metrics(self):
        from repro.metrics import threshold_for_precision
        from repro.metrics.ranking import threshold_for_precision as ranking_fn

        assert threshold_for_precision is ranking_fn

    def test_historical_serving_import_still_works(self):
        from repro.metrics import threshold_for_precision as canonical
        from repro.serving import threshold_for_precision as via_serving
        from repro.serving.server import threshold_for_precision as via_module

        assert via_serving is canonical and via_module is canonical
