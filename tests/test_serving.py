"""ModelServer: warm artifact loading, micro-batching, thresholding.

Pins the serving contracts of the persistence issue: an artifact loads
straight into a warm packed kernel (no re-pack on the first request),
micro-batched scoring is exactly the direct ``predict_proba``, the request
queue is bounded (overflow raises, never grows silently), and ``predict``
classifies by the tunable threshold instead of the estimators' argmax.
"""

import gc
import threading
import weakref

import numpy as np
import pytest

from repro.core import SelfPacedEnsembleClassifier
from repro.datasets import make_checkerboard
from repro.exceptions import ServerOverloadedError
from repro.fastpath import cached_packed_ensemble
from repro.metrics import precision_recall_curve
from repro.persistence import save_model
from repro.serving import ModelServer, threshold_for_precision


@pytest.fixture(scope="module")
def data():
    X, y = make_checkerboard(n_minority=50, n_majority=500, random_state=0)
    return X, y


@pytest.fixture(scope="module")
def fitted(data):
    X, y = data
    return SelfPacedEnsembleClassifier(n_estimators=4, random_state=0).fit(X, y)


@pytest.fixture(scope="module")
def artifact(fitted, tmp_path_factory):
    path = tmp_path_factory.mktemp("serving") / "model.npz"
    save_model(fitted, path)
    return path


class TestWarmLoading:
    def test_loads_artifact_into_warm_pack(self, artifact, data):
        X, _ = data
        with ModelServer(artifact) as server:
            assert server.packed_  # kernel built at construction
            estimators, classes = server.model.__serving_ensemble__()
            before = cached_packed_ensemble(list(estimators), classes)
            assert before is not None
            server.predict_proba(X[:8])  # first request
            after = cached_packed_ensemble(list(estimators), classes)
            assert before is after, "first request re-packed the forest"

    def test_wraps_live_model_too(self, fitted, data):
        X, _ = data
        with ModelServer(fitted) as server:
            assert np.array_equal(
                server.predict_proba(X[:16]), fitted.predict_proba(X[:16])
            )

    def test_unfitted_model_rejected(self):
        from repro.exceptions import NotFittedError

        with pytest.raises(NotFittedError):
            ModelServer(SelfPacedEnsembleClassifier())


class TestMicroBatching:
    def test_concurrent_singletons_equal_direct_scoring(self, artifact, data):
        X, _ = data
        with ModelServer(artifact, max_batch=64) as server:
            futures = [server.submit(X[i : i + 1]) for i in range(100)]
            got = np.vstack([f.result(timeout=30) for f in futures])
            assert np.array_equal(got, server.model.predict_proba(X[:100]))
            stats = server.stats()
            assert stats["n_requests"] == 100
            # queued singletons must have coalesced into far fewer kernel calls
            assert stats["n_batches"] <= stats["n_requests"]

    def test_mixed_sizes_split_back_correctly(self, artifact, data):
        X, _ = data
        with ModelServer(artifact) as server:
            sizes = [1, 7, 32, 3, 64, 1]
            futures, offset = [], 0
            for size in sizes:
                futures.append(server.submit(X[offset : offset + size]))
                offset += size
            direct = server.model.predict_proba(X[:offset])
            offset = 0
            for size, future in zip(sizes, futures):
                assert np.array_equal(
                    future.result(timeout=30), direct[offset : offset + size]
                )
                offset += size

    def test_bounded_queue_overflow_raises(self, data):
        X, _ = data

        class SlowModel:
            """Fitted-looking stub whose predict_proba blocks on demand."""

            def __init__(self):
                self.classes_ = np.array([0, 1])
                self.entered = threading.Event()
                self.release = threading.Event()

            def predict_proba(self, rows):
                self.entered.set()
                assert self.release.wait(timeout=30)
                return np.full((len(rows), 2), 0.5)

        model = SlowModel()
        server = ModelServer(model, max_pending=2)
        first = server.submit(X[:1])  # occupies the worker
        assert model.entered.wait(timeout=30)
        pending = [server.submit(X[:1]) for _ in range(2)]  # fills the queue
        with pytest.raises(ServerOverloadedError):
            server.submit(X[:1])
        model.release.set()
        for future in [first] + pending:
            assert future.result(timeout=30).shape == (1, 2)
        server.close()

    def test_max_batch_bounds_kernel_calls(self, data):
        """Coalescing never builds a kernel call above max_batch rows
        (except a single larger request, served alone)."""
        X, _ = data

        class RecordingModel:
            def __init__(self):
                self.classes_ = np.array([0, 1])
                self.entered = threading.Event()
                self.release = threading.Event()
                self.batch_rows = []

            def predict_proba(self, rows):
                self.entered.set()
                assert self.release.wait(timeout=30)
                self.batch_rows.append(len(rows))
                return np.full((len(rows), 2), 0.5)

        model = RecordingModel()
        server = ModelServer(model, max_batch=8)
        first = server.submit(X[:1])  # occupies the worker
        assert model.entered.wait(timeout=30)
        futures = [server.submit(X[:5]), server.submit(X[:5])]  # 5 + 5 > 8
        model.release.set()
        for future in [first] + futures:
            future.result(timeout=30)
        server.close()
        # 5+5 must not coalesce into one 10-row call; the carried request
        # is served in its own batch.
        assert model.batch_rows[1:] == [5, 5]

    def test_serving_hook_opt_out_for_vote_ensembles(self, data):
        """RUSBoost/SMOTEBoost predict by weighted vote, never the packed
        kernel — the server must not pre-pack (and report) an unused forest."""
        from repro.imbalance_ensemble import RUSBoostClassifier

        X, y = data
        clf = RUSBoostClassifier(n_estimators=3, random_state=0).fit(X, y)
        with ModelServer(clf) as server:
            assert not server.packed_
            assert np.array_equal(
                server.predict_proba(X[:16]), clf.predict_proba(X[:16])
            )

    def test_submit_after_close_rejected(self, fitted, data):
        X, _ = data
        server = ModelServer(fitted)
        server.predict_proba(X[:2])
        server.close()
        with pytest.raises(RuntimeError):
            server.submit(X[:1])


class TestThreshold:
    def test_threshold_changes_operating_point(self, fitted, data):
        X, _ = data
        with ModelServer(fitted, threshold=0.9) as server:
            strict = (server.predict(X) == server.positive_class).sum()
            server.threshold = 0.05
            lax = (server.predict(X) == server.positive_class).sum()
            assert lax >= strict
            assert strict < (server.model.predict(X) == 1).sum() <= lax

    def test_threshold_differs_from_argmax(self, fitted, data):
        X, _ = data
        with ModelServer(fitted, threshold=0.2) as server:
            thresholded = server.predict(X)
        argmax = fitted.predict(X)
        proba = fitted.predict_proba(X)[:, 1]
        expect = np.where(proba >= 0.2, 1, 0)
        assert np.array_equal(thresholded, expect)
        assert not np.array_equal(thresholded, argmax)  # 0.2 != 0.5 boundary

    def test_invalid_threshold_rejected(self, fitted):
        with pytest.raises(ValueError):
            ModelServer(fitted, threshold=1.5)
        server = ModelServer(fitted)
        with pytest.raises(ValueError):
            server.threshold = -0.1
        server.close()

    def test_decoded_labels_with_string_alphabet(self, data, tmp_path):
        X, y = data
        y_str = np.where(y == 1, "fraud", "ok")
        clf = SelfPacedEnsembleClassifier(n_estimators=4, random_state=0).fit(X, y_str)
        path = tmp_path / "str.npz"
        save_model(clf, path)
        with ModelServer(path, threshold=0.3) as server:
            assert server.positive_class == "fraud"
            pred = server.predict(X)
            assert set(np.unique(pred)) <= {"fraud", "ok"}
            expect = np.where(clf.predict_proba(X)[:, 0] >= 0.3, "fraud", "ok")
            assert np.array_equal(pred, expect)


class TestThresholdForPrecision:
    def test_matches_pr_curve_alignment(self, fitted, data):
        X, y = data
        scores = fitted.predict_proba(X)[:, 1]
        precision, recall, thresholds = precision_recall_curve(y, scores)
        target = float(np.median(precision[:-1]))
        t = threshold_for_precision(y, scores, target)
        # classifying at >= t must reach the target precision
        pred = scores >= t
        achieved = (y[pred] == 1).mean()
        assert achieved >= target - 1e-12
        # and t is the lowest curve threshold achieving it
        idx = int(np.flatnonzero(thresholds == t)[0])
        assert (precision[:idx] < target).all()

    def test_unreachable_precision_raises(self, data):
        X, y = data
        rng = np.random.RandomState(0)
        noise = rng.rand(len(y))
        with pytest.raises(ValueError, match="no threshold"):
            threshold_for_precision(y, noise, 1.01)

    def test_unreachable_target_names_best_achievable(self):
        """Pinned contract: an unreachable ``min_precision`` raises
        ValueError naming the best achievable precision, and the (1, 0)
        anchor — precision 1 with no threshold — never satisfies it."""
        y = np.array([0, 1, 0, 0])
        s = np.array([0.9, 0.8, 0.7, 0.1])  # best real precision: 0.5
        with pytest.raises(ValueError, match=r"max achievable"):
            threshold_for_precision(y, s, 0.9)
        # the perfect-precision *anchor* exists on the curve, but it is
        # not an operating point: asking for 1.0 still raises here
        with pytest.raises(ValueError):
            threshold_for_precision(y, s, 1.0)

    def test_reachable_after_tie_group(self):
        """Perfect precision reachable at the top score: returned."""
        y = np.array([0, 1, 1, 0])
        s = np.array([0.2, 0.8, 0.9, 0.4])
        t = threshold_for_precision(y, s, 1.0)
        pred = s >= t
        assert (y[pred] == 1).all() and pred.sum() == 2

    def test_ties_at_boundary_threshold_admit_whole_group(self):
        """Equal scores collapse into one threshold whose precision
        already counts every tied row — the returned threshold can never
        split a tie group."""
        y = np.array([1, 1, 0, 1, 0, 0])
        s = np.array([0.9, 0.5, 0.5, 0.5, 0.2, 0.1])
        # at t=0.5: predictions {0.9, 0.5 x3} -> precision 3/4
        t = threshold_for_precision(y, s, 0.75)
        assert t == 0.5
        pred = s >= t
        assert pred.sum() == 4 and (y[pred] == 1).mean() == pytest.approx(0.75)
        # a target separable only *inside* the tie group resolves to the
        # next real threshold above it (0.9 -> precision 1.0)
        t_hi = threshold_for_precision(y, s, 0.8)
        assert t_hi == 0.9
        assert (y[s >= t_hi] == 1).mean() == 1.0

    def test_anchor_never_returned_as_threshold(self, fitted, data):
        """The returned value is always a real score threshold, present in
        the curve's thresholds array."""
        X, y = data
        scores = fitted.predict_proba(X)[:, 1]
        _, _, thresholds = precision_recall_curve(y, scores)
        t = threshold_for_precision(y, scores, 0.5)
        assert t in thresholds


class TestStats:
    def test_counters_track_traffic(self, fitted, data):
        X, _ = data
        with ModelServer(fitted, model_version="v0042") as server:
            stats = server.stats()
            assert stats["n_requests"] == 0 and stats["n_batches"] == 0
            assert stats["model_version"] == "v0042"
            for _ in range(3):
                server.predict_proba(X[:7])
            server.predict_proba(X[:20])
            stats = server.stats()
            assert stats["n_requests"] == 4
            assert stats["n_rows"] == 3 * 7 + 20
            assert stats["n_batches"] >= 1
            assert stats["n_overflows"] == 0 and stats["n_swaps"] == 0
            assert stats["queue_depth"] == 0
            # batch-size distribution: rows-per-kernel-call histogram
            dist = stats["batch_size_distribution"]
            assert sum(k * v for k, v in dist.items()) == stats["n_rows"]
            assert sum(dist.values()) == stats["n_batches"]
            assert stats["requests_by_version"] == {"v0042": 4}
            assert stats["packed"] == server.packed_

    def test_overflow_rejections_counted(self, data):
        X, y = data
        clf = SelfPacedEnsembleClassifier(n_estimators=2, random_state=0).fit(X, y)
        server = ModelServer(clf, max_batch=1, max_pending=1)
        # stuff the queue without a worker draining fast enough by
        # submitting from under a held batch: easiest deterministic route
        # is max_pending=1 -> flood submits until one overflows
        n_overflow = 0
        futures = []
        for _ in range(200):
            try:
                futures.append(server.submit(X[:1]))
            except ServerOverloadedError:
                n_overflow += 1
        for f in futures:
            f.result()
        assert server.stats()["n_overflows"] == n_overflow
        server.close()


class _GatedSPE(SelfPacedEnsembleClassifier):
    """An SPE whose predict_proba can be held mid-call by a test."""

    entered = release = None

    def predict_proba(self, X):
        if self.release is not None:
            self.entered.set()
            self.release.wait(30)
        return super().predict_proba(X)


class TestSwapModel:
    def test_swap_frees_the_outgoing_model_but_keeps_its_decoding(self, data):
        """A request scored by v0 while v1 is installed still decodes with
        v0's classes, and once it is answered nothing keeps v0 alive."""
        X, y = data
        old = _GatedSPE(n_estimators=2, random_state=0).fit(X, y)
        expected = old.classes_[(old.predict_proba(X[:32])[:, 1] >= 0.5).astype(int)]
        new = SelfPacedEnsembleClassifier(n_estimators=2, random_state=1).fit(
            X, np.where(y == 1, "fraud", "legit")
        )
        old.entered, old.release = threading.Event(), threading.Event()
        released = weakref.ref(old)
        with ModelServer(old, model_version="v0") as server:
            del old
            out = {}
            caller = threading.Thread(
                target=lambda: out.update(labels=server.predict(X[:32]))
            )
            caller.start()
            assert released().entered.wait(30)  # v0 is scoring the request
            server.swap_model(new, version="v1")
            released().release.set()
            caller.join(30)
            assert np.array_equal(out["labels"], expected)
            gc.collect()
            assert released() is None, "the swapped-out model is still alive"
            assert set(server.predict(X[:32])) <= {"fraud", "legit"}

    def test_swap_changes_model_and_version(self, fitted, data, tmp_path):
        X, y = data
        other = SelfPacedEnsembleClassifier(n_estimators=3, random_state=9).fit(X, y)
        with ModelServer(fitted, model_version="v0001") as server:
            before = server.predict_proba(X[:32])
            assert np.array_equal(before, fitted.predict_proba(X[:32]))
            version = server.swap_model(other, version="v0002")
            assert version == "v0002"
            assert server.model is other
            assert server.model_version == "v0002"
            after = server.predict_proba(X[:32])
            assert np.array_equal(after, other.predict_proba(X[:32]))
            assert server.stats()["n_swaps"] == 1

    def test_swap_prebuilds_packed_kernel(self, fitted, data, tmp_path):
        X, y = data
        other = SelfPacedEnsembleClassifier(n_estimators=3, random_state=9).fit(X, y)
        with ModelServer(fitted) as server:
            assert server.packed_
            server.swap_model(other)
            # the kernel was built during swap_model, before the flip:
            # the pack cache already holds the new ensemble's entry
            estimators, classes = other.__serving_ensemble__()
            assert cached_packed_ensemble(list(estimators), classes) is not None
            assert server.packed_

    def test_swap_from_artifact_path(self, fitted, artifact, data):
        X, _ = data
        other = SelfPacedEnsembleClassifier(n_estimators=2, random_state=3).fit(
            *data
        )
        with ModelServer(other, model_version="tmp") as server:
            version = server.swap_model(artifact, version="from-disk")
            assert version == "from-disk"
            assert np.array_equal(
                server.predict_proba(X[:16]), fitted.predict_proba(X[:16])
            )

    def test_swap_autoversion_when_unnamed(self, fitted, data):
        other = SelfPacedEnsembleClassifier(n_estimators=2, random_state=3).fit(
            *data
        )
        with ModelServer(fitted) as server:
            assert server.swap_model(other) == "swap-1"
            assert server.swap_model(fitted) == "swap-2"

    def test_swap_rejects_unfitted(self, fitted):
        with ModelServer(fitted) as server:
            with pytest.raises(Exception):
                server.swap_model(SelfPacedEnsembleClassifier())
            assert server.model is fitted  # old model untouched

    def test_swap_after_close_rejected(self, fitted, data):
        other = SelfPacedEnsembleClassifier(n_estimators=2, random_state=3).fit(
            *data
        )
        server = ModelServer(fitted)
        server.close()
        with pytest.raises(RuntimeError):
            server.swap_model(other)

    def test_every_request_served_by_exactly_one_version(self, fitted, data):
        """Concurrent swaps + traffic: each ScoredBatch carries one version
        stamp and its probabilities match that version's model exactly."""
        X, y = data
        models = {
            "vA": fitted,
            "vB": SelfPacedEnsembleClassifier(n_estimators=3, random_state=1).fit(X, y),
        }
        expected = {
            name: m.predict_proba(X[:16]) for name, m in models.items()
        }
        server = ModelServer(models["vA"], model_version="vA")
        failures = []
        results = []
        stop = threading.Event()

        def traffic():
            while not stop.is_set():
                try:
                    scored = server.score(X[:16])
                    results.append(scored)
                except BaseException as exc:
                    failures.append(exc)
                    return

        threads = [threading.Thread(target=traffic) for _ in range(4)]
        for t in threads:
            t.start()
        for i in range(20):  # swap back and forth under load
            name = "vB" if i % 2 == 0 else "vA"
            server.swap_model(models[name], version=name)
        stop.set()
        for t in threads:
            t.join()
        server.close()
        assert failures == []
        assert len(results) > 0
        for scored in results:
            assert scored.model_version in expected
            # the stamped version's model produced these exact bytes
            assert np.array_equal(scored.proba, expected[scored.model_version])
        assert server.stats()["n_overflows"] == 0

    def test_scored_batch_on_mixed_coalesced_requests(self, fitted, data):
        X, _ = data
        with ModelServer(fitted, model_version="v7") as server:
            futures = [server.submit_scored(X[i : i + 3]) for i in range(5)]
            for i, future in enumerate(futures):
                scored = future.result()
                assert scored.model_version == "v7"
                assert np.array_equal(
                    scored.proba, fitted.predict_proba(X[i : i + 3])
                )
