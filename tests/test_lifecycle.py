"""Lifecycle subsystem: registry, policy, shadow promotion, closed loop.

Pins the acceptance criteria of the monitoring/lifecycle issue: versioned
artifacts with integrity checks, drift-evidence → action mapping with
quorum and cooldown, promote-only-on-metric-win, and the end-to-end
detect → retrain (``fit_source``) → shadow → ``swap_model`` loop with
zero dropped requests and both versions visible in ``stats()``.
"""

import pathlib
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro.core import SelfPacedEnsembleClassifier
from repro.datasets import make_checkerboard
from repro.exceptions import PersistenceError, RegistryError
from repro.lifecycle import (
    Action,
    ArtifactRegistry,
    LifecycleController,
    RetrainPolicy,
    shadow_evaluate,
)
from repro.monitoring import DriftLevel, DriftMonitor, DriftReport, ReferenceSketch
from repro.serving import ModelServer
from repro.streaming import ArraySource
from repro.tree import DecisionTreeClassifier

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def report(level, detector="t"):
    return DriftReport(
        detector=detector, level=level, statistic=1.0,
        warn_threshold=0.5, alarm_threshold=2.0,
    )


@pytest.fixture(scope="module")
def data():
    return make_checkerboard(n_minority=200, n_majority=2000, random_state=0)


@pytest.fixture(scope="module")
def fitted(data):
    X, y = data
    return SelfPacedEnsembleClassifier(
        n_estimators=5, random_state=0
    ).fit_source(ArraySource(X, y))


class TestArtifactRegistry:
    def test_register_load_roundtrip_bit_identical(self, fitted, data, tmp_path):
        X, _ = data
        registry = ArtifactRegistry(tmp_path / "reg")
        version = registry.register(fitted, metrics={"auprc": 0.9})
        assert version == "v0001"
        loaded = registry.load(version)
        assert np.array_equal(loaded.predict_proba(X), fitted.predict_proba(X))
        assert registry.describe(version)["metrics"]["auprc"] == 0.9

    def test_monotonic_versions_and_latest(self, fitted, tmp_path):
        registry = ArtifactRegistry(tmp_path / "reg")
        v1, v2, v3 = (registry.register(fitted) for _ in range(3))
        assert [v1, v2, v3] == ["v0001", "v0002", "v0003"]
        assert registry.latest == "v0003"
        assert registry.versions() == [v1, v2, v3]
        assert len(registry) == 3 and v2 in registry

    def test_champion_pointer_persists_across_instances(self, fitted, tmp_path):
        root = tmp_path / "reg"
        registry = ArtifactRegistry(root)
        v1 = registry.register(fitted)
        registry.register(fitted)
        registry.set_champion(v1)
        reopened = ArtifactRegistry(root)
        assert reopened.champion == v1
        assert reopened.versions() == registry.versions()
        # ids stay monotonic after reopen — v0002 is never reused
        assert reopened.register(fitted) == "v0003"

    def test_load_without_champion_raises(self, tmp_path):
        with pytest.raises(RegistryError):
            ArtifactRegistry(tmp_path / "reg").load()

    def test_unknown_version_raises(self, fitted, tmp_path):
        registry = ArtifactRegistry(tmp_path / "reg")
        registry.register(fitted)
        with pytest.raises(RegistryError):
            registry.load("v9999")
        with pytest.raises(RegistryError):
            registry.set_champion("v9999")

    def test_tampered_artifact_detected(self, fitted, tmp_path):
        registry = ArtifactRegistry(tmp_path / "reg")
        version = registry.register(fitted)
        path = pathlib.Path(registry.path(version))
        path.write_bytes(path.read_bytes()[:-7] + b"garbage")
        with pytest.raises(RegistryError):
            registry.load(version)

    def test_missing_artifact_file_detected(self, fitted, tmp_path):
        registry = ArtifactRegistry(tmp_path / "reg")
        version = registry.register(fitted)
        pathlib.Path(registry.path(version)).unlink()
        with pytest.raises(RegistryError):
            registry.load(version)

    def test_unregisterable_model_leaves_no_trace(self, tmp_path):
        registry = ArtifactRegistry(tmp_path / "reg")
        with pytest.raises((PersistenceError, Exception)):
            registry.register(object())
        assert registry.versions() == []

    def test_corrupted_manifest_raises(self, fitted, tmp_path):
        root = tmp_path / "reg"
        ArtifactRegistry(root).register(fitted)
        (root / "manifest.json").write_text("{not json")
        with pytest.raises(RegistryError):
            ArtifactRegistry(root)


class TestRetrainPolicy:
    def test_alarm_triggers_retrain_now(self):
        policy = RetrainPolicy(cooldown=0)
        assert policy.decide([report(DriftLevel.ALARM)]) is Action.RETRAIN_NOW

    def test_warn_quorum(self):
        policy = RetrainPolicy(warn_quorum=2, cooldown=0)
        assert policy.decide([report(DriftLevel.WARN)]) is Action.NONE
        assert (
            policy.decide([report(DriftLevel.WARN, "a"), report(DriftLevel.WARN, "b")])
            is Action.WARM_CHALLENGER
        )

    def test_ok_reports_do_nothing(self):
        policy = RetrainPolicy()
        assert policy.decide([report(DriftLevel.OK)] * 5) is Action.NONE

    def test_cooldown_suppresses_followup(self):
        policy = RetrainPolicy(cooldown=2)
        alarm = [report(DriftLevel.ALARM)]
        assert policy.decide(alarm) is Action.RETRAIN_NOW
        assert policy.decide(alarm) is Action.NONE
        assert policy.decide(alarm) is Action.NONE
        assert policy.decide(alarm) is Action.RETRAIN_NOW
        policy.reset()
        assert policy.decide(alarm) is Action.RETRAIN_NOW


class TestShadowEvaluate:
    def _models(self, data, good_state=0):
        X, y = data
        good = SelfPacedEnsembleClassifier(
            n_estimators=8, random_state=good_state
        ).fit_source(ArraySource(X, y))
        weak = SelfPacedEnsembleClassifier(
            DecisionTreeClassifier(max_depth=1, random_state=0),
            n_estimators=1,
            random_state=7,
        ).fit_source(ArraySource(X, y))
        return good, weak

    def test_better_challenger_promotes(self, data):
        X, y = data
        good, weak = self._models(data)
        result = shadow_evaluate(weak, good, X, y)
        assert result.promote and result.lift > 0
        assert result.n_rows == len(y)

    def test_worse_challenger_rejected(self, data):
        X, y = data
        good, weak = self._models(data)
        assert not shadow_evaluate(good, weak, X, y).promote

    def test_min_lift_blocks_marginal_win(self, data):
        X, y = data
        good, weak = self._models(data)
        result = shadow_evaluate(weak, good, X, y, min_lift=2.0)
        assert not result.promote  # metric lift can never exceed 2.0

    def test_single_class_window_never_promotes(self, data):
        X, y = data
        good, weak = self._models(data)
        X_maj, y_maj = X[y == 0][:50], np.zeros(50, dtype=int)
        result = shadow_evaluate(weak, good, X_maj, y_maj)
        assert not result.promote
        assert np.isnan(result.challenger_score)

    def test_unknown_metric_rejected(self, data):
        X, y = data
        good, weak = self._models(data)
        with pytest.raises(ValueError):
            shadow_evaluate(good, weak, X, y, metric="accuracy")

    def test_thresholded_metrics_supported(self, data):
        X, y = data
        good, weak = self._models(data)
        for metric in ("f1", "minority_recall"):
            result = shadow_evaluate(weak, good, X, y, metric=metric)
            assert result.metric == metric
            assert 0.0 <= result.challenger_score <= 1.0


def _drifted(X, y, rng, n):
    """Covariate shift + tripled minority prior on a seeded sample."""
    idx = rng.choice(len(y), n)
    Xb = X[idx] + 3.0
    yb = y[idx].copy()
    flip = rng.uniform(size=n) < 0.2
    yb[flip] = 1
    return Xb, yb


class TestEndToEndLifecycle:
    """The issue's acceptance scenario, plus the zero-blocking guarantee."""

    def _build(self, data, tmp_path, window=1200):
        X, y = data
        champion = SelfPacedEnsembleClassifier(
            n_estimators=6, random_state=0
        ).fit_source(ArraySource(X, y))
        registry = ArtifactRegistry(tmp_path / "registry")
        v1 = registry.register(champion, tags={"phase": "bootstrap"})
        registry.set_champion(v1)
        server = ModelServer(registry.load(v1), model_version=v1)
        monitor = DriftMonitor(
            ReferenceSketch(n_bins=12).fit(X, y),
            window_size=window,
            min_window=400,
        )
        controller = LifecycleController(
            server,
            registry,
            monitor,
            train_fn=lambda src: SelfPacedEnsembleClassifier(
                n_estimators=6, random_state=1
            ).fit_source(src),
            policy=RetrainPolicy(warn_quorum=2, cooldown=2),
        )
        return controller

    def test_control_stream_stays_quiet(self, data, tmp_path):
        X, y = data
        rng = np.random.RandomState(5)
        controller = self._build(data, tmp_path)
        for _ in range(15):
            idx = rng.choice(len(y), 100)
            controller.process(X[idx], y[idx])
        assert all(e.action is Action.NONE for e in controller.events)
        assert not any(e.promoted for e in controller.events)
        assert controller.registry.versions() == ["v0001"]
        controller.server.close()

    def test_drift_detect_retrain_promote_with_zero_blocking(self, data, tmp_path):
        X, y = data
        rng = np.random.RandomState(6)
        controller = self._build(data, tmp_path)
        server = controller.server

        # background traffic hammers the server through the whole
        # lifecycle — the swap must not fail or block a single request
        stop = threading.Event()
        failures = []
        served = [0]

        def hammer():
            rows = X[:8]
            while not stop.is_set():
                try:
                    proba = server.predict_proba(rows)
                    assert proba.shape == (8, 2)
                    served[0] += 1
                except BaseException as exc:  # any failure is a bug
                    failures.append(exc)
                    return

        threads = [threading.Thread(target=hammer) for _ in range(3)]
        for t in threads:
            t.start()
        try:
            # warm-up on clean traffic, then inject covariate + prior drift
            for _ in range(6):
                idx = rng.choice(len(y), 100)
                controller.process(X[idx], y[idx])
            promoted_event = None
            for _ in range(25):
                Xb, yb = _drifted(X, y, rng, 100)
                event = controller.process(Xb, yb)
                if event.promoted:
                    promoted_event = event
                    break
        finally:
            stop.set()
            for t in threads:
                t.join()

        assert promoted_event is not None, "drift did not trigger a promotion"
        # detector alarmed and the policy escalated
        assert promoted_event.action in (Action.WARM_CHALLENGER, Action.RETRAIN_NOW)
        assert any(
            r.level is DriftLevel.ALARM for r in promoted_event.reports
        )
        # challenger beat the champion on the shadow window
        shadow = promoted_event.shadow
        assert shadow.promote
        assert shadow.challenger_score > shadow.champion_score or np.isnan(
            shadow.champion_score
        )
        # registry persisted and blessed the challenger
        registry = controller.registry
        assert promoted_event.promoted_version in registry.versions()
        assert registry.champion == promoted_event.promoted_version
        # hot swap: zero failed/blocked requests, concurrent traffic served
        assert failures == []
        assert served[0] > 0
        stats = server.stats()
        assert stats["n_overflows"] == 0
        assert stats["n_swaps"] == 1
        assert stats["model_version"] == promoted_event.promoted_version
        # old and new versions both visible in the served-traffic counters
        server.predict_proba(X[:4])  # ensure >=1 request on the new version
        stats = server.stats()
        assert set(stats["requests_by_version"]) >= {
            "v0001",
            promoted_event.promoted_version,
        }
        server.close()

    def test_swapped_server_serves_the_promoted_model(self, data, tmp_path):
        X, y = data
        rng = np.random.RandomState(7)
        controller = self._build(data, tmp_path)
        for _ in range(6):
            idx = rng.choice(len(y), 100)
            controller.process(X[idx], y[idx])
        event = None
        for _ in range(25):
            Xb, yb = _drifted(X, y, rng, 100)
            event = controller.process(Xb, yb)
            if event.promoted:
                break
        assert event is not None and event.promoted
        registered = controller.registry.load(event.promoted_version)
        scored = controller.server.score(X[:16])
        assert scored.model_version == event.promoted_version
        assert np.array_equal(scored.proba, registered.predict_proba(X[:16]))
        controller.server.close()

    def test_single_class_window_skips_retrain(self, data, tmp_path):
        X, y = data
        controller = self._build(data, tmp_path, window=600)
        X_maj = X[y == 0]
        # all-majority drifted traffic: feature detector will alarm, but
        # no challenger can be trained without minority rows
        for lo in range(0, 600, 100):
            controller.process(
                X_maj[lo : lo + 100] + 4.0, np.zeros(100, dtype=int)
            )
        actions = {e.action for e in controller.events}
        assert Action.RETRAIN_NOW in actions
        assert not any(e.promoted for e in controller.events)
        controller.server.close()


@pytest.mark.slow
class TestShowcaseExample:
    def test_fraud_drift_lifecycle_example_runs(self, tmp_path):
        """The showcase scenario cannot silently rot: run it (fast
        settings) and assert the detect → retrain → promote arc."""
        sys.path.insert(0, str(REPO_ROOT / "examples"))
        try:
            import fraud_drift_lifecycle
        finally:
            sys.path.pop(0)
        outcome = fraud_drift_lifecycle.main(
            n_samples=6000, n_estimators=4, registry_dir=str(tmp_path / "reg")
        )
        assert not outcome["promoted_in_control"]
        assert outcome["promoted_in_drift"]
        assert outcome["champion"] != "v0001"
        assert outcome["stats"]["n_overflows"] == 0
        assert outcome["stats"]["n_swaps"] >= 1

    def test_example_runs_as_script(self):
        """`python examples/fraud_drift_lifecycle.py N` exits cleanly."""
        result = subprocess.run(
            [sys.executable, "examples/fraud_drift_lifecycle.py", "4000"],
            cwd=REPO_ROOT,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert result.returncode == 0, result.stderr
        assert "hot-swapped" in result.stdout


class TestNonDefaultAlphabetLifecycle:
    def test_pm_one_labels_full_loop(self, data, tmp_path):
        """A {-1, 1} deployment monitors, retrains, and promotes without
        the {0, 1} assumption corrupting the error stream; the promoted
        challenger keeps the champion's classes_."""
        X, y = data
        y_pm = np.where(y == 1, 1, -1)
        rng = np.random.RandomState(8)
        train = lambda src: SelfPacedEnsembleClassifier(
            n_estimators=5, random_state=1
        ).fit_source(src)
        champion = train(ArraySource(X, y_pm))
        assert list(champion.classes_) == [-1, 1]
        registry = ArtifactRegistry(tmp_path / "reg")
        v1 = registry.register(champion)
        registry.set_champion(v1)
        server = ModelServer(registry.load(v1), model_version=v1)
        monitor = DriftMonitor(
            ReferenceSketch(n_bins=10).fit(X, y_pm, positive_label=1),
            window_size=1000,
            min_window=300,
        )
        controller = LifecycleController(
            server, registry, monitor, train,
            policy=RetrainPolicy(warn_quorum=2, cooldown=2),
        )
        # healthy traffic: quiet
        for _ in range(8):
            idx = rng.choice(len(y), 100)
            controller.process(X[idx], y_pm[idx])
        assert all(e.action is Action.NONE for e in controller.events)
        # drifted traffic: covariate shift + prior surge in {-1, 1} space
        promoted = None
        for _ in range(25):
            idx = rng.choice(len(y), 100)
            yb = y_pm[idx].copy()
            yb[rng.uniform(size=100) < 0.2] = 1
            event = controller.process(X[idx] + 3.0, yb)
            if event.promoted:
                promoted = event
                break
        assert promoted is not None
        challenger = registry.load(promoted.promoted_version)
        assert list(challenger.classes_) == [-1, 1]  # alphabet preserved
        assert set(np.unique(server.predict(X[:32]))) <= {-1, 1}
        server.close()


class TestRegistryOrderingScale:
    def test_versions_order_past_padding_overflow(self, fitted, tmp_path):
        registry = ArtifactRegistry(tmp_path / "reg")
        registry.register(fitted)
        registry._manifest["next_id"] = 9999  # jump near the pad limit
        v_9999 = registry.register(fitted)
        v_10000 = registry.register(fitted)
        assert (v_9999, v_10000) == ("v9999", "v10000")
        assert registry.versions() == ["v0001", "v9999", "v10000"]
        assert registry.latest == "v10000"
