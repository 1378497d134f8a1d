"""Tests for the Self-paced Ensemble classifier (paper Algorithm 1)."""

import numpy as np
import pytest

from repro.core import (
    SelfPacedEnsembleClassifier,
    linear_self_paced_factor,
    self_paced_under_sample,
    tan_self_paced_factor,
)
from repro.metrics import evaluate_classifier
from repro.neighbors import KNeighborsClassifier
from repro.tree import DecisionTreeClassifier


def _base():
    return DecisionTreeClassifier(max_depth=5, random_state=0)


class TestAlphaSchedule:
    def test_tan_starts_at_zero(self):
        assert tan_self_paced_factor(0, 9) == 0.0

    def test_tan_monotone_increasing(self):
        values = [tan_self_paced_factor(i, 10) for i in range(11)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_tan_final_effectively_infinite(self):
        assert tan_self_paced_factor(10, 10) > 1e12

    def test_tan_midpoint_is_one(self):
        assert tan_self_paced_factor(5, 10) == pytest.approx(1.0)

    def test_linear_schedule(self):
        assert linear_self_paced_factor(5, 10) == pytest.approx(0.5)

    def test_degenerate_n(self):
        assert tan_self_paced_factor(0, 0) == 0.0

    def test_never_negative_for_any_ensemble_size(self):
        """Regression: float rounding near pi/2 must not wrap tan negative
        (observed at i=n-1 for large n, e.g. 100-model ensembles)."""
        for n in range(1, 150):
            for i in range(n + 1):
                assert tan_self_paced_factor(i, n) >= 0.0, (i, n)

    def test_fit_convention_keeps_alpha_finite(self):
        """Pin the (i, n) convention: fit evaluates tan(pi/2 * i/n) at
        i = 1..n-1 with n = n_estimators, so every trained iteration gets a
        finite alpha; the inf clamp guards only the unreached i == n limit.
        (Regression: fit used to pass n_estimators - 1, driving the last
        iteration — and the only one, for n_estimators=2 — to alpha=inf.)"""
        for n_estimators in (2, 3, 10, 50):
            alphas = [
                tan_self_paced_factor(i, n_estimators)
                for i in range(1, n_estimators)
            ]
            assert all(np.isfinite(a) and 0.0 < a < 1e12 for a in alphas)
        # n_estimators=2: the single self-paced iteration sits at tan(pi/4).
        assert tan_self_paced_factor(1, 2) == pytest.approx(1.0)

    def test_fit_passes_total_ensemble_size(self, imbalanced_data):
        """The schedule receives n = n_estimators (paper's tan(i*pi/2n))."""
        X, y = imbalanced_data
        seen = []

        def probe(i, n):
            seen.append((i, n))
            return 0.0

        SelfPacedEnsembleClassifier(
            DecisionTreeClassifier(max_depth=3, random_state=0),
            n_estimators=2,
            alpha_schedule=probe,
            random_state=0,
        ).fit(X, y)
        assert seen == [(1, 2)]


class TestSelfPacedUnderSample:
    def test_returns_requested_count(self, rng):
        h = rng.uniform(size=500)
        idx, _ = self_paced_under_sample(h, 10, 0.5, 100, rng)
        assert len(idx) == 100
        assert len(np.unique(idx)) == 100  # no replacement

    def test_alpha_zero_prefers_low_hardness_bins(self, rng):
        """With alpha=0, the low-hardness bin has huge weight 1/h."""
        h = np.concatenate([np.full(400, 0.01), np.full(100, 0.99)])
        idx, _ = self_paced_under_sample(h, 10, 0.0, 100, rng)
        assert (h[idx] < 0.5).mean() > 0.8

    def test_alpha_inf_spreads_over_bins(self, rng):
        h = np.concatenate([np.full(450, 0.01), np.full(50, 0.99)])
        idx, _ = self_paced_under_sample(h, 2, 1e15, 100, rng)
        hard_taken = (h[idx] > 0.5).sum()
        assert 40 <= hard_taken <= 60  # ~half the budget from each bin

    def test_degenerate_hardness_random_fallback(self, rng):
        h = np.full(200, 0.3)
        idx, bins = self_paced_under_sample(h, 10, 0.0, 50, rng)
        assert len(idx) == 50 and bins.degenerate


class TestSPEFit:
    def test_trains_n_estimators(self, imbalanced_data):
        X, y = imbalanced_data
        spe = SelfPacedEnsembleClassifier(_base(), n_estimators=8, random_state=0)
        assert len(spe.fit(X, y).estimators_) == 8

    def test_subset_sizes_are_balanced(self, imbalanced_data):
        """Every base model sees 2|P| samples (all minority + |P| majority)."""
        X, y = imbalanced_data
        n_min = int((y == 1).sum())
        spe = SelfPacedEnsembleClassifier(_base(), n_estimators=6, random_state=0)
        spe.fit(X, y)
        assert spe.n_training_samples_ == 6 * 2 * n_min

    def test_better_than_random_undersampling(self, overlapped_data):
        from repro.sampling import RandomUnderSampler

        X, y = overlapped_data
        X_tr, X_te = X[:500], X[500:]
        y_tr, y_te = y[:500], y[500:]
        spe = SelfPacedEnsembleClassifier(_base(), n_estimators=10, random_state=0)
        spe.fit(X_tr, y_tr)
        spe_score = evaluate_classifier(spe, X_te, y_te)["AUCPRC"]
        scores_ru = []
        for seed in range(3):
            X_r, y_r = RandomUnderSampler(random_state=seed).fit_resample(X_tr, y_tr)
            clf = DecisionTreeClassifier(max_depth=5, random_state=seed).fit(X_r, y_r)
            scores_ru.append(evaluate_classifier(clf, X_te, y_te)["AUCPRC"])
        assert spe_score > np.mean(scores_ru)

    def test_works_with_knn_base(self, imbalanced_data):
        X, y = imbalanced_data
        spe = SelfPacedEnsembleClassifier(
            KNeighborsClassifier(n_neighbors=3), n_estimators=5, random_state=0
        ).fit(X, y)
        assert evaluate_classifier(spe, X, y)["AUCPRC"] > 0.3

    def test_hardness_variants(self, imbalanced_data):
        X, y = imbalanced_data
        for hardness in ("absolute", "squared", "cross_entropy"):
            spe = SelfPacedEnsembleClassifier(
                _base(), n_estimators=4, hardness=hardness, random_state=0
            ).fit(X, y)
            assert len(spe.estimators_) == 4

    def test_custom_hardness_callable(self, imbalanced_data):
        X, y = imbalanced_data
        calls = []

        def my_hardness(y_true, proba):
            calls.append(len(y_true))
            return np.abs(proba - y_true)

        SelfPacedEnsembleClassifier(
            _base(), n_estimators=4, hardness=my_hardness, random_state=0
        ).fit(X, y)
        assert len(calls) == 3  # n_estimators - 1 hardness evaluations

    def test_custom_alpha_schedule(self, imbalanced_data):
        X, y = imbalanced_data
        seen = []

        def schedule(i, n):
            seen.append((i, n))
            return 0.5

        SelfPacedEnsembleClassifier(
            _base(), n_estimators=4, alpha_schedule=schedule, random_state=0
        ).fit(X, y)
        assert seen == [(1, 4), (2, 4), (3, 4)]

    def test_record_bins(self, imbalanced_data):
        X, y = imbalanced_data
        spe = SelfPacedEnsembleClassifier(
            _base(), n_estimators=5, record_bins=True, random_state=0
        ).fit(X, y)
        assert len(spe.bin_history_) == 4
        alphas = [entry[0] for entry in spe.bin_history_]
        assert all(b >= a for a, b in zip(alphas, alphas[1:]))

    def test_eval_curve(self, imbalanced_data):
        X, y = imbalanced_data
        spe = SelfPacedEnsembleClassifier(_base(), n_estimators=6, random_state=0)
        spe.fit(X[:300], y[:300], eval_set=(X[300:], y[300:]))
        assert len(spe.train_curve_) == 6
        assert all(0.0 <= v <= 1.0 for v in spe.train_curve_)

    def test_single_estimator_is_cold_start_only(self, imbalanced_data):
        X, y = imbalanced_data
        spe = SelfPacedEnsembleClassifier(_base(), n_estimators=1, random_state=0)
        assert len(spe.fit(X, y).estimators_) == 1

    def test_exclude_cold_start_from_vote(self, imbalanced_data):
        X, y = imbalanced_data
        spe = SelfPacedEnsembleClassifier(
            _base(), n_estimators=5, include_cold_start=False, random_state=0
        ).fit(X, y)
        assert len(spe._voting_estimators()) == 4

    def test_deterministic(self, imbalanced_data):
        X, y = imbalanced_data
        p1 = (
            SelfPacedEnsembleClassifier(_base(), n_estimators=5, random_state=11)
            .fit(X, y)
            .predict_proba(X)
        )
        p2 = (
            SelfPacedEnsembleClassifier(_base(), n_estimators=5, random_state=11)
            .fit(X, y)
            .predict_proba(X)
        )
        assert np.allclose(p1, p2)

    def test_default_base_is_tree(self, imbalanced_data):
        X, y = imbalanced_data
        spe = SelfPacedEnsembleClassifier(n_estimators=3, random_state=0).fit(X, y)
        assert isinstance(spe.estimators_[0], DecisionTreeClassifier)

    def test_clone_compatible(self):
        from repro.base import clone

        spe = SelfPacedEnsembleClassifier(n_estimators=17, k_bins=5, hardness="SE")
        copy = clone(spe)
        assert copy.n_estimators == 17 and copy.k_bins == 5 and copy.hardness == "SE"


class TestMajorityScoring:
    """Algorithm 1 reads the running majority score only to cut the next
    iteration's hardness bins, so the last member is never scored."""

    @pytest.mark.parametrize("streaming", [False, True], ids=["memory", "streaming"])
    @pytest.mark.parametrize("n_estimators", [1, 2, 10])
    def test_scores_every_member_but_the_last(
        self, imbalanced_data, monkeypatch, tmp_path, n_estimators, streaming
    ):
        from repro.core.self_paced import InMemoryMajorityAccess
        from repro.streaming import NPYSource
        from repro.streaming.self_paced import _StreamingMajorityAccess

        access = _StreamingMajorityAccess if streaming else InMemoryMajorityAccess
        scored = []
        original = access.score

        def counting(self, model):
            scored.append(model)
            return original(self, model)

        monkeypatch.setattr(access, "score", counting)
        X, y = imbalanced_data
        spe = SelfPacedEnsembleClassifier(
            _base(), n_estimators=n_estimators, random_state=0
        )
        if streaming:
            np.save(tmp_path / "x.npy", X)
            np.save(tmp_path / "y.npy", y)
            spe.fit_source(NPYSource(tmp_path / "x.npy", tmp_path / "y.npy"))
        else:
            spe.fit(X, y)
        assert len(scored) == n_estimators - 1
        assert all(a is b for a, b in zip(scored, spe.estimators_[:-1]))


class TestSPEValidation:
    def test_invalid_n_estimators(self, imbalanced_data):
        X, y = imbalanced_data
        with pytest.raises(ValueError):
            SelfPacedEnsembleClassifier(n_estimators=0).fit(X, y)

    def test_invalid_k_bins(self, imbalanced_data):
        X, y = imbalanced_data
        with pytest.raises(ValueError):
            SelfPacedEnsembleClassifier(k_bins=0).fit(X, y)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_custom_hardness_rejected(self, imbalanced_data, bad):
        X, y = imbalanced_data

        def hardness(y_true, proba_pos):
            h = np.abs(proba_pos - y_true)
            h[0] = bad
            return h

        spe = SelfPacedEnsembleClassifier(
            _base(), n_estimators=3, hardness=hardness, random_state=0
        )
        with pytest.raises(ValueError, match="non-finite value"):
            spe.fit(X, y)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("mode", ["exact", "reservoir"])
    def test_nan_hardness_rejected_in_either_mode(self, imbalanced_data, mode):
        """Both modes reject a NaN hardness through the one finiteness
        check of the bins, before any cast to a bin index can warn."""
        X, y = imbalanced_data

        def hardness(y_true, proba_pos):
            h = np.abs(proba_pos - y_true)
            h[0] = np.nan
            return h

        spe = SelfPacedEnsembleClassifier(
            _base(), n_estimators=3, hardness=hardness, mode=mode, random_state=0
        )
        with pytest.raises(ValueError, match="hardness must be finite"):
            spe.fit(X, y)

    def test_invalid_schedule(self, imbalanced_data):
        X, y = imbalanced_data
        with pytest.raises(ValueError, match="alpha_schedule"):
            SelfPacedEnsembleClassifier(alpha_schedule="quadratic").fit(X, y)

    def test_rejects_multiclass(self, rng):
        X = rng.randn(30, 2)
        with pytest.raises(Exception):
            SelfPacedEnsembleClassifier().fit(X, np.arange(30) % 3)

    def test_rejects_single_class(self, rng):
        X = rng.randn(30, 2)
        with pytest.raises(Exception):
            SelfPacedEnsembleClassifier().fit(X, np.zeros(30, dtype=int))

    def test_proba_shape_and_range(self, imbalanced_data):
        X, y = imbalanced_data
        spe = SelfPacedEnsembleClassifier(_base(), n_estimators=4, random_state=0)
        proba = spe.fit(X, y).predict_proba(X)
        assert proba.shape == (len(y), 2)
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_predict_matches_argmax(self, imbalanced_data):
        X, y = imbalanced_data
        spe = SelfPacedEnsembleClassifier(_base(), n_estimators=4, random_state=0)
        spe.fit(X, y)
        proba = spe.predict_proba(X)
        assert np.array_equal(spe.predict(X), spe.classes_[proba.argmax(axis=1)])
