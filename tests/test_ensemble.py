"""Tests for canonical ensembles: Bagging, Random Forest, AdaBoost, GBDT."""

import numpy as np
import pytest

from repro.base import clone, supports_sample_weight
from repro.ensemble import (
    AdaBoostClassifier,
    BaggingClassifier,
    GradientBoostingClassifier,
    RandomForestClassifier,
)
from repro.neighbors import KNeighborsClassifier
from repro.parallel import ensemble_predict_proba
from repro.tree import DecisionTreeClassifier


class TestAverageEnsembleProba:
    def test_aligns_partial_classes(self, binary_blobs):
        X, y = binary_blobs
        full = DecisionTreeClassifier(max_depth=2).fit(X, y)
        only_zero = DecisionTreeClassifier(max_depth=2).fit(X[:5], np.zeros(5, int))
        proba = ensemble_predict_proba([full, only_zero], X[:4], np.array([0, 1]))
        assert proba.shape == (4, 2)
        assert np.allclose(proba.sum(axis=1), 1.0)


class TestBagging:
    def test_improves_over_stump(self, binary_blobs):
        X, y = binary_blobs
        stump = DecisionTreeClassifier(max_depth=1).fit(X, y)
        bag = BaggingClassifier(
            DecisionTreeClassifier(max_depth=4), n_estimators=10, random_state=0
        ).fit(X, y)
        assert bag.score(X, y) >= stump.score(X, y)

    def test_n_estimators(self, binary_blobs):
        X, y = binary_blobs
        bag = BaggingClassifier(n_estimators=7, random_state=0).fit(X, y)
        assert len(bag.estimators_) == 7

    def test_max_samples(self, binary_blobs):
        X, y = binary_blobs
        bag = BaggingClassifier(
            DecisionTreeClassifier(max_depth=2),
            n_estimators=3,
            max_samples=0.5,
            random_state=0,
        ).fit(X, y)
        assert len(bag.estimators_) == 3

    def test_invalid_params(self, binary_blobs):
        X, y = binary_blobs
        with pytest.raises(ValueError):
            BaggingClassifier(n_estimators=0).fit(X, y)
        with pytest.raises(ValueError):
            BaggingClassifier(max_samples=0.0).fit(X, y)

    def test_default_base_is_tree(self, binary_blobs):
        X, y = binary_blobs
        bag = BaggingClassifier(n_estimators=2, random_state=0).fit(X, y)
        assert isinstance(bag.estimators_[0], DecisionTreeClassifier)


class TestRandomForest:
    def test_accuracy(self, binary_blobs):
        X, y = binary_blobs
        rf = RandomForestClassifier(n_estimators=10, max_depth=6, random_state=0)
        assert rf.fit(X, y).score(X, y) > 0.9

    def test_feature_importances_normalised(self, binary_blobs):
        X, y = binary_blobs
        rf = RandomForestClassifier(n_estimators=5, random_state=0).fit(X, y)
        assert rf.feature_importances_.sum() == pytest.approx(1.0)

    def test_deterministic(self, binary_blobs):
        X, y = binary_blobs
        p1 = RandomForestClassifier(5, random_state=3).fit(X, y).predict_proba(X)
        p2 = RandomForestClassifier(5, random_state=3).fit(X, y).predict_proba(X)
        assert np.allclose(p1, p2)

    def test_trees_differ(self, binary_blobs):
        """Bootstrap + feature subsampling must decorrelate the trees."""
        X, y = binary_blobs
        rf = RandomForestClassifier(n_estimators=5, max_depth=3, random_state=0)
        rf.fit(X, y)
        preds = [t.predict_proba(X)[:, 1] for t in rf.estimators_]
        assert any(not np.allclose(preds[0], p) for p in preds[1:])


class TestAdaBoost:
    def test_boosting_beats_single_weak_learner(self):
        """Boosting depth-2 trees must beat one depth-2 tree on a problem a
        single weak learner cannot capture (stumps are useless on XOR, so the
        weak learner here is depth 2)."""
        rng = np.random.RandomState(0)
        X = rng.uniform(-1, 1, size=(800, 2))
        y = (np.sin(3 * X[:, 0]) + 0.5 * np.sign(X[:, 1]) > 0).astype(int)
        weak = DecisionTreeClassifier(max_depth=2).fit(X, y)
        boost = AdaBoostClassifier(
            DecisionTreeClassifier(max_depth=2), n_estimators=25, random_state=0
        ).fit(X, y)
        assert boost.score(X, y) > weak.score(X, y) + 0.05

    def test_samme_r_runs(self, binary_blobs):
        X, y = binary_blobs
        boost = AdaBoostClassifier(
            DecisionTreeClassifier(max_depth=2),
            n_estimators=5,
            algorithm="SAMME.R",
            random_state=0,
        ).fit(X, y)
        assert boost.score(X, y) > 0.85

    def test_perfect_learner_short_circuit(self, binary_blobs):
        X, y = binary_blobs
        boost = AdaBoostClassifier(
            DecisionTreeClassifier(max_depth=None), n_estimators=10, random_state=0
        ).fit(X, y)
        assert len(boost.estimators_) <= 10

    def test_weightless_base_resampled(self, binary_blobs):
        """KNN has no sample_weight support; AdaBoost must still work."""
        X, y = binary_blobs
        assert not supports_sample_weight(KNeighborsClassifier())
        boost = AdaBoostClassifier(
            KNeighborsClassifier(n_neighbors=3), n_estimators=3, random_state=0
        ).fit(X, y)
        assert boost.score(X, y) > 0.8

    def test_estimator_weights_positive(self, binary_blobs):
        X, y = binary_blobs
        boost = AdaBoostClassifier(
            DecisionTreeClassifier(max_depth=1), n_estimators=5, random_state=0
        ).fit(X, y)
        assert all(w > 0 for w in boost.estimator_weights_)

    def test_invalid_algorithm(self, binary_blobs):
        X, y = binary_blobs
        with pytest.raises(ValueError):
            AdaBoostClassifier(algorithm="SAMME.X").fit(X, y)

    def test_proba_valid(self, binary_blobs):
        X, y = binary_blobs
        proba = (
            AdaBoostClassifier(n_estimators=5, random_state=0)
            .fit(X, y)
            .predict_proba(X)
        )
        assert np.allclose(proba.sum(axis=1), 1.0)
        assert (proba >= 0).all()


class TestGBDT:
    def test_loss_decreases_with_rounds(self, binary_blobs):
        X, y = binary_blobs
        gbdt = GradientBoostingClassifier(n_estimators=30, random_state=0).fit(X, y)
        assert gbdt.train_loss_[-1] < gbdt.train_loss_[0]

    def test_learns_nonlinear(self):
        rng = np.random.RandomState(0)
        X = rng.uniform(-1, 1, size=(600, 2))
        y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(int)
        gbdt = GradientBoostingClassifier(
            n_estimators=50, learning_rate=0.2, random_state=0
        ).fit(X, y)
        assert gbdt.score(X, y) > 0.93

    def test_early_stopping(self, binary_blobs):
        X, y = binary_blobs
        gbdt = GradientBoostingClassifier(
            n_estimators=300, early_stopping_rounds=3, random_state=0
        )
        gbdt.fit(X[:200], y[:200], eval_set=(X[200:], y[200:]))
        assert len(gbdt.trees_) < 300

    def test_eval_loss_recorded(self, binary_blobs):
        X, y = binary_blobs
        gbdt = GradientBoostingClassifier(n_estimators=10, random_state=0)
        gbdt.fit(X[:200], y[:200], eval_set=(X[200:], y[200:]))
        assert len(gbdt.valid_loss_) == 10

    def test_subsample(self, binary_blobs):
        X, y = binary_blobs
        gbdt = GradientBoostingClassifier(
            n_estimators=10, subsample=0.5, random_state=0
        ).fit(X, y)
        assert gbdt.score(X, y) > 0.85

    def test_invalid_subsample(self, binary_blobs):
        X, y = binary_blobs
        with pytest.raises(ValueError):
            GradientBoostingClassifier(subsample=0.0).fit(X, y)

    def test_sample_weight(self, binary_blobs):
        X, y = binary_blobs
        w = np.where(y == 1, 10.0, 1.0)
        gbdt = GradientBoostingClassifier(n_estimators=10, random_state=0)
        gbdt.fit(X, y, sample_weight=w)
        assert gbdt.score(X, y) > 0.8

    def test_staged_decision(self, binary_blobs):
        X, y = binary_blobs
        gbdt = GradientBoostingClassifier(n_estimators=5, random_state=0).fit(X, y)
        stages = list(gbdt.staged_decision_function(X[:3]))
        assert len(stages) == 5
        assert np.allclose(stages[-1], gbdt.decision_function(X[:3]))

    def test_multiclass_rejected(self, rng):
        with pytest.raises(ValueError):
            GradientBoostingClassifier().fit(rng.randn(9, 2), [0, 1, 2] * 3)

    def test_clone(self):
        gbdt = GradientBoostingClassifier(n_estimators=7, learning_rate=0.05)
        copy = clone(gbdt)
        assert copy.n_estimators == 7 and copy.learning_rate == 0.05
