"""Edge-case and failure-injection tests across subsystems."""

import numpy as np
import pytest

from repro import SelfPacedEnsembleClassifier
from repro.ensemble import GradientBoostingClassifier
from repro.ensemble.gbdt import GradientRegressionTree
from repro.exceptions import NotEnoughSamplesError
from repro.sampling import SMOTE, RandomUnderSampler
from repro.tree import DecisionTreeClassifier, FeatureBinner


class TestTinyMinority:
    """Extreme-IR corner: a handful of minority samples."""

    def _data(self, n_min, seed=0):
        rng = np.random.RandomState(seed)
        X = np.vstack([rng.randn(200, 3), rng.randn(n_min, 3) + 3.0])
        y = np.concatenate([np.zeros(200, int), np.ones(n_min, int)])
        return X, y

    def test_spe_with_three_minority_samples(self):
        X, y = self._data(3)
        spe = SelfPacedEnsembleClassifier(
            DecisionTreeClassifier(max_depth=3, random_state=0),
            n_estimators=5,
            random_state=0,
        ).fit(X, y)
        assert spe.predict_proba(X).shape == (203, 2)

    def test_spe_with_single_minority_sample(self):
        X, y = self._data(1)
        spe = SelfPacedEnsembleClassifier(
            DecisionTreeClassifier(max_depth=2, random_state=0),
            n_estimators=3,
            random_state=0,
        ).fit(X, y)
        assert len(spe.estimators_) == 3

    def test_smote_needs_two_minority(self):
        X, y = self._data(1)
        with pytest.raises(NotEnoughSamplesError):
            SMOTE(random_state=0).fit_resample(X, y)

    def test_random_under_with_two_minority(self):
        X, y = self._data(2)
        _, yr = RandomUnderSampler(random_state=0).fit_resample(X, y)
        assert (yr == 0).sum() == 2

    def test_spe_more_bins_than_majority(self):
        """k_bins larger than the majority population must not crash."""
        rng = np.random.RandomState(0)
        X = np.vstack([rng.randn(15, 2), rng.randn(10, 2) + 3])
        y = np.concatenate([np.zeros(15, int), np.ones(10, int)])
        spe = SelfPacedEnsembleClassifier(
            DecisionTreeClassifier(max_depth=2, random_state=0),
            n_estimators=4,
            k_bins=50,
            random_state=0,
        ).fit(X, y)
        assert len(spe.estimators_) == 4


class TestConstantFeatures:
    def test_tree_on_constant_feature(self):
        X = np.column_stack([np.ones(50), np.linspace(0, 1, 50)])
        y = (X[:, 1] > 0.5).astype(int)
        clf = DecisionTreeClassifier(max_depth=2).fit(X, y)
        assert clf.score(X, y) == 1.0

    def test_tree_all_features_constant(self):
        X = np.ones((20, 3))
        y = np.array([0, 1] * 10)
        clf = DecisionTreeClassifier(max_depth=3).fit(X, y)
        proba = clf.predict_proba(X)
        assert np.allclose(proba[:, 1], 0.5)

    def test_binner_constant_column(self):
        binner = FeatureBinner(max_bins=8).fit(np.ones((10, 1)))
        assert binner.n_bins_[0] == 1

    def test_gbdt_constant_features_predicts_prior(self):
        X = np.ones((40, 2))
        y = np.array([0] * 30 + [1] * 10)
        gbdt = GradientBoostingClassifier(n_estimators=5, random_state=0).fit(X, y)
        proba = gbdt.predict_proba(X)[:, 1]
        assert np.allclose(proba, 0.25, atol=0.05)


class TestGradientRegressionTree:
    def test_fits_newton_step(self):
        """Single leaf outputs -G/(H+lambda)."""
        rng = np.random.RandomState(0)
        X = rng.randn(50, 2)
        binner = FeatureBinner().fit(X)
        Xb = binner.transform(X)
        grad = np.full(50, 2.0)
        hess = np.full(50, 1.0)
        tree = GradientRegressionTree(max_depth=0, reg_lambda=1.0)
        tree.fit(Xb, grad, hess, binner)
        expected = -grad.sum() / (hess.sum() + 1.0)
        assert tree.predict(X[:3]) == pytest.approx(expected)

    def test_splits_reduce_loss(self):
        rng = np.random.RandomState(0)
        X = rng.randn(300, 1)
        grad = np.where(X[:, 0] > 0, 1.0, -1.0)
        hess = np.ones(300)
        binner = FeatureBinner().fit(X)
        tree = GradientRegressionTree(max_depth=2)
        tree.fit(binner.transform(X), grad, hess, binner)
        pred = tree.predict(X)
        # Opposite-sign leaves on either side of zero.
        assert pred[X[:, 0] > 0].mean() < 0 < pred[X[:, 0] < 0].mean()

    def test_min_samples_leaf_respected(self):
        rng = np.random.RandomState(0)
        X = rng.randn(40, 1)
        binner = FeatureBinner().fit(X)
        tree = GradientRegressionTree(max_depth=5, min_samples_leaf=20)
        tree.fit(binner.transform(X), rng.randn(40), np.ones(40), binner)
        assert tree.node_count <= 3  # at most one split with 20-sample leaves


class TestDuplicateData:
    def test_tree_on_duplicated_rows(self):
        X = np.repeat([[0.0], [1.0]], 25, axis=0)
        y = np.repeat([0, 1], 25)
        clf = DecisionTreeClassifier(max_depth=1).fit(X, y)
        assert clf.score(X, y) == 1.0

    def test_spe_on_heavy_ties(self):
        """Hardness ties (identical probabilities) trigger the degenerate
        random-fallback path."""
        rng = np.random.RandomState(0)
        X = np.vstack([np.zeros((100, 2)), np.ones((10, 2))])
        X += rng.randn(*X.shape) * 1e-9
        y = np.concatenate([np.zeros(100, int), np.ones(10, int)])
        spe = SelfPacedEnsembleClassifier(
            DecisionTreeClassifier(max_depth=1, random_state=0),
            n_estimators=4,
            random_state=0,
        ).fit(X, y)
        assert len(spe.estimators_) == 4


class TestNonFiniteInputs:
    def test_tree_rejects_nan(self):
        X = np.array([[np.nan], [1.0]])
        with pytest.raises(Exception):
            DecisionTreeClassifier().fit(X, [0, 1])

    def test_spe_rejects_inf(self):
        X = np.array([[np.inf, 0.0], [1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(Exception):
            SelfPacedEnsembleClassifier().fit(X, [0, 1, 0])


class TestSPEParamCheck:
    """SPE's ``fit`` and ``fit_source`` share one parameter check: same
    messages, reported in the same order."""

    @pytest.mark.parametrize(
        "params, message",
        [
            ({"n_estimators": 0}, "n_estimators must be >= 1"),
            ({"k_bins": 0}, "k_bins must be >= 1"),
            ({"n_estimators": 0, "k_bins": 0}, "k_bins must be >= 1"),
        ],
    )
    def test_both_fits_report_alike(self, params, message, tmp_path):
        from repro.streaming import NPYSource

        rng = np.random.RandomState(0)
        X = rng.randn(40, 2)
        y = (np.arange(40) < 8).astype(int)
        np.save(tmp_path / "x.npy", X)
        np.save(tmp_path / "y.npy", y)
        source = NPYSource(tmp_path / "x.npy", tmp_path / "y.npy")
        for fit in (lambda m: m.fit(X, y), lambda m: m.fit_source(source)):
            with pytest.raises(ValueError, match=message):
                fit(SelfPacedEnsembleClassifier(**params))
