"""Tests for the baseline imbalance ensembles (paper Sections III & VI)."""

import numpy as np
import pytest

from repro.imbalance_ensemble import (
    BalanceCascadeClassifier,
    EasyEnsembleClassifier,
    ResampleEnsembleClassifier,
    RUSBoostClassifier,
    SMOTEBaggingClassifier,
    SMOTEBoostClassifier,
    UnderBaggingClassifier,
    random_balanced_subset,
)
from repro.metrics import evaluate_classifier
from repro.sampling import RandomUnderSampler
from repro.tree import DecisionTreeClassifier

ALL_ENSEMBLES = [
    EasyEnsembleClassifier,
    BalanceCascadeClassifier,
    RUSBoostClassifier,
    SMOTEBoostClassifier,
    UnderBaggingClassifier,
    SMOTEBaggingClassifier,
]


def _base():
    return DecisionTreeClassifier(max_depth=5, random_state=0)


class TestRandomBalancedSubset:
    def test_balanced(self, imbalanced_data, rng):
        X, y = imbalanced_data
        maj = np.flatnonzero(y == 0)
        mino = np.flatnonzero(y == 1)
        X_bag, y_bag = random_balanced_subset(X, y, maj, mino, rng)
        assert (y_bag == 0).sum() == (y_bag == 1).sum() == len(mino)


@pytest.mark.parametrize("cls", ALL_ENSEMBLES)
class TestCommonContract:
    def test_fit_predict_proba(self, cls, imbalanced_data):
        X, y = imbalanced_data
        model = cls(estimator=_base(), n_estimators=5, random_state=0).fit(X, y)
        proba = model.predict_proba(X)
        assert proba.shape == (len(y), 2)
        assert np.allclose(proba.sum(axis=1), 1.0, atol=1e-9)

    def test_better_than_chance(self, cls, imbalanced_data):
        X, y = imbalanced_data
        model = cls(estimator=_base(), n_estimators=5, random_state=0).fit(X, y)
        scores = evaluate_classifier(model, X, y)
        assert scores["AUCPRC"] > 0.3  # prevalence is ~0.09

    def test_training_sample_accounting(self, cls, imbalanced_data):
        X, y = imbalanced_data
        model = cls(estimator=_base(), n_estimators=5, random_state=0).fit(X, y)
        assert model.n_training_samples_ > 0

    def test_deterministic(self, cls, imbalanced_data):
        X, y = imbalanced_data
        p1 = cls(estimator=_base(), n_estimators=3, random_state=7).fit(X, y).predict_proba(X)
        p2 = cls(estimator=_base(), n_estimators=3, random_state=7).fit(X, y).predict_proba(X)
        assert np.allclose(p1, p2)

    def test_rejects_multiclass(self, cls, rng):
        X = rng.randn(30, 2)
        y = np.arange(30) % 3
        with pytest.raises(Exception):
            cls(estimator=_base(), n_estimators=2).fit(X, y)

    def test_invalid_n_estimators(self, cls, imbalanced_data):
        X, y = imbalanced_data
        with pytest.raises(ValueError):
            cls(estimator=_base(), n_estimators=0).fit(X, y)


class TestUnderBagging:
    def test_sample_budget(self, imbalanced_data):
        """Each bag is 2|P|; total = n_estimators * 2|P| (Table VI #Sample)."""
        X, y = imbalanced_data
        n_min = int((y == 1).sum())
        model = UnderBaggingClassifier(_base(), n_estimators=5, random_state=0).fit(X, y)
        assert model.n_training_samples_ == 5 * 2 * n_min


class TestEasyEnsemble:
    def test_boosted_bags(self, imbalanced_data):
        X, y = imbalanced_data
        model = EasyEnsembleClassifier(
            DecisionTreeClassifier(max_depth=2),
            n_estimators=3,
            n_boost_rounds=5,
            random_state=0,
        ).fit(X, y)
        from repro.ensemble import AdaBoostClassifier

        assert all(isinstance(m, AdaBoostClassifier) for m in model.estimators_)

    def test_plain_mode_equals_underbagging_structure(self, imbalanced_data):
        """One boosting round is UnderBagging: plain tree members with the
        same probabilities and sample count, for a full and a shallow tree."""
        X, y = imbalanced_data
        for base in (DecisionTreeClassifier(), _base()):
            model = EasyEnsembleClassifier(
                base, n_estimators=3, n_boost_rounds=1, random_state=0
            ).fit(X, y)
            assert all(
                isinstance(m, DecisionTreeClassifier) for m in model.estimators_
            )
            ref = UnderBaggingClassifier(base, n_estimators=3, random_state=0)
            ref.fit(X, y)
            assert np.array_equal(model.predict_proba(X), ref.predict_proba(X))
            assert model.n_training_samples_ == ref.n_training_samples_

    @pytest.mark.parametrize("rounds", [0, -3])
    def test_rejects_non_positive_boost_rounds(self, rounds):
        """Like ``n_estimators``, rejected before any data is read by
        either fit."""
        model = EasyEnsembleClassifier(n_boost_rounds=rounds)
        with pytest.raises(ValueError, match="n_boost_rounds must be >= 1"):
            model.fit(None, None)
        with pytest.raises(ValueError, match="n_boost_rounds must be >= 1"):
            model.fit_source(None)


@pytest.mark.parametrize(
    "build, message",
    [
        (
            lambda: EasyEnsembleClassifier(boost_incapable="bogus", n_estimators=0),
            "Unknown boost_incapable",
        ),
        (
            lambda: ResampleEnsembleClassifier(n_estimators=0),
            "requires a sampler",
        ),
        (lambda: SMOTEBaggingClassifier(n_estimators=0), "n_estimators must be >= 1"),
    ],
    ids=["boost_incapable", "sampler", "n_estimators"],
)
def test_parameter_errors_come_before_data(build, message):
    """The shared ``fit`` checks the member factory, then the sampler, then
    ``n_estimators``, all before reading the (here unreadable) data."""
    with pytest.raises(ValueError, match=message):
        build().fit(None, None)


class TestBalanceCascade:
    def test_pool_shrinks_geometrically(self, imbalanced_data):
        X, y = imbalanced_data
        model = BalanceCascadeClassifier(_base(), n_estimators=5, random_state=0)
        model.fit(X, y)
        sizes = model.pool_sizes_
        assert all(sizes[i] >= sizes[i + 1] for i in range(len(sizes) - 1))
        assert sizes[-1] < sizes[0]

    def test_final_pool_near_minority_size(self, imbalanced_data):
        X, y = imbalanced_data
        n_min = int((y == 1).sum())
        model = BalanceCascadeClassifier(_base(), n_estimators=5, random_state=0)
        model.fit(X, y)
        assert model.pool_sizes_[-1] <= 2 * n_min + 1

    def test_train_curve_with_eval_set(self, imbalanced_data):
        X, y = imbalanced_data
        model = BalanceCascadeClassifier(_base(), n_estimators=4, random_state=0)
        model.fit(X[:300], y[:300], eval_set=(X[300:], y[300:]))
        assert len(model.train_curve_) == 4

    def test_single_estimator(self, imbalanced_data):
        X, y = imbalanced_data
        model = BalanceCascadeClassifier(_base(), n_estimators=1, random_state=0)
        assert len(model.fit(X, y).estimators_) == 1


class TestBoostingVariants:
    def test_rusboost_uses_balanced_subsets(self, imbalanced_data):
        X, y = imbalanced_data
        n_min = int((y == 1).sum())
        model = RUSBoostClassifier(_base(), n_estimators=4, random_state=0).fit(X, y)
        assert model.n_training_samples_ <= 4 * 2 * n_min

    def test_smoteboost_uses_full_data_plus_synthetics(self, imbalanced_data):
        X, y = imbalanced_data
        n_min = int((y == 1).sum())
        model = SMOTEBoostClassifier(_base(), n_estimators=3, random_state=0).fit(X, y)
        expected_per_round = len(y) + n_min
        assert model.n_training_samples_ >= 3 * len(y)
        assert model.n_training_samples_ <= 3 * expected_per_round

    def test_estimator_weights_exist(self, imbalanced_data):
        X, y = imbalanced_data
        for cls in (RUSBoostClassifier, SMOTEBoostClassifier):
            model = cls(_base(), n_estimators=3, random_state=0).fit(X, y)
            assert len(model.estimator_weights_) == len(model.estimators_)


class TestSMOTEBagging:
    def test_bags_are_double_majority(self, imbalanced_data):
        X, y = imbalanced_data
        n_maj = int((y == 0).sum())
        model = SMOTEBaggingClassifier(_base(), n_estimators=3, random_state=0).fit(X, y)
        assert model.n_training_samples_ == 3 * 2 * n_maj


class TestResampleEnsemble:
    def test_generic_sampler_wrap(self, imbalanced_data):
        X, y = imbalanced_data
        model = ResampleEnsembleClassifier(
            sampler=RandomUnderSampler(),
            estimator=_base(),
            n_estimators=4,
            random_state=0,
        ).fit(X, y)
        assert len(model.estimators_) == 4

    def test_requires_sampler(self, imbalanced_data):
        X, y = imbalanced_data
        with pytest.raises(ValueError):
            ResampleEnsembleClassifier(estimator=_base()).fit(X, y)
