"""Tests for the shared SAMME core: AdaBoost (SAMME), RUSBoost, SMOTEBoost."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ensemble import AdaBoostClassifier
from repro.imbalance_ensemble import RUSBoostClassifier, SMOTEBoostClassifier
from repro.neighbors import KNeighborsClassifier
from repro.tree import DecisionTreeClassifier
from repro.utils.validation import check_random_state

BOOSTERS = [AdaBoostClassifier, RUSBoostClassifier, SMOTEBoostClassifier]
BASES = {
    "stump": lambda: DecisionTreeClassifier(max_depth=1),
    "knn": lambda: KNeighborsClassifier(n_neighbors=3),  # no sample_weight
}


def _imbalanced(seed, n=80, n_min=12):
    """A small noisy table whose ``n_min`` top-scoring rows are class 1."""
    rng = check_random_state(seed)
    X = rng.randn(n, 3)
    score = X[:, 0] + 0.5 * rng.randn(n)
    y = (score >= np.sort(score)[-n_min]).astype(int)
    return X, y


@pytest.mark.parametrize("cls", BOOSTERS)
@pytest.mark.parametrize("learning_rate", [0.0, -1.0, np.nan, np.inf])
def test_non_positive_or_non_finite_learning_rate_is_rejected(cls, learning_rate):
    X, y = _imbalanced(0)
    with pytest.raises(ValueError, match="learning_rate"):
        cls(n_estimators=3, learning_rate=learning_rate, random_state=0).fit(X, y)


@pytest.mark.parametrize("n_synthetic", [-5, 2.7, "foo", None])
def test_smoteboost_rejects_unknown_n_synthetic(n_synthetic):
    X, y = _imbalanced(0)
    model = SMOTEBoostClassifier(n_estimators=2, n_synthetic=n_synthetic, random_state=0)
    with pytest.raises(ValueError, match="'minority', 'balance' or an integer"):
        model.fit(X, y)


@settings(max_examples=40, deadline=None)
@given(
    cls=st.sampled_from(BOOSTERS),
    base=st.sampled_from(sorted(BASES)),
    seed=st.integers(0, 2**16),
    learning_rate=st.floats(0.0, 2.0, exclude_min=True),
    n_estimators=st.integers(1, 6),
)
def test_samme_vote_is_a_distribution_over_positive_weights(
    cls, base, seed, learning_rate, n_estimators
):
    X, y = _imbalanced(seed)
    model = cls(
        estimator=BASES[base](),
        n_estimators=n_estimators,
        learning_rate=learning_rate,
        random_state=seed,
    ).fit(X, y)
    proba = model.predict_proba(X)
    assert np.all((proba >= 0) & (proba <= 1))
    assert np.allclose(proba.sum(axis=1), 1.0)
    assert len(model.estimator_weights_) == len(model.estimators_) >= 1
    assert all(w > 0 for w in model.estimator_weights_)
    assert np.array_equal(model.predict(X), model.classes_[np.argmax(proba, axis=1)])
