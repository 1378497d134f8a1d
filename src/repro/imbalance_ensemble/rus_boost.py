"""RUSBoost (Seiffert et al., 2010): random under-sampling inside AdaBoost."""

from __future__ import annotations

import numpy as np

from .base import BoostedImbalanceEnsemble

__all__ = ["RUSBoostClassifier"]


class RUSBoostClassifier(BoostedImbalanceEnsemble):
    """SAMME boosting where each round trains on a balanced random subset.

    Boosting weights live on the *full* training set; each round draws a
    balanced subset (all minority + equal majority), trains the base model
    with the subset's renormalised weights, then updates the full-set weights
    from the error on everything — Seiffert et al.'s Algorithm 1.
    """

    def __init__(
        self,
        estimator=None,
        n_estimators: int = 10,
        learning_rate: float = 1.0,
        random_state=None,
    ):
        self.estimator = estimator
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.random_state = random_state

    def _round_set(self, X, y, w, rng):
        maj_idx, min_idx = np.flatnonzero(y == 0), np.flatnonzero(y == 1)
        n_bag = min(len(min_idx), len(maj_idx))
        chosen_maj = rng.choice(maj_idx, size=n_bag, replace=False)
        bag = rng.permutation(np.concatenate([chosen_maj, min_idx]))
        return X[bag], y[bag], w[bag] / w[bag].sum()
