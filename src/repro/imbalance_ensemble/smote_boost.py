"""SMOTEBoost (Chawla et al., 2003): SMOTE inside each boosting round."""

from __future__ import annotations

import numbers

import numpy as np

from ..sampling.smote import smote_interpolate
from .base import BoostedImbalanceEnsemble

__all__ = ["SMOTEBoostClassifier"]


class SMOTEBoostClassifier(BoostedImbalanceEnsemble):
    """SAMME boosting that augments every round with fresh SMOTE synthetics.

    Each round generates ``n_synthetic`` minority samples (``"minority"``: as
    many as the minority; ``"balance"``: up to the majority; or an integer),
    trains the base model on original + synthetic data (synthetics share the
    minority's average boosting weight), then updates weights from the error
    on the original set only — synthetic points never accumulate weight.

    Note the sample cost: every base model sees the *full* majority plus
    synthetics, which is why the paper's Table VI reports two to three orders
    of magnitude more training samples than the under-sampling ensembles.
    """

    def __init__(
        self,
        estimator=None,
        n_estimators: int = 10,
        k_neighbors: int = 5,
        n_synthetic: str = "minority",
        learning_rate: float = 1.0,
        random_state=None,
    ):
        self.estimator = estimator
        self.n_estimators = n_estimators
        self.k_neighbors = k_neighbors
        self.n_synthetic = n_synthetic
        self.learning_rate = learning_rate
        self.random_state = random_state

    def _validate(self, X, y):
        """Base validation plus this fit's synthetic count per round."""
        X, y, rng = super()._validate(X, y)
        n_min, n = int(np.sum(y == 1)), self.n_synthetic
        if n == "minority":
            self._n_new = n_min
        elif n == "balance":
            self._n_new = max(0, len(y) - 2 * n_min)
        elif isinstance(n, numbers.Integral) and n >= 0:
            self._n_new = int(n)
        else:
            raise ValueError(
                f"n_synthetic must be 'minority', 'balance' or an integer >= 0, got {n!r}"
            )
        return X, y, rng

    def _round_set(self, X, y, w, rng):
        min_idx = np.flatnonzero(y == 1)
        X_min = X[min_idx]
        synthetic = smote_interpolate(X_min, X_min, self._n_new, self.k_neighbors, rng)
        w_min = w[min_idx].mean() if len(min_idx) else 1.0 / len(y)
        w_r = np.concatenate([w, np.full(len(synthetic), w_min)])
        y_r = np.concatenate([y, np.ones(len(synthetic), dtype=y.dtype)])
        return np.vstack([X, synthetic]), y_r, w_r / w_r.sum()
