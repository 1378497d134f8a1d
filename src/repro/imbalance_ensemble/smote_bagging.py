"""SMOTEBagging (Wang & Yao, 2009)."""

from __future__ import annotations

from functools import partial
from typing import Optional

import numpy as np

from ..sampling.smote import smote_interpolate
from .base import ResampledEnsemble

__all__ = ["SMOTEBaggingClassifier"]


def _smote_bag_sample(
    index: int,
    rng: np.random.RandomState,
    X: np.ndarray,
    y: np.ndarray,
    k_neighbors: int,
):
    maj_idx = np.flatnonzero(y == 0)
    min_idx = np.flatnonzero(y == 1)
    X_min = X[min_idx]
    n_maj = len(maj_idx)
    rate = ((index % 10) + 1) / 10.0  # 10%, 20%, ... 100%, cycling
    maj_bag = rng.choice(maj_idx, size=n_maj, replace=True)
    n_real = max(1, int(round(rate * n_maj)))
    real = rng.choice(min_idx, size=min(n_real, n_maj), replace=True)
    n_synth = n_maj - len(real)
    synthetic = smote_interpolate(X_min, X_min, n_synth, k_neighbors, rng)
    X_bag = np.vstack([X[maj_bag], X[real], synthetic])
    y_bag = np.concatenate(
        [
            np.zeros(len(maj_bag), dtype=y.dtype),
            np.ones(len(real) + len(synthetic), dtype=y.dtype),
        ]
    )
    perm = rng.permutation(len(y_bag))
    return X_bag[perm], y_bag[perm]


class SMOTEBaggingClassifier(ResampledEnsemble):
    """Bagging with a varying minority resampling rate per bag.

    Bag ``i`` bootstrap-samples the majority to its full size and builds an
    equally large minority set from ``b%`` bootstrapped real minority samples
    plus ``(100 − b)%`` SMOTE synthetics, with ``b`` cycling through
    10, 20, ..., 100 across bags — Wang & Yao's diversity mechanism.

    Every bag therefore has ``2 |N|`` samples, the sample-inefficiency the
    paper's Table VI "# Sample" row exposes.
    """

    def __init__(
        self,
        estimator=None,
        n_estimators: int = 10,
        k_neighbors: int = 5,
        n_jobs: Optional[int] = None,
        random_state=None,
    ):
        self.estimator = estimator
        self.n_estimators = n_estimators
        self.k_neighbors = k_neighbors
        self.n_jobs = n_jobs
        self.random_state = random_state

    def _sample_fn(self):
        return partial(_smote_bag_sample, k_neighbors=self.k_neighbors)
