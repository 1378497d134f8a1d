"""BalanceCascade (Liu, Wu & Zhou, 2009).

Trains on balanced subsets like EasyEnsemble, but after every iteration
*removes* the majority samples the current ensemble already classifies
confidently, shrinking the majority pool geometrically with keep rate
``f = (|P| / |N|) ** (1 / (T - 1))``.

This is the method whose late-iteration noise overfitting (only hard
samples — often outliers — remain in the pool) the paper's Fig 5 and Fig 6
demonstrate, and which SPE's self-paced "skeleton" of easy samples fixes.

The cascade is inherently sequential (each round's pool depends on the
ensemble so far), so ``n_jobs`` parallelises the scoring —
the per-round pool re-ranking and ``predict_proba`` — not the fits.
"""

from __future__ import annotations

from functools import partial
from typing import List, Optional

import numpy as np

from ..ensemble.bagging import make_member_model
from ..parallel import ensemble_predict_proba, fit_ensemble_member
from .base import BaseImbalanceEnsemble, random_balanced_subset

__all__ = ["BalanceCascadeClassifier"]


def _pool_sample(index, rng, X, y, maj_pool, min_idx):
    return random_balanced_subset(X, y, maj_pool, min_idx, rng)


class BalanceCascadeClassifier(BaseImbalanceEnsemble):
    """Cascade of base models on progressively harder majority pools."""

    def __init__(
        self,
        estimator=None,
        n_estimators: int = 10,
        n_jobs: Optional[int] = None,
        random_state=None,
    ):
        self.estimator = estimator
        self.n_estimators = n_estimators
        self.n_jobs = n_jobs
        self.random_state = random_state

    def _ensemble_pos_proba(self, X) -> np.ndarray:
        # Members train on the internal 0/1 codes whatever the original
        # label alphabet, so column 1 is always the minority probability.
        return ensemble_predict_proba(
            self.estimators_,
            X,
            np.array([0, 1]),
            n_jobs=self.n_jobs,
        )[:, 1]

    def fit(self, X, y, eval_set: Optional[tuple] = None) -> "BalanceCascadeClassifier":
        """Fit the cascade; with ``eval_set=(X_e, y_e)`` records the test
        AUCPRC after each iteration in ``train_curve_`` (Fig 5 data)."""
        X, y, rng = self._validate(X, y)
        maj_pool = np.flatnonzero(y == 0)
        min_idx = np.flatnonzero(y == 1)
        n_maj, n_min = len(maj_pool), len(min_idx)
        T = self.n_estimators
        keep_rate = (n_min / n_maj) ** (1.0 / (T - 1)) if T > 1 and n_maj > n_min else 1.0
        make_model = partial(make_member_model, estimator=self.estimator)

        self.estimators_: List = []
        self.n_training_samples_ = 0
        self.pool_sizes_: List[int] = []
        self.train_curve_: List[float] = []
        for i in range(T):
            self.pool_sizes_.append(len(maj_pool))
            model, n_bag = fit_ensemble_member(
                i,
                rng,
                X,
                y,
                partial(_pool_sample, maj_pool=maj_pool, min_idx=min_idx),
                make_model,
            )
            self.estimators_.append(model)
            self.n_training_samples_ += n_bag

            if eval_set is not None:
                from ..metrics import average_precision_score

                proba = self._ensemble_pos_proba(np.asarray(eval_set[0], dtype=float))
                self.train_curve_.append(
                    float(
                        average_precision_score(
                            self._encode_labels(eval_set[1]), proba
                        )
                    )
                )

            if i == T - 1 or len(maj_pool) <= n_min:
                continue
            # Drop the best-classified majority samples: keep the hardest
            # |N| * f^(i+1), ranked by the current ensemble's P(y = 1).
            scores = self._ensemble_pos_proba(X[maj_pool])
            n_keep = max(n_min, int(round(n_maj * keep_rate ** (i + 1))))
            n_keep = min(n_keep, len(maj_pool))
            order = np.argsort(-scores, kind="stable")  # hardest (high P(1)) first
            maj_pool = maj_pool[order[:n_keep]]
        return self
