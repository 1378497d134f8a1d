"""K-nearest-neighbour estimators."""

from __future__ import annotations

import numpy as np

from ..base import BaseEstimator, ClassifierMixin
from ..utils.validation import check_array, check_is_fitted, check_X_y
from .distance import kneighbors

__all__ = ["KNeighborsClassifier"]


class KNeighborsClassifier(BaseEstimator, ClassifierMixin):
    """Brute-force KNN classifier with optional distance weighting.

    ``predict_proba`` returns neighbour-vote fractions, giving the (k+1)-level
    probability granularity that the paper's hardness plots for KNN (Fig 2)
    exhibit.
    """

    def __init__(
        self,
        n_neighbors: int = 5,
        weights: str = "uniform",
        metric: str = "euclidean",
    ):
        self.n_neighbors = n_neighbors
        self.weights = weights
        self.metric = metric

    def fit(self, X, y) -> "KNeighborsClassifier":
        """Fit on ``X``, ``y``; returns ``self``."""
        if self.weights not in ("uniform", "distance"):
            raise ValueError(f"Unknown weights {self.weights!r}")
        X, y = check_X_y(X, y)
        self.classes_, y_enc = np.unique(y, return_inverse=True)
        self._fit_X = X
        self._fit_y = y_enc
        k = min(self.n_neighbors, X.shape[0])
        self.effective_n_neighbors_ = k
        return self

    def _vote(self, X) -> np.ndarray:
        dist, idx = kneighbors(
            X, self._fit_X, self.effective_n_neighbors_, metric=self.metric
        )
        labels = self._fit_y[idx]
        n_classes = len(self.classes_)
        if self.weights == "distance":
            with np.errstate(divide="ignore"):
                w = 1.0 / dist
            w[~np.isfinite(w)] = 1e12  # exact matches dominate
        else:
            w = np.ones_like(dist)
        proba = np.zeros((X.shape[0], n_classes))
        for c in range(n_classes):
            proba[:, c] = np.where(labels == c, w, 0.0).sum(axis=1)
        totals = proba.sum(axis=1, keepdims=True)
        totals[totals == 0.0] = 1.0
        return proba / totals

    def predict_proba(self, X) -> np.ndarray:
        """Class probabilities, columns ordered by ``classes_``."""
        check_is_fitted(self, ["_fit_X"])
        X = check_array(X)
        return self._vote(X)

    # ------------------------------------------------------------------ #
    def __getstate_arrays__(self):
        """Pickle-free fitted-state export (see :mod:`repro.persistence`).

        KNN's fitted state *is* its training set — the reference matrix and
        encoded labels round-trip byte-exactly, so the restored votes are
        bit-identical.
        """
        check_is_fitted(self, ["_fit_X"])
        meta = {"effective_n_neighbors": int(self.effective_n_neighbors_)}
        arrays = {
            "classes": np.asarray(self.classes_),
            "fit_X": np.asarray(self._fit_X, dtype=np.float64),
            "fit_y": np.asarray(self._fit_y, dtype=np.int64),
        }
        return meta, arrays, {}

    def __setstate_arrays__(self, meta, arrays, children) -> None:
        self.classes_ = np.asarray(arrays["classes"])
        self._fit_X = np.asarray(arrays["fit_X"], dtype=np.float64)
        self._fit_y = np.asarray(arrays["fit_y"], dtype=np.int64)
        self.effective_n_neighbors_ = int(meta["effective_n_neighbors"])
