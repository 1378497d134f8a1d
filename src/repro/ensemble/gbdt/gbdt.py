"""Gradient-boosted decision trees with binary log-loss.

Functional substitute for the paper's LightGBM learner: histogram split
finding, shrinkage, stochastic row subsampling (Friedman, 2002 — reference
[37] of the paper), and early stopping against a validation set (the paper
notes "some classifiers like GBDT need validation set for early stopping").
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ...base import BaseEstimator, ClassifierMixin
from ...tree import FeatureBinner
from ...utils.validation import (
    check_array,
    check_is_fitted,
    check_random_state,
    check_X_y,
)
from .regression_tree import GradientRegressionTree

__all__ = ["GradientBoostingClassifier"]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))


def _log_loss(y: np.ndarray, p: np.ndarray) -> float:
    eps = 1e-12
    return float(-np.mean(y * np.log(p + eps) + (1 - y) * np.log(1 - p + eps)))


class GradientBoostingClassifier(BaseEstimator, ClassifierMixin):
    """Binary GBDT ("boost rounds" = ``n_estimators`` in the paper's Table II).

    ``fit(X, y, eval_set=(X_val, y_val))`` activates early stopping with
    ``early_stopping_rounds`` patience on validation log-loss.
    """

    def __init__(
        self,
        n_estimators: int = 10,
        learning_rate: float = 0.1,
        max_depth: int = 3,
        min_samples_leaf: int = 5,
        subsample: float = 1.0,
        reg_lambda: float = 1.0,
        max_bins: int = 64,
        early_stopping_rounds: Optional[int] = None,
        random_state=None,
    ):
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.subsample = subsample
        self.reg_lambda = reg_lambda
        self.max_bins = max_bins
        self.early_stopping_rounds = early_stopping_rounds
        self.random_state = random_state

    def fit(self, X, y, sample_weight=None, eval_set: Optional[Tuple] = None):
        """Fit on ``X``/``y`` (optional weights/eval set); returns ``self``."""
        if not 0.0 < self.subsample <= 1.0:
            raise ValueError("subsample must be in (0, 1]")
        X, y = check_X_y(X, y)
        self.classes_, y_enc = np.unique(y, return_inverse=True)
        if len(self.classes_) > 2:
            raise ValueError("GradientBoostingClassifier is binary only")
        rng = check_random_state(self.random_state)
        n = X.shape[0]
        t = y_enc.astype(float)
        if sample_weight is None:
            w = np.ones(n)
        else:
            w = np.asarray(sample_weight, dtype=float)
            w = w * (n / max(w.sum(), 1e-300))

        if len(self.classes_) == 1:
            self.init_score_ = 50.0
            self.trees_: List[GradientRegressionTree] = []
            self.n_features_in_ = X.shape[1]
            return self

        binner = FeatureBinner(max_bins=self.max_bins)
        X_binned = binner.fit_transform(X)
        self._binner = binner

        pos_rate = np.clip(np.average(t, weights=w), 1e-6, 1 - 1e-6)
        self.init_score_ = float(np.log(pos_rate / (1.0 - pos_rate)))
        raw = np.full(n, self.init_score_)

        use_valid = eval_set is not None and self.early_stopping_rounds is not None
        if eval_set is not None:
            X_val, y_val = eval_set
            X_val = check_array(X_val)
            y_val = np.searchsorted(self.classes_, np.asarray(y_val)).astype(float)
            raw_val = np.full(X_val.shape[0], self.init_score_)
        best_loss, best_round, stall = np.inf, 0, 0

        self.trees_ = []
        self.train_loss_: List[float] = []
        self.valid_loss_: List[float] = []
        for _ in range(self.n_estimators):
            p = _sigmoid(raw)
            grad = (p - t) * w
            hess = np.maximum(p * (1 - p), 1e-6) * w
            if self.subsample < 1.0:
                rows = rng.rand(n) < self.subsample
                if rows.sum() < 2 * self.min_samples_leaf:
                    rows = np.ones(n, dtype=bool)
            else:
                rows = slice(None)
            tree = GradientRegressionTree(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                reg_lambda=self.reg_lambda,
            )
            tree.fit(X_binned[rows], grad[rows], hess[rows], binner)
            self.trees_.append(tree)
            raw += self.learning_rate * tree.predict(X)
            self.train_loss_.append(_log_loss(t, _sigmoid(raw)))
            if eval_set is not None:
                raw_val += self.learning_rate * tree.predict(X_val)
                val_loss = _log_loss(y_val, _sigmoid(raw_val))
                self.valid_loss_.append(val_loss)
                if use_valid:
                    if val_loss < best_loss - 1e-9:
                        best_loss, best_round, stall = val_loss, len(self.trees_), 0
                    else:
                        stall += 1
                        if stall >= self.early_stopping_rounds:
                            self.trees_ = self.trees_[:best_round]
                            break
        self.n_features_in_ = X.shape[1]
        return self

    def decision_function(self, X) -> np.ndarray:
        """Real-valued scores for the positive class."""
        check_is_fitted(self, ["trees_"])
        X = check_array(X)
        raw = np.full(X.shape[0], self.init_score_)
        for tree in self.trees_:
            raw += self.learning_rate * tree.predict(X)
        return raw

    def staged_decision_function(self, X):
        """Yield the raw score after each boosting round (Fig 5-style curves)."""
        check_is_fitted(self, ["trees_"])
        X = check_array(X)
        raw = np.full(X.shape[0], self.init_score_)
        for tree in self.trees_:
            raw += self.learning_rate * tree.predict(X)
            yield raw.copy()

    def predict_proba(self, X) -> np.ndarray:
        # Fitted check before touching classes_, so an unfitted model raises
        # the uniform NotFittedError rather than a bare AttributeError.
        """Class probabilities, columns ordered by ``classes_``."""
        check_is_fitted(self, ["trees_"])
        if len(self.classes_) == 1:
            X = check_array(X)
            return np.ones((X.shape[0], 1))
        p1 = _sigmoid(self.decision_function(X))
        return np.column_stack([1.0 - p1, p1])

    # ------------------------------------------------------------------ #
    def __getstate_arrays__(self):
        """Pickle-free fitted-state export (see :mod:`repro.persistence`).

        The boosted trees predict on raw feature rows, so the training-time
        binner and the loss curves are fit-time state and are not persisted.
        """
        check_is_fitted(self, ["trees_"])
        meta = {
            "n_features_in": int(self.n_features_in_),
            "init_score": float(self.init_score_),
        }
        arrays = {"classes": np.asarray(self.classes_)}
        return meta, arrays, {"trees": list(self.trees_)}

    def __setstate_arrays__(self, meta, arrays, children) -> None:
        self.classes_ = np.asarray(arrays["classes"])
        self.trees_ = list(children.get("trees", []))
        self.init_score_ = float(meta["init_score"])
        self.n_features_in_ = int(meta["n_features_in"])
