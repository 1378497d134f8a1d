"""Adaptive Boosting (Freund & Schapire, 1997) — SAMME and SAMME.R.

Base learners that accept ``sample_weight`` in ``fit`` are trained with the
boosting weights directly; others (KNN, MLP, ...) are trained on a weighted
bootstrap resample — the classical workaround that lets AdaBoost "boost any
canonical classifier", which the paper's experiments rely on.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..base import BaseEstimator, ClassifierMixin, supports_sample_weight
from ..tree import DecisionTreeClassifier
from ..utils.validation import (
    check_array,
    check_is_fitted,
    check_random_state,
    check_X_y,
)
from .bagging import make_member_model

__all__ = ["AdaBoostClassifier", "samme_step", "samme_vote"]


def check_learning_rate(learning_rate) -> None:
    """Reject a ``learning_rate`` that is not a finite number > 0."""
    if not (np.isfinite(learning_rate) and learning_rate > 0):
        raise ValueError(
            f"learning_rate must be a finite number > 0, got {learning_rate!r}"
        )


def samme_step(w, incorrect, learning_rate: float, n_classes: int, first: bool):
    """One SAMME round on the boosting weights ``w`` (updated in place).

    ``incorrect`` marks the rows the round's model got wrong. A perfect
    learner gets a large but finite weight; one no better than chance is
    kept only as the first model (the standard SAMME early-out); any other
    round reweights ``w`` by ``exp(alpha * incorrect)`` and renormalises.
    Returns ``(alpha, stop)``: ``alpha`` is the model's vote weight, or
    ``None`` when it is dropped, and ``stop`` ends the boosting loop.
    """
    err = float(np.sum(w * incorrect))
    log_k = np.log(max(n_classes - 1, 1))
    if err <= 0:
        return float(10.0 + log_k), True
    if err >= 1.0 - 1.0 / n_classes:
        return (1.0 if first else None), True
    alpha = float(learning_rate * (np.log((1.0 - err) / err) + log_k))
    w *= np.exp(alpha * incorrect)
    total = w.sum()
    if not np.isfinite(total) or total <= 0:
        return alpha, True
    w /= total
    return alpha, False


def samme_vote(model, X, classes=None):
    """SAMME vote of a fitted booster on ``X``: each of ``estimators_`` adds
    its ``estimator_weights_`` entry to the class it predicts, a column of
    ``classes`` (default ``model.classes_``). Returns ``(votes, shares)``;
    the shares of a row sum to 1 and are uniform on rows with no votes."""
    check_is_fitted(model, ["estimators_"])
    X = check_array(X)
    classes = model.classes_ if classes is None else classes
    votes = np.zeros((X.shape[0], len(classes)))
    rows = np.arange(X.shape[0])
    for member, alpha in zip(model.estimators_, model.estimator_weights_):
        votes[rows, np.searchsorted(classes, member.predict(X))] += alpha
    totals = votes.sum(axis=1, keepdims=True)
    shares = np.full_like(votes, 1.0 / len(classes))
    np.divide(votes, totals, out=shares, where=totals > 0)
    return votes, shares


class AdaBoostClassifier(BaseEstimator, ClassifierMixin):
    """Multi-class AdaBoost.

    ``algorithm='SAMME'`` (default) uses discrete class votes weighted by
    ``log((1-err)/err)``; ``'SAMME.R'`` uses real-valued class-probability
    votes, converging faster for well-calibrated learners.
    """

    def __init__(
        self,
        estimator=None,
        n_estimators: int = 10,
        learning_rate: float = 1.0,
        algorithm: str = "SAMME",
        random_state=None,
    ):
        self.estimator = estimator
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.algorithm = algorithm
        self.random_state = random_state

    def _fit_one(self, X, y, w, rng):
        base = self.estimator
        if base is None:
            base = DecisionTreeClassifier(max_depth=1)
        model = make_member_model(rng, base)
        if supports_sample_weight(model):
            model.fit(X, y, sample_weight=w * len(y))
        else:
            idx = rng.choice(len(y), size=len(y), p=w)
            if len(np.unique(y[idx])) < len(np.unique(y)):
                # Degenerate resample: retry once, then fall back to all data.
                idx = rng.choice(len(y), size=len(y), p=w)
                if len(np.unique(y[idx])) < len(np.unique(y)):
                    idx = np.arange(len(y))
            model.fit(X[idx], y[idx])
        return model

    def fit(self, X, y) -> "AdaBoostClassifier":
        """Fit on ``X``, ``y``; returns ``self``."""
        if self.algorithm not in ("SAMME", "SAMME.R"):
            raise ValueError(f"Unknown algorithm {self.algorithm!r}")
        if self.n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        check_learning_rate(self.learning_rate)
        X, y = check_X_y(X, y)
        rng = check_random_state(self.random_state)
        self.classes_ = np.unique(y)
        K = len(self.classes_)
        n = X.shape[0]
        w = np.full(n, 1.0 / n)
        self.estimators_: List = []
        self.estimator_weights_: List[float] = []
        y_codes = np.searchsorted(self.classes_, y)

        for _ in range(self.n_estimators):
            model = self._fit_one(X, y, w, rng)
            if self.algorithm == "SAMME":
                alpha, stop = samme_step(
                    w, model.predict(X) != y, self.learning_rate, K,
                    not self.estimators_,
                )
                if alpha is not None:
                    self.estimators_.append(model)
                    self.estimator_weights_.append(alpha)
                if stop:
                    break
                continue
            proba = np.clip(model.predict_proba(X), 1e-12, None)
            cols = np.searchsorted(self.classes_, model.classes_)
            full = np.full((n, K), 1e-12)
            full[:, cols] = proba
            log_proba = np.log(full)
            # Weight update from Zhu et al. (2009), eq. (4).
            coding = np.full((n, K), -1.0 / (K - 1)) if K > 1 else np.ones((n, K))
            coding[np.arange(n), y_codes] = 1.0
            w *= np.exp(
                -self.learning_rate
                * ((K - 1.0) / K)
                * np.einsum("ij,ij->i", coding, log_proba)
            )
            self.estimators_.append(model)
            self.estimator_weights_.append(1.0)  # SAMME.R uses unit weights
            total = w.sum()
            if not np.isfinite(total) or total <= 0:
                break
            w /= total
        self.n_features_in_ = X.shape[1]
        return self

    def decision_scores(self, X) -> np.ndarray:
        """Per-class aggregated votes (n_samples, n_classes)."""
        if self.algorithm == "SAMME":
            return samme_vote(self, X)[0]
        check_is_fitted(self, ["estimators_"])
        X = check_array(X)
        K = len(self.classes_)
        scores = np.zeros((X.shape[0], K))
        for model in self.estimators_:
            proba = np.clip(model.predict_proba(X), 1e-12, None)
            cols = np.searchsorted(self.classes_, model.classes_)
            full = np.full((X.shape[0], K), 1e-12)
            full[:, cols] = proba
            log_proba = np.log(full)
            scores += (K - 1) * (log_proba - log_proba.mean(axis=1, keepdims=True))
        return scores

    def predict_proba(self, X) -> np.ndarray:
        """Class probabilities, columns ordered by ``classes_``."""
        if self.algorithm == "SAMME":
            # Weighted vote shares: sum of alpha over estimators voting for
            # each class, normalised — a graded score in [0, 1] per class.
            return samme_vote(self, X)[1]
        scores = self.decision_scores(X)
        K = len(self.classes_)
        if K == 1:
            return np.ones((scores.shape[0], 1))
        # SAMME.R: softmax of the mean real-valued decision (Zhu et al. 2009).
        scores = scores / (max(len(self.estimators_), 1) * max(K - 1, 1))
        scores = scores - scores.max(axis=1, keepdims=True)
        e = np.exp(scores)
        return e / e.sum(axis=1, keepdims=True)

    def predict(self, X) -> np.ndarray:
        """Predicted class labels for ``X``."""
        scores = self.decision_scores(X)
        return self.classes_[np.argmax(scores, axis=1)]

    # ------------------------------------------------------------------ #
    def __getstate_arrays__(self):
        """Pickle-free fitted-state export (see :mod:`repro.persistence`)."""
        check_is_fitted(self, ["estimators_"])
        meta = {"n_features_in": int(self.n_features_in_)}
        arrays = {
            "classes": np.asarray(self.classes_),
            "estimator_weights": np.asarray(self.estimator_weights_, dtype=np.float64),
        }
        return meta, arrays, {"estimators": list(self.estimators_)}

    def __setstate_arrays__(self, meta, arrays, children) -> None:
        self.classes_ = np.asarray(arrays["classes"])
        self.estimator_weights_ = [float(w) for w in arrays["estimator_weights"]]
        self.estimators_ = list(children["estimators"])
        self.n_features_in_ = int(meta["n_features_in"])
