"""Logistic regression via L-BFGS on the L2-regularised log-loss."""

from __future__ import annotations

import numpy as np

from ..base import BaseEstimator, ClassifierMixin
from ..utils.validation import (
    check_array,
    check_is_fitted,
    check_X_y,
)

__all__ = ["LogisticRegression"]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class LogisticRegression(BaseEstimator, ClassifierMixin):
    """Binary logistic regression (the paper's LR baseline in Table V).

    Minimises ``sum_i w_i * logloss_i + 1/(2C) * ||coef||²`` with L-BFGS;
    the intercept is unpenalised. Supports ``sample_weight`` so it can serve
    as a boosting base learner.
    """

    def __init__(
        self,
        C: float = 1.0,
        max_iter: int = 200,
        tol: float = 1e-6,
        fit_intercept: bool = True,
    ):
        self.C = C
        self.max_iter = max_iter
        self.tol = tol
        self.fit_intercept = fit_intercept

    def fit(self, X, y, sample_weight=None) -> "LogisticRegression":
        """Fit on ``X``, ``y``, ``sample_weight``; returns ``self``."""
        if self.C <= 0:
            raise ValueError("C must be positive")
        X, y = check_X_y(X, y)
        self.classes_, y_enc = np.unique(y, return_inverse=True)
        if len(self.classes_) > 2:
            raise ValueError("LogisticRegression supports binary problems only")
        n, d = X.shape
        if sample_weight is None:
            w = np.ones(n)
        else:
            w = np.asarray(sample_weight, dtype=float)
            w = w * (n / max(w.sum(), 1e-300))  # keep loss scale ~ n
        # Single-class degenerate fit: constant predictor.
        if len(self.classes_) == 1:
            self.coef_ = np.zeros(d)
            self.intercept_ = 50.0  # pushes sigmoid to ~1 for the only class
            self.n_features_in_ = d
            self._single_class = True
            return self
        self._single_class = False
        t = y_enc.astype(float)
        alpha = 1.0 / self.C

        def objective(theta):
            coef = theta[:d]
            b = theta[d] if self.fit_intercept else 0.0
            z = X @ coef + b
            p = _sigmoid(z)
            eps = 1e-12
            loss = -np.sum(w * (t * np.log(p + eps) + (1 - t) * np.log(1 - p + eps)))
            loss += 0.5 * alpha * coef @ coef
            grad_z = w * (p - t)
            grad_coef = X.T @ grad_z + alpha * coef
            if self.fit_intercept:
                grad = np.concatenate([grad_coef, [grad_z.sum()]])
            else:
                grad = grad_coef
            return loss, grad

        from scipy import optimize

        theta0 = np.zeros(d + (1 if self.fit_intercept else 0))
        result = optimize.minimize(
            objective,
            theta0,
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": self.max_iter, "gtol": self.tol},
        )
        self.coef_ = result.x[:d]
        self.intercept_ = float(result.x[d]) if self.fit_intercept else 0.0
        self.n_iter_ = int(result.nit)
        self.converged_ = bool(result.success)
        self.n_features_in_ = d
        return self

    def decision_function(self, X) -> np.ndarray:
        """Real-valued scores for the positive class."""
        check_is_fitted(self, ["coef_"])
        X = check_array(X)
        return X @ self.coef_ + self.intercept_

    def predict_proba(self, X) -> np.ndarray:
        """Class probabilities, columns ordered by ``classes_``."""
        if getattr(self, "_single_class", False):
            X = check_array(X)
            proba = np.ones((X.shape[0], 1))
            return proba
        p1 = _sigmoid(self.decision_function(X))
        return np.column_stack([1.0 - p1, p1])

    def predict(self, X) -> np.ndarray:
        """Predicted class labels for ``X``."""
        proba = self.predict_proba(X)
        return self.classes_[np.argmax(proba, axis=1)]

    # ------------------------------------------------------------------ #
    def __getstate_arrays__(self):
        """Pickle-free fitted-state export (see :mod:`repro.persistence`).

        Fit diagnostics (``n_iter_``, ``converged_``) are not persisted —
        only what inference needs.
        """
        check_is_fitted(self, ["coef_"])
        meta = {
            "n_features_in": int(self.n_features_in_),
            "intercept": float(self.intercept_),
            "single_class": bool(getattr(self, "_single_class", False)),
        }
        arrays = {
            "classes": np.asarray(self.classes_),
            "coef": np.asarray(self.coef_, dtype=np.float64),
        }
        return meta, arrays, {}

    def __setstate_arrays__(self, meta, arrays, children) -> None:
        self.classes_ = np.asarray(arrays["classes"])
        self.coef_ = np.asarray(arrays["coef"], dtype=np.float64)
        self.intercept_ = float(meta["intercept"])
        self._single_class = bool(meta["single_class"])
        self.n_features_in_ = int(meta["n_features_in"])
