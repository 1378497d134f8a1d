"""Bootstrap-aggregating classifier (Breiman, 1996)."""

from __future__ import annotations

from functools import partial
from typing import Optional

import numpy as np

from ..base import BaseEstimator, ClassifierMixin, clone
from ..parallel import ensemble_predict_proba, fit_ensemble_parallel
from ..tree import DecisionTreeClassifier
from ..utils.validation import (
    check_array,
    check_is_fitted,
    check_random_state,
    check_X_y,
)

__all__ = ["BaggingClassifier", "make_member_model"]


def make_member_model(rng: np.random.RandomState, estimator=None):
    """Default ensemble-member factory shared across the ensemble layers:
    resolve ``estimator`` (``None`` → fresh tree, a registry name → a new
    instance, an instance → a clone) and seed it from the member's private
    RNG. Strings keep member factories cheap to pickle and let any
    ensemble take ``estimator="logistic"`` etc. directly."""
    if estimator is None:
        model = DecisionTreeClassifier()
    elif isinstance(estimator, str):
        from ..registry import make_classifier

        model = make_classifier(estimator)
    else:
        from ..registry import resolve_estimator

        model = clone(resolve_estimator(estimator))
    if hasattr(model, "random_state"):
        model.random_state = rng.randint(np.iinfo(np.int32).max)
    return model


def _bootstrap_sample(
    index: int,
    rng: np.random.RandomState,
    X: np.ndarray,
    y: np.ndarray,
    size: int,
    bootstrap: bool,
    n_classes: int,
):
    if bootstrap:
        idx = rng.randint(0, X.shape[0], size=size)
        # Guarantee both classes appear whenever the data has both:
        # resample until the subset is non-degenerate (tiny cost).
        tries = 0
        while n_classes > 1 and len(np.unique(y[idx])) < 2 and tries < 10:
            idx = rng.randint(0, X.shape[0], size=size)
            tries += 1
    else:
        idx = rng.permutation(X.shape[0])[:size]
    return X[idx], y[idx]


class BaggingClassifier(BaseEstimator, ClassifierMixin):
    """Train ``n_estimators`` clones on bootstrap resamples and average.

    ``n_jobs`` drives both the per-member fits and the chunked
    ``predict_proba`` through :mod:`repro.parallel`; results are identical
    for every worker count at a fixed ``random_state``.
    """

    def __init__(
        self,
        estimator=None,
        n_estimators: int = 10,
        max_samples: float = 1.0,
        bootstrap: bool = True,
        n_jobs: Optional[int] = None,
        random_state=None,
    ):
        self.estimator = estimator
        self.n_estimators = n_estimators
        self.max_samples = max_samples
        self.bootstrap = bootstrap
        self.n_jobs = n_jobs
        self.random_state = random_state

    def fit(self, X, y) -> "BaggingClassifier":
        """Fit on ``X``, ``y``; returns ``self``."""
        if self.n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if not 0.0 < self.max_samples <= 1.0:
            raise ValueError("max_samples must be in (0, 1]")
        X, y = check_X_y(X, y)
        rng = check_random_state(self.random_state)
        self.classes_ = np.unique(y)
        size = max(1, int(round(self.max_samples * X.shape[0])))
        self.estimators_, _ = fit_ensemble_parallel(
            X,
            y,
            n_estimators=self.n_estimators,
            sample_fn=partial(
                _bootstrap_sample,
                size=size,
                bootstrap=self.bootstrap,
                n_classes=len(self.classes_),
            ),
            make_model=partial(make_member_model, estimator=self.estimator),
            random_state=rng,
            n_jobs=self.n_jobs,
        )
        self.n_features_in_ = X.shape[1]
        return self

    def predict_proba(self, X) -> np.ndarray:
        """Class probabilities, columns ordered by ``classes_``."""
        check_is_fitted(self, ["estimators_"])
        X = check_array(X)
        return ensemble_predict_proba(
            self.estimators_,
            X,
            self.classes_,
            n_jobs=self.n_jobs,
        )

    # ------------------------------------------------------------------ #
    def __serving_ensemble__(self):
        """(voting members, member class vector) for serving-time warm-up.

        Bagging is label-generic already: members are fitted on the raw
        labels, so the serving class vector is ``classes_`` itself.
        """
        check_is_fitted(self, ["estimators_"])
        return self.estimators_, self.classes_

    def __getstate_arrays__(self):
        """Pickle-free fitted-state export (see :mod:`repro.persistence`)."""
        check_is_fitted(self, ["estimators_"])
        from ..persistence.state import export_ensemble_state

        return export_ensemble_state(self)

    def __setstate_arrays__(self, meta, arrays, children) -> None:
        from ..persistence.state import restore_ensemble_state

        restore_ensemble_state(self, meta, arrays, children)
