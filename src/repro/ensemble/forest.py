"""Random forest: bagged trees with per-node feature subsampling."""

from __future__ import annotations

from functools import partial
from typing import Dict, Optional, Union

import numpy as np

from ..parallel import fit_ensemble_parallel
from ..tree import DecisionTreeClassifier
from ..utils.validation import check_is_fitted, check_random_state, check_X_y
from .bagging import BaggingClassifier

__all__ = ["RandomForestClassifier"]


def _forest_sample(
    index: int,
    rng: np.random.RandomState,
    X: np.ndarray,
    y: np.ndarray,
    bootstrap: bool,
    n_classes: int,
):
    n = X.shape[0]
    if not bootstrap:
        return X, y
    idx = rng.randint(0, n, size=n)
    tries = 0
    while n_classes > 1 and len(np.unique(y[idx])) < 2 and tries < 10:
        idx = rng.randint(0, n, size=n)
        tries += 1
    return X[idx], y[idx]


def _make_forest_tree(rng: np.random.RandomState, params: Dict) -> DecisionTreeClassifier:
    return DecisionTreeClassifier(
        random_state=rng.randint(np.iinfo(np.int32).max), **params
    )


class RandomForestClassifier(BaggingClassifier):
    """Breiman-style random forest over the library's histogram CART trees.

    Tree fits run through the :mod:`repro.parallel` engine; ``n_jobs``
    never changes the forest grown under a fixed ``random_state``.
    Prediction, the serving hook and persistence are
    :class:`~repro.ensemble.BaggingClassifier`'s.
    """

    def __init__(
        self,
        n_estimators: int = 10,
        criterion: str = "gini",
        max_depth: Optional[int] = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: Union[None, str, int, float] = "sqrt",
        bootstrap: bool = True,
        max_bins: int = 64,
        n_jobs: Optional[int] = None,
        random_state=None,
    ):
        self.n_estimators = n_estimators
        self.criterion = criterion
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.max_bins = max_bins
        self.n_jobs = n_jobs
        self.random_state = random_state

    def fit(self, X, y) -> "RandomForestClassifier":
        """Fit on ``X``, ``y``; returns ``self``."""
        if self.n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        X, y = check_X_y(X, y)
        rng = check_random_state(self.random_state)
        self.classes_ = np.unique(y)
        tree_params = dict(
            criterion=self.criterion,
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self.max_features,
            max_bins=self.max_bins,
        )
        self.estimators_, _ = fit_ensemble_parallel(
            X,
            y,
            n_estimators=self.n_estimators,
            sample_fn=partial(
                _forest_sample,
                bootstrap=self.bootstrap,
                n_classes=len(self.classes_),
            ),
            make_model=partial(_make_forest_tree, params=tree_params),
            random_state=rng,
            n_jobs=self.n_jobs,
        )
        self.n_features_in_ = X.shape[1]
        return self

    @property
    def feature_importances_(self) -> np.ndarray:
        """Impurity-decrease importances, normalised to sum to 1."""
        check_is_fitted(self, ["estimators_"])
        importances = np.mean(
            [tree.feature_importances_ for tree in self.estimators_], axis=0
        )
        total = importances.sum()
        return importances / total if total > 0 else importances
