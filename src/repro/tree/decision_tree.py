"""Public decision-tree classifiers: CART-style and C4.5-style."""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from ..base import BaseEstimator, ClassifierMixin
from ..exceptions import DataValidationError
from ..utils.validation import (
    check_array,
    check_is_fitted,
    check_random_state,
    check_X_y,
    column_or_1d,
)
from ._binning import FeatureBinner
from ._criterion import CRITERIA
from ._tree import Tree, build_tree

__all__ = ["DecisionTreeClassifier", "C45Classifier"]


def _check_tree_sample_weight(sample_weight, n_samples: int) -> np.ndarray:
    """Validate per-row weights without rescaling them.

    The weights are used as given, never normalised: rescaling them would
    change the float bits of every gain and leaf distribution the tree
    computes from them.
    """
    if sample_weight is None:
        return np.ones(n_samples)
    w = column_or_1d(sample_weight, name="sample_weight").astype(float)
    if w.shape[0] != n_samples:
        raise DataValidationError(
            f"sample_weight has {w.shape[0]} entries, expected {n_samples}."
        )
    if not np.isfinite(w).all():
        raise DataValidationError("sample_weight must be finite.")
    if (w < 0).any():
        raise DataValidationError("sample_weight must be non-negative.")
    return w


def _resolve_max_features(max_features, n_features: int) -> Optional[int]:
    if max_features is None:
        return None
    if max_features == "sqrt":
        return max(1, int(np.sqrt(n_features)))
    if max_features == "log2":
        return max(1, int(np.log2(n_features)))
    if isinstance(max_features, float):
        return max(1, int(max_features * n_features))
    if isinstance(max_features, (int, np.integer)):
        return max(1, min(int(max_features), n_features))
    raise ValueError(f"Invalid max_features {max_features!r}")


class DecisionTreeClassifier(BaseEstimator, ClassifierMixin):
    """CART-style decision tree with histogram split search.

    Split candidates are quantile bin boundaries (``max_bins`` per feature),
    which keeps training O(n·d·bins) per level rather than O(n log n · d) —
    necessary because trees are the base learner of every ensemble in the
    paper's evaluation. With few distinct feature values the splits are exact.

    Supports ``sample_weight`` (weighted impurity and leaf distributions),
    which AdaBoost and the boosting-based baselines require.
    """

    def __init__(
        self,
        criterion: str = "gini",
        max_depth: Optional[int] = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        min_impurity_decrease: float = 0.0,
        max_features: Union[None, str, int, float] = None,
        max_bins: int = 64,
        random_state=None,
    ):
        self.criterion = criterion
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.min_impurity_decrease = min_impurity_decrease
        self.max_features = max_features
        self.max_bins = max_bins
        self.random_state = random_state

    def fit(self, X, y, sample_weight=None) -> "DecisionTreeClassifier":
        """Fit on ``X``, ``y``, ``sample_weight``; returns ``self``."""
        if self.criterion not in CRITERIA:
            raise ValueError(
                f"Unknown criterion {self.criterion!r}; expected one of {CRITERIA}"
            )
        X, y = check_X_y(X, y)
        binner = FeatureBinner(max_bins=self.max_bins)
        X_binned = binner.fit_transform(X)
        n_features = X.shape[1]
        self.classes_, y_enc = np.unique(y, return_inverse=True)
        w = _check_tree_sample_weight(sample_weight, len(y))
        rng = check_random_state(self.random_state)
        self.tree_: Tree = build_tree(
            X_binned,
            y_enc,
            w,
            binner,
            n_classes=len(self.classes_),
            criterion=self.criterion,
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_samples_leaf=self.min_samples_leaf,
            min_impurity_decrease=self.min_impurity_decrease,
            max_features=_resolve_max_features(self.max_features, n_features),
            random_state=rng,
        )
        self.n_features_in_ = n_features
        return self

    def _check_predict_X(self, X) -> np.ndarray:
        check_is_fitted(self, ["tree_"])
        X = check_array(X)
        if X.shape[1] != self.n_features_in_:
            raise ValueError(
                f"X has {X.shape[1]} features, tree was fitted with "
                f"{self.n_features_in_}."
            )
        return X

    def predict_proba(self, X) -> np.ndarray:
        """Class probabilities, columns ordered by ``classes_``."""
        X = self._check_predict_X(X)
        return self.tree_.predict_proba(X)

    def apply(self, X) -> np.ndarray:
        """Index of the leaf each sample lands in."""
        X = self._check_predict_X(X)
        return self.tree_.apply(X)

    # ------------------------------------------------------------------ #
    def __getstate_arrays__(self):
        """Pickle-free fitted-state export (see :mod:`repro.persistence`).

        Exports the flat node arrays of ``tree_`` plus ``classes_``.
        """
        check_is_fitted(self, ["tree_"])
        tree = self.tree_
        meta = {
            "n_features_in": int(self.n_features_in_),
            "tree_n_classes": int(tree.n_classes),
        }
        arrays = {
            "classes": np.asarray(self.classes_),
            "tree_feature": tree.feature,
            "tree_threshold": tree.threshold,
            "tree_children_left": tree.children_left,
            "tree_children_right": tree.children_right,
            "tree_value": tree.value,
            "tree_n_node_samples": tree.n_node_samples,
            "tree_impurity": tree.impurity,
        }
        return meta, arrays, {}

    def __setstate_arrays__(self, meta, arrays, children) -> None:
        self.classes_ = np.asarray(arrays["classes"])
        self.tree_ = Tree(
            feature=np.asarray(arrays["tree_feature"], dtype=np.int64),
            threshold=np.asarray(arrays["tree_threshold"], dtype=np.float64),
            children_left=np.asarray(arrays["tree_children_left"], dtype=np.int64),
            children_right=np.asarray(arrays["tree_children_right"], dtype=np.int64),
            value=np.asarray(arrays["tree_value"], dtype=np.float64),
            n_node_samples=np.asarray(arrays["tree_n_node_samples"], dtype=np.int64),
            impurity=np.asarray(arrays["tree_impurity"], dtype=np.float64),
            n_classes=int(meta["tree_n_classes"]),
        )
        self.n_features_in_ = int(meta["n_features_in"])

    @property
    def feature_importances_(self) -> np.ndarray:
        """Impurity-decrease importances, normalised to sum to one."""
        check_is_fitted(self, ["tree_"])
        tree = self.tree_
        importances = np.zeros(self.n_features_in_)
        for i in range(tree.node_count):
            if tree.feature[i] < 0:
                continue
            left = tree.children_left[i]
            right = tree.children_right[i]
            n = tree.n_node_samples[i]
            decrease = n * tree.impurity[i] - (
                tree.n_node_samples[left] * tree.impurity[left]
                + tree.n_node_samples[right] * tree.impurity[right]
            )
            importances[tree.feature[i]] += max(decrease, 0.0)
        total = importances.sum()
        return importances / total if total > 0 else importances


class C45Classifier(DecisionTreeClassifier):
    """C4.5-style tree: entropy-based splits normalised by gain ratio.

    The paper's ensemble comparison (Table VI) uses C4.5 as the base model
    "for a fair comparison" with RUSBoost / UnderBagging / SMOTEBagging, all
    originally proposed with C4.5. Continuous attributes are handled through
    binary threshold splits as in Quinlan's formulation; categorical
    attributes should be ordinal-encoded first.
    """

    def __init__(
        self,
        max_depth: Optional[int] = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        min_impurity_decrease: float = 0.0,
        max_bins: int = 64,
        random_state=None,
    ):
        super().__init__(
            criterion="gain_ratio",
            max_depth=max_depth,
            min_samples_split=min_samples_split,
            min_samples_leaf=min_samples_leaf,
            min_impurity_decrease=min_impurity_decrease,
            max_features=None,
            max_bins=max_bins,
            random_state=random_state,
        )

    @classmethod
    def _get_param_names(cls):
        # Exclude the parameters fixed by the C4.5 variant.
        return [
            "max_depth",
            "min_samples_split",
            "min_samples_leaf",
            "min_impurity_decrease",
            "max_bins",
            "random_state",
        ]
