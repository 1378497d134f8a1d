"""Quantile binning of features for fast histogram-based split search."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..utils.validation import check_array

__all__ = ["FeatureBinner"]


def _bin_quantiles(max_bins: int) -> np.ndarray:
    """The ``max_bins - 1`` interior quantile levels."""
    return np.linspace(0.0, 1.0, max_bins + 1)[1:-1]


def _sorted_column_edges(
    sorted_col: np.ndarray, col: np.ndarray, quantiles: np.ndarray, max_bins: int
) -> np.ndarray:
    """Cut points of column ``col`` given ``sorted_col``, its values sorted.

    With at most ``max_bins`` distinct values the cuts sit midway between
    consecutive run heads (the values ``np.unique`` returns): exact splits.
    Otherwise they are the distinct ``quantiles`` of the column, which
    ``np.quantile`` finds faster on sorted input. Sorting changes no bit of
    them unless ``col`` holds both -0.0 and +0.0: the two compare equal, so
    which one a quantile lands on follows the order the values arrive in
    (a vectorised ``np.sort`` may even turn one into the other), and only
    the row-order column reproduces ``np.quantile(col)``.
    """
    heads = np.flatnonzero(sorted_col[1:] != sorted_col[:-1]) + 1
    if heads.size < max_bins:
        unique = sorted_col[np.concatenate(([0], heads))]
        return (unique[:-1] + unique[1:]) / 2.0
    zero_signs = np.signbit(col[col == 0.0])
    mixed_zeros = zero_signs.any() and not zero_signs.all()
    return np.unique(np.quantile(col if mixed_zeros else sorted_col, quantiles))


class FeatureBinner:
    """Map each feature to small integer codes via quantile cut points.

    Split search then only has to consider one candidate threshold per bin
    boundary, turning the O(n log n) exact sort per node into an O(n) histogram
    pass — the same trick histogram GBDTs (LightGBM) use.

    The code of value ``x`` on feature ``j`` is the number of cut points
    ``<= x``; the raw-value threshold equivalent to splitting after code ``c``
    is ``edges[j][c]`` with the test ``x < edges[j][c]``.
    """

    def __init__(self, max_bins: int = 64):
        if max_bins < 2:
            raise ValueError("max_bins must be >= 2")
        self.max_bins = max_bins

    def fit(self, X) -> "FeatureBinner":
        X = check_array(X)
        quantiles = _bin_quantiles(self.max_bins)
        # Column by column with a plain sort: transient memory stays one
        # column, which matters when a drift reference fits whole tables.
        return self._set_edges([
            _sorted_column_edges(np.sort(X[:, j]), X[:, j], quantiles, self.max_bins)
            for j in range(X.shape[1])
        ])

    def _set_edges(self, edges_list) -> "FeatureBinner":
        self.n_bins_ = np.array([e.size + 1 for e in edges_list], dtype=np.int64)
        # Immutable tuple: the fitted cut points are shared freely (e.g. by
        # a tree and its pickled or persisted copies) without defensive
        # copies, and accidental mutation is impossible.
        self.edges_: Tuple[np.ndarray, ...] = tuple(edges_list)
        self.n_features_ = len(edges_list)
        return self

    def transform(self, X) -> np.ndarray:
        # Transform-only validation: a float64 2-D ndarray (the only thing
        # the library's fit paths ever pass after their own check_X_y) needs
        # no conversion or finiteness re-scan — repeated transform calls on
        # the same validated matrix skip the O(n·d) check_array pass.
        if not (
            isinstance(X, np.ndarray) and X.dtype == np.float64 and X.ndim == 2
        ):
            X = check_array(X)
        if X.shape[1] != self.n_features_:
            raise ValueError(
                f"X has {X.shape[1]} features, binner was fitted with "
                f"{self.n_features_}."
            )
        codes = np.empty(X.shape, dtype=np.int32)
        for j, edges in enumerate(self.edges_):
            codes[:, j] = np.searchsorted(edges, X[:, j], side="right")
        return codes

    def fit_transform(self, X) -> np.ndarray:
        """``fit(X).transform(X)`` from one argsort per column.

        The sorted column yields the edges, and each edge's ``searchsorted``
        position in it is where the code steps up: a ``cumsum`` of those
        marks down the sorted order, scattered back through the argsort,
        is every row's code without a per-row binary search. Codes depend
        only on values, so the sort kind does not matter.
        """
        X = check_array(X)
        n_rows = X.shape[0]
        quantiles = _bin_quantiles(self.max_bins)
        codes = np.empty(X.shape, dtype=np.int32)
        edges_list = []
        for j in range(X.shape[1]):
            order = np.argsort(X[:, j])
            col = X[order, j]
            edges = _sorted_column_edges(col, X[:, j], quantiles, self.max_bins)
            steps = np.searchsorted(col, edges, side="left")
            codes[order, j] = np.bincount(steps, minlength=n_rows).cumsum()
            edges_list.append(edges)
        self._set_edges(edges_list)
        return codes

    def threshold_value(self, feature: int, code: int) -> float:
        """Raw-value threshold for splitting after bin ``code`` (test x < t)."""
        return float(self.edges_[feature][code])

    # ------------------------------------------------------------------ #
    def __getstate_arrays__(self):
        """Pickle-free fitted-state export (see :mod:`repro.persistence`):
        one ragged edge array per feature plus the bin counts."""
        meta = {"max_bins": int(self.max_bins), "n_features": int(self.n_features_)}
        arrays = {"n_bins": self.n_bins_}
        for j, edges in enumerate(self.edges_):
            arrays[f"edges_{j}"] = edges
        return meta, arrays, {}

    @classmethod
    def __from_state_arrays__(cls, meta, arrays, children) -> "FeatureBinner":
        binner = cls(max_bins=meta["max_bins"])
        binner.n_features_ = int(meta["n_features"])
        binner.n_bins_ = np.asarray(arrays["n_bins"], dtype=np.int64)
        binner.edges_ = tuple(
            np.asarray(arrays[f"edges_{j}"], dtype=np.float64)
            for j in range(binner.n_features_)
        )
        return binner
