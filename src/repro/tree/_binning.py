"""Quantile binning of features for fast histogram-based split search."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..utils.validation import check_array

__all__ = ["FeatureBinner"]


def _bin_quantiles(max_bins: int) -> np.ndarray:
    """The ``max_bins - 1`` interior quantile levels."""
    return np.linspace(0.0, 1.0, max_bins + 1)[1:-1]


#: Most values a block of columns holds. Binning works on one block of
#: columns at a time, transposed, so its copy, sort order and sorted values
#: stay near 8 MiB each however tall the matrix: GBDT, forest and
#: drift-reference fits on whole tables keep bounded memory.
_BLOCK_VALUES = 1 << 20

#: -0.0 read as an int64: the sign bit alone.
_NEG_ZERO_BITS = np.int64(np.iinfo(np.int64).min)


def _sorted_quantiles(S, rows, quantiles):
    """``np.quantile(S[rows], quantiles, axis=1).T`` read straight off
    ``rows`` of ``S``, whose rows are already sorted: numpy's own virtual
    indexes, neighbours and ``_lerp`` of the default linear method, bit for
    bit, without copying the rows or partitioning them again."""
    n = S.shape[1]
    virtual = (n - 1) * quantiles
    prev = np.floor(virtual).astype(np.intp)
    nxt = prev + 1
    # numpy reads an index at or past the last value as the last value.
    last = virtual >= n - 1
    prev[last] = nxt[last] = -1
    gamma = virtual - prev
    a = S[rows[:, None], prev]
    b = S[rows[:, None], nxt]
    with np.errstate(over="ignore"):
        diff = b - a
    # Values are finite, so an infinite difference overflowed: interpolate
    # between the halves there and double the result (exact but for
    # subnormals), as _bin_block halves the midpoints.
    scale = np.where(np.isinf(diff), 2.0, 1.0)
    a, b = a / scale, b / scale
    diff = b - a
    q = a + diff * gamma
    np.subtract(b, diff * (1 - gamma), out=q, where=gamma >= 0.5)
    return q * scale


def _bin_block(T, quantiles, max_bins, codes=None):
    """Cut points of each row of ``T``, a (k, n) C-contiguous block of
    columns transposed; given ``codes``, a (k, n) int32 array, also every
    value's code.

    A row with at most ``max_bins`` distinct values is cut midway between
    consecutive run heads of its sorted values: exact splits. Midpoints
    never see the sign of a zero, and two values whose sum overflows are
    halved before they are added. Any other row is cut at its distinct
    ``quantiles``, read off the sorted rows (:func:`_sorted_quantiles`, bit
    for bit the per-column ``np.quantile``), then a dedupe of each
    sorted row of quantiles, which is ``np.unique`` as long as no two of
    them differ only in the sign of a zero. Rows holding -0.0 keep the
    per-column ``np.unique(np.quantile(col))``: -0.0 and +0.0 compare
    equal, so which one a quantile lands on follows the order the values
    arrive in (a vectorised ``np.sort`` may even turn one into the other),
    and a quantile between two -0.0 can come out +0.0.

    A code is the number of cuts ``<= x``. Each cut's ``searchsorted``
    position in the sorted row is where the code steps up, so a ``cumsum``
    of those marks down the sorted order, scattered back through the
    argsort, is every value's code without a per-value binary search.
    Codes depend only on values, so the sort kind does not matter.
    """
    k, n = T.shape
    if codes is None:
        S = np.sort(T, axis=1)
    else:
        flat = np.argsort(T, axis=1)
        flat += np.arange(0, k * n, n)[:, None]
        S = T.take(flat)
    head = np.empty((k, n), dtype=bool)
    head[:, 0] = True
    np.not_equal(S[:, 1:], S[:, :-1], out=head[:, 1:])
    n_distinct = np.count_nonzero(head, axis=1)
    edges = [None] * k

    exact = np.flatnonzero(n_distinct <= max_bins)
    if exact.size:
        unique = S[exact][head[exact]]
        with np.errstate(over="ignore"):
            mids = (unique[:-1] + unique[1:]) / 2.0
        # Values are finite, so an infinite midpoint is an overflowed sum:
        # halve before adding there.
        big = np.flatnonzero(np.isinf(mids))
        mids[big] = unique[big] / 2.0 + unique[big + 1] / 2.0
        # Drop the pairs that straddle two rows: one row's edges remain.
        ends = np.cumsum(n_distinct[exact])
        mids = np.delete(mids, ends[:-1] - 1)
        for c, e in zip(exact.tolist(), np.split(mids, ends[:-1] - np.arange(1, exact.size))):
            edges[c] = e

    cut = np.flatnonzero(n_distinct > max_bins)
    if cut.size:
        signed = (T.view(np.int64) == _NEG_ZERO_BITS).any(axis=1)[cut]
        for c in cut[signed].tolist():
            edges[c] = np.unique(np.quantile(T[c], quantiles))
        plain = cut[~signed]
        if plain.size:
            q = np.sort(_sorted_quantiles(S, plain, quantiles), axis=1)
            first = np.empty(q.shape, dtype=bool)
            first[:, 0] = True
            np.not_equal(q[:, 1:], q[:, :-1], out=first[:, 1:])
            ends = np.cumsum(np.count_nonzero(first, axis=1))
            for c, e in zip(plain.tolist(), np.split(q[first], ends[:-1])):
                edges[c] = e

    if codes is not None:
        steps = np.concatenate([
            np.searchsorted(S[c], e, side="left") + c * (n + 1)
            for c, e in enumerate(edges)
        ])
        # Rows of n + 1 marks: a cut above every value would land in the
        # spare slot and bump no code.
        marks = np.bincount(steps, minlength=k * (n + 1))
        marks = np.cumsum(marks, out=marks).reshape(k, n + 1)
        # The flat cumsum carries every earlier row's marks: take them off.
        marks[1:] -= marks[:-1, n].copy()[:, None]
        codes.ravel()[flat] = marks[:, :n]
    return edges


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
        self._fit_blocks(check_array(X))
        return self

    def _fit_blocks(self, X, codes=None):
        """Fit the cut points of ``X`` one block of columns at a time (see
        :func:`_bin_block`); given ``codes``, an int32 array shaped like
        ``X``, also write every value's code into it."""
        n_rows, n_cols = X.shape
        quantiles = _bin_quantiles(self.max_bins)
        width = max(1, _BLOCK_VALUES // n_rows)
        edges_list = []
        for lo in range(0, n_cols, width):
            T = np.ascontiguousarray(X[:, lo:lo + width].T)
            block = None if codes is None else np.empty(T.shape, dtype=np.int32)
            edges_list += _bin_block(T, quantiles, self.max_bins, block)
            if codes is not None:
                codes[:, lo:lo + width] = block.T
        self.n_bins_ = np.array([e.size + 1 for e in edges_list], dtype=np.int64)
        # Immutable tuple: the fitted cut points are shared freely (e.g. by
        # a tree and its pickled or persisted copies) without defensive
        # copies, and accidental mutation is impossible.
        self.edges_: Tuple[np.ndarray, ...] = tuple(edges_list)
        self.n_features_ = len(edges_list)

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
        """``fit(X).transform(X)`` from one argsort per block of columns
        (see :func:`_bin_block`)."""
        X = check_array(X)
        codes = np.empty(X.shape, dtype=np.int32)
        self._fit_blocks(X, codes)
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
