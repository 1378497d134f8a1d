"""Split-quality criteria: Gini impurity, entropy, C4.5 gain ratio."""

from __future__ import annotations

import numpy as np

__all__ = [
    "node_impurity", "class_sum", "children_impurity", "split_gain", "CRITERIA",
]

CRITERIA = ("gini", "entropy", "gain_ratio")

_EPS = 1e-12


def node_impurity(class_weights: np.ndarray, criterion: str) -> float:
    """Impurity of a node given its per-class weight vector."""
    total = class_weights.sum()
    if total <= 0:
        return 0.0
    p = class_weights / total
    if criterion == "gini":
        return float(1.0 - np.sum(p * p))
    # entropy and gain_ratio both use entropy as node impurity
    nz = p[p > 0]
    return float(-np.sum(nz * np.log2(nz)))


def class_sum(W: np.ndarray) -> np.ndarray:
    """Sum over the trailing (class) axis of ``W``.

    With exactly two classes this adds the two columns directly:
    ``np.add.reduce`` over two elements performs that same single addition,
    so the bits match, without the reduce machinery that dominates on a
    short axis. With three or more classes it stays ``np.add.reduce`` —
    numpy's grouping of a longer reduction is not guaranteed to match
    sequential column adds.
    """
    if W.shape[-1] == 2:
        return W[..., 0] + W[..., 1]
    return np.add.reduce(W, axis=-1)


def children_impurity(W: np.ndarray, criterion: str) -> np.ndarray:
    """Row-wise impurity for a (n_candidates, n_classes) weight matrix.

    Every row sum goes through :func:`class_sum` (a direct column add for
    two classes, ``np.add.reduce`` otherwise — the same bits as
    ``ndarray.sum`` either way); this runs once per scored split candidate
    in the tree builder's hottest loop.
    """
    totals = class_sum(W)
    safe = np.where(totals > 0, totals, 1.0)
    p = W / safe[:, None]
    if criterion == "gini":
        return 1.0 - class_sum(p * p)
    logp = np.where(p > 0, np.log2(np.maximum(p, _EPS)), 0.0)
    return -class_sum(p * logp)


def split_gain(
    left: np.ndarray,
    right: np.ndarray,
    parent_impurity: float,
    criterion: str,
) -> np.ndarray:
    """Impurity decrease for each candidate split.

    ``left`` / ``right`` are (n_candidates, n_classes) class-weight matrices
    and ``parent_impurity`` is a scalar or one value per candidate. For
    ``gain_ratio`` the information gain is normalised by the split
    information, as in Quinlan's C4.5. Every formula is row-wise, so a
    candidate's gain does not depend on which other candidates share the
    call — the tree builders rely on that to score only live candidates.
    Left and right children are stacked into one impurity evaluation
    (identical values, half the numpy dispatches).
    """
    wl = class_sum(left)
    wr = class_sum(right)
    total = wl + wr
    safe_total = np.where(total > 0, total, 1.0)
    child_criterion = "entropy" if criterion == "gain_ratio" else criterion
    both = children_impurity(np.concatenate([left, right]), child_criterion)
    il = both[: len(left)]
    ir = both[len(left):]
    gain = parent_impurity - (wl * il + wr * ir) / safe_total
    if criterion == "gain_ratio":
        pl = np.clip(wl / safe_total, _EPS, 1.0)
        pr = np.clip(wr / safe_total, _EPS, 1.0)
        split_info = -(pl * np.log2(pl) + pr * np.log2(pr))
        gain = gain / np.maximum(split_info, _EPS)
    # Degenerate candidates (an empty side) carry no usable gain.
    gain[(wl <= 0) | (wr <= 0)] = -np.inf
    return gain
