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


def class_sum(planes) -> np.ndarray:
    """Elementwise sum of per-class arrays (one array per class).

    With exactly two classes this adds the two arrays directly: that is
    the single addition ``np.add.reduce`` over a two-entry class axis
    performs, without the reduce machinery that dominates on a short axis.
    With three or more classes the arrays are stacked onto a trailing class
    axis and reduced with ``np.add.reduce`` — numpy's grouping of a longer
    reduction is not guaranteed to match sequential adds.
    """
    if len(planes) == 2:
        return planes[0] + planes[1]
    return np.add.reduce(np.stack(planes, axis=-1), axis=-1)


def children_impurity(planes, totals: np.ndarray, criterion: str) -> np.ndarray:
    """Impurity of each candidate child from its per-class weights.

    ``planes`` holds one 1-D weight array per class and ``totals`` is their
    :func:`class_sum`. Every operation is elementwise per candidate, so a
    candidate's impurity does not depend on which others share the call.
    """
    safe = np.where(totals > 0, totals, 1.0)
    p = [w / safe for w in planes]
    if criterion == "gini":
        return 1.0 - class_sum([pc * pc for pc in p])
    return -class_sum([
        pc * np.where(pc > 0, np.log2(np.maximum(pc, _EPS)), 0.0) for pc in p
    ])


def split_gain(children, parent_impurity, criterion: str) -> np.ndarray:
    """Impurity decrease for each of ``n`` candidate splits.

    ``children`` holds one 1-D class-weight array per class (the
    class-major planes of the split search): the ``n`` left children
    followed by their ``n`` right children, so one impurity evaluation
    covers both sides. ``parent_impurity`` is a scalar or one value per
    candidate. For ``gain_ratio`` the information gain is normalised by the
    split information, as in Quinlan's C4.5. Every formula is elementwise,
    so a candidate's gain does not depend on which other candidates share
    the call — the tree builders rely on that to score only live
    candidates.
    """
    n = children[0].size // 2
    w = class_sum(children)
    wl = w[:n]
    wr = w[n:]
    total = wl + wr
    safe_total = np.where(total > 0, total, 1.0)
    child_criterion = "entropy" if criterion == "gain_ratio" else criterion
    impurity = children_impurity(children, w, child_criterion)
    gain = parent_impurity - (wl * impurity[:n] + wr * impurity[n:]) / safe_total
    if criterion == "gain_ratio":
        pl = np.clip(wl / safe_total, _EPS, 1.0)
        pr = np.clip(wr / safe_total, _EPS, 1.0)
        split_info = -(pl * np.log2(pl) + pr * np.log2(pr))
        gain = gain / np.maximum(split_info, _EPS)
    # Degenerate candidates (an empty side) carry no usable gain.
    gain[np.minimum(wl, wr) <= 0] = -np.inf
    return gain
