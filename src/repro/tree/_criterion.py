"""Split-quality criteria: Gini impurity, entropy, C4.5 gain ratio."""

from __future__ import annotations

import numpy as np

__all__ = ["node_impurity", "class_sum", "split_gain", "CRITERIA"]

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
    """Elementwise sum over the classes of class-major ``planes``: an
    array whose first axis is the class, or a sequence of C arrays.

    With exactly two classes this adds the two planes directly: that is
    the single addition ``np.add.reduce`` over a two-entry class axis
    performs, without the reduce machinery that dominates on a short axis.
    With three or more classes the planes are stacked onto a trailing class
    axis and reduced with ``np.add.reduce`` — numpy's grouping of a longer
    reduction is not guaranteed to match sequential adds.
    """
    if len(planes) == 2:
        return planes[0] + planes[1]
    return np.add.reduce(np.stack(planes, axis=-1), axis=-1)


def split_gain(children: np.ndarray, parent_impurity, criterion: str) -> np.ndarray:
    """Impurity decrease for each of ``n`` candidate splits.

    ``children`` is the (2, C, n) array of the split search: the
    class-major weights of the ``n`` left children, then of their right
    children, so one impurity evaluation covers both sides.
    ``parent_impurity`` is a scalar or one value per candidate. For
    ``gain_ratio`` the information gain is normalised by the split
    information, as in Quinlan's C4.5. Every formula is elementwise, so a
    candidate's gain does not depend on which other candidates share the
    call — the tree builders rely on that to score only live candidates.

    A candidate with an empty side (weight ``<= 0``) scores ``-inf``
    whatever its other formulas give, so they divide by its weights
    unguarded and without floating-point warnings; every other candidate
    takes exactly the float ops of a guarded division.
    """
    w = class_sum(children.swapaxes(0, 1))
    wl, wr = w
    with np.errstate(divide="ignore", invalid="ignore"):
        p = children / w[:, None]
        if criterion == "gini":
            p *= p
            impurity = np.subtract(1.0, class_sum(p.swapaxes(0, 1)))
        else:
            # Entropy, also the child impurity of gain_ratio.
            p *= np.where(p > 0, np.log2(np.maximum(p, _EPS)), 0.0)
            impurity = np.negative(class_sum(p.swapaxes(0, 1)))
        total = wl + wr
        # parent - (wl * imp_left + wr * imp_right) / total, in place.
        gain = np.multiply(wl, impurity[0])
        gain += np.multiply(wr, impurity[1], out=impurity[1])
        gain /= total
        gain = np.subtract(parent_impurity, gain, out=gain)
        if criterion == "gain_ratio":
            pl = np.clip(wl / total, _EPS, 1.0)
            pr = np.clip(wr / total, _EPS, 1.0)
            split_info = -(pl * np.log2(pl) + pr * np.log2(pr))
            gain = gain / np.maximum(split_info, _EPS)
    gain[np.minimum(wl, wr) <= 0] = -np.inf
    return gain
