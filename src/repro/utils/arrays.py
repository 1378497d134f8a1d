"""Array helpers used across samplers, ensembles and the experiment harness."""

from __future__ import annotations

import numpy as np

from .validation import column_or_1d

__all__ = ["imbalance_ratio", "stratified_indices"]


def imbalance_ratio(y) -> float:
    """``|N| / |P|`` — the paper's Imbalance Ratio (IR)."""
    y = column_or_1d(y)
    n_min = int(np.sum(y == 1))
    n_maj = int(np.sum(y == 0))
    if n_min == 0:
        return float("inf")
    return n_maj / n_min


def stratified_indices(y, rng: np.random.RandomState) -> np.ndarray:
    """Permutation of indices that interleaves classes evenly.

    Useful for batch training (MLP) so that minority samples do not all land
    in the same few mini-batches.
    """
    y = column_or_1d(y)
    order = np.empty(len(y), dtype=int)
    position = np.empty(len(y), dtype=float)
    for label in np.unique(y):
        idx = np.flatnonzero(y == label)
        idx = rng.permutation(idx)
        # Spread each class uniformly over [0, 1), then sort globally.
        position[idx] = (np.arange(len(idx)) + rng.uniform(0, 1, len(idx))) / len(idx)
    order = np.argsort(position, kind="stable")
    return order
