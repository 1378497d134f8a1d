"""Dataset splitting: stratified holdout and stratified K-fold.

The paper's protocol (Section VI-B1) is a stratified 60/20/20 split into
train / validation / test; :func:`train_valid_test_split` implements it
directly.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from ..exceptions import DataValidationError
from ..utils.validation import check_random_state, column_or_1d

__all__ = [
    "train_test_split",
    "train_valid_test_split",
    "StratifiedKFold",
]


def _stratified_permutation(y: np.ndarray, rng: np.random.RandomState) -> np.ndarray:
    """Permutation whose prefix of any length keeps class proportions.

    Samples of each class are shuffled, then assigned evenly spread
    fractional positions so any contiguous slice is approximately stratified.
    """
    position = np.empty(len(y), dtype=float)
    for label in np.unique(y):
        idx = np.flatnonzero(y == label)
        idx = rng.permutation(idx)
        position[idx] = (np.arange(len(idx)) + 0.5) / len(idx)
    # Tie-break by a second random key to avoid systematic inter-class order.
    return np.lexsort((rng.permutation(len(y)), position))


def train_test_split(
    X,
    y,
    *,
    test_size: float = 0.25,
    stratify: bool = True,
    random_state=None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Split arrays into random train and test subsets.

    With ``stratify=True`` (default — always what you want with IR ≫ 1) the
    class proportions of ``y`` are preserved in both parts.
    """
    if not 0.0 < test_size < 1.0:
        raise DataValidationError(f"test_size must be in (0, 1), got {test_size}")
    X = np.asarray(X)
    y = column_or_1d(y)
    if X.shape[0] != y.shape[0]:
        raise DataValidationError("X and y have different lengths")
    rng = check_random_state(random_state)
    n = len(y)
    n_test = max(1, int(round(n * test_size)))
    if stratify:
        order = _stratified_permutation(y, rng)
    else:
        order = rng.permutation(n)
    test_idx = order[:n_test]
    train_idx = order[n_test:]
    return X[train_idx], X[test_idx], y[train_idx], y[test_idx]


def train_valid_test_split(
    X,
    y,
    *,
    valid_size: float = 0.2,
    test_size: float = 0.2,
    random_state=None,
):
    """Stratified three-way split (default 60/20/20, the paper's protocol).

    Returns ``X_train, X_valid, X_test, y_train, y_valid, y_test``.
    """
    if valid_size + test_size >= 1.0:
        raise DataValidationError("valid_size + test_size must be < 1")
    X_rest, X_test, y_rest, y_test = train_test_split(
        X, y, test_size=test_size, stratify=True, random_state=random_state
    )
    rel_valid = valid_size / (1.0 - test_size)
    rng = check_random_state(random_state)
    X_train, X_valid, y_train, y_valid = train_test_split(
        X_rest, y_rest, test_size=rel_valid, stratify=True, random_state=rng
    )
    return X_train, X_valid, X_test, y_train, y_valid, y_test


class StratifiedKFold:
    """K-fold preserving class proportions in every fold."""

    def __init__(self, n_splits: int = 5, shuffle: bool = True, random_state=None):
        if n_splits < 2:
            raise DataValidationError("n_splits must be >= 2")
        self.n_splits = n_splits
        self.shuffle = shuffle
        self.random_state = random_state

    def split(self, X, y) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Yield stratified ``(train_idx, test_idx)`` pairs."""
        y = column_or_1d(y)
        rng = check_random_state(self.random_state)
        fold_of = np.empty(len(y), dtype=int)
        for label in np.unique(y):
            idx = np.flatnonzero(y == label)
            if len(idx) < self.n_splits:
                raise DataValidationError(
                    f"Class {label!r} has only {len(idx)} samples for "
                    f"{self.n_splits} folds"
                )
            if self.shuffle:
                idx = rng.permutation(idx)
            fold_of[idx] = np.arange(len(idx)) % self.n_splits
        for i in range(self.n_splits):
            test_idx = np.flatnonzero(fold_of == i)
            train_idx = np.flatnonzero(fold_of != i)
            yield train_idx, test_idx
