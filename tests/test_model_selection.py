"""Tests for splitting utilities and stratified K-fold."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import DataValidationError
from repro.model_selection import (
    StratifiedKFold,
    train_test_split,
    train_valid_test_split,
)
from repro.tree import DecisionTreeClassifier


def _imbalanced(n_maj=200, n_min=20, seed=0):
    rng = np.random.RandomState(seed)
    X = rng.randn(n_maj + n_min, 3)
    y = np.concatenate([np.zeros(n_maj, dtype=int), np.ones(n_min, dtype=int)])
    return X, y


class TestTrainTestSplit:
    def test_sizes(self):
        X, y = _imbalanced()
        X_tr, X_te, y_tr, y_te = train_test_split(X, y, test_size=0.25, random_state=0)
        assert len(y_te) == 55 and len(y_tr) == 165

    def test_stratification_preserves_ratio(self):
        X, y = _imbalanced(1000, 100)
        _, _, y_tr, y_te = train_test_split(X, y, test_size=0.2, random_state=0)
        ratio_tr = y_tr.mean()
        ratio_te = y_te.mean()
        assert abs(ratio_tr - ratio_te) < 0.02

    def test_no_overlap_and_complete(self):
        X = np.arange(100, dtype=float).reshape(-1, 1)
        y = (np.arange(100) % 10 == 0).astype(int)
        X_tr, X_te, _, _ = train_test_split(X, y, test_size=0.3, random_state=1)
        merged = np.sort(np.concatenate([X_tr.ravel(), X_te.ravel()]))
        assert np.array_equal(merged, np.arange(100, dtype=float))

    def test_deterministic_with_seed(self):
        X, y = _imbalanced()
        a = train_test_split(X, y, test_size=0.3, random_state=5)
        b = train_test_split(X, y, test_size=0.3, random_state=5)
        assert np.array_equal(a[0], b[0])

    def test_invalid_test_size(self):
        X, y = _imbalanced()
        with pytest.raises(DataValidationError):
            train_test_split(X, y, test_size=1.5)

    def test_length_mismatch(self):
        with pytest.raises(DataValidationError):
            train_test_split(np.ones((5, 1)), np.ones(4))

    @settings(max_examples=20)
    @given(st.floats(min_value=0.1, max_value=0.9))
    def test_sizes_property(self, test_size):
        X, y = _imbalanced(100, 20)
        X_tr, X_te, y_tr, y_te = train_test_split(
            X, y, test_size=test_size, random_state=0
        )
        assert len(y_tr) + len(y_te) == 120
        assert len(y_te) == max(1, int(round(120 * test_size)))


class TestTrainValidTestSplit:
    def test_paper_60_20_20(self):
        X, y = _imbalanced(600, 60)
        parts = train_valid_test_split(X, y, random_state=0)
        X_tr, X_va, X_te, y_tr, y_va, y_te = parts
        total = len(y_tr) + len(y_va) + len(y_te)
        assert total == 660
        assert abs(len(y_tr) / total - 0.6) < 0.02
        assert abs(len(y_va) / total - 0.2) < 0.02

    def test_each_part_has_minority(self):
        X, y = _imbalanced(600, 30)
        _, _, _, y_tr, y_va, y_te = train_valid_test_split(X, y, random_state=0)
        assert y_tr.sum() > 0 and y_va.sum() > 0 and y_te.sum() > 0

    def test_invalid_sizes(self):
        X, y = _imbalanced()
        with pytest.raises(DataValidationError):
            train_valid_test_split(X, y, valid_size=0.6, test_size=0.5)


class TestStratifiedKFold:
    def test_each_fold_has_minority(self):
        X, y = _imbalanced(100, 10)
        for _, te in StratifiedKFold(5, random_state=0).split(X, y):
            assert y[te].sum() >= 1

    def test_class_too_small(self):
        X, y = _imbalanced(20, 2)
        with pytest.raises(DataValidationError):
            list(StratifiedKFold(5).split(X, y))

    def test_coverage(self):
        X, y = _imbalanced(50, 10)
        seen = np.concatenate(
            [te for _, te in StratifiedKFold(3, random_state=1).split(X, y)]
        )
        assert sorted(seen.tolist()) == list(range(60))
