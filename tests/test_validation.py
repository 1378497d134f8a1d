"""Tests for input-validation utilities."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.exceptions import DataValidationError, NotFittedError
from repro.utils.validation import (
    check_array,
    check_binary_labels,
    check_is_fitted,
    check_random_state,
    check_X_y,
    column_or_1d,
    unique_labels,
)


class TestCheckRandomState:
    def test_none_gives_random_state(self):
        assert isinstance(check_random_state(None), np.random.RandomState)

    def test_int_is_deterministic(self):
        a = check_random_state(3).rand(5)
        b = check_random_state(3).rand(5)
        assert np.allclose(a, b)

    def test_passthrough(self):
        rs = np.random.RandomState(0)
        assert check_random_state(rs) is rs

    def test_generator_accepted(self):
        assert isinstance(
            check_random_state(np.random.default_rng(0)), np.random.RandomState
        )

    def test_invalid_raises(self):
        with pytest.raises(ValueError):
            check_random_state("nope")


class TestCheckArray:
    def test_converts_lists(self):
        out = check_array([[1, 2], [3, 4]])
        assert out.dtype == np.float64 and out.shape == (2, 2)

    def test_rejects_1d(self):
        with pytest.raises(DataValidationError, match="2D"):
            check_array([1.0, 2.0])

    def test_rejects_3d(self):
        with pytest.raises(DataValidationError):
            check_array(np.zeros((2, 2, 2)))

    def test_rejects_nan_by_default(self):
        with pytest.raises(DataValidationError, match="NaN"):
            check_array([[np.nan, 1.0]])

    def test_allows_nan_when_requested(self):
        out = check_array([[np.nan, 1.0]], allow_nan=True)
        assert np.isnan(out[0, 0])

    def test_min_samples(self):
        with pytest.raises(DataValidationError, match="minimum"):
            check_array([[1.0]], min_samples=2)

    def test_zero_features_rejected(self):
        with pytest.raises(DataValidationError):
            check_array(np.empty((3, 0)))

    def test_copy_flag(self):
        base = np.ones((2, 2))
        assert check_array(base, copy=True) is not base


class TestCheckXy:
    def test_matching_ok(self):
        X, y = check_X_y([[1.0], [2.0]], [0, 1])
        assert X.shape == (2, 1) and y.shape == (2,)

    def test_length_mismatch(self):
        with pytest.raises(DataValidationError, match="inconsistent"):
            check_X_y([[1.0], [2.0]], [0, 1, 2])

    def test_column_vector_y_ravelled(self):
        _, y = check_X_y([[1.0], [2.0]], [[0], [1]])
        assert y.ndim == 1


class TestColumnOr1d:
    def test_ravel_column(self):
        assert column_or_1d(np.zeros((3, 1))).shape == (3,)

    def test_rejects_matrix(self):
        with pytest.raises(DataValidationError):
            column_or_1d(np.zeros((3, 2)))


class TestCheckIsFitted:
    def test_raises_before_fit(self):
        class Est:
            pass

        with pytest.raises(NotFittedError):
            check_is_fitted(Est())

    def test_passes_with_fitted_attr(self):
        class Est:
            pass

        est = Est()
        est.coef_ = 1
        check_is_fitted(est)

    def test_explicit_attributes(self):
        class Est:
            pass

        est = Est()
        est.a_ = 1
        with pytest.raises(NotFittedError):
            check_is_fitted(est, ["b_"])


class TestLabels:
    def test_unique_labels_merges(self):
        assert unique_labels([0, 1], [1, 2]).tolist() == [0, 1, 2]

    def test_binary_labels_ok(self):
        assert check_binary_labels([0, 1, 0]).tolist() == [0, 1, 0]

    def test_binary_labels_rejects_multiclass(self):
        with pytest.raises(DataValidationError):
            check_binary_labels([0, 1, 2])

    def test_binary_labels_rejects_other_encoding(self):
        with pytest.raises(DataValidationError):
            check_binary_labels([-1, 1])

    @given(st.lists(st.sampled_from([0, 1]), min_size=1, max_size=50))
    def test_binary_labels_roundtrip(self, labels):
        assert check_binary_labels(labels).tolist() == labels
