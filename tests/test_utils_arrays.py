"""Tests for array helpers and timing utilities."""

import numpy as np
import pytest

from repro.utils import imbalance_ratio, stratified_indices, timed_call


class TestImbalanceRatio:
    def test_basic(self):
        y = [0] * 90 + [1] * 10
        assert imbalance_ratio(y) == pytest.approx(9.0)

    def test_no_minority_is_inf(self):
        assert imbalance_ratio([0, 0]) == float("inf")

    def test_balanced_is_one(self):
        assert imbalance_ratio([0, 1]) == 1.0


class TestStratifiedIndices:
    def test_is_permutation(self):
        rng = np.random.RandomState(0)
        y = np.array([0] * 20 + [1] * 5)
        order = stratified_indices(y, rng)
        assert sorted(order.tolist()) == list(range(25))

    def test_prefix_contains_minority(self):
        """Any reasonable prefix should contain some of both classes."""
        rng = np.random.RandomState(1)
        y = np.array([0] * 90 + [1] * 10)
        order = stratified_indices(y, rng)
        first_half = y[order[:50]]
        assert (first_half == 1).sum() >= 2


class TestTiming:
    def test_timed_call_returns_result(self):
        result, seconds = timed_call(lambda a: a + 1, 2)
        assert result == 3 and seconds >= 0.0
