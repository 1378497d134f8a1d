"""Shared fixtures: small, fast datasets reused across the test suite."""

import itertools

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.RandomState(42)


@pytest.fixture
def imbalanced_data(rng):
    """Separable-ish imbalanced blobs: 400 majority vs 40 minority."""
    X_maj = rng.randn(400, 4)
    X_min = rng.randn(40, 4) * 0.7 + np.array([2.0, 2.0, 0.0, 0.0])
    X = np.vstack([X_maj, X_min])
    y = np.concatenate([np.zeros(400, dtype=int), np.ones(40, dtype=int)])
    perm = rng.permutation(len(y))
    return X[perm], y[perm]


@pytest.fixture
def overlapped_data(rng):
    """Heavily overlapping imbalanced blobs (noise-sensitive methods suffer)."""
    X_maj = rng.randn(600, 3)
    X_min = rng.randn(60, 3) * 1.0 + np.array([0.8, 0.8, 0.0])
    X = np.vstack([X_maj, X_min])
    y = np.concatenate([np.zeros(600, dtype=int), np.ones(60, dtype=int)])
    perm = rng.permutation(len(y))
    return X[perm], y[perm]


@pytest.fixture
def binary_blobs(rng):
    """Balanced, separable 2-class problem for classifier sanity checks."""
    X0 = rng.randn(150, 3) - 1.5
    X1 = rng.randn(150, 3) + 1.5
    X = np.vstack([X0, X1])
    y = np.concatenate([np.zeros(150, dtype=int), np.ones(150, dtype=int)])
    perm = rng.permutation(len(y))
    return X[perm], y[perm]


@pytest.fixture
def checkerboard_small():
    from repro.datasets import make_checkerboard

    return make_checkerboard(n_minority=150, n_majority=1500, random_state=7)


@pytest.fixture
def npy_source(tmp_path):
    """Factory ``(X, y, block_size=None) -> NPYSource`` over ``.npy`` files
    in a fresh directory per call: a non-array source, so exact trainers
    walk it block by block instead of fitting arrays in memory."""
    from repro.streaming import NPYSource

    counter = itertools.count()

    def make(X, y, block_size=None):
        directory = tmp_path / f"npy{next(counter)}"
        directory.mkdir()
        np.save(directory / "x.npy", X)
        np.save(directory / "y.npy", y)
        return NPYSource(directory / "x.npy", directory / "y.npy", block_size)

    return make
