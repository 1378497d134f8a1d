"""Tests for pairwise distances and KNN estimators."""

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from repro.exceptions import NotFittedError
from repro.neighbors import (
    KNeighborsClassifier,
    kneighbors,
    pairwise_distances,
)


class TestPairwiseDistances:
    def test_matches_scipy_euclidean(self, rng):
        A, B = rng.randn(30, 4), rng.randn(20, 4)
        assert np.allclose(pairwise_distances(A, B), cdist(A, B), atol=1e-8)

    def test_matches_scipy_manhattan(self, rng):
        A, B = rng.randn(15, 3), rng.randn(10, 3)
        assert np.allclose(
            pairwise_distances(A, B, metric="manhattan"),
            cdist(A, B, metric="cityblock"),
            atol=1e-10,
        )

    def test_self_distances(self, rng):
        A = rng.randn(10, 3)
        D = pairwise_distances(A)
        assert np.allclose(np.diag(D), 0.0, atol=1e-6)

    def test_squared(self, rng):
        A = rng.randn(5, 2)
        assert np.allclose(
            pairwise_distances(A, squared=True), pairwise_distances(A) ** 2, atol=1e-8
        )

    def test_dim_mismatch(self, rng):
        with pytest.raises(ValueError):
            pairwise_distances(rng.randn(3, 2), rng.randn(3, 3))

    def test_unknown_metric(self, rng):
        with pytest.raises(ValueError):
            pairwise_distances(rng.randn(3, 2), metric="cosine")


class TestKneighbors:
    def test_exact_neighbors(self):
        ref = np.array([[0.0], [1.0], [2.0], [10.0]])
        dist, idx = kneighbors(np.array([[0.2]]), ref, 2)
        assert idx[0].tolist() == [0, 1]
        assert np.allclose(dist[0], [0.2, 0.8])

    def test_exclude_self(self):
        ref = np.array([[0.0], [1.0], [2.0]])
        _, idx = kneighbors(ref, ref, 1, exclude_self=True)
        assert idx[0, 0] != 0 and idx[1, 0] != 1

    def test_sorted_by_distance(self, rng):
        ref = rng.randn(50, 3)
        dist, _ = kneighbors(rng.randn(5, 3), ref, 10)
        assert (np.diff(dist, axis=1) >= -1e-12).all()

    def test_chunked_matches_unchunked(self, rng):
        query, ref = rng.randn(40, 3), rng.randn(60, 3)
        d1, i1 = kneighbors(query, ref, 5)
        d2, i2 = kneighbors(query, ref, 5, chunk_bytes=2048)
        assert np.allclose(d1, d2) and np.array_equal(i1, i2)

    def test_too_many_neighbors(self, rng):
        with pytest.raises(ValueError):
            kneighbors(rng.randn(2, 2), rng.randn(3, 2), 4)


class TestKNeighborsClassifier:
    def test_memorises_training_points(self, binary_blobs):
        X, y = binary_blobs
        clf = KNeighborsClassifier(n_neighbors=1).fit(X, y)
        assert clf.score(X, y) == 1.0

    def test_separable_generalisation(self, binary_blobs):
        X, y = binary_blobs
        clf = KNeighborsClassifier(n_neighbors=5).fit(X[:200], y[:200])
        assert clf.score(X[200:], y[200:]) > 0.9

    def test_proba_granularity(self, binary_blobs):
        """Uniform-vote probabilities are multiples of 1/k."""
        X, y = binary_blobs
        clf = KNeighborsClassifier(n_neighbors=5).fit(X, y)
        proba = clf.predict_proba(X[:20])
        assert np.allclose((proba * 5).round(), proba * 5, atol=1e-9)

    def test_proba_rows_sum_to_one(self, binary_blobs):
        X, y = binary_blobs
        proba = KNeighborsClassifier(3).fit(X, y).predict_proba(X[:10])
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_distance_weighting(self):
        X = np.array([[0.0], [0.1], [10.0], [10.1], [10.2]])
        y = np.array([1, 1, 0, 0, 0])
        clf = KNeighborsClassifier(n_neighbors=5, weights="distance").fit(X, y)
        # Uniform 5-NN would vote 0 (3 majority), distance weighting favours 1.
        assert clf.predict(np.array([[0.05]]))[0] == 1

    def test_k_larger_than_n_capped(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([0, 1])
        clf = KNeighborsClassifier(n_neighbors=10).fit(X, y)
        assert clf.effective_n_neighbors_ == 2

    def test_invalid_weights(self):
        with pytest.raises(ValueError):
            KNeighborsClassifier(weights="bogus").fit(np.ones((2, 1)), [0, 1])

    def test_predict_matches_argmax_proba(self, binary_blobs):
        X, y = binary_blobs
        clf = KNeighborsClassifier(4).fit(X, y)
        proba = clf.predict_proba(X[:30])
        assert np.array_equal(clf.predict(X[:30]), clf.classes_[proba.argmax(axis=1)])
