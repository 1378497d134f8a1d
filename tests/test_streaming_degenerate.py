"""Degenerate streaming inputs: tiny sources, lopsided blocks, edge shapes.

The satellite coverage the issue asks for: sources that fit in a single
block, blocks containing only one class, and sources shorter than one
chunk must all behave exactly like their in-memory counterparts.
"""

import numpy as np
import pytest

from repro.core import SelfPacedEnsembleClassifier
from repro.exceptions import DataValidationError
from repro.imbalance_ensemble import UnderBaggingClassifier
from repro.streaming import (
    ArraySource,
    CSVSource,
    class_index_scan,
    save_csv,
)
from repro.tree import DecisionTreeClassifier


def _base():
    return DecisionTreeClassifier(max_depth=3, random_state=0)


def _tiny(rng, n_maj=30, n_min=6):
    X = np.vstack([rng.randn(n_maj, 3), rng.randn(n_min, 3) + 2.0])
    y = np.concatenate([np.zeros(n_maj, dtype=int), np.ones(n_min, dtype=int)])
    perm = rng.permutation(len(y))
    return X[perm], y[perm]


class TestSingleBlockSources:
    def test_source_shorter_than_one_chunk(self, rng):
        """block_size far beyond n_rows: one short block, same model."""
        X, y = _tiny(rng)
        ref = SelfPacedEnsembleClassifier(_base(), n_estimators=3, random_state=0)
        ref.fit(X, y)
        stream = SelfPacedEnsembleClassifier(
            _base(), n_estimators=3, random_state=0
        ).fit_source(ArraySource(X, y, block_size=10_000))
        assert np.array_equal(ref.predict_proba(X), stream.predict_proba(X))

    def test_single_block_scan(self, rng):
        X, y = _tiny(rng)
        scan = class_index_scan(ArraySource(X, y, block_size=10_000))
        assert scan.n_rows == len(y)
        assert np.array_equal(scan.maj_idx, np.flatnonzero(y == 0))

    def test_block_size_one(self, rng):
        """The pathological opposite: every row its own block."""
        X, y = _tiny(rng, n_maj=15, n_min=4)
        ref = SelfPacedEnsembleClassifier(_base(), n_estimators=2, random_state=1)
        ref.fit(X, y)
        stream = SelfPacedEnsembleClassifier(
            _base(), n_estimators=2, random_state=1
        ).fit_source(ArraySource(X, y, block_size=1))
        assert np.array_equal(ref.predict_proba(X), stream.predict_proba(X))


class TestOneClassBlocks:
    def test_blocks_of_a_single_class_each(self, rng):
        """Class-sorted data: every block is pure-majority or pure-minority."""
        n_maj, n_min = 64, 16
        X = np.vstack([rng.randn(n_maj, 3), rng.randn(n_min, 3) + 2.0])
        y = np.concatenate(
            [np.zeros(n_maj, dtype=int), np.ones(n_min, dtype=int)]
        )
        source = ArraySource(X, y, block_size=16)  # blocks never mix classes
        assert all(
            len(np.unique(yb)) == 1 for _, yb in source.iter_blocks()
        )
        ref = SelfPacedEnsembleClassifier(_base(), n_estimators=4, random_state=2)
        ref.fit(X, y)
        stream = SelfPacedEnsembleClassifier(
            _base(), n_estimators=4, random_state=2
        ).fit_source(source)
        assert np.array_equal(ref.predict_proba(X), stream.predict_proba(X))

    def test_one_class_blocks_reservoir_mode(self, rng):
        n_maj, n_min = 64, 16
        X = np.vstack([rng.randn(n_maj, 3), rng.randn(n_min, 3) + 2.0])
        y = np.concatenate(
            [np.zeros(n_maj, dtype=int), np.ones(n_min, dtype=int)]
        )
        model = SelfPacedEnsembleClassifier(
            _base(), n_estimators=3, random_state=2, mode="reservoir"
        ).fit_source(ArraySource(X, y, block_size=16))
        assert len(model.estimators_) == 3

    def test_one_class_blocks_fit_source(self, rng):
        n_maj, n_min = 40, 10
        X = np.vstack([rng.randn(n_maj, 2), rng.randn(n_min, 2) + 2.0])
        y = np.concatenate(
            [np.zeros(n_maj, dtype=int), np.ones(n_min, dtype=int)]
        )
        ref = UnderBaggingClassifier(_base(), n_estimators=3, random_state=5)
        ref.fit(X, y)
        src = UnderBaggingClassifier(_base(), n_estimators=3, random_state=5)
        src.fit_source(ArraySource(X, y, block_size=10))
        assert np.array_equal(ref.predict_proba(X), src.predict_proba(X))


class TestDegenerateShapes:
    def test_minority_of_one(self, rng):
        X = np.vstack([rng.randn(20, 2), [[5.0, 5.0]]])
        y = np.array([0] * 20 + [1])
        model = SelfPacedEnsembleClassifier(
            _base(), n_estimators=3, random_state=0
        ).fit_source(ArraySource(X, y, block_size=7))
        assert model.predict_proba(X).shape == (21, 2)

    def test_empty_csv_raises(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataValidationError):
            class_index_scan(CSVSource(path))

    def test_single_class_source_raises(self, rng):
        X = rng.randn(12, 2)
        y = np.zeros(12, dtype=int)
        with pytest.raises(DataValidationError):
            SelfPacedEnsembleClassifier(_base()).fit_source(ArraySource(X, y))

    def test_csv_shorter_than_one_chunk(self, rng, tmp_path):
        X, y = _tiny(rng, n_maj=10, n_min=3)
        path = tmp_path / "tiny.csv"
        save_csv(path, X, y)
        scan = class_index_scan(CSVSource(path, block_size=4096))
        assert (scan.n_majority, scan.n_minority) == (10, 3)

    def test_reservoir_budget_exceeds_majority(self, rng):
        """|P| > |N|-per-bin capacity paths: budget capped by stream size."""
        X = np.vstack([rng.randn(8, 2), rng.randn(12, 2) + 2.0])
        y = np.array([0] * 8 + [1] * 12)
        model = SelfPacedEnsembleClassifier(
            _base(), n_estimators=3, random_state=0, mode="reservoir"
        ).fit_source(ArraySource(X, y, block_size=5))
        assert len(model.estimators_) == 3
