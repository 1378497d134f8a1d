"""Data sources: block iteration, gathering, scanning, bin/reservoir stats."""

import numpy as np
import pytest

from repro.exceptions import DataValidationError
from repro.streaming import (
    ArraySource,
    BinReservoir,
    CSVSource,
    NPYSource,
    StreamingBinStats,
    class_index_scan,
    save_csv,
    streaming_self_paced_under_sample,
)


@pytest.fixture
def small_data(rng):
    X = rng.randn(137, 5)
    y = (rng.uniform(size=137) < 0.2).astype(int)
    y[:2] = [0, 1]  # both classes guaranteed
    return X, y


def _reassemble(source):
    xs, ys = zip(*source.iter_blocks())
    return np.vstack(xs), np.concatenate(ys)


class TestArraySource:
    def test_blocks_cover_everything_in_order(self, small_data):
        X, y = small_data
        src = ArraySource(X, y, block_size=32)
        X2, y2 = _reassemble(src)
        assert np.array_equal(X, X2) and np.array_equal(y, y2)

    def test_block_sizes_fixed_except_last(self, small_data):
        X, y = small_data
        sizes = [len(b) for b, _ in ArraySource(X, y, block_size=32).iter_blocks()]
        assert sizes == [32, 32, 32, 32, 9]

    def test_take_preserves_requested_order(self, small_data):
        X, y = small_data
        src = ArraySource(X, y, block_size=16)
        idx = np.array([100, 3, 50, 3, 0])
        assert np.array_equal(src.take(idx), X[idx])

    def test_invalid_block_size(self, small_data):
        X, y = small_data
        with pytest.raises(ValueError):
            ArraySource(X, y, block_size=0)

    def test_validates_labels(self, rng):
        X = rng.randn(10, 2)
        with pytest.raises(DataValidationError):
            ArraySource(X, np.arange(10) % 3)


class TestFileSources:
    def test_npy_round_trip(self, small_data, tmp_path):
        X, y = small_data
        np.save(tmp_path / "x.npy", X)
        np.save(tmp_path / "y.npy", y)
        src = NPYSource(tmp_path / "x.npy", tmp_path / "y.npy", block_size=50)
        X2, y2 = _reassemble(src)
        assert np.array_equal(X, X2) and np.array_equal(y, y2)
        idx = np.array([1, 99, 7])
        assert np.array_equal(src.take(idx), X[idx])

    def test_csv_round_trip_is_bit_exact(self, small_data, tmp_path):
        X, y = small_data
        path = tmp_path / "data.csv"
        save_csv(path, X, y)
        X2, y2 = _reassemble(CSVSource(path, block_size=40))
        assert np.array_equal(X, X2) and np.array_equal(y, y2)

    def test_csv_generic_take_streams(self, small_data, tmp_path):
        X, y = small_data
        path = tmp_path / "data.csv"
        save_csv(path, X, y)
        idx = np.array([120, 0, 64, 64])
        assert np.array_equal(CSVSource(path).take(idx), X[idx])

    def test_csv_label_first_and_header(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("label,f0,f1\n1,0.5,1.5\n0,2.5,3.5\n")
        src = CSVSource(path, label_col=0, skip_header=1)
        X2, y2 = _reassemble(src)
        assert np.array_equal(y2, [1, 0])
        assert np.array_equal(X2, [[0.5, 1.5], [2.5, 3.5]])

    def test_take_out_of_range(self, small_data, tmp_path):
        X, y = small_data
        path = tmp_path / "data.csv"
        save_csv(path, X, y)
        with pytest.raises(IndexError):
            CSVSource(path).take(np.array([len(y) + 5]))

    def test_sources_pickle(self, small_data, tmp_path):
        import pickle

        X, y = small_data
        np.save(tmp_path / "x.npy", X)
        np.save(tmp_path / "y.npy", y)
        for src in (
            ArraySource(X, y),
            NPYSource(tmp_path / "x.npy", tmp_path / "y.npy"),
        ):
            clone = pickle.loads(pickle.dumps(src))
            X2, _ = _reassemble(clone)
            assert np.array_equal(X, X2)


class TestClassIndexScan:
    def test_scan_matches_flatnonzero(self, small_data):
        X, y = small_data
        scan = class_index_scan(
            ArraySource(X, y, block_size=30), collect_minority=True
        )
        assert scan.n_rows == len(y) and scan.n_features == X.shape[1]
        assert np.array_equal(scan.maj_idx, np.flatnonzero(y == 0))
        assert np.array_equal(scan.min_idx, np.flatnonzero(y == 1))
        assert np.array_equal(scan.X_min, X[y == 1])

    def test_counts_only_mode_skips_indices(self, small_data):
        X, y = small_data
        scan = class_index_scan(
            ArraySource(X, y), collect_indices=False, collect_minority=True
        )
        assert scan.y is None and scan.maj_idx is None
        assert scan.n_minority == int((y == 1).sum())
        assert len(scan.X_min) == scan.n_minority

    def test_rejects_missing_class(self, rng):
        X = rng.randn(20, 3)
        with pytest.raises(DataValidationError):
            class_index_scan(ArraySource(X, np.ones(20, dtype=int)))

    def test_non_integral_labels_rejected_not_truncated(self, tmp_path, rng):
        """Regression: a label like 1.5 must raise (as the in-memory path
        does), not silently truncate to 1 via astype(int)."""
        X = rng.randn(6, 2)
        y_bad = np.array([0.0, 1.0, 1.5, 0.0, 1.0, 0.0])
        np.save(tmp_path / "x.npy", X)
        np.save(tmp_path / "y.npy", y_bad)
        with pytest.raises(DataValidationError):
            class_index_scan(NPYSource(tmp_path / "x.npy", tmp_path / "y.npy"))
        csv = tmp_path / "bad.csv"
        csv.write_text(
            "\n".join(f"{a},{b},{lbl}" for (a, b), lbl in zip(X, y_bad)) + "\n"
        )
        with pytest.raises(DataValidationError):
            class_index_scan(CSVSource(csv))

    def test_rejects_nan(self, tmp_path, rng):
        X = rng.randn(10, 2)
        X[4, 1] = np.nan
        y = np.arange(10) % 2
        np.save(tmp_path / "x.npy", X)
        np.save(tmp_path / "y.npy", y)
        with pytest.raises(DataValidationError):
            class_index_scan(NPYSource(tmp_path / "x.npy", tmp_path / "y.npy"))


class TestStreamingBinStats:
    def test_matches_batch_histogram(self, rng):
        values = rng.uniform(size=1000)
        stats = StreamingBinStats(10)
        for lo in range(0, 1000, 64):
            stats.update(values[lo : lo + 64])
        expected, _ = np.histogram(values, bins=np.linspace(0, 1, 11))
        assert np.array_equal(stats.populations, expected)
        assert stats.n_seen == 1000
        assert np.isclose(stats.sums.sum(), values.sum())

    def test_clips_out_of_range(self):
        stats = StreamingBinStats(4)
        stats.update(np.array([-1.0, 2.0, 0.5]))
        assert stats.populations[0] == 1 and stats.populations[-1] == 1

    def test_as_hardness_bins_feeds_core_weights(self, rng):
        from repro.core.binning import self_paced_bin_weights

        stats = StreamingBinStats(5)
        stats.update(rng.uniform(size=100))
        weights = self_paced_bin_weights(stats.as_hardness_bins(), alpha=1.0)
        assert weights.shape == (5,) and (weights >= 0).all()


class TestReservoir:
    def test_small_stream_kept_verbatim(self, rng):
        res = BinReservoir(2, capacity=50, n_features=3, rng=rng)
        rows = rng.randn(20, 3)
        res.update(np.zeros(20, dtype=int), rows, np.arange(20.0))
        got, vals = res.draw(0, 20)
        # All 20 fit in capacity, so the draw returns exactly those rows.
        assert sorted(map(tuple, got)) == sorted(map(tuple, rows))
        assert res.seen[0] == 20 and res.seen[1] == 0

    def test_capacity_bounds_and_uniformity(self, rng):
        res = BinReservoir(1, capacity=10, n_features=1, rng=rng)
        for lo in range(0, 5000, 500):
            block = np.arange(lo, lo + 500, dtype=float).reshape(-1, 1)
            res.update(np.zeros(500, dtype=int), block, block[:, 0])
        assert res.seen[0] == 5000
        rows, _ = res.draw(0, 10)
        # A uniform sample of 0..4999 should not concentrate early:
        assert rows.mean() > 1000

    def test_draw_rejects_overdraw(self, rng):
        res = BinReservoir(1, capacity=5, n_features=1, rng=rng)
        res.update(np.zeros(3, dtype=int), np.ones((3, 1)), np.ones(3))
        with pytest.raises(ValueError):
            res.draw(0, 4)


class TestStreamingUnderSample:
    def _blocks(self, hardness, X, size):
        for lo in range(0, len(hardness), size):
            yield hardness[lo : lo + size], X[lo : lo + size]

    def test_returns_budget_and_stats(self, rng):
        hardness = rng.uniform(size=800)
        X = rng.randn(800, 4)
        rows, values, stats = streaming_self_paced_under_sample(
            self._blocks(hardness, X, 100), 10, 0.5, 150, rng
        )
        assert rows.shape == (150, 4)
        assert values.shape == (150,)
        assert stats.n_seen == 800

    def test_alpha_zero_prefers_easy_bins(self, rng):
        hardness = np.concatenate([np.full(700, 0.05), np.full(100, 0.95)])
        X = hardness.reshape(-1, 1).repeat(2, axis=1)
        rows, _, _ = streaming_self_paced_under_sample(
            self._blocks(hardness, X, 128), 10, 0.0, 100, rng
        )
        assert (rows[:, 0] < 0.5).mean() > 0.8

    def test_alpha_inf_spreads_over_bins(self, rng):
        hardness = np.concatenate([np.full(700, 0.05), np.full(100, 0.95)])
        X = hardness.reshape(-1, 1)
        rows, _, _ = streaming_self_paced_under_sample(
            self._blocks(hardness, X, 128), 2, 1e15, 100, rng
        )
        hard_taken = (rows[:, 0] > 0.5).sum()
        assert 40 <= hard_taken <= 60

    def test_budget_capped_by_stream_size(self, rng):
        hardness = rng.uniform(size=40)
        X = rng.randn(40, 2)
        rows, _, _ = streaming_self_paced_under_sample(
            self._blocks(hardness, X, 16), 5, 0.1, 100, rng
        )
        assert len(rows) == 40

    def test_empty_stream_raises(self, rng):
        with pytest.raises(ValueError):
            streaming_self_paced_under_sample(iter(()), 5, 0.1, 10, rng)
