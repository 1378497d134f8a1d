"""Monitoring subsystem: the labelled window, drift detectors, DriftMonitor.

Pins the monitoring contracts: ring windows are bounded and ordered, label
delay joins the streams in order, single-class windows are nan (never a
crash), detectors are deterministic and quiet on drift-free control
streams while alarming on injected covariate / concept / prior drift, and
a state machine checks every report, metric and window against a naive
oracle that re-bins the window from scratch.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.datasets import make_checkerboard
from repro.exceptions import DataValidationError, UndefinedMetricWarning
from repro.metrics import average_precision_score
from repro.monitoring import (
    DDMDetector,
    DriftLevel,
    DriftMonitor,
    DriftReport,
    FeatureDriftDetector,
    PrevalenceShiftDetector,
    ReferenceSketch,
    RingWindow,
)
from repro.streaming import ArraySource


@pytest.fixture(scope="module")
def data():
    return make_checkerboard(n_minority=300, n_majority=3000, random_state=0)


@pytest.fixture(scope="module")
def sketch(data):
    X, y = data
    return ReferenceSketch(n_bins=12).fit(X, y)


def _worst(monitor) -> DriftLevel:
    return max(r.level for r in monitor.check())


class TestRingWindow:
    def test_bounded_and_ordered(self):
        ring = RingWindow(5, v=((), np.float64))
        ring.extend(v=[1.0, 2.0, 3.0])
        assert list(ring.values("v")) == [1.0, 2.0, 3.0]
        ring.extend(v=[4.0, 5.0, 6.0, 7.0])
        assert len(ring) == 5
        assert list(ring.values("v")) == [3.0, 4.0, 5.0, 6.0, 7.0]

    def test_oversized_extend_keeps_newest(self):
        ring = RingWindow(3, v=((), np.float64))
        ring.extend(v=np.arange(10.0))
        assert list(ring.values("v")) == [7.0, 8.0, 9.0]

    def test_2d_rows(self):
        """Columns of any row shape stay aligned through eviction."""
        ring = RingWindow(4, X=((2,), np.float64), y=((), object))
        ring.extend(X=np.arange(12.0).reshape(6, 2), y=list("abcdef"))
        assert ring.values("X").shape == (4, 2)
        assert ring.values("X")[0, 0] == 4.0
        assert ring.values("y").tolist() == ["c", "d", "e", "f"]

    def test_shape_mismatch_rejected(self):
        ring = RingWindow(4, X=((2,), np.float64), y=((), np.int64))
        with pytest.raises(ValueError):
            ring.extend(X=np.zeros((3, 5)), y=np.zeros(3))
        with pytest.raises(ValueError):
            ring.extend(X=np.zeros((3, 2)), y=np.zeros(2))
        with pytest.raises(ValueError):
            ring.extend(X=np.zeros((3, 2)))
        assert len(ring) == 0


class TestPrequentialEvaluator:
    """The monitor's prequential evaluation: scores join delayed labels
    in row order, and :meth:`DriftMonitor.metrics` reads the window."""

    def test_zero_delay_metrics(self, sketch):
        mon = DriftMonitor(sketch, window_size=100, threshold=0.5)
        y = np.array([0, 0, 0, 1, 1, 0, 1, 0])
        s = np.array([0.1, 0.2, 0.1, 0.9, 0.8, 0.6, 0.3, 0.2])
        mon.observe(np.zeros((8, 2)), s, y)
        m = mon.metrics()
        assert m["n"] == 8
        assert m["prevalence"] == pytest.approx(3 / 8)
        assert m["error_rate"] == pytest.approx(2 / 8)  # 0.6 FP + 0.3 FN
        assert 0.0 <= m["auprc"] <= 1.0
        assert m["minority_recall"] == pytest.approx(2 / 3)

    def test_label_delay_joins_in_order(self, sketch, data):
        X, _ = data
        mon = DriftMonitor(sketch, window_size=10)
        mon.observe(X[:2], [0.9, 0.1])
        mon.observe(X[2:3], [0.8])
        assert mon.n_pending == 3
        mon.observe_labels([1, 0])  # oldest two
        assert mon.n_pending == 1
        X_w, y_w, s_w = mon.window()
        assert np.array_equal(X_w, X[:2])
        assert list(y_w) == [1, 0]
        assert list(s_w) == [0.9, 0.1]

    def test_labels_beyond_pending_rejected(self, sketch, data):
        X, _ = data
        mon = DriftMonitor(sketch, window_size=10)
        mon.observe(X[:1], [0.5])
        with pytest.raises(ValueError):
            mon.observe_labels([1, 0])
        assert mon.n_pending == 1 and mon.metrics()["n"] == 0

    def test_all_majority_window_is_nan_not_crash(self, sketch, data):
        X, _ = data
        mon = DriftMonitor(sketch, window_size=50)
        scores = np.random.RandomState(0).uniform(size=20) * 0.3
        mon.observe(X[:20], scores, np.zeros(20, int))
        m = mon.metrics()
        assert np.isnan(m["auprc"]) and np.isnan(m["f1"])
        assert np.isnan(m["minority_recall"])
        assert m["prevalence"] == 0.0

    def test_empty_window_all_nan(self, sketch):
        m = DriftMonitor(sketch, window_size=10).metrics()
        assert m["n"] == 0
        assert all(
            np.isnan(v) for k, v in m.items() if k != "n"
        )

    def test_window_is_bounded(self, sketch, data):
        X, _ = data
        mon = DriftMonitor(sketch, window_size=16)
        for lo in range(0, 80, 8):
            mon.observe(X[lo:lo + 8], np.full(8, 0.5), np.ones(8, int))
        assert mon.metrics()["n"] == 16
        assert np.array_equal(mon.window()[0], X[64:80])


class TestReferenceSketch:
    def test_counts_cover_reference(self, sketch, data):
        X, y = data
        assert sketch.n_rows_ == len(X)
        assert sketch.counts_.sum() == len(X) * X.shape[1]
        assert sketch.prevalence_ == pytest.approx(float(np.mean(y == 1)))

    def test_fit_source_matches_fit(self, data):
        X, y = data
        direct = ReferenceSketch(n_bins=8).fit(X, y)
        streamed = ReferenceSketch(n_bins=8).fit_source(
            ArraySource(X, y, block_size=97)
        )
        assert np.array_equal(direct.counts_, streamed.counts_)
        assert streamed.prevalence_ == pytest.approx(direct.prevalence_)
        for a, b in zip(direct.binner_.edges_, streamed.binner_.edges_):
            assert np.array_equal(a, b)

    def test_subsampled_edges_deterministic(self, data):
        X, y = data
        a = ReferenceSketch(n_bins=8, max_fit_rows=500).fit(X, random_state=3)
        b = ReferenceSketch(n_bins=8, max_fit_rows=500).fit(X, random_state=3)
        for ea, eb in zip(a.binner_.edges_, b.binner_.edges_):
            assert np.array_equal(ea, eb)

    def test_feature_count_mismatch_rejected(self, sketch):
        with pytest.raises(ValueError):
            sketch.codes(np.zeros((5, 7)))

    def test_codes_use_smallest_unsigned_dtype(self, sketch, data):
        X, _ = data
        assert sketch.codes(X).dtype == np.uint8
        wide = ReferenceSketch(n_bins=300).fit(X)
        assert wide.codes(X).dtype == np.uint16
        assert np.array_equal(wide.codes(X), wide.binner_.transform(X))

    def test_bin_counts_match_per_feature_bincount(self, sketch, data):
        X, _ = data
        codes = sketch.codes(X[:700])
        want = np.zeros_like(sketch.counts_)
        for j in range(codes.shape[1]):
            want[j] = np.bincount(codes[:, j], minlength=want.shape[1])
        assert np.array_equal(sketch.bin_counts(codes), want)


class TestFeatureDriftDetector:
    def test_quiet_on_reference_sample(self, sketch, data):
        X, _ = data
        rng = np.random.RandomState(1)
        window = sketch.codes(X[rng.choice(len(X), 800)])
        report = FeatureDriftDetector(sketch).check(window)
        assert report.level is DriftLevel.OK
        assert report.detector == "feature_psi_ks"

    def test_alarms_on_shifted_window(self, sketch, data):
        X, _ = data
        report = FeatureDriftDetector(sketch).check(sketch.codes(X[:800] + 4.0))
        assert report.level is DriftLevel.ALARM
        assert report.statistic >= 0.25
        assert report.drifted

    def test_deterministic(self, sketch, data):
        X, _ = data
        det = FeatureDriftDetector(sketch)
        codes = sketch.codes(X[:500] + 1.0)
        r1, r2 = det.check(codes), det.check(codes)
        assert r1.statistic == r2.statistic and r1.level == r2.level

    def test_warn_band_between_thresholds(self, sketch, data):
        """A mild shift lands between warn and alarm for some magnitude."""
        X, _ = data
        levels = [
            FeatureDriftDetector(sketch).check(sketch.codes(X[:800] + mag)).level
            for mag in (0.0, 0.05, 0.1, 0.2, 0.4, 0.8, 1.6)
        ]
        assert levels[0] is DriftLevel.OK
        assert levels[-1] is DriftLevel.ALARM
        assert DriftLevel.WARN in levels


class TestDDM:
    def test_quiet_on_stationary_errors(self):
        rng = np.random.RandomState(0)
        ddm = DDMDetector()
        levels = set()
        for _ in range(30):
            levels.add(ddm.update((rng.uniform(size=100) < 0.1).astype(int)).level)
        assert levels == {DriftLevel.OK}

    def test_alarms_on_error_rise_then_resets(self):
        rng = np.random.RandomState(0)
        ddm = DDMDetector()
        for _ in range(10):
            ddm.update((rng.uniform(size=100) < 0.05).astype(int))
        levels = []
        for _ in range(20):
            levels.append(
                ddm.update((rng.uniform(size=100) < 0.4).astype(int)).level
            )
        assert DriftLevel.ALARM in levels
        # reset happened: the detector re-bases on the new error regime
        assert ddm.n < 3000

    def test_minimum_sample_gate(self):
        ddm = DDMDetector(min_samples=50)
        report = ddm.update(np.ones(10, int))
        assert report.level is DriftLevel.OK and np.isnan(report.statistic)

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            DDMDetector().update([0, 2, 1])


class TestPrevalenceShift:
    def test_quiet_at_reference_rate(self):
        rng = np.random.RandomState(0)
        det = PrevalenceShiftDetector(0.1)
        y = (rng.uniform(size=2000) < 0.1).astype(int)
        assert det.check(y).level is DriftLevel.OK

    def test_alarms_on_tripled_prior(self):
        rng = np.random.RandomState(0)
        det = PrevalenceShiftDetector(0.1)
        y = (rng.uniform(size=2000) < 0.3).astype(int)
        report = det.check(y)
        assert report.level is DriftLevel.ALARM
        assert report.detail["z"] > 0

    def test_direction_preserved_in_detail(self):
        det = PrevalenceShiftDetector(0.5)
        report = det.check(np.zeros(500, int))
        assert report.detail["z"] < 0 and report.level is DriftLevel.ALARM

    def test_invalid_reference_rejected(self):
        with pytest.raises(ValueError):
            PrevalenceShiftDetector(0.0)


class TestDriftReport:
    def test_ordering_and_str(self):
        report = DriftReport(
            detector="x", level=DriftLevel.WARN, statistic=0.2,
            warn_threshold=0.1, alarm_threshold=0.3,
        )
        assert DriftLevel.OK < DriftLevel.WARN < DriftLevel.ALARM
        assert "WARN" in str(report) and not report.drifted


class TestDriftMonitor:
    def _traffic(self, monitor, X, y, scores, block=100):
        for lo in range(0, len(y), block):
            monitor.observe(
                X[lo : lo + block], scores[lo : lo + block], y[lo : lo + block]
            )

    def test_cold_window_reports_insufficient(self, sketch, data):
        X, y = data
        mon = DriftMonitor(sketch, window_size=1000, min_window=500)
        mon.observe(X[:100], np.zeros(100), y[:100])
        reports = mon.check()
        assert len(reports) == 1
        assert reports[0].detector == "insufficient_window"
        assert reports[0].level is DriftLevel.OK

    def test_quiet_on_control_stream(self, sketch, data):
        X, y = data
        rng = np.random.RandomState(2)
        idx = rng.permutation(len(y))[:1500]
        mon = DriftMonitor(sketch, window_size=1000, min_window=400)
        scores = np.where(y[idx] == 1, 0.7, 0.2) + rng.uniform(size=1500) * 0.1
        self._traffic(mon, X[idx], y[idx], scores)
        assert _worst(mon) is DriftLevel.OK

    def test_alarms_on_covariate_drift(self, sketch, data):
        X, y = data
        rng = np.random.RandomState(3)
        idx = rng.permutation(len(y))[:1500]
        mon = DriftMonitor(sketch, window_size=1000, min_window=400)
        scores = np.where(y[idx] == 1, 0.7, 0.2)
        self._traffic(mon, X[idx] + 4.0, y[idx], scores)
        by_name = {r.detector: r for r in mon.check()}
        assert by_name["feature_psi_ks"].level is DriftLevel.ALARM

    def test_label_delay_path(self, sketch, data):
        X, y = data
        mon = DriftMonitor(sketch, window_size=600, min_window=100)
        mon.observe(X[:300], np.full(300, 0.2))
        assert mon.metrics()["n"] == 0  # nothing labeled yet
        mon.observe_labels(y[:300])
        assert mon.metrics()["n"] == 300
        Xw, yw, sw = mon.window()
        assert np.array_equal(Xw, X[:300])
        assert np.array_equal(yw, y[:300])

    def test_more_labels_than_rows_rejected(self, sketch, data):
        X, y = data
        mon = DriftMonitor(sketch, window_size=100)
        mon.observe(X[:10], np.zeros(10))
        with pytest.raises(ValueError):
            mon.observe_labels(y[:20])

    def test_window_feeds_streaming_trainer(self, sketch, data):
        X, y = data
        mon = DriftMonitor(sketch, window_size=2000, min_window=100)
        mon.observe(X, np.zeros(len(y)), y)
        source = ArraySource(*mon.window()[:2])
        scan_X = source.take(np.arange(5))
        assert scan_X.shape == (5, X.shape[1])

    def test_reset_after_swap_clears_error_baseline(self, sketch, data):
        X, y = data
        mon = DriftMonitor(sketch, window_size=500, min_window=100)
        mon.observe(X[:400], np.where(y[:400] == 1, 0.9, 0.1), y[:400])
        assert mon.ddm.n > 0
        mon.reset_after_swap()
        assert mon.ddm.n == 0 and mon.metrics()["n"] == 400


class TestLabelAlphabets:
    """The monitor consumes the deployment's raw label alphabet: encoded
    internally via positive_label, passed through raw to retraining."""

    def test_minus_one_plus_one_alphabet(self, data):
        X, y = data
        y_pm = np.where(y == 1, 1, -1)
        sketch = ReferenceSketch(n_bins=10).fit(X, y_pm, positive_label=1)
        assert sketch.prevalence_ == pytest.approx(float(np.mean(y == 1)))
        mon = DriftMonitor(sketch, window_size=800, min_window=200, positive_label=1)
        scores = np.where(y_pm == 1, 0.9, 0.1)
        mon.observe(X[:800], scores[:800], y_pm[:800])
        # perfect scorer: zero error rate, correct prevalence
        m = mon.metrics()
        assert m["error_rate"] == 0.0
        assert m["prevalence"] == pytest.approx(float(np.mean(y_pm[:800] == 1)))
        assert _worst(mon) is DriftLevel.OK
        # the window hands back the raw alphabet for retraining
        _, y_win, _ = mon.window()
        assert set(np.unique(y_win)) <= {-1, 1}
        from repro.streaming import label_value_scan

        source = ArraySource(*mon.window()[:2])

        classes, _, minority_idx = label_value_scan(source)
        assert list(classes) == [-1, 1] and minority_idx == 1

    def test_string_alphabet(self, data):
        X, y = data
        y_str = np.where(y == 1, "fraud", "ok")
        sketch = ReferenceSketch(n_bins=10).fit(X, y_str, positive_label="fraud")
        mon = DriftMonitor(
            sketch, window_size=600, min_window=200, positive_label="fraud"
        )
        scores = np.where(y_str == "fraud", 0.9, 0.1)
        mon.observe(X[:600], scores[:600], y_str[:600])
        assert mon.metrics()["error_rate"] == 0.0
        assert _worst(mon) is DriftLevel.OK
        _, y_win, _ = mon.window()
        assert set(np.unique(y_win)) <= {"fraud", "ok"}


class TestPendingBound:
    def test_unlabeled_rows_bounded_by_max_pending(self, sketch, data):
        X, _ = data
        mon = DriftMonitor(sketch, window_size=100, max_pending=250)
        mon.observe(X[:200], np.zeros(200))
        with pytest.raises(ValueError, match="max_pending"):
            mon.observe(X[:100], np.zeros(100))
        # delivering labels drains the pending buffers and unblocks
        mon.observe_labels(np.zeros(200, dtype=int))
        mon.observe(X[:100], np.zeros(100))
        assert mon.n_pending == 100

    def test_non_finite_features_rejected_at_observe(self, sketch, data):
        X, y = data
        mon = DriftMonitor(sketch, window_size=100, min_window=10)
        bad = X[:20].copy()
        bad[7, 1] = np.nan
        with pytest.raises(DataValidationError, match="NaN or infinity"):
            mon.observe(bad, np.zeros(20), y[:20])
        bad[7, 1] = np.inf
        with pytest.raises(DataValidationError):
            mon.observe(bad, np.zeros(20))
        assert mon.n_pending == 0 and mon.metrics()["n"] == 0

    def test_wrong_width_rejected_at_observe(self, sketch, data):
        """A batch wider than the 2-feature sketch fails at observe, with
        nothing buffered, and the monitor keeps working after it."""
        X, y = data
        mon = DriftMonitor(sketch, window_size=100, min_window=10)
        mon.observe(X[:10], np.zeros(10))
        wide = np.hstack([X[10:15], np.zeros((5, 1))])
        with pytest.raises(DataValidationError, match="3 features.*has 2"):
            mon.observe(wide, np.zeros(5))
        assert mon.n_pending == 10
        mon.observe_labels(y[:10])
        mon.observe(X[10:30], np.zeros(20), y[10:30])
        assert mon.n_pending == 0 and mon.metrics()["n"] == 30
        assert len(mon.check()) > 0


# --------------------------------------------------------------------- #
# state machine: the monitor against a naive oracle
# --------------------------------------------------------------------- #
_N_FEATURES = 3
_FIT_ROWS = 50


def _rows(seed, n, shift):
    rng = np.random.RandomState(seed)
    return rng.randn(n, _N_FEATURES) + shift, rng.uniform(size=n)


def _same(a, b) -> bool:
    return (math.isnan(a) and math.isnan(b)) or math.isclose(a, b, rel_tol=1e-12)


class DriftMonitorMachine(RuleBasedStateMachine):
    """Random ``observe`` (with and without labels), ``observe_labels``,
    ``reset_after_swap`` and ``rebase_reference`` calls on a small,
    evicting window. After every step ``check()``, ``metrics()`` and
    ``window()`` must equal a naive oracle's: it keeps every row, slices
    the last ``window_size`` labelled ones, and bins them afresh in a
    sketch fitted on the same input as the monitor's."""

    @initialize(
        window_size=st.integers(3, 30),
        min_window=st.integers(1, 12),
        max_pending=st.integers(1, 80),
        n_bins=st.sampled_from([2, 5, 16]),
        threshold=st.sampled_from([0.3, 0.5]),
        alphabet=st.sampled_from([(0, 1), (-1, 1), ("ok", "fraud")]),
    )
    def start(self, window_size, min_window, max_pending, n_bins, threshold,
              alphabet):
        self.window_size, self.min_window = window_size, min_window
        self.max_pending, self.n_bins, self.threshold = max_pending, n_bins, threshold
        self.negative, self.positive = alphabet
        X, _ = _rows(0, 200, 0.0)
        y = self._labels(0, 200)
        self.monitor = DriftMonitor(
            self._fit_sketch(X, y, 0), window_size=window_size,
            min_window=min_window, max_pending=max_pending,
            threshold=threshold, positive_label=self.positive,
        )
        self._rebase_oracle(X, y, 0)
        self.X = np.empty((0, _N_FEATURES))
        self.scores = np.empty(0)
        self.labels = []
        self.ddm = DDMDetector()
        self.ddm_report = None

    def _labels(self, seed, n):
        minority = np.random.RandomState(seed + 1).uniform(size=n) < 0.2
        return np.where(minority, self.positive, self.negative)

    def _fit_sketch(self, X, y, seed):
        return ReferenceSketch(n_bins=self.n_bins, max_fit_rows=_FIT_ROWS).fit(
            X, y, random_state=seed, positive_label=self.positive
        )

    def _rebase_oracle(self, X, y, seed):
        self.sketch = self._fit_sketch(X, y, seed)
        self.prevalence = np.nan if y is None else float(np.mean(y == self.positive))

    def _label(self, y):
        lo = len(self.labels)
        self.labels += y.tolist()
        wrong = (self.scores[lo:len(self.labels)] >= self.threshold) != (y == self.positive)
        self.ddm_report = self.ddm.update(wrong.astype(np.int64))

    # ------------------------------------------------------------------ #
    @rule(n=st.integers(1, 25), seed=st.integers(0, 2**16),
          shift=st.sampled_from([0.0, 0.5, 3.0]), labelled=st.booleans())
    def observe(self, n, seed, shift, labelled):
        X, score = _rows(seed, n, shift)
        pending = len(self.scores) - len(self.labels)
        if not labelled and pending + n > self.max_pending:
            with pytest.raises(ValueError, match="max_pending"):
                self.monitor.observe(X, score)
            return
        y = self._labels(seed, n) if labelled else None
        self.monitor.observe(X, score, y)
        self.X = np.vstack([self.X, X])
        self.scores = np.concatenate([self.scores, score])
        if labelled:
            self._label(y)

    @rule(k=st.integers(0, 30), seed=st.integers(0, 2**16))
    def observe_labels(self, k, seed):
        y = self._labels(seed, k)
        pending = len(self.scores) - len(self.labels)
        if pending == 0 or k > pending:
            with pytest.raises(ValueError, match="more labels"):
                self.monitor.observe_labels(y)
            return
        self.monitor.observe_labels(y)
        self._label(y)

    @rule()
    def reset_after_swap(self):
        self.monitor.reset_after_swap()
        self.ddm.reset()
        self.ddm_report = None

    @rule(n=st.integers(5, 80), seed=st.integers(0, 2**16),
          shift=st.sampled_from([0.0, 0.5, 3.0]), labelled=st.booleans())
    def rebase_reference(self, n, seed, shift, labelled):
        X, _ = _rows(seed, n, shift)
        y = self._labels(seed, n) if labelled else None
        self.monitor.rebase_reference(X, y, random_state=seed)
        self._rebase_oracle(X, y, seed)

    # ------------------------------------------------------------------ #
    @invariant()
    def matches_oracle(self):
        if not hasattr(self, "monitor"):
            return
        hi = len(self.labels)
        lo = max(0, hi - self.window_size)
        X, score = self.X[lo:hi], self.scores[lo:hi]
        y = np.asarray(self.labels[lo:hi]) if hi else np.array([], dtype=np.int64)
        got_X, got_y, got_score = self.monitor.window()
        assert np.array_equal(got_X, X) and np.array_equal(got_score, score)
        assert got_y.dtype == y.dtype and got_y.tolist() == y.tolist()
        y01 = (y.astype(object) == self.positive).astype(np.int64)
        got = self.monitor.metrics()
        want = self._metrics(y01, score)
        assert got.keys() == want.keys()
        assert all(_same(got[k], want[k]) for k in want), (got, want)
        assert [repr(r) for r in self.monitor.check()] == [
            repr(r) for r in self._reports(X, y01)
        ]

    def _metrics(self, y01, score):
        if not y01.size:
            return {"n": 0, **dict.fromkeys(
                ["auprc", "f1", "minority_recall", "error_rate", "prevalence"], np.nan)}
        pred = (score >= self.threshold).astype(np.int64)
        tp = int(np.sum(pred & y01))
        fp, fn = int(np.sum(pred & (1 - y01))), int(np.sum((1 - pred) & y01))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UndefinedMetricWarning)
            auprc = float(average_precision_score(y01, score))
        both = 0 < y01.sum() < y01.size
        return {
            "n": int(y01.size),
            "auprc": auprc,
            "f1": 2 * tp / (2 * tp + fp + fn) if both else np.nan,
            "minority_recall": tp / (tp + fn) if y01.any() else np.nan,
            "error_rate": float(np.mean(pred != y01)),
            "prevalence": float(np.mean(y01)),
        }

    def _reports(self, X, y01):
        if len(X) < self.min_window:
            return [DriftReport(
                detector="insufficient_window", level=DriftLevel.OK,
                statistic=np.nan, warn_threshold=np.nan, alarm_threshold=np.nan,
                detail={"n": float(len(X)), "min_window": float(self.min_window)},
            )]
        reports = [FeatureDriftDetector(self.sketch).check(self.sketch.binner_.transform(X))]
        if self.ddm_report is not None:
            reports.append(self.ddm_report)
        if 0.0 < self.prevalence < 1.0:
            reports.append(PrevalenceShiftDetector(self.prevalence).check(y01))
        return sorted(reports, key=lambda r: r.level, reverse=True)


DriftMonitorMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
TestDriftMonitorMachine = DriftMonitorMachine.TestCase
