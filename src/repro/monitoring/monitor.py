"""One object that watches a served stream: scores, labels, features.

:class:`DriftMonitor` keeps the labelled window of a served model and
runs the three drift detectors and the prequential metrics over it:

* every scored batch goes through :meth:`observe` (features + positive
  scores) and waits in one pending buffer until its labels land, with
  the batch or later, in row order, through :meth:`observe_labels`;
* a row is binned in the reference sketch once, when its label lands,
  and enters one :class:`RingWindow` that keeps its features, bin codes,
  score and raw label aligned;
* :meth:`check` runs every detector on the window (the covariate one only
  counts the code column) and returns the typed
  :class:`~repro.monitoring.DriftReport` list, worst level first;
* :meth:`metrics` computes the window's imbalance-aware metrics, and
  :meth:`window` hands back the retained ``(X, y, score)`` a retrain
  needs.

Prequential ("predict, then evaluate") evaluation is the standard
protocol for data streams: each row is scored by the live model first and
counted only when its label arrives. On fraud traffic the chargeback
label lags the transaction by days, so labels are joined to the *oldest*
unlabelled rows. Windows over highly imbalanced traffic are routinely
all-majority; the ranking metrics are then ``nan`` (their
:class:`~repro.exceptions.UndefinedMetricWarning` is suppressed: for a
monitoring window that is the expected idle state), and the loop keeps
running.

The monitor's memory is bounded: at most ``window_size`` labelled rows,
plus at most ``max_pending`` rows awaiting delayed labels — beyond that
:meth:`DriftMonitor.observe` raises instead of growing without limit
(backpressure, like the server's bounded queue), so a long-running
serving process pays a fixed, configured price for observability no
matter how much traffic it sees.
"""

from __future__ import annotations

import warnings
from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import telemetry
from ..exceptions import DataValidationError, UndefinedMetricWarning
from ..metrics import average_precision_score, f1_score, recall_score
from ..utils.validation import check_array
from .drift import (
    DDMDetector,
    DriftLevel,
    DriftReport,
    FeatureDriftDetector,
    PrevalenceShiftDetector,
    ReferenceSketch,
)

__all__ = ["DriftMonitor", "RingWindow"]


class RingWindow:
    """Fixed-capacity ring of aligned, named columns.

    ``RingWindow(capacity, X=((n_features,), np.float64), y=((), object))``
    preallocates one ``(capacity, *row_shape)`` array per column.
    :meth:`extend` appends one equally long block to every column and
    overwrites the oldest rows once at capacity; :meth:`values` returns a
    column's live rows in arrival order. Memory is bounded by the capacity
    however long the stream runs.
    """

    def __init__(self, capacity: int, **columns):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self._data = {
            name: np.empty((self.capacity, *shape), dtype=dtype)
            for name, (shape, dtype) in columns.items()
        }
        self._pos = 0
        self._filled = 0

    def __len__(self) -> int:
        return self._filled

    def extend(self, **blocks) -> None:
        """Append one block of rows to every column, evicting the oldest
        rows once at capacity."""
        if blocks.keys() != self._data.keys():
            raise ValueError(
                f"extend takes the columns {sorted(self._data)}, got {sorted(blocks)}"
            )
        blocks = {
            name: np.asarray(rows, dtype=self._data[name].dtype)
            for name, rows in blocks.items()
        }
        n = len(next(iter(blocks.values())))
        for name, rows in blocks.items():
            if rows.shape != (n, *self._data[name].shape[1:]):
                raise ValueError(
                    f"column {name!r} got rows of shape {rows.shape}, expected "
                    f"{(n, *self._data[name].shape[1:])}"
                )
        keep = min(n, self.capacity)  # only the newest rows survive
        slots = (self._pos + n - keep + np.arange(keep)) % self.capacity
        for name, rows in blocks.items():
            self._data[name][slots] = rows[n - keep:]
        self._pos = (self._pos + n) % self.capacity
        self._filled = min(self.capacity, self._filled + n)

    def values(self, name: str) -> np.ndarray:
        """Live rows of column ``name``, oldest first (a copy)."""
        data = self._data[name]
        if self._filled < self.capacity:
            return data[: self._filled].copy()
        return np.concatenate([data[self._pos :], data[: self._pos]])

    def clear(self) -> None:
        """Empty every column."""
        self._pos = 0
        self._filled = 0


class DriftMonitor:
    """Windowed drift + performance monitoring for a served model.

    Parameters
    ----------
    reference : fitted :class:`~repro.monitoring.ReferenceSketch`
        Training-time feature histograms and minority prevalence. Must be
        fitted with labels (or pass ``reference_prevalence``) for the
        prior-shift detector to engage.
    window_size : int, default 2000
        Labelled rows retained in the window (features, codes, scores,
        labels).
    threshold : float, default 0.5
        Decision threshold for F1, minority recall and the error stream
        (match the server's).
    min_window : int, default 200
        Detectors stay silent (``OK``, statistic nan) until this many
        labeled rows are in the window — drift claims off a nearly empty
        window are noise.
    positive_label : default 1
        The traffic label counted as the minority/positive class. The
        deployment's label alphabet passes through untouched — the raw
        labels are what :meth:`window` hands to retraining, so a
        challenger keeps the champion's ``classes_`` — while the error
        stream, prevalence test, and window metrics compare against this
        label.
    max_pending : int, optional (default ``4 * window_size``)
        Bound on rows awaiting delayed labels; :meth:`observe` raises
        beyond it rather than growing without limit. Size it to
        ``traffic rate × label delay``.
    reference_prevalence : float, optional
        Overrides ``reference.prevalence_`` for the prior-shift test.
    detector kwargs : ``psi_warn``/``psi_alarm``/``ks_warn``/``ks_alarm``,
        ``warn_sigmas``/``alarm_sigmas``, ``warn_z``/``alarm_z`` pass
        through to the respective detectors.
    """

    def __init__(
        self,
        reference: ReferenceSketch,
        *,
        window_size: int = 2000,
        threshold: float = 0.5,
        min_window: int = 200,
        positive_label=1,
        max_pending: Optional[int] = None,
        reference_prevalence: Optional[float] = None,
        psi_warn: float = 0.1,
        psi_alarm: float = 0.25,
        ks_warn: float = 0.15,
        ks_alarm: float = 0.3,
        warn_sigmas: float = 2.0,
        alarm_sigmas: float = 3.0,
        warn_z: float = 2.0,
        alarm_z: float = 3.0,
    ):
        if not 0.0 <= float(threshold) <= 1.0:
            raise ValueError(f"threshold must be in [0, 1], got {threshold}")
        if min_window < 1:
            raise ValueError("min_window must be >= 1")
        if max_pending is None:
            max_pending = 4 * int(window_size)
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        self.reference = reference
        self.threshold = float(threshold)
        self.min_window = int(min_window)
        self.positive_label = positive_label
        self.max_pending = int(max_pending)
        self._prevalence_z = (warn_z, alarm_z)
        self.feature_detector = FeatureDriftDetector(
            reference,
            psi_warn=psi_warn,
            psi_alarm=psi_alarm,
            ks_warn=ks_warn,
            ks_alarm=ks_alarm,
        )
        self.ddm = DDMDetector(
            warn_sigmas=warn_sigmas, alarm_sigmas=alarm_sigmas
        )
        self._set_prevalence_detector(
            reference_prevalence
            if reference_prevalence is not None
            else reference.prevalence_
        )
        row = (reference.n_features_,)
        self._window = RingWindow(
            window_size,
            X=(row, np.float64),
            codes=(row, reference.code_dtype),
            score=((), np.float64),
            # raw labels as objects, so any binary alphabet ({-1, 1},
            # strings, ...) passes through to retraining unchanged
            y=((), object),
        )
        # scored (features, scores) batches whose labels have not landed
        self._pending: List[Tuple[np.ndarray, np.ndarray]] = []
        self.n_pending = 0
        self._ddm_report: Optional[DriftReport] = None
        self._init_metrics()

    def _init_metrics(self) -> None:
        """Declare this monitor's metrics on its own scope."""
        m = telemetry.MetricScope("monitor")
        self.telemetry_label_ = m.label
        self._m_rows = m.counter("repro_monitor_rows_total",
                                 "Scored rows observed by the drift monitor.")
        self._m_checks = m.counter(
            "repro_monitor_checks_total",
            "Detector sweeps run over the labeled window.")
        self._h_check = m.histogram("repro_monitor_check_seconds",
                                    "Duration of one full detector sweep.")
        self._g_level = m.gauge(
            "repro_monitor_drift_level",
            "Latest drift level per detector: 0 OK, 1 WARN, 2 ALARM.",
            labels=("detector",))

    def _set_prevalence_detector(self, prevalence: float) -> None:
        warn_z, alarm_z = self._prevalence_z
        self.prevalence_detector = (
            PrevalenceShiftDetector(prevalence, warn_z=warn_z, alarm_z=alarm_z)
            if np.isfinite(prevalence) and 0.0 < prevalence < 1.0
            else None
        )

    # ------------------------------------------------------------------ #
    def observe(self, X_batch, y_score, y_true=None) -> None:
        """Record one scored batch.

        ``y_score`` is the positive-class probability per row. Pass
        ``y_true`` when labels arrive with the rows; otherwise deliver
        them later (in row order) through :meth:`observe_labels`. Rows
        enter the window only when their labels land. Non-finite
        features, or a width other than the reference sketch's, raise
        :class:`~repro.exceptions.DataValidationError` before anything
        is buffered.
        """
        X_batch = np.atleast_2d(np.asarray(X_batch, dtype=np.float64))
        X_batch = check_array(X_batch, min_samples=0)
        if X_batch.shape[1] != self.reference.n_features_:
            raise DataValidationError(
                f"batch has {X_batch.shape[1]} features; the reference "
                f"sketch has {self.reference.n_features_}"
            )
        y_score = np.atleast_1d(np.asarray(y_score, dtype=np.float64))
        if len(X_batch) != len(y_score):
            raise ValueError(
                f"{len(X_batch)} feature rows but {len(y_score)} scores"
            )
        if y_true is None and self.n_pending + len(X_batch) > self.max_pending:
            raise ValueError(
                f"{self.n_pending + len(X_batch)} rows awaiting labels "
                f"would exceed max_pending={self.max_pending}; deliver labels "
                "via observe_labels or raise max_pending"
            )
        self._m_rows.inc(len(X_batch))
        self._pending.append((X_batch, y_score))
        self.n_pending += len(X_batch)
        if y_true is not None:
            self.observe_labels(y_true)

    def observe_labels(self, y_true) -> None:
        """Deliver delayed ground truth for the oldest unlabeled rows.

        Labels keep whatever alphabet the deployment uses; rows equal to
        :attr:`positive_label` count as minority for the error stream and
        the prevalence test. The labelled rows are binned in the
        reference sketch and enter the window.
        """
        y_raw = np.atleast_1d(np.asarray(y_true))
        n = len(y_raw)
        if not self._pending or n > self.n_pending:
            raise ValueError("more labels than observed feature rows")
        X, score = (np.concatenate(column) for column in zip(*self._pending))
        self._pending = [(X[n:], score[n:])] if n < len(X) else []
        self.n_pending -= n
        X, score = X[:n], score[:n]
        self._window.extend(
            X=X, codes=self.reference.codes(X), score=score, y=y_raw.astype(object)
        )
        errors = (score >= self.threshold) != (y_raw == self.positive_label)
        self._ddm_report = self.ddm.update(errors.astype(np.int64))

    # ------------------------------------------------------------------ #
    def window(self):
        """Aligned ``(X, y, score)`` arrays of the labeled window.

        ``y`` carries the deployment's raw label alphabet (natural numpy
        dtype), so retraining from it preserves the champion's
        ``classes_``.
        """
        y = self._window.values("y")
        # object column -> natural dtype (int64 for ints, <U for strings)
        y = np.asarray(y.tolist()) if y.size else np.array([], dtype=np.int64)
        return self._window.values("X"), y, self._window.values("score")

    def _positives(self) -> np.ndarray:
        """The window's labels as 0/1, 1 for :attr:`positive_label`."""
        return (self._window.values("y") == self.positive_label).astype(np.int64)

    def metrics(self) -> Dict[str, float]:
        """Imbalance-aware prequential metrics over the labeled window.

        Keys: ``n`` (window fill), ``auprc``, ``f1``, ``minority_recall``,
        ``error_rate``, ``prevalence``. Ranking metrics are ``nan`` for
        empty or single-class windows (expected on quiet imbalanced
        traffic; the warning is suppressed here).
        """
        y_true, y_score = self._positives(), self._window.values("score")
        if y_true.size == 0:
            return {
                "n": 0,
                "auprc": float("nan"),
                "f1": float("nan"),
                "minority_recall": float("nan"),
                "error_rate": float("nan"),
                "prevalence": float("nan"),
            }
        y_pred = (y_score >= self.threshold).astype(np.int64)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UndefinedMetricWarning)
            auprc = average_precision_score(y_true, y_score)
        single_class = np.unique(y_true).size < 2
        return {
            "n": int(y_true.size),
            "auprc": float(auprc),
            "f1": float("nan") if single_class else float(f1_score(y_true, y_pred)),
            "minority_recall": (
                float("nan")
                if not y_true.any()
                else float(recall_score(y_true, y_pred))
            ),
            "error_rate": float((y_pred != y_true).mean()),
            "prevalence": float(y_true.mean()),
        }

    def check(self) -> List[DriftReport]:
        """Run every detector on the current window; worst level first.

        Below ``min_window`` labeled rows all detectors report ``OK`` with
        a nan statistic — explicitly "not enough evidence", never a
        spurious alarm on a cold window.

        Each sweep publishes every report's level to the
        ``repro_monitor_drift_level{monitor,detector}`` gauge (0 OK,
        1 WARN, 2 ALARM) and times itself into
        ``repro_monitor_check_seconds``.
        """
        self._m_checks.inc()
        with telemetry.timer(self._h_check):
            reports = self._run_detectors()
        for report in reports:
            self._g_level.labels(report.detector).set(int(report.level))
        return reports

    def _run_detectors(self) -> List[DriftReport]:
        n = len(self._window)
        if n < self.min_window:
            return [
                DriftReport(
                    detector="insufficient_window",
                    level=DriftLevel.OK,
                    statistic=float("nan"),
                    warn_threshold=float("nan"),
                    alarm_threshold=float("nan"),
                    detail={"n": float(n), "min_window": float(self.min_window)},
                )
            ]
        reports = [self.feature_detector.check(self._window.values("codes"))]
        if self._ddm_report is not None:
            reports.append(self._ddm_report)
        if self.prevalence_detector is not None:
            reports.append(self.prevalence_detector.check(self._positives()))
        reports.sort(key=lambda r: r.level, reverse=True)
        return reports

    def reset_after_swap(self) -> None:
        """Reset the error baseline after a model swap.

        The DDM baseline is the old model's error statistics and must
        start clean. The labeled window (features, labels, *and* the old
        model's scores) is deliberately **retained**: the data side keeps
        feeding retrains and covariate checks, at the documented cost
        that :meth:`metrics` aggregates a mixed old/new-model window
        until ``window_size`` fresh rows have flowed through — read
        per-version quality from the lifecycle events / shadow results,
        not from the window metrics right after a swap."""
        self.ddm.reset()
        self._ddm_report = None

    def rebase_reference(self, X, y=None, random_state=None) -> None:
        """Refit the reference sketch on a new training distribution.

        Call when a retrained model is promoted: the promoted challenger
        learned the *drifted* distribution, so continuing to score traffic
        against the old sketch would re-alarm forever on what is now
        normal. Refits feature histograms (same binning config) and the
        prevalence baseline, and bins the window once in the new sketch;
        the promotion workflow
        (:class:`~repro.lifecycle.LifecycleController`) passes the
        challenger's training window.
        """
        self.reference = ReferenceSketch(
            n_bins=self.reference.n_bins,
            max_fit_rows=self.reference.max_fit_rows,
        ).fit(X, y, random_state=random_state, positive_label=self.positive_label)
        self.feature_detector.sketch = self.reference
        self._set_prevalence_detector(self.reference.prevalence_)
        X_win, score, y_raw = (self._window.values(k) for k in ("X", "score", "y"))
        self._window.clear()
        self._window.extend(
            X=X_win, codes=self.reference.codes(X_win), score=score, y=y_raw
        )
