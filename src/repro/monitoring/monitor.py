"""One object that watches a served stream: scores, labels, features.

:class:`DriftMonitor` bundles the windowed prequential evaluator with the
three drift detectors and the feature ring the covariate detector needs:

* every scored batch goes through :meth:`observe` (features + positive
  scores, labels optionally delayed via :meth:`observe_labels`);
* :meth:`check` runs all detectors on the current window and returns the
  typed :class:`~repro.monitoring.DriftReport` list, worst level first;
* :meth:`window` hands back the retained ``(X, y)`` window — exactly what
  a retrain needs, wrapped as an :class:`~repro.streaming.ArraySource` by
  :meth:`window_source` so the streaming trainers can consume it
  unchanged.

The monitor's memory is bounded: at most ``window_size`` *labeled* rows
per window, plus at most ``max_pending`` rows awaiting delayed labels —
beyond that :meth:`DriftMonitor.observe` raises instead of growing
without limit (backpressure, like the server's bounded queue), so a
long-running serving process pays a fixed, configured price for
observability no matter how much traffic it sees.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from .. import telemetry
from .drift import (
    DDMDetector,
    DriftLevel,
    DriftReport,
    FeatureDriftDetector,
    PrevalenceShiftDetector,
    ReferenceSketch,
)
from .prequential import PrequentialEvaluator, RingWindow

__all__ = ["DriftMonitor"]


class DriftMonitor:
    """Windowed drift + performance monitoring for a served model.

    Parameters
    ----------
    reference : fitted :class:`~repro.monitoring.ReferenceSketch`
        Training-time feature histograms and minority prevalence. Must be
        fitted with labels (or pass ``reference_prevalence``) for the
        prior-shift detector to engage.
    window_size : int, default 2000
        Rows retained for every window (features, scores, labels).
    threshold : float, default 0.5
        Decision threshold for the error stream (match the server's).
    min_window : int, default 200
        Detectors stay silent (``OK``, statistic nan) until this many
        labeled rows are in the window — drift claims off a nearly empty
        window are noise.
    positive_label : default 1
        The traffic label counted as the minority/positive class. The
        deployment's label alphabet passes through untouched — the raw
        labels are what :meth:`window` / :meth:`window_source` hand to
        retraining, so a challenger keeps the champion's ``classes_`` —
        while the error stream, prevalence test, and window metrics
        compare against this label.
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
        if min_window < 1:
            raise ValueError("min_window must be >= 1")
        if max_pending is None:
            max_pending = 4 * int(window_size)
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        self.reference = reference
        self.min_window = int(min_window)
        self.positive_label = positive_label
        self.max_pending = int(max_pending)
        self.evaluator = PrequentialEvaluator(window_size, threshold=threshold)
        self._psi_warn, self._psi_alarm = psi_warn, psi_alarm
        self._ks_warn, self._ks_alarm = ks_warn, ks_alarm
        self._warn_z, self._alarm_z = warn_z, alarm_z
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
        self._X = RingWindow(window_size, n_columns=reference.n_features_)
        # raw (un-encoded) labels, aligned with _X — object dtype so any
        # binary alphabet ({-1, 1}, strings, ...) passes through to
        # retraining unchanged
        self._y_raw = RingWindow(window_size, dtype=object)
        self._X_pending: List[np.ndarray] = []
        self._n_pending_rows = 0
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
        self.prevalence_detector = (
            PrevalenceShiftDetector(
                prevalence, warn_z=self._warn_z, alarm_z=self._alarm_z
            )
            if np.isfinite(prevalence) and 0.0 < prevalence < 1.0
            else None
        )

    # ------------------------------------------------------------------ #
    def observe(self, X_batch, y_score, y_true=None) -> None:
        """Record one scored batch.

        ``y_score`` is the positive-class probability per row. Pass
        ``y_true`` when labels arrive with the rows; otherwise deliver
        them later (in row order) through :meth:`observe_labels`.
        Features enter the covariate window only when their labels land,
        keeping all three windows aligned on the same rows.
        """
        X_batch = np.atleast_2d(np.asarray(X_batch, dtype=np.float64))
        y_score = np.atleast_1d(np.asarray(y_score, dtype=np.float64))
        if len(X_batch) != len(y_score):
            raise ValueError(
                f"{len(X_batch)} feature rows but {len(y_score)} scores"
            )
        if y_true is None and self._n_pending_rows + len(X_batch) > self.max_pending:
            raise ValueError(
                f"{self._n_pending_rows + len(X_batch)} rows awaiting labels "
                f"would exceed max_pending={self.max_pending}; deliver labels "
                "via observe_labels or raise max_pending"
            )
        self.evaluator.push_scores(y_score)
        self._m_rows.inc(len(X_batch))
        self._X_pending.append(X_batch)
        self._n_pending_rows += len(X_batch)
        if y_true is not None:
            self.observe_labels(y_true)

    def observe_labels(self, y_true) -> None:
        """Deliver delayed ground truth for the oldest unlabeled rows.

        Labels keep whatever alphabet the deployment uses; rows equal to
        :attr:`positive_label` count as minority for the error stream and
        the prevalence test.
        """
        y_raw = np.atleast_1d(np.asarray(y_true))
        n = len(y_raw)
        pending = np.concatenate(self._X_pending) if self._X_pending else None
        if pending is None or len(pending) < n:
            raise ValueError("more labels than observed feature rows")
        y01 = (y_raw == self.positive_label).astype(np.int64)
        scores = self.evaluator.push_labels(y01)
        # Move the now-labeled feature rows into the covariate window and
        # feed the fresh error indicators to DDM, preserving arrival order.
        self._X.extend(pending[:n])
        self._y_raw.extend(np.asarray(y_raw, dtype=object))
        rest = pending[n:]
        self._X_pending = [rest] if len(rest) else []
        self._n_pending_rows -= n
        errors = (
            (scores >= self.evaluator.threshold).astype(np.int64) != y01
        ).astype(np.int64)
        self._ddm_report = self.ddm.update(errors)

    # ------------------------------------------------------------------ #
    def window(self):
        """Aligned ``(X, y, score)`` arrays of the labeled window.

        ``y`` carries the deployment's raw label alphabet (natural numpy
        dtype), so retraining from it preserves the champion's
        ``classes_``.
        """
        _, score = self.evaluator.window()
        y_raw = self._y_raw.values()
        # object ring -> natural dtype (int64 for ints, <U for strings)
        y = np.asarray(y_raw.tolist()) if y_raw.size else np.array([], dtype=np.int64)
        return self._X.values(), y, score

    def window_source(self, block_size: Optional[int] = None):
        """The labeled window as an :class:`~repro.streaming.ArraySource` —
        the exact input :meth:`SelfPacedEnsembleClassifier.fit_source
        <repro.core.SelfPacedEnsembleClassifier.fit_source>` retrains
        from."""
        from ..streaming import ArraySource

        X, y, _ = self.window()
        return ArraySource(X, y, block_size=block_size)

    def metrics(self) -> Dict[str, float]:
        """Windowed prequential metrics (see
        :meth:`PrequentialEvaluator.metrics`)."""
        return self.evaluator.metrics()

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
        X, y, _ = self.window()
        if len(y) < self.min_window:
            return [
                DriftReport(
                    detector="insufficient_window",
                    level=DriftLevel.OK,
                    statistic=float("nan"),
                    warn_threshold=float("nan"),
                    alarm_threshold=float("nan"),
                    detail={"n": float(len(y)), "min_window": float(self.min_window)},
                )
            ]
        reports = [self.feature_detector.check(X)]
        if self._ddm_report is not None:
            reports.append(self._ddm_report)
        if self.prevalence_detector is not None:
            y01 = (y == self.positive_label).astype(np.int64)
            reports.append(self.prevalence_detector.check(y01))
        reports.sort(key=lambda r: r.level, reverse=True)
        return reports

    def worst_level(self) -> DriftLevel:
        """Highest drift level over all detectors' current reports."""
        return max((r.level for r in self.check()), default=DriftLevel.OK)

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
        prevalence baseline; the promotion workflow
        (:class:`~repro.lifecycle.LifecycleController`) passes the
        challenger's training window.
        """
        new_sketch = ReferenceSketch(
            n_bins=self.reference.n_bins,
            max_fit_rows=self.reference.max_fit_rows,
        ).fit(X, y, random_state=random_state, positive_label=self.positive_label)
        self.reference = new_sketch
        self.feature_detector = FeatureDriftDetector(
            new_sketch,
            psi_warn=self._psi_warn,
            psi_alarm=self._psi_alarm,
            ks_warn=self._ks_warn,
            ks_alarm=self._ks_alarm,
        )
        self._set_prevalence_detector(new_sketch.prevalence_)
