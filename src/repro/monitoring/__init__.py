"""Post-deployment monitoring: prequential evaluation + drift detection.

The paper's setting is *massive, highly imbalanced* streams; this package
closes the gap between "deployed" and "still correct". Two layers:

* :mod:`repro.monitoring.drift` — typed :class:`DriftReport` s with
  ordered warn/alarm :class:`DriftLevel` s from three detectors:
  :class:`FeatureDriftDetector` (per-feature PSI + KS of a window's bin
  codes against a training-time :class:`ReferenceSketch`),
  :class:`DDMDetector` (Gama-style error-rate concept drift), and
  :class:`PrevalenceShiftDetector` (two-proportion z-test on the minority
  prior).
* :mod:`repro.monitoring.monitor` — :class:`DriftMonitor`, the bundle a
  serving loop actually holds: one ``observe`` per scored batch (labels
  may lag and arrive through ``observe_labels``), one ``check`` per
  decision point, ``metrics()`` for the window's imbalance-aware
  prequential metrics (AUPRC, F1 and minority recall at the serving
  threshold, error rate, prevalence; ``nan`` on the all-majority windows
  imbalanced traffic routinely produces), and ``window()`` to hand the
  retained ``(X, y, score)`` to a retrain. Each labelled row is binned in
  the reference sketch once and kept, with its features, score and raw
  label, in one :class:`RingWindow`.

:mod:`repro.lifecycle` consumes these reports to decide *when* to retrain
and *whether* to promote. See ``DESIGN.md`` → "Monitoring".
"""

from .drift import (
    DDMDetector,
    DriftLevel,
    DriftReport,
    FeatureDriftDetector,
    PrevalenceShiftDetector,
    ReferenceSketch,
)
from .monitor import DriftMonitor, RingWindow

__all__ = [
    "DDMDetector",
    "DriftLevel",
    "DriftMonitor",
    "DriftReport",
    "FeatureDriftDetector",
    "PrevalenceShiftDetector",
    "ReferenceSketch",
    "RingWindow",
]
