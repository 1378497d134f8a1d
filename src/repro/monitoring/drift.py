"""Drift detection: covariate, concept, and prior shift with typed reports.

Three detectors, one report type:

* :class:`FeatureDriftDetector` — **covariate** drift. At training time a
  :class:`ReferenceSketch` captures one quantile histogram per feature
  (cut points from the existing :class:`~repro.tree._binning.FeatureBinner`
  — the same binning machinery the fastpath trains on — with counts
  accumulated block-by-block, so the sketch streams over a
  :class:`~repro.streaming.DataSource` in bounded memory exactly like
  :class:`~repro.streaming.StreamingBinStats` does for hardness). A live
  window, binned once into the sketch's codes
  (:meth:`ReferenceSketch.codes`), is scored against it per feature with

  - **PSI** (population stability index),
    ``sum_i (p_i - q_i) * ln(p_i / q_i)`` over the reference bins with
    Laplace-style smoothing; the industry rule of thumb is warn ≥ 0.1,
    alarm ≥ 0.25, and
  - a histogram-approximated **KS statistic**,
    ``max_i |CDF_ref(i) - CDF_win(i)|`` over the shared bin edges,

  and the reported statistic is the worst feature's.

* :class:`DDMDetector` — **concept** drift via the Drift Detection Method
  of Gama et al. (2004) on the prequential 0/1 error stream: with ``p_t``
  the running error rate after ``t`` labeled rows and
  ``s_t = sqrt(p_t (1 - p_t) / t)``, the detector remembers the best
  ``p_min + s_min`` and flags *warn* / *alarm* when ``p_t + s_t`` rises
  more than 2 / 3 combined deviations (``sqrt(s_min² + s_t²)``) above it —
  the error of a fitted model on a stationary stream is a binomial whose
  rate should not rise, so a sustained climb past the confidence band
  means the concept moved. (Classic DDM widths the band by ``s_min``
  alone; see the class docstring for why the combined deviation is used.)

* :class:`PrevalenceShiftDetector` — **prior** drift: a two-proportion
  z-test of the window's minority rate against the training prevalence.
  On 578:1 fraud traffic the prior is the single most load-bearing number
  the ensemble was trained against; warn at ``|z| >= 2``, alarm at
  ``|z| >= 3`` by default.

Every check returns a :class:`DriftReport` (detector name, ordered
:class:`DriftLevel`, statistic, thresholds, per-feature detail). All the
statistics are deterministic functions of the data; the only randomness
anywhere is the optional subsample in :meth:`ReferenceSketch.fit`, which
takes a seed — so a seeded monitoring run is exactly reproducible.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from ..tree._binning import FeatureBinner
from ..utils.validation import check_array, check_random_state

__all__ = [
    "DDMDetector",
    "DriftLevel",
    "DriftReport",
    "FeatureDriftDetector",
    "PrevalenceShiftDetector",
    "ReferenceSketch",
]


class DriftLevel(enum.IntEnum):
    """Ordered severity: ``OK < WARN < ALARM`` (so ``max()`` aggregates)."""

    OK = 0
    WARN = 1
    ALARM = 2


@dataclass(frozen=True)
class DriftReport:
    """One detector's verdict on the current window.

    ``statistic`` is the detector's scalar evidence (worst-feature PSI,
    DDM's ``p + s``, the prevalence |z|), comparable against
    ``warn_threshold`` / ``alarm_threshold``; ``detail`` carries
    detector-specific context (per-feature PSI/KS, window rates, ...).
    """

    detector: str
    level: DriftLevel
    statistic: float
    warn_threshold: float
    alarm_threshold: float
    detail: Dict[str, float] = field(default_factory=dict)

    @property
    def drifted(self) -> bool:
        """True when this report's level is ALARM."""
        return self.level is DriftLevel.ALARM

    def __str__(self) -> str:  # compact log line
        return (
            f"[{self.level.name}] {self.detector}: statistic="
            f"{self.statistic:.4f} (warn>={self.warn_threshold:.4g}, "
            f"alarm>={self.alarm_threshold:.4g})"
        )


# --------------------------------------------------------------------- #
# covariate drift
# --------------------------------------------------------------------- #
class ReferenceSketch:
    """Training-time per-feature histogram + minority prevalence.

    Fit once on the training distribution (in-memory matrix or streaming
    :class:`~repro.streaming.DataSource`); the sketch then scores any live
    window without ever touching the training data again. Memory is
    O(n_features × n_bins) — independent of training size.

    Attributes
    ----------
    binner_ : fitted :class:`~repro.tree._binning.FeatureBinner` holding
        the per-feature cut points (quantiles of the reference data).
    counts_ : (n_features, max_bins) reference populations per bin.
    n_rows_ : reference rows folded into the counts.
    prevalence_ : minority (label 1) fraction of the reference stream;
        ``nan`` when fitted without labels.
    """

    def __init__(self, n_bins: int = 16, max_fit_rows: int = 100_000):
        if n_bins < 2:
            raise ValueError("n_bins must be >= 2")
        self.n_bins = int(n_bins)
        self.max_fit_rows = int(max_fit_rows)

    # ------------------------------------------------------------------ #
    def fit(self, X, y=None, random_state=None, positive_label=1) -> "ReferenceSketch":
        """Build the sketch from an in-memory reference matrix.

        ``max_fit_rows`` caps the rows used for quantile estimation (a
        seeded uniform subsample keeps it deterministic); the histogram
        counts still cover every row. ``positive_label`` names the
        minority label for the prevalence baseline when the deployment
        uses a non-{0, 1} alphabet.
        """
        X = check_array(X)
        edges_X = X
        if len(X) > self.max_fit_rows:
            rng = check_random_state(random_state)
            pick = rng.choice(len(X), size=self.max_fit_rows, replace=False)
            edges_X = X[np.sort(pick)]
        self.binner_ = FeatureBinner(max_bins=self.n_bins).fit(edges_X)
        self._init_counts(X.shape[1])
        self._fold(X)
        self.prevalence_ = float("nan")
        if y is not None:
            y = np.asarray(y)
            self.prevalence_ = float(np.mean(y == positive_label))
        return self

    def fit_source(self, source, positive_label=1) -> "ReferenceSketch":
        """Build the sketch from a :class:`~repro.streaming.DataSource` in
        one bounded-memory pass: quantile edges from the first
        ``max_fit_rows`` rows, counts and prevalence from every block.
        """
        head_blocks = []
        head_rows = 0
        n_minority = 0
        n_rows = 0
        blocks = source.iter_blocks()
        for X_block, y_block in blocks:
            X_block = np.asarray(X_block, dtype=np.float64)
            if head_rows < self.max_fit_rows:
                head_blocks.append(X_block)
                head_rows += len(X_block)
            if head_rows >= self.max_fit_rows:
                break
        if not head_blocks:
            raise ValueError("source yielded no rows")
        head = np.vstack(head_blocks)[: self.max_fit_rows]
        self.binner_ = FeatureBinner(max_bins=self.n_bins).fit(head)
        self._init_counts(head.shape[1])
        # second pass folds every block (including the head) into counts
        for X_block, y_block in source.iter_blocks():
            X_block = np.asarray(X_block, dtype=np.float64)
            self._fold(X_block)
            y_block = np.asarray(y_block)
            n_minority += int(np.sum(y_block == positive_label))
            n_rows += len(y_block)
        self.prevalence_ = n_minority / n_rows if n_rows else float("nan")
        return self

    # ------------------------------------------------------------------ #
    def _init_counts(self, n_features: int) -> None:
        self.n_features_ = int(n_features)
        width = int(self.binner_.n_bins_.max())
        self.counts_ = np.zeros((n_features, width), dtype=np.int64)
        self.n_rows_ = 0

    def _fold(self, X: np.ndarray) -> None:
        self.counts_ += self.bin_counts(self.codes(X))
        self.n_rows_ += len(X)

    @property
    def code_dtype(self) -> np.dtype:
        """The smallest unsigned dtype that holds ``n_bins`` codes."""
        return np.min_scalar_type(self.n_bins - 1)

    def codes(self, X) -> np.ndarray:
        """Every value's bin in this sketch, as :attr:`code_dtype`."""
        codes = self.binner_.transform(check_array(X, min_samples=0))
        return codes.astype(self.code_dtype)

    def bin_counts(self, codes: np.ndarray) -> np.ndarray:
        """Populations of :meth:`codes` output in this sketch's bins:
        (n_features, max_bins), one ``bincount`` over every feature."""
        width = self.counts_.shape[1]
        flat = codes + np.arange(0, self.counts_.size, width)
        counts = np.bincount(flat.ravel(), minlength=self.counts_.size)
        return counts.reshape(self.counts_.shape)


def _psi(p_counts: np.ndarray, q_counts: np.ndarray) -> float:
    """Population stability index between two count vectors (smoothed)."""
    p = (p_counts + 0.5) / (p_counts.sum() + 0.5 * len(p_counts))
    q = (q_counts + 0.5) / (q_counts.sum() + 0.5 * len(q_counts))
    return float(np.sum((p - q) * np.log(p / q)))


def _ks(p_counts: np.ndarray, q_counts: np.ndarray) -> float:
    """Histogram-approximated Kolmogorov–Smirnov statistic."""
    p_cdf = np.cumsum(p_counts) / max(p_counts.sum(), 1)
    q_cdf = np.cumsum(q_counts) / max(q_counts.sum(), 1)
    return float(np.max(np.abs(p_cdf - q_cdf)))


class FeatureDriftDetector:
    """Score live windows against a :class:`ReferenceSketch` with PSI + KS.

    The report's ``statistic`` is the worst per-feature PSI (the standard
    actioned number); ``detail`` carries that feature's index, its KS, and
    the window-wide maxima so dashboards can drill in. A feature alarms
    when *either* its PSI or its KS crosses the alarm threshold — PSI is
    sensitive to mass moving between bins, KS to consistent directional
    shift — and the overall level is the worst feature's.
    """

    def __init__(
        self,
        sketch: ReferenceSketch,
        *,
        psi_warn: float = 0.1,
        psi_alarm: float = 0.25,
        ks_warn: float = 0.15,
        ks_alarm: float = 0.3,
    ):
        if not (0 < psi_warn <= psi_alarm and 0 < ks_warn <= ks_alarm):
            raise ValueError("warn thresholds must be in (0, alarm]")
        self.sketch = sketch
        self.psi_warn = float(psi_warn)
        self.psi_alarm = float(psi_alarm)
        self.ks_warn = float(ks_warn)
        self.ks_alarm = float(ks_alarm)

    def check(self, codes) -> DriftReport:
        """PSI + KS of a window, given as its :meth:`ReferenceSketch.codes`,
        against the reference sketch."""
        window_counts = self.sketch.bin_counts(codes)
        psi = np.empty(self.sketch.n_features_)
        ks = np.empty(self.sketch.n_features_)
        for j in range(self.sketch.n_features_):
            n_bins = int(self.sketch.binner_.n_bins_[j])
            ref = self.sketch.counts_[j, :n_bins]
            win = window_counts[j, :n_bins]
            psi[j] = _psi(ref, win)
            ks[j] = _ks(ref, win)
        worst = int(np.argmax(psi))
        level = DriftLevel.OK
        if psi.max() >= self.psi_warn or ks.max() >= self.ks_warn:
            level = DriftLevel.WARN
        if psi.max() >= self.psi_alarm or ks.max() >= self.ks_alarm:
            level = DriftLevel.ALARM
        return DriftReport(
            detector="feature_psi_ks",
            level=level,
            statistic=float(psi.max()),
            warn_threshold=self.psi_warn,
            alarm_threshold=self.psi_alarm,
            detail={
                "worst_feature": float(worst),
                "worst_feature_ks": float(ks[worst]),
                "max_ks": float(ks.max()),
                "n_window_rows": float(len(codes)),
            },
        )


# --------------------------------------------------------------------- #
# concept drift (error rate)
# --------------------------------------------------------------------- #
class DDMDetector:
    """Drift Detection Method (Gama et al. 2004) over a 0/1 error stream.

    Feed the prequential error indicators in arrival order through
    :meth:`update`; the detector keeps the running error rate ``p``, its
    binomial deviation ``s``, and the historical minimum of ``p + s``.
    A rise of ``p + s`` more than ``warn_sigmas`` (default 2) combined
    deviations ``sqrt(s_min² + s²)`` above that minimum is *warn*,
    ``alarm_sigmas`` (default 3) is *alarm* — strictly, since a
    zero-error history yields a zero-width band where equality means
    "still perfect", not drift. The band deliberately refines classic
    DDM's ``k·s_min``: on a long stationary stream ``s_min`` keeps
    shrinking while the current estimate still fluctuates by ``±s``, so
    the classic band drops below natural noise and over-alarms; adding
    the current deviation in quadrature keeps the false-alarm rate
    calibrated without losing real shifts (which move ``p`` by far more
    than either deviation). After an alarm the baseline resets (the next
    model's error statistics start clean). Purely counting —
    deterministic by construction.
    """

    def __init__(self, *, warn_sigmas: float = 2.0, alarm_sigmas: float = 3.0,
                 min_samples: int = 30):
        if not 0 < warn_sigmas <= alarm_sigmas:
            raise ValueError("need 0 < warn_sigmas <= alarm_sigmas")
        self.warn_sigmas = float(warn_sigmas)
        self.alarm_sigmas = float(alarm_sigmas)
        self.min_samples = int(min_samples)
        self.reset()

    def reset(self) -> None:
        """Forget the error history (call after swapping in a new model)."""
        self.n = 0
        self.n_errors = 0
        self.p_min = np.inf
        self.s_min = np.inf

    def update(self, errors) -> DriftReport:
        """Fold a block of 0/1 error indicators in; report the new state."""
        errors = np.atleast_1d(np.asarray(errors)).astype(np.int64)
        if errors.size and not np.isin(errors, (0, 1)).all():
            raise ValueError("DDM consumes 0/1 error indicators")
        self.n += int(errors.size)
        self.n_errors += int(errors.sum())
        if self.n < self.min_samples:
            return self._report(DriftLevel.OK, float("nan"))
        p = self.n_errors / self.n
        s = float(np.sqrt(p * (1.0 - p) / self.n))
        if p + s < self.p_min + self.s_min:
            self.p_min, self.s_min = p, s
        level = DriftLevel.OK
        # Band width: classic DDM uses k·s_min alone, but s_min shrinks as
        # the stream grows while the *current* estimate still fluctuates by
        # ±s — on long stationary streams the band tightens below natural
        # noise and over-alarms. Combining both deviations in quadrature
        # keeps the band calibrated to the noise actually present; a real
        # concept shift moves p by far more than either deviation.
        # Strict comparisons: a zero-error history gives p_min = s_min = 0
        # and a zero-width band; equality there is "no rise", not drift.
        band = float(np.sqrt(self.s_min**2 + s**2))
        if p + s > self.p_min + self.s_min + self.alarm_sigmas * band:
            level = DriftLevel.ALARM
        elif p + s > self.p_min + self.s_min + self.warn_sigmas * band:
            level = DriftLevel.WARN
        report = self._report(level, p + s, p=p, s=s)
        if level is DriftLevel.ALARM:
            self.reset()
        return report

    def _report(self, level: DriftLevel, statistic: float, **extra) -> DriftReport:
        p_min = self.p_min if np.isfinite(self.p_min) else float("nan")
        s_min = self.s_min if np.isfinite(self.s_min) else float("nan")
        s_now = extra.get("s", float("nan"))
        band = float(np.sqrt(s_min**2 + s_now**2))
        detail = {"n": float(self.n), "p_min": p_min, "s_min": s_min}
        detail.update({k: float(v) for k, v in extra.items()})
        return DriftReport(
            detector="error_rate_ddm",
            level=level,
            statistic=float(statistic),
            warn_threshold=p_min + s_min + self.warn_sigmas * band,
            alarm_threshold=p_min + s_min + self.alarm_sigmas * band,
            detail=detail,
        )


# --------------------------------------------------------------------- #
# prior drift (minority prevalence)
# --------------------------------------------------------------------- #
class PrevalenceShiftDetector:
    """Two-proportion z-test of window minority rate vs training prior.

    ``z = (p_hat - p0) / sqrt(p0 (1 - p0) / n)`` where ``p0`` is the
    training prevalence and ``p_hat`` the window's. The self-paced
    under-sampling ratio, the decision threshold, and the packed kernels'
    calibration all assume the training prior; a significant shift is
    actionable even when feature marginals look stable.
    """

    def __init__(self, reference_prevalence: float, *, warn_z: float = 2.0,
                 alarm_z: float = 3.0):
        if not 0.0 < reference_prevalence < 1.0:
            raise ValueError(
                "reference_prevalence must be in (0, 1) — fit the sketch "
                "with labels, or pass the training minority fraction"
            )
        if not 0 < warn_z <= alarm_z:
            raise ValueError("need 0 < warn_z <= alarm_z")
        self.reference_prevalence = float(reference_prevalence)
        self.warn_z = float(warn_z)
        self.alarm_z = float(alarm_z)

    def check(self, y_window) -> DriftReport:
        """Two-proportion z-test of window prevalence vs the reference."""
        y = np.atleast_1d(np.asarray(y_window)).astype(np.int64)
        p0 = self.reference_prevalence
        if y.size == 0:
            z = 0.0
            p_hat = float("nan")
        else:
            p_hat = float(np.mean(y == 1))
            z = (p_hat - p0) / float(np.sqrt(p0 * (1.0 - p0) / y.size))
        level = DriftLevel.OK
        if abs(z) >= self.alarm_z:
            level = DriftLevel.ALARM
        elif abs(z) >= self.warn_z:
            level = DriftLevel.WARN
        return DriftReport(
            detector="minority_prevalence",
            level=level,
            statistic=float(abs(z)),
            warn_threshold=self.warn_z,
            alarm_threshold=self.alarm_z,
            detail={
                "z": float(z),
                "window_prevalence": p_hat,
                "reference_prevalence": p0,
                "n": float(y.size),
            },
        )
