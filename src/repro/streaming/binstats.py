"""Running per-bin hardness statistics over a value stream.

The in-memory sampler (:func:`repro.core.cut_hardness_bins`) bins hardness
over the *observed* min/max — impossible in one streaming pass, because the
range isn't known until the stream ends. :class:`StreamingBinStats` instead
bins over the paper's fixed ``H ∈ [0, 1]``, which every bounded hardness
function satisfies (unbounded ones are clipped), and folds each block into
running populations / hardness sums.
"""

from __future__ import annotations

import numpy as np

from ..core.binning import HardnessBins, finite_hardness_range

__all__ = ["StreamingBinStats"]


class StreamingBinStats:
    """Fixed-edge hardness bins maintained incrementally.

    Parameters
    ----------
    k_bins : int
        Number of equal-width bins over [0, 1]; values outside are clipped
        into the edge bins.

    Attributes
    ----------
    edges : (k+1,) bin boundaries.
    populations : (k,) samples seen per bin.
    sums : (k,) summed hardness per bin.
    n_seen : values folded in so far.
    """

    def __init__(self, k_bins: int):
        if k_bins < 1:
            raise ValueError("k_bins must be >= 1")
        self.k_bins = int(k_bins)
        self.edges = np.linspace(0.0, 1.0, k_bins + 1)
        self.populations = np.zeros(k_bins, dtype=np.int64)
        self.sums = np.zeros(k_bins, dtype=np.float64)
        self.n_seen = 0

    def assign(self, values: np.ndarray) -> np.ndarray:
        """Bin index for each value (clipped into [0, 1]); raises
        ``ValueError`` for a NaN or ±inf value, as the in-memory bins do."""
        values = np.asarray(values, dtype=np.float64)
        if values.size:
            finite_hardness_range(values)
        width = 1.0 / self.k_bins
        clipped = np.clip(values, 0.0, 1.0)
        return np.minimum((clipped / width).astype(np.intp), self.k_bins - 1)

    def update(self, values: np.ndarray) -> np.ndarray:
        """Fold one block of hardness values in; returns their bin indices."""
        values = np.asarray(values, dtype=np.float64)
        assignments = self.assign(values)
        self.populations += np.bincount(assignments, minlength=self.k_bins)
        self.sums += np.bincount(
            assignments, weights=values, minlength=self.k_bins
        )
        self.n_seen += values.size
        return assignments

    @property
    def avg_hardness(self) -> np.ndarray:
        """Per-bin mean hardness (0.0 for empty bins)."""
        return np.where(
            self.populations > 0, self.sums / np.maximum(self.populations, 1), 0.0
        )

    def as_hardness_bins(self) -> HardnessBins:
        """View as :class:`~repro.core.binning.HardnessBins` so the
        self-paced weight/allocation functions apply unchanged. Per-sample
        ``assignments`` are not retained by a streaming pass, so that field
        is empty."""
        return HardnessBins(
            assignments=np.empty(0, dtype=np.intp),
            populations=self.populations.copy(),
            avg_hardness=self.avg_hardness,
            total_contribution=self.sums.copy(),
            edges=self.edges.copy(),
        )
