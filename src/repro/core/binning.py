"""Hardness binning and self-paced sampling weights (paper Section V).

The majority set is cut into ``k`` equal-width bins over the observed
hardness range (the paper's ``B_ℓ`` with ``H ∈ [0, 1]`` w.l.o.g.; using the
observed range also accommodates the unbounded cross-entropy hardness).
Bin ``ℓ`` receives unnormalised sampling weight ``p_ℓ = 1 / (h_ℓ + α)``
where ``h_ℓ`` is the bin's *average* hardness contribution and ``α`` the
self-paced factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

__all__ = [
    "HardnessBins",
    "allocate_bin_samples",
    "cut_hardness_bins",
    "finite_hardness_range",
    "self_paced_bin_weights",
]


@dataclass
class HardnessBins:
    """Result of binning hardness values.

    Attributes
    ----------
    assignments : (n,) bin index of every sample, in ``[0, k)``.
    populations : (k,) number of samples per bin.
    avg_hardness : (k,) mean hardness per bin (NaN-free: 0 for empty bins).
    total_contribution : (k,) summed hardness per bin (Fig 3's right panels).
    edges : (k+1,) bin boundaries over the observed hardness range.
    """

    assignments: np.ndarray
    populations: np.ndarray
    avg_hardness: np.ndarray
    total_contribution: np.ndarray
    edges: np.ndarray

    @property
    def k(self) -> int:
        """Number of hardness bins."""
        return len(self.populations)

    @property
    def degenerate(self) -> bool:
        """True when all hardness values coincide (no usable distribution)."""
        return bool(self.edges[0] == self.edges[-1])


def finite_hardness_range(hardness: np.ndarray) -> Tuple[float, float]:
    """``(min, max)`` of a non-empty float hardness array.

    Raises ``ValueError`` when any hardness is NaN or ±inf (a custom
    hardness function can return them): no bin can hold such a value.
    """
    lo, hi = float(hardness.min()), float(hardness.max())
    # min/max propagate NaN and reach ±inf, so this checks every value.
    if not (np.isfinite(lo) and np.isfinite(hi)):
        bad = hardness[~np.isfinite(hardness)]
        raise ValueError(
            f"hardness must be finite; got {bad.size} non-finite value(s) "
            f"(first: {float(bad[0])}) — check the hardness function"
        )
    return lo, hi


def cut_hardness_bins(hardness: np.ndarray, k: int) -> HardnessBins:
    """Split samples into ``k`` equal-width bins over ``[min(H), max(H)]``.

    Raises ``ValueError`` when any hardness is NaN or ±inf
    (:func:`finite_hardness_range`).
    """
    if k < 1:
        raise ValueError("k (number of bins) must be >= 1")
    hardness = np.asarray(hardness, dtype=float)
    if hardness.ndim != 1 or hardness.size == 0:
        raise ValueError("hardness must be a non-empty 1D array")
    lo, hi = finite_hardness_range(hardness)
    edges = np.linspace(lo, hi, k + 1)
    if hi > lo:
        width = (hi - lo) / k
        assignments = np.minimum(((hardness - lo) / width).astype(int), k - 1)
    else:
        assignments = np.zeros(hardness.size, dtype=int)
    populations = np.bincount(assignments, minlength=k)
    totals = np.bincount(assignments, weights=hardness, minlength=k)
    with np.errstate(invalid="ignore"):
        avg = np.where(populations > 0, totals / np.maximum(populations, 1), 0.0)
    return HardnessBins(
        assignments=assignments,
        populations=populations,
        avg_hardness=avg,
        total_contribution=totals,
        edges=edges,
    )


def self_paced_bin_weights(bins: HardnessBins, alpha: float) -> np.ndarray:
    """Unnormalised sampling weights ``p_ℓ = 1 / (h_ℓ + α)``; 0 for empty bins.

    ``α = 0`` reproduces pure hardness harmonising (each bin contributes the
    same total hardness in expectation); ``α → ∞`` flattens the weights so
    every non-empty bin is sampled equally — keeping the easy-sample
    "skeleton" the paper credits for SPE's noise robustness.
    """
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    with np.errstate(divide="ignore", over="ignore"):
        weights = 1.0 / (bins.avg_hardness + alpha)
    # h_ℓ = α = 0 gives p_ℓ = 1/0 → the harmonise limit where a zero-hardness
    # bin dominates the draw (paper Fig 3(b): the trivial bin floods the
    # subset). Represent it by a huge finite weight; the allocator caps it at
    # the bin population and redistributes the remainder. A subnormal h_ℓ + α
    # overflows to inf or lands just below it, so every weight is capped at
    # that sentinel: the weights then sum without overflow.
    np.minimum(weights, 1e18, out=weights)
    weights[bins.populations == 0] = 0.0
    if weights.sum() <= 0:
        weights = (bins.populations > 0).astype(float)
    return weights


def allocate_bin_samples(
    weights: np.ndarray,
    populations: np.ndarray,
    n_total: int,
) -> np.ndarray:
    """Integer per-bin sample counts ``≈ n_total · p_ℓ / Σp``, capped by bin size.

    Uses largest-remainder rounding, then redistributes any shortfall caused
    by capping to the remaining bins (proportionally to their weight) so the
    total equals ``min(n_total, Σ populations)`` exactly — the deterministic
    refinement of the paper's ``p_ℓ/Σp · |P|`` allocation.
    """
    weights = np.asarray(weights, dtype=float)
    populations = np.asarray(populations, dtype=int)
    if n_total < 0:
        raise ValueError("n_total must be non-negative")
    k = len(weights)
    counts = np.zeros(k, dtype=int)
    remaining = min(int(n_total), int(populations.sum()))
    active = (weights > 0) & (populations > 0)
    while remaining > 0 and active.any():
        w = np.where(active, weights, 0.0)
        share = w / w.sum() * remaining
        take = np.minimum(np.floor(share).astype(int), populations - counts)
        if take.sum() == 0:
            # Largest-remainder step: hand out one sample at a time.
            order = np.argsort(-(share - np.floor(share)), kind="stable")
            for bin_idx in order:
                if remaining == 0:
                    break
                if active[bin_idx] and counts[bin_idx] < populations[bin_idx]:
                    counts[bin_idx] += 1
                    remaining -= 1
            active &= counts < populations
            continue
        counts += take
        remaining -= int(take.sum())
        active &= counts < populations
    return counts
