"""Reservoir-based self-paced under-sampling for unbounded streams.

The in-memory :func:`repro.core.self_paced_under_sample` needs the whole
majority hardness vector plus random access to every majority row. The
streaming analogue here keeps, per hardness bin, a bounded uniform sample
(`Vitter's Algorithm R`, vectorised per block) and the running bin
statistics — O(k_bins · n_samples · n_features) memory regardless of how
many majority rows flow past. When the stream ends, the usual self-paced
weights ``p_ℓ = 1/(h_ℓ + α)`` allocate the per-bin budget against the *true*
bin populations, and each bin's quota is drawn from its reservoir (a uniform
sub-sample of a uniform reservoir is a uniform sample of the bin, so the
selection distribution matches the in-memory sampler given the same bins).
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

import numpy as np

from ..core.binning import allocate_bin_samples, self_paced_bin_weights
from .binstats import StreamingBinStats

__all__ = ["BinReservoir", "streaming_self_paced_under_sample"]


class BinReservoir:
    """Per-bin uniform row reservoirs of fixed capacity.

    Each of the ``k_bins`` reservoirs holds a uniform-without-replacement
    sample of (up to) ``capacity`` rows of everything routed to that bin,
    together with the rows' hardness values. Updates are vectorised: the
    classic per-item accept/replace step of Algorithm R becomes one uniform
    draw per item, and NumPy's in-order fancy assignment reproduces the
    sequential overwrite semantics.
    """

    def __init__(
        self,
        k_bins: int,
        capacity: int,
        n_features: int,
        rng: np.random.RandomState,
    ):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self.k_bins = int(k_bins)
        self._rng = rng
        self._rows = np.empty((k_bins, capacity, n_features))
        self._values = np.empty((k_bins, capacity))
        self._stored = np.zeros(k_bins, dtype=np.int64)
        self._seen = np.zeros(k_bins, dtype=np.int64)

    @property
    def seen(self) -> np.ndarray:
        """Total rows routed to each bin so far."""
        return self._seen.copy()

    @property
    def stored(self) -> np.ndarray:
        """Rows currently held per bin: ``min(seen, capacity)`` each."""
        return self._stored.copy()

    @property
    def n_features(self) -> int:
        """Number of features."""
        return self._rows.shape[2]

    def bin_rows(self, b: int) -> np.ndarray:
        """The rows currently held for bin ``b`` (a copy, reservoir order)."""
        return self._rows[b, : int(self._stored[b])].copy()

    def update(
        self,
        assignments: np.ndarray,
        rows: np.ndarray,
        values: np.ndarray,
    ) -> None:
        """Feed one block of (bin-assigned) rows through the reservoirs."""
        assignments = np.asarray(assignments, dtype=np.intp)
        for b in np.unique(assignments):
            mask = assignments == b
            self._update_bin(int(b), rows[mask], values[mask])

    def _update_bin(self, b: int, rows: np.ndarray, values: np.ndarray) -> None:
        cap = self.capacity
        stored, seen = int(self._stored[b]), int(self._seen[b])
        fill = min(cap - stored, len(rows))
        if fill > 0:
            self._rows[b, stored : stored + fill] = rows[:fill]
            self._values[b, stored : stored + fill] = values[:fill]
            self._stored[b] = stored + fill
        rest = rows[fill:]
        if len(rest):
            # Item at 1-based stream position p replaces a uniformly chosen
            # slot j ∈ [0, p) and survives iff j < capacity. Later items in
            # the same batch overwrite earlier ones at the same slot exactly
            # as the sequential algorithm would.
            positions = seen + fill + 1 + np.arange(len(rest))
            slots = (self._rng.random_sample(len(rest)) * positions).astype(np.intp)
            accept = slots < cap
            self._rows[b, slots[accept]] = rest[accept]
            self._values[b, slots[accept]] = values[fill:][accept]
        self._seen[b] = seen + len(rows)

    def draw(self, b: int, count: int) -> Tuple[np.ndarray, np.ndarray]:
        """``count`` rows drawn uniformly without replacement from bin ``b``."""
        stored = int(self._stored[b])
        if count > stored:
            raise ValueError(
                f"bin {b} holds {stored} rows; cannot draw {count}"
            )
        idx = self._rng.choice(stored, size=count, replace=False)
        return self._rows[b, idx], self._values[b, idx]


def streaming_self_paced_under_sample(
    blocks: Iterable[Tuple[np.ndarray, np.ndarray]],
    k_bins: int,
    alpha: float,
    n_samples: int,
    rng: np.random.RandomState,
) -> Tuple[np.ndarray, np.ndarray, StreamingBinStats]:
    """One self-paced under-sampling round over a hardness/row stream.

    Parameters
    ----------
    blocks : iterable of ``(hardness_block, X_block)``
        The majority class, in any block sizes; consumed exactly once.
    k_bins, alpha, n_samples, rng
        As in :func:`repro.core.self_paced_under_sample`; the bins have
        fixed edges over H ∈ [0, 1] (see :class:`StreamingBinStats`).

    Returns
    -------
    (X_selected, hardness_selected, stats)
        The sampled majority rows, their hardness values, and the final
        :class:`StreamingBinStats`. Peak memory is
        ``O(k_bins · n_samples · n_features)`` — independent of the number
        of streamed rows.
    """
    if n_samples < 0:
        raise ValueError("n_samples must be non-negative")
    stats = StreamingBinStats(k_bins)
    reservoir: Optional[BinReservoir] = None
    for hardness_block, X_block in blocks:
        hardness_block = np.asarray(hardness_block, dtype=np.float64)
        X_block = np.asarray(X_block, dtype=np.float64)
        if len(hardness_block) != len(X_block):
            raise ValueError("hardness and feature blocks must align")
        if reservoir is None:
            reservoir = BinReservoir(
                k_bins, max(n_samples, 1), X_block.shape[1], rng
            )
        assignments = stats.update(hardness_block)
        reservoir.update(assignments, X_block, hardness_block)
    if reservoir is None or stats.n_seen == 0:
        raise ValueError("streaming under-sample received an empty stream")

    bins = stats.as_hardness_bins()
    weights = self_paced_bin_weights(bins, alpha)
    # Allocation is capped by what the reservoirs actually hold: a bin's
    # reservoir stores min(population, n_samples) rows and every per-bin
    # quota is <= n_samples, so the cap only binds when the total budget
    # exceeds the stream size.
    counts = allocate_bin_samples(
        weights, np.minimum(bins.populations, reservoir.stored), n_samples
    )
    picked_rows = []
    picked_values = []
    for b in np.flatnonzero(counts > 0):
        rows, values = reservoir.draw(int(b), int(counts[b]))
        picked_rows.append(rows)
        picked_values.append(values)
    if not picked_rows:
        return np.empty((0, reservoir.n_features)), np.empty(0), stats
    return np.vstack(picked_rows), np.concatenate(picked_values), stats
