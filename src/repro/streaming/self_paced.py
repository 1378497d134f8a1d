"""The out-of-core majority seams of the Self-paced Ensemble.

:meth:`SelfPacedEnsembleClassifier.fit_source
<repro.core.SelfPacedEnsembleClassifier.fit_source>` runs Algorithm 1
(:meth:`~repro.core.SelfPacedEnsembleClassifier._fit_loop`) over a
:class:`DataSource` by plugging one of these seams — ``cold_start`` rows,
``draw`` a self-paced subset, ``add`` a member — into the one loop, so
member fits, RNG consumption order and the recorded ``bin_history_`` /
``train_curve_`` are shared by construction:

* ``mode="exact"`` (default) — :class:`_StreamingMajorityAccess`, the
  exact seam of :class:`repro.core.self_paced._ExactMajority` over
  ``source.take`` gathers and a block walk that scores each new member.
  With a fixed ``random_state`` the trained ensemble is bit-identical to
  ``fit(X, y)``. Keeps O(rows) *metadata* (labels, index maps, one
  running probability per majority row — ~17 bytes/row) but never the
  feature matrix: feature memory is bounded by ``block_size`` plus the
  2·|P|-sized training subsets. An in-memory
  :class:`~repro.streaming.ArraySource` skips this seam: it is fitted
  over its arrays by :class:`~repro.core.self_paced.InMemoryMajorityAccess`.

* ``mode="reservoir"`` — :class:`_ReservoirMajority`, true bounded-memory
  streaming: the cold start is a single-bin reservoir pass, and each draw
  re-scores the majority block by block with every member so far through
  :func:`repro.parallel.ensemble_predict_proba`, folds hardness into
  running per-bin statistics, and draws the subset from per-bin
  reservoirs (:func:`streaming_self_paced_under_sample`). Memory is
  O(|P| · n_features · k_bins) — independent of majority size — at the
  cost of re-scoring all previous models each iteration and of fixed-edge
  hardness bins (the paper's H ∈ [0, 1]) instead of observed-range bins.
  ``fit(X, y)`` in this mode streams its arrays the same way.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional, Tuple

import numpy as np

from ..core.binning import HardnessBins
from ..core.self_paced import _ExactMajority
from ..parallel import ensemble_predict_proba
from .reservoir import BinReservoir, streaming_self_paced_under_sample
from .sources import ClassIndexScan, DataSource


def _majority_blocks(source: DataSource) -> Iterator[np.ndarray]:
    """Each block's majority rows as float64, in dataset order — the
    order of ``maj_idx``. Blocks without majority rows are skipped."""
    for X_block, y_block in source.iter_blocks():
        X_maj = np.asarray(X_block, dtype=np.float64)[y_block == 0]
        if len(X_maj):
            yield X_maj


class _StreamingMajorityAccess(_ExactMajority):
    """The exact majority seam over a :class:`DataSource`: gathers go
    through ``source.take`` (copying only the requested ~2·|P| rows), and
    scoring walks the majority blocks once with ``proba_fn``."""

    def __init__(self, source: DataSource, scan: ClassIndexScan, proba_fn):
        super().__init__(scan.n_majority)
        self._source = source
        self._maj_idx = scan.maj_idx
        self._proba_fn = proba_fn

    def take(self, local_indices: np.ndarray) -> np.ndarray:
        return self._source.take(self._maj_idx[local_indices])

    def score(self, model) -> np.ndarray:
        return np.concatenate(
            [self._proba_fn(model, X_maj) for X_maj in _majority_blocks(self._source)]
        )


class _ReservoirMajority:
    """The bounded-memory majority seam: no per-row state, every pass
    streams the source, and the members are re-scored at each draw."""

    def __init__(self, source: DataSource, n_majority: int, n_jobs: Optional[int]):
        self._source = source
        self._n_majority = n_majority
        self._n_jobs = n_jobs
        self._members: list = []

    def cold_start(self, n_samples: int, rng: np.random.RandomState) -> np.ndarray:
        """A uniform majority sample via a single-bin reservoir pass."""
        reservoir = None
        for X_maj in _majority_blocks(self._source):
            if reservoir is None:
                capacity = min(n_samples, self._n_majority)
                reservoir = BinReservoir(1, capacity, X_maj.shape[1], rng)
            reservoir.update(
                np.zeros(len(X_maj), dtype=np.intp), X_maj, np.zeros(len(X_maj))
            )
        return reservoir.bin_rows(0)

    def draw(
        self,
        hardness_fn: Callable,
        k_bins: int,
        alpha: float,
        n_samples: int,
        rng: np.random.RandomState,
    ) -> Tuple[np.ndarray, HardnessBins, np.ndarray]:
        def scored_blocks():
            for X_maj in _majority_blocks(self._source):
                proba = ensemble_predict_proba(
                    self._members, X_maj, np.array([0, 1]), n_jobs=self._n_jobs
                )[:, 1]
                yield hardness_fn(np.zeros(len(X_maj)), proba), X_maj

        X_sub, h_sub, stats = streaming_self_paced_under_sample(
            scored_blocks(), k_bins, alpha, n_samples, rng
        )
        return X_sub, stats.as_hardness_bins(), h_sub

    def add(self, model) -> None:
        self._members.append(model)
