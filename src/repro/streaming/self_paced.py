"""Out-of-core Self-paced Ensemble training (Algorithm 1 over a DataSource).

Both training modes run the in-memory classifier's loop
(:meth:`SelfPacedEnsembleClassifier._fit_loop`) and differ only in the
majority seam they plug in — ``cold_start`` rows, ``draw`` a self-paced
subset, ``add`` a member — so member fits, RNG consumption order and the
recorded ``bin_history_`` / ``train_curve_`` are shared by construction:

* ``mode="exact"`` (default) — :class:`_StreamingMajorityAccess`, the
  exact seam of :class:`repro.core.self_paced._ExactMajority` over
  ``source.take`` gathers and a block walk that scores each new member.
  With a fixed ``random_state`` the trained ensemble is bit-identical to
  the in-memory path. Keeps O(rows) *metadata* (labels, index maps, one
  running probability per majority row — ~17 bytes/row) but never the
  feature matrix: feature memory is bounded by ``block_size`` plus the
  2·|P|-sized training subsets.

* ``mode="reservoir"`` — :class:`_ReservoirMajority`, true bounded-memory
  streaming: the cold start is a single-bin reservoir pass, and each draw
  re-scores the majority block by block with every member so far through
  :func:`repro.parallel.ensemble_predict_proba`, folds hardness into
  running per-bin statistics, and draws the subset from per-bin
  reservoirs (:func:`streaming_self_paced_under_sample`). Memory is
  O(|P| · n_features · k_bins) — independent of majority size — at the
  cost of re-scoring all previous models each iteration and of fixed-edge
  hardness bins (the paper's H ∈ [0, 1]) instead of observed-range bins.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional, Tuple, Union

import numpy as np

from ..core.binning import HardnessBins
from ..core.self_paced import SelfPacedEnsembleClassifier, _ExactMajority
from ..parallel import ensemble_predict_proba
from ..utils.validation import check_random_state
from .reservoir import BinReservoir, streaming_self_paced_under_sample
from .sources import (
    ArraySource,
    ClassIndexScan,
    DataSource,
    class_index_scan,
    encoded_label_source,
    label_value_scan,
)

__all__ = ["StreamingSelfPacedEnsembleClassifier"]


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

    def __init__(
        self,
        source: DataSource,
        n_majority: int,
        value_range: Tuple[float, float],
        n_jobs: Optional[int],
    ):
        self._source = source
        self._n_majority = n_majority
        self._value_range = value_range
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
            scored_blocks(), k_bins, alpha, n_samples, rng,
            value_range=self._value_range,
        )
        return X_sub, stats.as_hardness_bins(), h_sub

    def add(self, model) -> None:
        self._members.append(model)


class StreamingSelfPacedEnsembleClassifier(SelfPacedEnsembleClassifier):
    """Self-paced Ensemble trained out-of-core from a :class:`DataSource`.

    Accepts everything :class:`~repro.core.SelfPacedEnsembleClassifier`
    does, plus:

    Parameters
    ----------
    mode : {"exact", "reservoir"}, default "exact"
        See the module docstring. ``"exact"`` is bit-identical to the
        in-memory classifier for the same ``random_state``; ``"reservoir"``
        bounds memory independently of the majority size. Tree members
        are scored by the bit-identical packed kernel, in per-iteration
        block scoring and in ``predict_proba``.
    hardness_range : (low, high), default (0.0, 1.0)
        Fixed bin support for ``mode="reservoir"`` (unbounded hardness
        functions such as cross-entropy are clipped into it). Ignored in
        exact mode, which bins over the observed range like the in-memory
        path.

    Examples
    --------
    >>> from repro.streaming import ArraySource, StreamingSelfPacedEnsembleClassifier
    >>> from repro.datasets import make_checkerboard
    >>> X, y = make_checkerboard(n_minority=100, n_majority=1000, random_state=0)
    >>> clf = StreamingSelfPacedEnsembleClassifier(n_estimators=5, random_state=0)
    >>> proba = clf.fit(ArraySource(X, y)).predict_proba(X)[:, 1]
    """

    def __init__(
        self,
        estimator=None,
        n_estimators: int = 10,
        k_bins: int = 20,
        hardness: Union[str, Callable] = "absolute",
        alpha_schedule: Union[str, Callable] = "tan",
        include_cold_start: bool = True,
        record_bins: bool = False,
        n_jobs: Optional[int] = None,
        random_state=None,
        mode: str = "exact",
        hardness_range: Tuple[float, float] = (0.0, 1.0),
    ):
        super().__init__(
            estimator=estimator,
            n_estimators=n_estimators,
            k_bins=k_bins,
            hardness=hardness,
            alpha_schedule=alpha_schedule,
            include_cold_start=include_cold_start,
            record_bins=record_bins,
            n_jobs=n_jobs,
            random_state=random_state,
        )
        self.mode = mode
        self.hardness_range = hardness_range

    # ------------------------------------------------------------------ #
    def fit(
        self, X, y=None, eval_set: Optional[Tuple] = None
    ) -> "StreamingSelfPacedEnsembleClassifier":
        """Fit from a :class:`DataSource` (or an in-memory ``(X, y)`` pair,
        which is wrapped in an :class:`ArraySource` and streamed)."""
        self._check_params()
        if isinstance(X, DataSource):
            if y is not None:
                raise ValueError("pass y=None when fitting from a DataSource")
            source = X
        else:
            source = ArraySource(X, y)
        rng = check_random_state(self.random_state)
        # Label alphabet first (one cheap label-only pass): arbitrary binary
        # labels are mapped to the internal {0, 1} encoding exactly like the
        # in-memory classifier (minority by frequency, tie → second sorted
        # label), so the bit-identity guarantee of exact mode survives any
        # relabelling. The training loop below only ever sees internal codes.
        classes, _, minority_idx = label_value_scan(source)
        self._set_label_encoding(classes, minority_idx)
        source = encoded_label_source(source, self.classes_, minority_idx)
        exact = self.mode == "exact"
        scan = class_index_scan(
            source, collect_indices=exact, collect_minority=True
        )
        if exact:
            majority = _StreamingMajorityAccess(source, scan, self._proba_pos)
        else:
            majority = _ReservoirMajority(
                source, scan.n_majority, self.hardness_range, self.n_jobs
            )
        self._fit_loop(majority, scan.X_min, rng, eval_set)
        self.n_features_in_ = scan.n_features
        return self

    def fit_source(
        self, source: DataSource, eval_set: Optional[Tuple] = None
    ) -> "StreamingSelfPacedEnsembleClassifier":
        """Fit from a :class:`DataSource` — alias of ``fit(source)`` that
        matches the ``fit_source`` API of the resampled ensembles
        (UnderBagging / EasyEnsemble), so lifecycle retraining
        (:class:`~repro.lifecycle.LifecycleController`) can treat every
        source-trainable ensemble uniformly."""
        if not isinstance(source, DataSource):
            raise TypeError(
                f"fit_source expects a DataSource, got {type(source).__name__}"
            )
        return self.fit(source, eval_set=eval_set)

    def _check_params(self) -> None:
        super()._check_params()
        if self.mode not in ("exact", "reservoir"):
            raise ValueError(
                f"Unknown mode {self.mode!r}; expected 'exact' or 'reservoir'"
            )
