"""Out-of-core Self-paced Ensemble training (Algorithm 1 over a DataSource).

Two training modes, one class:

* ``mode="exact"`` (default) — runs the *same* Algorithm-1 loop as the
  in-memory classifier (:meth:`SelfPacedEnsembleClassifier._fit_loop`),
  plugging in block-streaming implementations of the three majority-data
  operations (gather by global index, gather by local index, score). RNG
  consumption order is therefore identical by construction, and with a
  fixed ``random_state`` the trained ensemble is bit-identical to the
  in-memory path. Keeps O(rows) *metadata* (labels, index maps, one running
  probability per majority row — ~17 bytes/row) but never the feature
  matrix: feature memory is bounded by ``block_size`` plus the 2·|P|-sized
  training subsets.

* ``mode="reservoir"`` — true bounded-memory streaming: each iteration
  re-scores the majority block-by-block with the running ensemble through
  :func:`repro.parallel.ensemble_predict_proba`, folds hardness into
  running per-bin statistics, and draws the self-paced subset from per-bin
  reservoirs (:func:`streaming_self_paced_under_sample`). Memory is
  O(|P| · n_features · k_bins) — independent of majority size — at the cost
  of re-scoring all previous models each iteration and of fixed-edge
  hardness bins (the paper's H ∈ [0, 1]) instead of observed-range bins.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Optional, Tuple, Union

import numpy as np

from ..core.binning import cut_hardness_bins
from ..core.hardness import resolve_hardness
from ..core.self_paced import (
    SelfPacedEnsembleClassifier,
    _majority_union_minority_sample,
)
from ..ensemble.bagging import make_member_model
from ..parallel import ensemble_predict_proba, fit_ensemble_member
from ..utils.validation import (
    check_array,
    check_random_state,
)
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


class _StreamingMajorityAccess:
    """Block-streaming implementation of the majority-access seam.

    Mirrors :class:`repro.core.self_paced.InMemoryMajorityAccess`: gathers go
    through ``source.take`` (copying only the requested ~2·|P| rows) and
    scoring walks the blocks once, pushing each block's majority rows
    through the chunked inference engine and scattering the results into a
    per-majority-row vector. Majority rows appear in blocks in ascending
    dataset order — the same order as ``maj_idx`` — so a running cursor
    aligns the scatter.
    """

    def __init__(self, source: DataSource, scan: ClassIndexScan, proba_fn):
        self._source = source
        self._maj_idx = scan.maj_idx
        self._n_majority = scan.n_majority
        self._proba_fn = proba_fn

    def take_global(self, indices: np.ndarray) -> np.ndarray:
        return self._source.take(indices)

    def take(self, local_indices: np.ndarray) -> np.ndarray:
        return self._source.take(self._maj_idx[local_indices])

    def score(self, model) -> np.ndarray:
        out = np.empty(self._n_majority)
        cursor = 0
        for X_block, y_block in self._source.iter_blocks():
            X_maj_block = np.asarray(X_block, dtype=np.float64)[y_block == 0]
            if len(X_maj_block):
                out[cursor : cursor + len(X_maj_block)] = self._proba_fn(
                    model, X_maj_block
                )
                cursor += len(X_maj_block)
        return out


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
        if self.n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if self.k_bins < 1:
            raise ValueError("k_bins must be >= 1")
        if self.mode not in ("exact", "reservoir"):
            raise ValueError(
                f"Unknown mode {self.mode!r}; expected 'exact' or 'reservoir'"
            )
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
        if self.mode == "exact":
            scan = class_index_scan(
                source, collect_indices=True, collect_minority=True
            )
            majority = _StreamingMajorityAccess(source, scan, self._proba_pos)
            self._fit_loop(majority, scan.X_min, scan.maj_idx, rng, eval_set)
        else:
            scan = class_index_scan(
                source, collect_indices=False, collect_minority=True
            )
            self._fit_reservoir(source, scan, rng, eval_set)
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

    # ------------------------------------------------------------------ #
    def _majority_blocks(self, source: DataSource):
        for X_block, y_block in source.iter_blocks():
            X_maj = np.asarray(X_block, dtype=np.float64)[y_block == 0]
            if len(X_maj):
                yield X_maj

    def _cold_start_rows(
        self, source: DataSource, n_cold: int, rng: np.random.RandomState
    ) -> np.ndarray:
        """Uniform majority sample via a single-bin reservoir pass."""
        reservoir = None
        for X_maj in self._majority_blocks(source):
            if reservoir is None:
                reservoir = BinReservoir(1, n_cold, X_maj.shape[1], rng)
            reservoir.update(
                np.zeros(len(X_maj), dtype=np.intp),
                X_maj,
                np.zeros(len(X_maj)),
            )
        return reservoir.bin_rows(0)

    def _fit_reservoir(
        self,
        source: DataSource,
        scan: ClassIndexScan,
        rng: np.random.RandomState,
        eval_set: Optional[Tuple],
    ) -> None:
        """Bounded-memory Algorithm 1: per-iteration block re-scoring plus
        reservoir-based self-paced sampling."""
        hardness_fn = resolve_hardness(self.hardness)
        schedule = self._resolve_schedule()
        X_min = scan.X_min
        n_min = scan.n_minority

        self.estimators_ = []
        self.n_training_samples_ = 0
        self.bin_history_ = []
        self.train_curve_ = []
        if eval_set is not None:
            X_eval = check_array(np.asarray(eval_set[0], dtype=float))
            y_eval = self._encode_labels(np.asarray(eval_set[1]))

        sample_fn = partial(_majority_union_minority_sample, X_min=X_min)
        make_model = partial(make_member_model, estimator=self.estimator)

        def train_one(X_sub_maj: np.ndarray) -> None:
            model, n_trained = fit_ensemble_member(
                len(self.estimators_), rng, X_sub_maj, None, sample_fn, make_model
            )
            self.estimators_.append(model)
            self.n_training_samples_ += n_trained

        def scored_majority_blocks():
            """(hardness_block, rows) for the current running ensemble."""
            for X_maj in self._majority_blocks(source):
                proba = ensemble_predict_proba(
                    self.estimators_,
                    X_maj,
                    np.array([0, 1]),
                    n_jobs=self.n_jobs,
                )[:, 1]
                yield hardness_fn(np.zeros(len(X_maj)), proba), X_maj

        # --- cold start ---------------------------------------------------
        train_one(self._cold_start_rows(source, min(n_min, scan.n_majority), rng))
        if eval_set is not None:
            proba_eval = self._proba_pos(self.estimators_[0], X_eval)
            self._record_eval(y_eval, proba_eval)

        # --- self-paced iterations ---------------------------------------
        n_iter = self.n_estimators
        for i in range(1, self.n_estimators):
            alpha = schedule(i, n_iter)
            X_selected, h_selected, stats = streaming_self_paced_under_sample(
                scored_majority_blocks(),
                self.k_bins,
                alpha,
                n_min,
                rng,
                value_range=self.hardness_range,
            )
            if self.record_bins:
                sub_bins = cut_hardness_bins(
                    h_selected if len(h_selected) else np.zeros(1), self.k_bins
                )
                self.bin_history_.append(
                    (alpha, stats.as_hardness_bins(), sub_bins)
                )
            train_one(X_selected)
            if eval_set is not None:
                n_models = len(self.estimators_)
                latest_eval = self._proba_pos(self.estimators_[-1], X_eval)
                proba_eval = (proba_eval * (n_models - 1) + latest_eval) / n_models
                self._record_eval(y_eval, proba_eval)
