"""Chunked, batched ensemble inference with a packed-forest fast path.

``ensemble_predict_proba`` has two internally equivalent execution paths:

* **Packed fast path** (default for all-tree ensembles): the fitted trees
  are flattened into one :class:`repro.fastpath.PackedForest` and every
  tree × every row is routed by its vectorised kernels (one fused
  level-synchronous pass for small batches, node partition over
  column-major row chunks for large ones) — no per-tree ``predict_proba``
  calls, no per-chunk re-validation.
  The packed kernel replays this module's exact accumulation order
  (sequential sums inside fixed :data:`ESTIMATOR_BLOCK`-sized blocks, block
  partials reduced in block order, one final division), so its output is
  bit-identical to the chunked path.

* **Chunked fallback** (non-tree members, mixed ensembles, or
  ``packed="never"``): rows are cut into cache-friendly chunks and
  estimators into fixed-size blocks, each (chunk, block) cell computes a
  partial probability sum, and cells are reduced in grid order. The grid
  and the reduction order depend only on the inputs and
  :data:`DEFAULT_CHUNK_SIZE` — never on ``n_jobs`` — so the result is
  bit-identical whether the cells run serially or on a thread pool. The
  estimator blocks sit in the executor's keyed payload registry
  (:mod:`repro.parallel.executor`), so task payloads carry only
  ``(key, block id, row chunk)``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import telemetry
from ..fastpath.packed import ESTIMATOR_BLOCK, cached_packed_ensemble
from .executor import _SHARED_PAYLOADS, install_payload, parallel_map, payload_key

#: ``repro_fastpath_predict_seconds{path=...}`` children, cached — the
#: inference engine is the serving hot loop; one dict hit, not a
#: registry round-trip per call.
_PREDICT_HIST: Dict[str, object] = {}


def _predict_histogram(path: str):
    child = _PREDICT_HIST.get(path)
    if child is None:
        child = telemetry.get_registry().histogram(
            "repro_fastpath_predict_seconds",
            "ensemble_predict_proba latency by execution path "
            "(packed kernel vs chunked fallback).",
            labels=("path",),
        ).labels(path)
        _PREDICT_HIST[path] = child
    return child

__all__ = ["DEFAULT_CHUNK_SIZE", "ESTIMATOR_BLOCK", "ensemble_predict_proba"]

#: Rows scored per task of the chunked path — large enough to amortise the
#: per-call python overhead of ``predict_proba``, small enough that a chunk
#: of float64 features stays cache-resident.
DEFAULT_CHUNK_SIZE = 8192


def _row_spans(n_rows: int, chunk_size: int) -> List[Tuple[int, int]]:
    return [(s, min(s + chunk_size, n_rows)) for s in range(0, n_rows, chunk_size)]


def _partial_proba(task) -> np.ndarray:
    """Sum of class-aligned probabilities for one (row chunk, block) cell.

    Rows travel in the task payload (one chunk at a time, exactly like the
    historical grid, so a worker never holds more than a chunk of the
    matrix); the estimator blocks come from the per-worker registry."""
    key, block_id, X_chunk = task
    est_blocks, map_blocks, n_classes = _SHARED_PAYLOADS[key]
    out = np.zeros((X_chunk.shape[0], n_classes))
    for est, cols in zip(est_blocks[block_id], map_blocks[block_id]):
        out[:, cols] += est.predict_proba(X_chunk)
    return out


def _packed_proba(
    estimators: Sequence, X: np.ndarray, classes: np.ndarray
) -> Optional[np.ndarray]:
    """Packed-forest evaluation, or ``None`` when the ensemble is not
    packable (any non-tree member, unknown classes, feature-count mismatch)
    — the chunked path then owns both the computation and error reporting.

    The packed layout is cached per ensemble, so repeated serving calls
    pay only the kernel.

    Non-finite rows are declined up front: the chunked path rejects them
    through each member's ``check_array`` (NaN would otherwise silently
    route right), and the two paths must disagree on nothing — not even
    error behaviour."""
    if not np.isfinite(X).all():
        return None
    forest = cached_packed_ensemble(estimators, classes)
    if forest is None or forest.n_features != X.shape[1]:
        return None
    return forest.predict_proba(X)


def ensemble_predict_proba(
    estimators: Sequence,
    X,
    classes: np.ndarray,
    *,
    n_jobs: Optional[int] = None,
    packed: str = "auto",
) -> np.ndarray:
    """Average ``predict_proba`` over fitted estimators, aligning classes.

    Each estimator may have seen a subset of the classes (an extreme-IR
    bootstrap can miss the minority entirely); probabilities are mapped into
    the full class space before averaging.

    Parameters
    ----------
    estimators : fitted classifiers exposing ``predict_proba`` / ``classes_``.
    X : array of shape (n_samples, n_features)
    classes : the ensemble's full class vector; output columns follow it.
    n_jobs : worker count (``None``/1 serial, ``-1`` all CPUs); the
        chunked path runs its cells, :data:`DEFAULT_CHUNK_SIZE` rows each,
        on a thread pool.
    packed : ``"auto"`` (packed kernel for packable ensembles, chunked
        otherwise) or ``"never"`` (always the chunked path). Both paths
        are bit-identical.
    """
    estimators = list(estimators)
    if not estimators:
        raise ValueError("ensemble_predict_proba requires at least one estimator")
    if packed not in ("auto", "never"):
        raise ValueError(f"packed must be 'auto' or 'never', got {packed!r}")
    X = np.asarray(X, dtype=float)
    classes = np.asarray(classes)

    watch = telemetry.stopwatch()
    if packed == "auto":
        proba = _packed_proba(estimators, X, classes)
        if proba is not None:
            watch.observe(_predict_histogram("packed"))
            return proba

    class_pos = {c: i for i, c in enumerate(classes.tolist())}
    column_maps = [
        [class_pos[c] for c in est.classes_.tolist()] for est in estimators
    ]
    block_slices = [
        slice(b, min(b + ESTIMATOR_BLOCK, len(estimators)))
        for b in range(0, len(estimators), ESTIMATOR_BLOCK)
    ]
    est_blocks = tuple(estimators[blk] for blk in block_slices)
    map_blocks = tuple(column_maps[blk] for blk in block_slices)
    spans = _row_spans(X.shape[0], DEFAULT_CHUNK_SIZE)
    with payload_key() as key:
        partials = parallel_map(
            _partial_proba,
            [
                (key, block_id, X[lo:hi])
                for lo, hi in spans
                for block_id in range(len(block_slices))
            ],
            n_jobs=n_jobs,
            initializer=install_payload,
            initargs=(key, (est_blocks, map_blocks, len(classes))),
        )

    proba = np.empty((X.shape[0], len(classes)))
    n_blocks = len(block_slices)
    for c, (lo, hi) in enumerate(spans):
        cell = partials[c * n_blocks : (c + 1) * n_blocks]
        total = cell[0]
        for extra in cell[1:]:  # fixed block order → deterministic rounding
            total = total + extra
        proba[lo:hi] = total / len(estimators)
    watch.observe(_predict_histogram("chunked"))
    return proba
