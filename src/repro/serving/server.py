"""Model serving: warm loading, micro-batching, thresholding, hot swap.

:class:`ModelServer` turns a fitted (or persisted) ensemble into a serving
endpoint:

* **Warm loading** — given an artifact path, the model is restored through
  :func:`repro.persistence.load_model` and its packed inference kernel
  (:class:`~repro.fastpath.PackedForest`) is built *at construction*,
  through :func:`~repro.fastpath.warm_serving_pack` — which warms the very
  ``(estimators, classes)`` cache entry ``predict_proba`` feeds — so the
  first request pays only the kernel, never a re-pack.
* **Micro-batching** — requests submitted through :meth:`submit` enter a
  *bounded* queue (overflow raises
  :class:`~repro.exceptions.ServerOverloadedError` instead of growing
  without limit) and a single worker thread drains up to ``max_batch`` rows
  per kernel call: concurrent small requests coalesce into one batched
  ``predict_proba``, the serving pattern the packed kernels are fastest at.
  Results come back through futures; batching never changes a result
  because the batch rows are scored by one deterministic kernel call and
  split back per request.
* **Thresholding** — :meth:`predict` classifies by comparing the positive
  (minority) class probability against the tunable :attr:`threshold`
  instead of the estimators' hard-coded 0.5 argmax; on heavily imbalanced
  traffic the operating point is a product decision, not a constant.
  :func:`threshold_for_precision` picks the threshold from a validation
  set's PR curve.
* **Hot swap** — :meth:`swap_model` replaces the served model with zero
  downtime. The *entire* serving identity (model, version, classes,
  positive index, kernel flags) lives in one immutable
  :class:`_ActiveModel` record; the challenger's packed kernel is built in
  the *caller's* thread first, then the record pointer is flipped under
  the submit lock. The batching worker reads the pointer exactly once per
  drained batch, so every request is served end-to-end by exactly one
  model version (stamped into :class:`ScoredBatch` results as
  ``model_version``), in-flight requests never block on a re-pack, and
  the queue never drops a request across a swap. Swapped-out models are
  released: only their decode identity (:class:`_VersionRecord`) is kept.
* **Observability** — every counter lives in the process-wide
  :mod:`repro.telemetry` registry (``repro_server_*``, one labeled child
  per server instance), declared once on the server's
  :class:`~repro.telemetry.MetricScope`. :meth:`stats` reads them back
  under their legacy keys, beside the batch-size distribution, the
  per-version request counts and the current version, and requests
  submitted under an active :func:`repro.telemetry.trace` leave
  ``server.queue_wait`` / ``server.kernel_eval`` spans behind.

The batching core, :class:`_Batcher`, is shared with every
:class:`~repro.serving.WorkerPool` worker, which runs it on its fork queue.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import Counter
from concurrent.futures import Future
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .. import telemetry
from ..exceptions import (
    DeadlineExceededError,
    ServerClosedError,
    ServerOverloadedError,
)
from ..fastpath.packed import warm_serving_pack

# Historical import path: threshold_for_precision grew up here but is a
# ranking-metrics concern; it now lives in repro.metrics and is re-exported
# so `from repro.serving import threshold_for_precision` keeps working.
from ..metrics.ranking import threshold_for_precision
from ..utils.validation import check_is_fitted

__all__ = ["ModelServer", "ScoredBatch", "threshold_for_precision"]

_STOP = object()


@dataclass(frozen=True)
class ScoredBatch:
    """A scored request with the version that served it.

    ``proba`` columns follow the serving model's ``classes_``;
    ``model_version`` is the :class:`ModelServer` version stamp of the one
    model that scored every row of this request.
    """

    proba: np.ndarray
    model_version: str


def _resolve_positive_idx(model, classes: np.ndarray) -> int:
    minority = getattr(model, "minority_class_", None)
    if minority is not None:
        return int(np.flatnonzero(classes == minority)[0])
    # Label-generic ensembles (forest/bagging): by the library's
    # convention the higher-sorted label is the positive one.
    return len(classes) - 1


@dataclass(frozen=True)
class _VersionRecord:
    """Decode identity of one model version: what :func:`_decode` needs,
    kept per version without keeping the model itself alive."""

    classes: np.ndarray
    positive_idx: int


def _record_from_model(model) -> _VersionRecord:
    classes = np.asarray(getattr(model, "classes_", np.array([0, 1])))
    return _VersionRecord(classes, _resolve_positive_idx(model, classes))


def _decode(record: _VersionRecord, proba: np.ndarray, threshold: float) -> np.ndarray:
    """Labels for ``proba`` as scored by the version ``record`` describes.

    Binary models emit the positive class where its probability is
    ``>= threshold``; multi-class models fall back to argmax (a single
    threshold is not meaningful there).
    """
    if len(record.classes) != 2:
        return record.classes[np.argmax(proba, axis=1)]
    positive = proba[:, record.positive_idx] >= threshold
    return record.classes[
        np.where(positive, record.positive_idx, 1 - record.positive_idx)
    ]


@dataclass(frozen=True)
class _ActiveModel:
    """Immutable serving identity; swapped as a single pointer flip."""

    model: object
    version: str
    record: _VersionRecord
    packed: bool


def _load_active(model, version: str, mmap: bool) -> _ActiveModel:
    """Load (when given a path), validate and warm-pack a model into its
    serving identity.

    The packed-kernel build — the expensive part — runs in the calling
    thread, before the record becomes visible to any batcher.
    """
    if isinstance(model, (str, bytes)) or hasattr(model, "__fspath__"):
        from ..persistence import load_model

        model = load_model(model, mmap_mode="r" if mmap else None)
    check_is_fitted(model)
    packed = warm_serving_pack(model)
    return _ActiveModel(model, version, _record_from_model(model), packed)


def _expires_at(deadline: Optional[float], expired) -> Optional[float]:
    """A seconds-from-now budget as an absolute ``time.monotonic`` expiry.

    ``None`` waits indefinitely; a budget already spent counts on the
    ``expired`` counter and raises
    :class:`~repro.exceptions.DeadlineExceededError` at submission.
    """
    if deadline is None:
        return None
    deadline = float(deadline)
    if deadline <= 0:
        expired.inc()
        raise DeadlineExceededError(
            f"deadline of {deadline}s already expired at submission"
        )
    return time.monotonic() + deadline


@dataclass
class _Request:
    """One queued scoring request.

    ``reply`` is what the answer goes to: a ``Future`` in
    :class:`ModelServer`, the request id in a pool worker. ``waited``
    starts at submission in :class:`ModelServer` and at dequeue in a pool
    worker; it ends at the kernel call (``server.queue_wait``).
    """

    rows: np.ndarray
    expires_at: Optional[float]
    ctx: Optional[Tuple[int, int]]
    reply: object
    want_version: bool = True
    waited: object = field(default_factory=telemetry.stopwatch)


class _Batcher:
    """The micro-batching core under :class:`ModelServer`'s thread and
    every pool worker's loop.

    It holds the active record and the served-traffic ledger: the
    ``repro_server_*`` metrics of this process's :attr:`metrics` scope.
    The caller owns the queue and its admission check, and says how a
    request is answered: ``ok(req, proba, version)`` or
    ``fail(req, exc)``.
    """

    def __init__(
        self,
        active: _ActiveModel,
        max_batch: int,
        ok: Callable,
        fail: Callable,
        chaos=None,
    ):
        self.active = active
        self.max_batch = int(max_batch)
        self._ok, self._fail = ok, fail
        self._chaos = chaos
        self._batch_rows: Counter = Counter()
        self._requests_by_version: Counter = Counter()
        self.metrics = m = telemetry.MetricScope("server")
        self.requests = m.counter("repro_server_requests_total",
                                  "Requests served by ModelServer.",
                                  stat="n_requests")
        self.batches = m.counter("repro_server_batches_total",
                                 "Micro-batches drained (kernel calls).",
                                 stat="n_batches")
        self.rows = m.counter("repro_server_rows_total",
                              "Rows scored by ModelServer.", stat="n_rows")
        self.deadline = m.counter("repro_server_deadline_expired_total",
                                  "Requests failed on an expired deadline.",
                                  stat="n_deadline_expired")
        self.swaps = m.counter("repro_server_swaps_total",
                               "Hot model swaps installed.", stat="n_swaps")
        self.queue_wait = m.histogram(
            "repro_server_queue_wait_seconds",
            "Time a request waits in the ModelServer queue before its "
            "batch is drained.")
        self.kernel = m.histogram("repro_server_kernel_eval_seconds",
                                  "predict_proba kernel duration per drained "
                                  "batch.")
        self.swap_seconds = m.histogram(
            "repro_server_swap_seconds",
            "Hot-swap duration (challenger validation + kernel build + flip).")

    def install(self, active: _ActiveModel) -> None:
        """Flip the active record (one reference assignment) and count it."""
        self.active = active
        self.swaps.inc()

    def run(self, msg, get_nowait: Callable):
        """Drain one batch starting at request ``msg``, score it, answer it.

        Coalesces the requests already queued behind ``msg`` (fetched with
        ``get_nowait``, which raises ``queue.Empty``) up to ``max_batch``
        rows; a single larger request is served alone. Expired requests
        fail typed instead of being scored. Returns the dequeued message
        that ended the batch — a request that did not fit, or a control
        message that must wait for this batch — or ``None``.
        """
        batch: List[_Request] = []
        total = 0
        while isinstance(msg, _Request):
            if msg.expires_at is not None and time.monotonic() > msg.expires_at:
                self.deadline.inc()
                self._fail(
                    msg,
                    DeadlineExceededError(
                        f"request of {len(msg.rows)} row(s) expired after "
                        "waiting in the serving queue; not scored"
                    ),
                )
            elif batch and total + len(msg.rows) > self.max_batch:
                break  # would overflow the bound: first of the next batch
            else:
                batch.append(msg)
                total += len(msg.rows)
                if total >= self.max_batch:
                    msg = None
                    break
            try:
                msg = get_nowait()
            except queue.Empty:
                msg = None
        if batch:
            self._score(batch, total)
        return msg

    def _score(self, batch: List[_Request], total: int) -> None:
        try:
            if self._chaos is not None:
                self._chaos.fire("server.batch", count=int(self.batches.value) + 1)
            rows = (
                batch[0].rows
                if len(batch) == 1
                else np.vstack([req.rows for req in batch])
            )
            # Queue-wait ends here: the batch is drained and about to be
            # scored. Traced requests additionally leave a span each.
            for req in batch:
                telemetry.record_span(
                    "server.queue_wait",
                    req.waited.observe(self.queue_wait),
                    req.ctx,
                    server=self.metrics.label,
                    rows=len(req.rows),
                )
            # One read of the active record per drained batch: every
            # request in the batch is served by exactly this version,
            # and a concurrent swap only affects later batches.
            active = self.active
            kernel_watch = telemetry.stopwatch()
            proba = active.model.predict_proba(rows)
            kernel_s = kernel_watch.observe(self.kernel)
        except BaseException as exc:  # propagate per request
            for req in batch:
                self._fail(req, exc)
            return
        self.batches.inc()
        self.requests.inc(len(batch))
        self.rows.inc(total)
        self._batch_rows[total] += 1
        self._requests_by_version[active.version] += len(batch)
        offset = 0
        for req in batch:
            # The whole batch is one kernel call; each traced request is
            # attributed the shared duration.
            telemetry.record_span(
                "server.kernel_eval",
                kernel_s,
                req.ctx,
                server=self.metrics.label,
                version=active.version,
                batch_rows=total,
            )
            self._ok(req, proba[offset : offset + len(req.rows)], active.version)
            offset += len(req.rows)

    def stats(self) -> Dict:
        """Served-traffic snapshot: the active version and every counter
        declared with a ``stats()`` key on :attr:`metrics`."""
        active = self.active
        # dict(counter) copies at C level under the GIL — an atomic
        # snapshot; iterating the live Counter while the batcher inserts a
        # new key would raise "dictionary changed size during iteration".
        batch_rows = dict(self._batch_rows)
        by_version = dict(self._requests_by_version)
        return {
            "model_version": active.version,
            "packed": active.packed,
            **self.metrics.counts(),
            "batch_size_distribution": {
                int(k): int(v) for k, v in sorted(batch_rows.items())
            },
            "requests_by_version": {
                str(k): int(v) for k, v in sorted(by_version.items())
            },
        }


class _Endpoint:
    """The request surface :class:`ModelServer` and
    :class:`~repro.serving.WorkerPool` share. Each supplies ``_enqueue``
    (admission), ``_version_records`` (version → decode identity),
    ``threshold`` and ``close``."""

    def submit(self, rows, *, deadline: Optional[float] = None) -> Future:
        """Queue rows for scoring; the future resolves to their
        ``predict_proba`` matrix (columns follow ``model.classes_``).

        ``deadline`` is this request's scoring budget in seconds. A
        request not scored when its deadline expires fails with
        :class:`~repro.exceptions.DeadlineExceededError` instead of
        being scored late (an already-expired deadline raises at
        submission); ``None`` waits indefinitely. A pool request whose
        worker dies fails with :class:`~repro.exceptions.WorkerCrashedError`:
        no future ever hangs."""
        return self._enqueue(rows, want_version=False, deadline=deadline)

    def submit_scored(self, rows, *, deadline: Optional[float] = None) -> Future:
        """Like :meth:`submit`, but the future resolves to a
        :class:`ScoredBatch` carrying the serving ``model_version``."""
        return self._enqueue(rows, want_version=True, deadline=deadline)

    def predict_proba(self, rows) -> np.ndarray:
        """Synchronous scoring."""
        return self.submit(rows).result()

    def score(self, rows) -> ScoredBatch:
        """Synchronous scoring with the serving version stamp."""
        return self.submit_scored(rows).result()

    def predict(self, rows) -> np.ndarray:
        """Thresholded classification (not the estimators' argmax).

        Binary models emit :attr:`positive_class` where its probability is
        ``>= threshold``; multi-class models fall back to argmax. The
        probabilities are decoded with the classes/positive-index of the
        *version that scored them* (looked up by the ``ScoredBatch``
        stamp), so a swap landing between submission and scoring can
        never mis-map the columns.
        """
        scored = self.score(rows)
        record = self._version_records[scored.model_version]
        return _decode(record, scored.proba, self.threshold)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class ModelServer(_Endpoint):
    """Serve a fitted ensemble (or a persisted artifact) over micro-batches.

    Parameters
    ----------
    model : fitted classifier, or str / path
        A path is loaded through :func:`repro.persistence.load_model`.
    threshold : float in [0, 1], default 0.5
        Decision threshold on the positive-class probability used by
        :meth:`predict`; writable at runtime (``server.threshold = t``).
    max_batch : int, default 256
        Maximum rows coalesced into one kernel call by the batching worker.
    max_pending : int, default 4096
        Bound on queued requests; :meth:`submit` raises
        :class:`~repro.exceptions.ServerOverloadedError` beyond it.
    model_version : str, default "v0"
        Version stamp for the initial model (use the
        :class:`~repro.lifecycle.ArtifactRegistry` id when serving a
        registered artifact); :meth:`swap_model` installs new stamps.
    mmap : bool, default False
        Load artifact paths with ``load_model(path, mmap_mode="r")``: the
        fitted arrays stay read-only views into the file, so co-located
        servers (and the :class:`~repro.serving.WorkerPool` worker fleet)
        share one page-cache copy of the model instead of one heap copy
        each. Ignored when ``model`` is a live fitted estimator.
    chaos : :class:`repro.chaos.FaultPlan`, optional
        Deterministic fault-injection hooks for tests and the chaos
        benchmark (see :mod:`repro.chaos`); ``None`` (the default)
        disables every hook.

    Attributes
    ----------
    packed_ : bool — the active model is served by a warm ``PackedForest``.
    telemetry_label_ : str — this server's ``server`` label value in the
        telemetry registry.

    Examples
    --------
    >>> from repro.serving import ModelServer
    >>> server = ModelServer(clf, threshold=0.3)          # doctest: +SKIP
    >>> proba = server.predict_proba(X_batch)             # doctest: +SKIP
    >>> labels = server.predict(X_batch)                  # doctest: +SKIP
    >>> server.swap_model(new_clf, version="v0002")       # doctest: +SKIP
    >>> server.stats()["model_version"]                   # doctest: +SKIP
    >>> server.close()                                    # doctest: +SKIP
    """

    def __init__(
        self,
        model,
        *,
        threshold: float = 0.5,
        max_batch: int = 256,
        max_pending: int = 4096,
        model_version: str = "v0",
        mmap: bool = False,
        chaos=None,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        self.mmap = bool(mmap)
        self.threshold = threshold
        self._queue: "queue.Queue" = queue.Queue(maxsize=int(max_pending))
        self._worker: Optional[threading.Thread] = None
        self._lock = threading.Lock()
        self._closed = False
        active = _load_active(model, str(model_version), self.mmap)
        self._batcher = _Batcher(
            active,
            max_batch,
            ok=lambda req, proba, version: req.reply.set_result(
                ScoredBatch(proba, version) if req.want_version else proba
            ),
            fail=lambda req, exc: req.reply.set_exception(exc),
            chaos=chaos,
        )
        metrics = self._batcher.metrics
        self.telemetry_label_ = metrics.label
        # Admission is this server's: the batcher never sees a rejection.
        self._overflows = metrics.counter(
            "repro_server_overflows_total",
            "Submissions rejected on a full queue.", stat="n_overflows")
        self._queue_depth = metrics.gauge(
            "repro_server_queue_depth",
            "Requests waiting in the ModelServer queue.")
        # version → decode identity, for results stamped with a version
        # other than the current one (predict across a swap).
        self._version_records: Dict[str, _VersionRecord] = {
            active.version: active.record
        }

    @property
    def max_batch(self) -> int:
        """Maximum rows coalesced into one kernel call."""
        return self._batcher.max_batch

    # -- serving identity (all views of the one _ActiveModel record) ---- #
    @property
    def model(self):
        """The currently served model."""
        return self._batcher.active.model

    @property
    def model_version(self) -> str:
        """Version stamp of the currently served model."""
        return self._batcher.active.version

    @property
    def positive_class(self):
        """The label :meth:`predict` emits when the thresholded probability
        clears :attr:`threshold` (the minority class when known)."""
        record = self._batcher.active.record
        return record.classes[record.positive_idx]

    @property
    def positive_index(self) -> int:
        """Column of the positive class in ``predict_proba`` output."""
        return self._batcher.active.record.positive_idx

    @property
    def packed_(self) -> bool:
        """Whether the active model serves via a packed kernel."""
        return self._batcher.active.packed

    @property
    def threshold(self) -> float:
        """Decision threshold on the positive-class probability."""
        return self._threshold

    @threshold.setter
    def threshold(self, value: float) -> None:
        """Set the positive-class decision threshold."""
        value = float(value)
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"threshold must be in [0, 1], got {value}")
        self._threshold = value

    # ------------------------------------------------------------------ #
    def swap_model(self, model, *, version: Optional[str] = None) -> str:
        """Atomically replace the served model; returns the new version.

        Zero-downtime by construction:

        1. the challenger (a fitted model or an artifact path) is
           validated and its packed kernel is built *first*, in the
           calling thread — the serving worker keeps draining the queue
           with the old model the whole time;
        2. the new :class:`_ActiveModel` record is installed under the
           submit lock — a single reference assignment, so the lock is
           held for nanoseconds, not for a kernel build;
        3. the worker reads the active record exactly once per drained
           batch, so every request — including ones queued before the
           swap — is served entirely by one model version, and none is
           dropped or blocked.

        Requests scored after the flip carry the new ``model_version``
        stamp in their :class:`ScoredBatch`. The outgoing model is not
        retained.
        """
        swap_watch = telemetry.stopwatch()
        # expensive part (validation + kernel build), outside the lock
        active = _load_active(
            model, "(pending)" if version is None else str(version), self.mmap
        )
        with self._lock:
            if self._closed:
                raise ServerClosedError("ModelServer is closed")
            if version is None:
                # auto-version under the lock: concurrent unnamed swaps
                # must never install the same stamp
                swaps = int(self._batcher.swaps.value)
                active = replace(active, version=f"swap-{swaps + 1}")
            self._version_records[active.version] = active.record
            self._batcher.install(active)  # atomic pointer flip
        swap_watch.observe(self._batcher.swap_seconds)
        return active.version

    def _enqueue(
        self, rows, want_version: bool, deadline: Optional[float] = None
    ) -> Future:
        rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
        expires_at = _expires_at(deadline, self._batcher.deadline)
        future: Future = Future()
        # The trace context and queue-wait stopwatch travel with the
        # request; both are no-ops for untraced/unsampled traffic.
        request = _Request(
            rows, expires_at, telemetry.current_context(), future, want_version
        )
        # Enqueue under the lock: close() also holds it while setting
        # _closed and enqueuing the stop sentinel, so a request can never
        # slip in after the sentinel (its future would otherwise hang).
        with self._lock:
            if self._closed:
                raise ServerClosedError("ModelServer is closed")
            if self._worker is None:
                self._worker = threading.Thread(
                    target=self._serve_loop, name="repro-model-server", daemon=True
                )
                self._worker.start()
            try:
                self._queue.put_nowait(request)
            except queue.Full:
                self._overflows.inc()
                raise ServerOverloadedError(
                    f"request queue is full ({self._queue.maxsize} pending); "
                    "back off and retry"
                ) from None
        return future

    def _serve_loop(self) -> None:
        carry = None  # dequeued message that ended the previous batch
        while True:
            msg = self._queue.get() if carry is None else carry
            if msg is _STOP:
                return
            carry = self._batcher.run(msg, self._queue.get_nowait)
            self._queue_depth.set(self._queue.qsize())

    # ------------------------------------------------------------------ #
    def stats(self) -> Dict:
        """Server-health snapshot for monitoring loops and benchmarks.

        Counters are written by the single worker thread (traffic) and
        the submit path (overflows); the snapshot is advisory — exact for
        a drained queue, approximate by a batch under load.
        """
        depth = self._queue.qsize()
        self._queue_depth.set(depth)
        return {
            **self._batcher.stats(),
            "threshold": self._threshold,
            "queue_depth": depth,
        }

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Stop the batching worker; pending requests are still served."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            worker = self._worker
            if worker is not None:
                # Under the lock: no submit can enqueue after the sentinel.
                # The worker drains without taking the lock, so a full
                # queue always makes progress for the blocking put.
                self._queue.put(_STOP)  # repro-lint: disable=lock-blocking-call
        if worker is not None:
            worker.join()
