"""Multi-process serving plane: a supervised fleet of forked workers.

:class:`WorkerPool` turns the single-process micro-batcher into N worker
*processes* that serve one model without N heap copies:

* **Zero-copy model sharing** — the pool loads the artifact in the parent
  with ``load_model(path, mmap_mode="r")`` (fitted arrays are read-only
  views into the file, physically backed by the page cache) and builds the
  packed serving kernel **once, before forking**. Workers are started with
  the ``fork`` method, so both the mapped artifact pages and the
  parent-built kernel arrays are inherited copy-on-write — and since
  serving never writes them, they are never copied. The marginal private
  memory of an extra worker is queue buffers and interpreter churn, not
  another resident model (measured per worker via
  :func:`process_private_kb` and asserted in ``benchmarks/bench_serving.py``).
* **Each worker is a micro-batcher** — each worker owns a bounded
  ``multiprocessing`` request queue and runs the in-process server's
  batching core straight off it (coalescing up to ``max_batch`` rows per
  kernel call, version stamps, FIFO control messages), with no second
  queue or thread. The pool dispatches round-robin across *live* workers;
  a full worker queue raises :class:`~repro.exceptions.ServerOverloadedError`
  at submission. That is the only admission check per worker: an
  admitted request is scored or fails typed, never with an overload.
* **Supervision** — the collector thread doubles as the fleet supervisor:
  between result messages it polls every worker's liveness
  (``Process.is_alive()``). A worker that died without sending its clean
  ``stopped`` ack is a *crash*: every one of its in-flight futures fails
  **immediately** with a typed
  :class:`~repro.exceptions.WorkerCrashedError` (no future ever hangs on
  a dead process), pending fleet swaps are acknowledged on its behalf,
  and the worker is **respawned with capped exponential backoff**
  (``respawn_backoff * 2**(crashes-1)``, capped at
  ``respawn_backoff_cap``), re-warmed from the pool's *current* model
  source — so a crash mid-swap respawns straight onto the new version.
  Crash/respawn counters and per-worker states surface in :meth:`stats`.
* **Per-request deadlines** — ``submit(rows, deadline=...)`` carries an
  absolute expiry through the fork queues. Expired requests fail fast
  with :class:`~repro.exceptions.DeadlineExceededError` wherever they are
  found first: at submission, by the supervisor (which also covers
  requests stuck behind a stalled or dead worker), or when the worker
  dequeues it — never scored late, never hung.
* **Fleet-wide hot swap** — :meth:`swap_model` publishes a new *artifact
  path* to every live worker. Each worker loads the challenger (mmap'd
  again — the fleet converges onto one shared copy of the *new* model),
  warm-packs it on a side thread, then flips its ``_ActiveModel``
  record; the serving queue keeps draining with the old model until the
  flip, so no request is ever dropped or blocked. Crashed workers
  converge through respawn (the respawn source is updated before the
  broadcast), so a swap survives a worker dying mid-broadcast. The swap
  is validated parent-side first: a corrupt or truncated artifact raises
  :class:`~repro.exceptions.PersistenceError` *before* anything is
  broadcast, leaving every worker on the old version.
* **Observability** — :meth:`stats` aggregates pool-level counters,
  per-worker versions, states and crash counts; :meth:`worker_stats` asks
  every live worker for its served-traffic counters plus its
  private-memory footprint; :meth:`wait_healthy` blocks until the
  fleet is back at full, responsive capacity.

The pool requires the ``fork`` start method (Linux/macOS): zero-copy
inheritance of the pre-built kernel is the point. Construct it before
starting heavy threads in the parent, as with any fork.
"""

from __future__ import annotations

import builtins
import itertools
import multiprocessing
import os
import queue as queue_mod
import threading
import time
from collections import Counter
from concurrent.futures import Future
from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import exceptions as _exceptions
from .. import telemetry
from ..exceptions import (
    DeadlineExceededError,
    FleetTimeoutError,
    ServerClosedError,
    ServerOverloadedError,
    SwapFailedError,
    UnsupportedPlatformError,
    WorkerCrashedError,
)
from .server import (
    ScoredBatch,
    _Batcher,
    _Endpoint,
    _expires_at,
    _load_active,
    _record_from_model,
    _Request,
    _VersionRecord,
)

__all__ = ["WorkerPool", "process_private_kb"]

#: Worker lifecycle states surfaced in ``stats()["worker_states"]``.
_ALIVE, _CRASHED, _STOPPED = "alive", "crashed", "stopped"


def process_private_kb() -> Optional[float]:
    """Private (unshared) resident memory of this process, in KiB.

    Reads ``Private_Clean + Private_Dirty`` from
    ``/proc/self/smaps_rollup`` — pages mapped *only* by this process.
    File-backed pages of an mmap'd artifact and copy-on-write pages
    inherited from the pool parent are shared, so they do not count: this
    is the honest per-worker cost of attaching one more worker to the
    fleet. Returns ``None`` where the proc file is unavailable (non-Linux)
    or unparsable (a hardened/backported kernel exposing a truncated
    rollup) — callers degrade to a ``nan`` gauge, never an exception.
    """
    try:
        with open("/proc/self/smaps_rollup") as handle:
            total = 0.0
            for line in handle:
                if line.startswith(("Private_Clean:", "Private_Dirty:")):
                    total += float(line.split()[1])
            return total
    except (OSError, ValueError, IndexError):
        return None


def _rebuild_exception(name: str, text: str) -> BaseException:
    """Reconstruct a worker-side exception by name, preserving its type.

    Resolves library exceptions from :mod:`repro.exceptions` first, then
    builtin exceptions (``ValueError``, ``MemoryError``, ...) — a worker
    raising ``ValueError`` must resurface as ``ValueError``, not be
    flattened to a bare ``RuntimeError``. Unknown or unconstructible
    names fall back to ``RuntimeError`` with the name preserved in the
    message.
    """
    cls = getattr(_exceptions, name, None)
    if not (isinstance(cls, type) and issubclass(cls, BaseException)):
        cls = getattr(builtins, name, None)
    if isinstance(cls, type) and issubclass(cls, BaseException):
        try:
            return cls(text)
        except Exception:  # repro-lint: disable=swallowed-exception
            # Exotic constructor signature (e.g. UnicodeDecodeError):
            # fall through to the RuntimeError wrapper below.
            pass
    return RuntimeError(f"worker error ({name}): {text}")


def _worker_main(
    worker_id: int,
    generation: int,
    model,
    version: str,
    max_batch: int,
    mmap: bool,
    req_q,
    res_q,
    chaos,
) -> None:
    """One worker process: the micro-batcher of its fork queue.

    Message protocol (FIFO per worker):
      ("req", req_id, rows, expires_at, ctx)
                                   → ("ok", req_id, proba, version, spans)
                                   | ("err", req_id, exc_name, text, spans)
      ("swap", path, version)      → ("swapped", worker_id, version,
                                      (exc_name, text) | None)
      ("stats", token)             → ("stats", worker_id, token, payload)
      ("stop",)                    → ("stopped", worker_id)   [terminates]

    The loop takes a request off the queue and coalesces the requests
    already queued behind it into one batch (the shared
    :class:`~repro.serving.server._Batcher`): one read of the active
    record, one kernel call, one reply per request. A control message
    ends the batch it is found in and is handled after it, so swaps,
    stats and stop stay in FIFO order. The fork queue is the worker's only
    admission bound: nothing it delivers is ever rejected here.

    ``ctx`` is the request's ``(trace_id, span_id)`` telemetry context (or
    ``None``); the batcher records ``server.queue_wait`` (dequeue to kernel
    call) and ``server.kernel_eval`` spans under it, and ``spans`` carries
    them back — each reply drains this worker's span sink for the trace
    (``Span.to_wire`` tuples) and the parent re-records them, stitching
    the cross-process timeline together.

    On start the worker announces ("ready", worker_id, generation) — the
    supervisor's respawn-convergence signal. Swaps load and warm-pack the
    challenger on a side thread, so the queue keeps draining with the old
    model until the active record flips; a batch is served entirely by the
    version it read — zero drops.

    ``chaos`` (a :class:`repro.chaos.FaultPlan` or ``None``) is fired at
    the ``worker.request`` / ``worker.reply`` / ``worker.swap`` sites
    with this worker's own deterministic counters and generation.
    """
    baseline_kb = process_private_kb()
    swap_lock = threading.Lock()  # serialise overlapping fleet swaps
    swap_threads: List[threading.Thread] = []
    requests_seen = itertools.count(1)
    swaps_seen = itertools.count(1)
    replies_sent = itertools.count(1)

    def fire(site: str, counter) -> None:
        if chaos is not None:
            chaos.fire(
                site, worker=worker_id, count=next(counter), generation=generation
            )

    def take(block: bool = True):
        msg = req_q.get() if block else req_q.get_nowait()
        if msg[0] != "req":
            return msg
        fire("worker.request", requests_seen)
        _, req_id, rows, expires_at, ctx = msg
        return _Request(rows, expires_at, ctx, req_id)

    def reply(tag: str, req: _Request, *fields) -> None:
        spans: Tuple = ()
        if req.ctx is not None:
            # This worker's half of the trace rides home in the reply.
            spans = tuple(s.to_wire() for s in telemetry.drain_trace(req.ctx[0]))
        fire("worker.reply", replies_sent)
        res_q.put((tag, req.reply, *fields, spans))

    batcher = _Batcher(
        _load_active(model, version, mmap),
        max_batch,
        ok=lambda req, proba, version: reply("ok", req, proba, version),
        fail=lambda req, exc: reply("err", req, type(exc).__name__, str(exc)),
    )
    res_q.put(("ready", worker_id, generation))

    def do_swap(path: str, version: str) -> None:
        with swap_lock:
            swap_watch = telemetry.stopwatch()
            try:
                batcher.install(_load_active(path, version, mmap))
                swap_watch.observe(batcher.swap_seconds)
                # Acks are emitted under swap_lock on purpose: the parent
                # records worker_versions in ack order, so overlapping
                # swaps must ack in completion order. res_q is drained
                # continuously by the parent collector, bounding the put.
                res_q.put(("swapped", worker_id, version, None))  # repro-lint: disable=lock-blocking-call
            except BaseException as exc:
                res_q.put(  # repro-lint: disable=lock-blocking-call
                    ("swapped", worker_id, version, (type(exc).__name__, str(exc)))
                )

    carry = None  # dequeued message that ended the previous batch
    while True:
        msg = take() if carry is None else carry
        carry = None
        if isinstance(msg, _Request):
            carry = batcher.run(msg, lambda: take(block=False))
        elif msg[0] == "swap":
            fire("worker.swap", swaps_seen)
            thread = threading.Thread(target=do_swap, args=msg[1:], daemon=True)
            swap_threads.append(thread)
            thread.start()
        elif msg[0] == "stats":
            payload = batcher.stats()
            # Admission is the pool's fork queue; the key stays for
            # perfbench, which sums it (see WorkerPool.worker_stats).
            payload["n_overflows"] = 0
            payload["private_kb"] = process_private_kb()
            payload["baseline_private_kb"] = baseline_kb
            payload["generation"] = generation
            res_q.put(("stats", worker_id, msg[1], payload))
        elif msg[0] == "stop":
            for thread in swap_threads:
                thread.join()
            res_q.put(("stopped", worker_id))
            return


class WorkerPool(_Endpoint):
    """Serve one model from N supervised forked workers behind one door.

    Parameters
    ----------
    model : artifact path, or fitted classifier
        A path is loaded in the parent (memory-mapped when ``mmap=True``)
        and shared with every forked worker; a live fitted model is shared
        through fork copy-on-write directly. The original path (or live
        model) is retained as the respawn source until the first swap.
    n_workers : int, default 2
        Worker process count. Supervision keeps the fleet at this
        capacity: crashed workers respawn automatically.
    threshold : float in [0, 1], default 0.5
        Decision threshold :meth:`predict` applies (parent-side).
    max_batch : int, default 256
        Maximum rows a worker coalesces into one kernel call.
    max_pending : int, default 1024
        Bound on each worker's request queue — the pool's only admission
        check; a full queue raises
        :class:`~repro.exceptions.ServerOverloadedError` at submission.
    model_version : str, default "v0"
        Version stamp of the initial model.
    mmap : bool, default True
        Memory-map artifact loads (parent *and* every worker-side swap
        load), so the fleet shares one page-cache copy per artifact.
    poll_interval : float, default 0.05
        Seconds between supervisor passes (liveness checks, parent-side
        deadline expiry, due respawns).
    respawn_backoff : float, default 0.1
        Base respawn delay after a crash; doubles per consecutive crash
        of the same worker slot (``backoff * 2**(crashes-1)``).
    respawn_backoff_cap : float, default 5.0
        Ceiling on the exponential respawn delay.
    chaos : :class:`repro.chaos.FaultPlan`, optional
        Deterministic fault-injection hooks, inherited by every worker
        (see :mod:`repro.chaos`); ``None`` disables every hook.

    Examples
    --------
    >>> pool = WorkerPool("model.npz", n_workers=4)     # doctest: +SKIP
    >>> proba = pool.predict_proba(X_batch)             # doctest: +SKIP
    >>> future = pool.submit(X_batch, deadline=0.050)   # 50 ms budget
    ...                                                 # doctest: +SKIP
    >>> pool.swap_model("model_v2.npz", version="v2")   # doctest: +SKIP
    >>> pool.stats()["n_crashes"]                       # doctest: +SKIP
    >>> pool.close()                                    # doctest: +SKIP
    """

    def __init__(
        self,
        model,
        *,
        n_workers: int = 2,
        threshold: float = 0.5,
        max_batch: int = 256,
        max_pending: int = 1024,
        mmap: bool = True,
        model_version: str = "v0",
        poll_interval: float = 0.05,
        respawn_backoff: float = 0.1,
        respawn_backoff_cap: float = 5.0,
        chaos=None,
    ):
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if "fork" not in multiprocessing.get_all_start_methods():
            raise UnsupportedPlatformError(
                "WorkerPool requires the 'fork' start method (zero-copy "
                "model inheritance); use ModelServer on this platform"
            )
        if max_batch < 1 or max_pending < 1:
            raise ValueError("max_batch and max_pending must be >= 1")
        if poll_interval <= 0:
            raise ValueError("poll_interval must be > 0")
        if respawn_backoff <= 0 or respawn_backoff_cap < respawn_backoff:
            raise ValueError(
                "need 0 < respawn_backoff <= respawn_backoff_cap"
            )
        self.n_workers = int(n_workers)
        self.threshold = float(threshold)
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError(f"threshold must be in [0, 1], got {threshold}")
        self.mmap = bool(mmap)
        self.poll_interval = float(poll_interval)
        self.respawn_backoff = float(respawn_backoff)
        self.respawn_backoff_cap = float(respawn_backoff_cap)
        self._chaos = chaos
        self._max_batch = int(max_batch)
        model_version = str(model_version)
        # Load, validate and build the packed serving kernel ONCE,
        # pre-fork: every worker's batcher hits this exact cache entry
        # (inherited through fork) instead of building a private copy.
        active = _load_active(model, model_version, self.mmap)
        # Respawns re-load an artifact themselves (keep the path); a live
        # model is forked copy-on-write, exactly like the original
        # workers — keep the strong reference alive.
        is_path = isinstance(model, (str, bytes)) or hasattr(model, "__fspath__")
        self._current_source = os.fspath(model) if is_path else model
        self._current_version = model_version
        self._version_records: Dict[str, _VersionRecord] = {
            model_version: active.record
        }

        self._ctx = multiprocessing.get_context("fork")
        self._max_pending = int(max_pending)
        self._req_queues = [
            self._ctx.Queue(maxsize=self._max_pending)
            for _ in range(self.n_workers)
        ]
        self._res_q = self._ctx.Queue()
        self._procs: List[Optional[multiprocessing.process.BaseProcess]] = [
            None
        ] * self.n_workers

        self._lock = threading.Lock()
        self._closed = False
        self._stop_collecting = threading.Event()
        #: req_id → (future, want_version, worker, expires_at, sw, ctx)
        self._futures: Dict[int, Tuple] = {}
        self._next_id = itertools.count()
        self._rr = 0
        self._init_metrics()
        self._requests_by_version: Counter = Counter()
        self._worker_versions: Dict[int, Optional[str]] = {
            i: model_version for i in range(self.n_workers)
        }
        self._worker_state: Dict[int, str] = {
            i: _ALIVE for i in range(self.n_workers)
        }
        self._worker_generation: Dict[int, int] = {
            i: 0 for i in range(self.n_workers)
        }
        self._worker_crashes: Dict[int, int] = {
            i: 0 for i in range(self.n_workers)
        }
        self._respawn_at: Dict[int, float] = {}
        self._swap_waits: Dict[str, Dict] = {}
        self._stats_waits: Dict[int, Dict] = {}
        self._stats_tokens = itertools.count()

        for i in range(self.n_workers):
            self._start_worker(i, 0, active.model)
        self._collector = threading.Thread(
            target=self._collect, name="repro-pool-supervisor", daemon=True
        )
        self._collector.start()

    # ------------------------------------------------------------------ #
    # telemetry (parent-side; each worker's inner server has its own)
    # ------------------------------------------------------------------ #
    def _init_metrics(self) -> None:
        """Declare this pool's metrics on its own scope."""
        m = self._metrics = telemetry.MetricScope("pool")
        self.telemetry_label_ = m.label
        self._m_requests = m.counter("repro_pool_requests_total",
                                     "Requests answered by the worker fleet.",
                                     stat="n_requests")
        self._m_overflows = m.counter(
            "repro_pool_overflows_total",
            "Requests rejected because a worker queue was full.",
            stat="n_overflows")
        self._m_swaps = m.counter("repro_pool_swaps_total",
                                  "Fleet-wide model swaps broadcast.",
                                  stat="n_swaps")
        self._m_crashes = m.counter(
            "repro_pool_crashes_total",
            "Worker processes that died without a clean stop ack.",
            stat="n_crashes")
        self._m_respawns = m.counter(
            "repro_pool_respawns_total",
            "Replacement workers started after crashes.", stat="n_respawns")
        self._m_deadline = m.counter(
            "repro_pool_deadline_expired_total",
            "Requests failed parent-side because their deadline passed.",
            stat="n_deadline_expired")
        self._m_late = m.counter(
            "repro_pool_late_replies_total",
            "Worker replies that arrived after their request had already "
            "failed (deadline or crash).", stat="n_late_replies")
        self._m_smaps_unavailable = m.counter(
            "repro_pool_smaps_unavailable_total",
            "worker_stats() rounds where /proc smaps_rollup could not be "
            "read (footprint gauges degrade to NaN).")
        self._g_pending = m.gauge("repro_pool_pending_requests",
                                  "In-flight requests awaiting a worker reply.")
        self._h_roundtrip = m.histogram(
            "repro_pool_roundtrip_seconds",
            "Submit-to-reply latency through the fork queues.")
        self._h_swap = m.histogram(
            "repro_pool_swap_seconds",
            "Fleet swap duration (broadcast to full convergence).")
        self._g_worker_kb = m.gauge(
            "repro_pool_worker_private_kb",
            "Private (unshared) resident memory per worker, KiB "
            "(NaN when smaps_rollup is unavailable).", labels=("worker",))

    def _stitch_reply(self, sw, ctx, worker: int, spans) -> None:
        """Record a reply's round-trip and re-record its worker spans.

        Called outside the pool lock. ``spans`` are ``Span.to_wire``
        tuples minted in the worker process; re-recording them into the
        parent sink (tagged with the worker slot) completes the
        cross-process trace.
        """
        elapsed = sw.observe(self._h_roundtrip)
        if ctx is None or not telemetry.sampling_enabled():
            return
        sink = telemetry.get_sink()
        for wire in spans:
            span = telemetry.Span.from_wire(wire)
            span.tags.setdefault("worker", worker)
            sink.record(span)
        telemetry.record_span(
            "pool.roundtrip",
            elapsed,
            ctx,
            pool=self.telemetry_label_,
            worker=worker,
        )

    # ------------------------------------------------------------------ #
    # collector + supervisor (one parent thread)
    # ------------------------------------------------------------------ #
    def _collect(self) -> None:
        """Resolve worker responses; supervise the fleet between them."""
        next_pass = time.monotonic() + self.poll_interval
        while not self._stop_collecting.is_set():
            timeout = max(0.001, next_pass - time.monotonic())
            try:
                msg = self._res_q.get(timeout=timeout)
            except queue_mod.Empty:
                msg = None
            if msg is not None:
                if msg[0] == "__close__":
                    return
                try:
                    self._dispatch(msg)
                except Exception:  # repro-lint: disable=swallowed-exception
                    # A malformed message (e.g. a reply half-written by a
                    # dying worker) must never kill the supervisor — the
                    # affected request is recovered by crash detection or
                    # deadline expiry.
                    pass
            if time.monotonic() >= next_pass:
                self._supervise()
                next_pass = time.monotonic() + self.poll_interval

    def _dispatch(self, msg) -> None:
        tag = msg[0]
        if tag == "ok":
            _, req_id, proba, version, spans = msg
            with self._lock:
                entry = self._futures.pop(req_id, None)
                if entry is None:  # already failed (deadline/crash)
                    self._m_late.inc()
                    return
                future, want_version, worker, _, sw, ctx = entry
                self._m_requests.inc()
                self._g_pending.set(len(self._futures))
                self._requests_by_version[version] += 1
            self._stitch_reply(sw, ctx, worker, spans)
            future.set_result(
                ScoredBatch(proba, version) if want_version else proba
            )
        elif tag == "err":
            _, req_id, name, text, spans = msg
            with self._lock:
                entry = self._futures.pop(req_id, None)
                if entry is None:
                    self._m_late.inc()
                    return
                future, _, worker, _, sw, ctx = entry
                self._g_pending.set(len(self._futures))
            self._stitch_reply(sw, ctx, worker, spans)
            future.set_exception(_rebuild_exception(name, text))
        elif tag == "swapped":
            _, worker_id, version, err = msg
            with self._lock:
                if err is None:
                    self._worker_versions[worker_id] = version
                wait = self._swap_waits.get(version)
                if wait is not None and worker_id not in wait["acked"]:
                    wait["acked"].add(worker_id)
                    if err is not None:
                        wait["errors"].append((worker_id, err[0], err[1]))
                    if len(wait["acked"]) >= self.n_workers:
                        wait["event"].set()
        elif tag == "stats":
            _, worker_id, token, payload = msg
            with self._lock:
                wait = self._stats_waits.get(token)
                if wait is not None:
                    wait["replies"][worker_id] = payload
                    if set(wait["replies"]) >= wait["expected"]:
                        wait["event"].set()
        elif tag == "ready":
            _, worker_id, generation = msg
            with self._lock:
                # Respawn convergence confirmation; state was already set
                # optimistically at spawn time.
                if self._worker_generation.get(worker_id) == generation:
                    self._worker_state.setdefault(worker_id, _ALIVE)
        elif tag == "stopped":
            _, worker_id = msg
            with self._lock:
                self._worker_state[worker_id] = _STOPPED

    def _supervise(self) -> None:
        """One supervision pass: expire deadlines, detect crashes, respawn."""
        now = time.monotonic()
        expired: List[Future] = []
        crashed_futures: List[Tuple[Future, str]] = []
        with self._lock:
            if self._closed:
                return
            for req_id, (future, _, worker, expires_at, _, _) in list(
                self._futures.items()
            ):
                if expires_at is not None and now > expires_at:
                    del self._futures[req_id]
                    self._m_deadline.inc()
                    expired.append(future)
            for i in range(self.n_workers):
                proc = self._procs[i]
                if (
                    proc is None
                    or self._worker_state[i] != _ALIVE
                    or proc.is_alive()
                ):
                    continue
                # A worker that never sent "stopped" and is no longer
                # alive crashed (OOM-kill, SIGKILL, os._exit, segfault).
                crashed_futures.extend(self._mark_crashed(i, proc.exitcode, now))
            for i, due in list(self._respawn_at.items()):
                if now >= due:
                    self._respawn(i)
        for future in expired:
            if not future.done():
                future.set_exception(
                    DeadlineExceededError(
                        "request deadline expired before a worker answered"
                    )
                )
        for future, detail in crashed_futures:
            if not future.done():
                future.set_exception(WorkerCrashedError(detail))

    def _mark_crashed(
        self, worker: int, exitcode, now: float
    ) -> List[Tuple[Future, str]]:
        """Record a crash (lock held); return the futures to fail."""
        self._m_crashes.inc()
        self._worker_crashes[worker] += 1
        self._worker_state[worker] = _CRASHED
        self._worker_versions[worker] = None
        detail = (
            f"worker {worker} crashed (exit code {exitcode}) before "
            "answering; the request was not scored — safe to retry"
        )
        failed = []
        for req_id, (future, _, owner, _, _, _) in list(self._futures.items()):
            if owner == worker:
                del self._futures[req_id]
                failed.append((future, detail))
        # Pending fleet swaps: acknowledge on the dead worker's behalf.
        # The respawn source/version were updated before the broadcast,
        # so the respawned worker converges onto the swap target — a
        # crash mid-swap delays convergence, it does not fail the swap.
        for version, wait in self._swap_waits.items():
            if worker not in wait["acked"]:
                wait["acked"].add(worker)
                if version != self._current_version:
                    wait["errors"].append(
                        (worker, "WorkerCrashedError", detail)
                    )
                if len(wait["acked"]) >= self.n_workers:
                    wait["event"].set()
        # Pending stats round-trips can no longer expect this worker.
        for wait in self._stats_waits.values():
            wait["expected"].discard(worker)
            if set(wait["replies"]) >= wait["expected"]:
                wait["event"].set()
        backoff = min(
            self.respawn_backoff_cap,
            self.respawn_backoff * (2 ** (self._worker_crashes[worker] - 1)),
        )
        self._respawn_at[worker] = now + backoff
        return failed

    def _respawn(self, worker: int) -> None:
        """Start a fresh process in a crashed worker's slot (lock held).

        The replacement gets a *new* request queue (nothing from the dead
        incarnation's queue can leak in — those requests already failed
        typed), an incremented generation (so one-shot chaos kill faults
        don't re-fire), and the pool's current model source/version.
        """
        del self._respawn_at[worker]
        generation = self._worker_generation[worker] + 1
        self._worker_generation[worker] = generation
        old_q = self._req_queues[worker]
        self._req_queues[worker] = self._ctx.Queue(maxsize=self._max_pending)
        self._start_worker(worker, generation, self._current_source)
        self._worker_state[worker] = _ALIVE
        self._worker_versions[worker] = self._current_version
        self._m_respawns.inc()
        # The dead incarnation's queue may still hold unread messages with
        # a feeder thread blocked on the (reader-less) pipe; never let
        # interpreter exit wait on that flush.
        old_q.cancel_join_thread()
        old_q.close()

    def _live_workers(self) -> List[int]:
        """Slots whose worker is alive (lock held)."""
        return [i for i, state in self._worker_state.items() if state == _ALIVE]

    def _start_worker(self, worker: int, generation: int, source) -> None:
        """Fork the process for slot ``worker`` onto its request queue."""
        proc = self._ctx.Process(
            target=_worker_main,
            args=(
                worker,
                generation,
                source,
                self._current_version,
                self._max_batch,
                self.mmap,
                self._req_queues[worker],
                self._res_q,
                self._chaos,
            ),
            name=f"repro-pool-worker-{worker}-gen{generation}",
            daemon=True,
        )
        self._procs[worker] = proc
        proc.start()

    # ------------------------------------------------------------------ #
    def _enqueue(self, rows, want_version: bool, deadline=None) -> Future:
        """Admit rows to the next live worker (round-robin); the deadline
        is enforced end to end: supervisor, worker queue, serving loop."""
        rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
        ctx = telemetry.current_context()
        sw = telemetry.stopwatch()
        expires_at = _expires_at(deadline, self._m_deadline)
        future: Future = Future()
        with self._lock:
            if self._closed:
                raise ServerClosedError("WorkerPool is closed")
            worker = None
            for step in range(self.n_workers):
                idx = (self._rr + step) % self.n_workers
                if self._worker_state[idx] == _ALIVE:
                    worker = idx
                    break
            if worker is None:
                raise WorkerCrashedError(
                    "no live workers: the whole fleet crashed and is "
                    "respawning — back off and retry"
                )
            self._rr = (worker + 1) % self.n_workers
            req_id = next(self._next_id)
            self._futures[req_id] = (
                future, want_version, worker, expires_at, sw, ctx
            )
            self._g_pending.set(len(self._futures))
            try:
                self._req_queues[worker].put_nowait(
                    ("req", req_id, rows, expires_at, ctx)
                )
            except queue_mod.Full:
                del self._futures[req_id]
                self._m_overflows.inc()
                raise ServerOverloadedError(
                    f"worker {worker} request queue is full; back off and "
                    "retry"
                ) from None
        return future

    # ------------------------------------------------------------------ #
    #: Fleet swaps ship artifact *paths*, not live objects — the
    #: LifecycleController keys on this to promote through the registry's
    #: persisted artifact instead of the in-memory challenger.
    swaps_by_path = True

    def swap_model(
        self,
        path,
        *,
        version: Optional[str] = None,
        wait: bool = True,
        timeout: float = 120.0,
    ) -> str:
        """Broadcast a new artifact to every worker; returns the version.

        Each live worker independently loads the artifact (mmap'd when
        the pool is, so the fleet converges onto one shared page-cache
        copy of the challenger), builds its packed kernel on a side
        thread, and flips its active record — its serving queue keeps
        draining the whole time, so zero requests are dropped or blocked
        fleet-wide (asserted under sustained load in
        ``benchmarks/bench_serving.py``). Crashed workers converge
        through respawn: the respawn source is repointed at the new
        artifact *before* the broadcast, so a worker dying mid-swap comes
        back already on the new version.

        The artifact is validated in the parent first: a truncated or
        corrupt ``.npz`` raises
        :class:`~repro.exceptions.PersistenceError` here, before any
        worker hears about it — every worker keeps serving the old
        version. Worker-side rejections (a race after parent validation)
        re-raise typed when every worker failed the same way.

        With ``wait=True`` (default) the call returns once every worker
        acknowledged the swap (or crashed and was scheduled to respawn
        onto it) — the fleet has converged or is converging — and raises
        if any worker rejected the artifact. ``wait=False`` returns
        immediately; track convergence through
        ``stats()["model_versions"]``.
        """
        if not (isinstance(path, (str, bytes)) or hasattr(path, "__fspath__")):
            raise TypeError(
                "WorkerPool.swap_model takes an artifact path: the fleet "
                "re-loads the model per process (save_model(...) first, or "
                "use ArtifactRegistry.path())"
            )
        path = os.fspath(path)
        # Parent-side decode record, built before the broadcast so results
        # stamped with the new version always resolve. Also validates the
        # artifact once up front — a corrupt/truncated/missing artifact
        # raises PersistenceError here, not in N workers: the broadcast
        # never happens and the whole fleet keeps the old version.
        from ..persistence import load_model

        swap_watch = telemetry.stopwatch()
        challenger = load_model(path, mmap_mode="r" if self.mmap else None)
        record = _record_from_model(challenger)
        del challenger  # only the mapping's decode identity is kept

        with self._lock:
            if self._closed:
                raise ServerClosedError("WorkerPool is closed")
            self._m_swaps.inc()
            if version is None:
                version = f"swap-{int(self._m_swaps.value)}"
            version = str(version)
            self._version_records[version] = record
            # Repoint the respawn source first: any worker that crashes
            # from here on respawns straight onto the new artifact.
            self._current_source = path
            self._current_version = version
            live = self._live_workers()
            # Workers currently down converge via respawn — pre-ack them.
            waiter = {
                "event": threading.Event(),
                "acked": set(range(self.n_workers)) - set(live),
                "errors": [],
            }
            if len(waiter["acked"]) >= self.n_workers:
                waiter["event"].set()
            self._swap_waits[version] = waiter
            queues = [self._req_queues[i] for i in live]
        for req_q in queues:
            req_q.put(("swap", path, version))
        if not wait:
            swap_watch.observe(self._h_swap)  # broadcast time only
            return version
        try:
            if not waiter["event"].wait(timeout):
                raise FleetTimeoutError(
                    f"fleet swap to {version!r} did not converge within "
                    f"{timeout}s: acked "
                    f"{len(waiter['acked'])}/{self.n_workers}"
                )
            if waiter["errors"]:
                names = {name for _, name, _ in waiter["errors"]}
                detail = "; ".join(
                    f"worker {wid}: {name}: {text}"
                    for wid, name, text in waiter["errors"]
                )
                message = (
                    f"fleet swap to {version!r} failed on "
                    f"{len(waiter['errors'])} worker(s): {detail}"
                )
                if len(names) == 1:
                    raise _rebuild_exception(names.pop(), message)
                raise SwapFailedError(message)
        finally:
            with self._lock:
                self._swap_waits.pop(version, None)
        swap_watch.observe(self._h_swap)
        return version

    # ------------------------------------------------------------------ #
    def stats(self) -> Dict:
        """Pool-level health snapshot (cheap: no worker round-trip).

        Every counter is read from the pool's telemetry scope — the same
        values ``repro.telemetry.snapshot()`` exposes.
        """
        with self._lock:
            self._g_pending.set(len(self._futures))
            return {
                "n_workers": self.n_workers,
                "threshold": self.threshold,
                **self._metrics.counts(),
                "n_pending": len(self._futures),
                "model_versions": dict(self._worker_versions),
                "worker_states": dict(self._worker_state),
                "worker_crashes": dict(self._worker_crashes),
                "worker_generations": dict(self._worker_generation),
                "requests_by_version": {
                    str(k): int(v)
                    for k, v in sorted(self._requests_by_version.items())
                },
            }

    def worker_pids(self) -> Dict[int, Optional[int]]:
        """PID of each live worker (``None`` for a slot awaiting respawn)
        — what a chaos harness hands to ``os.kill``."""
        with self._lock:
            return {
                i: (
                    self._procs[i].pid
                    if self._procs[i] is not None
                    and self._worker_state[i] == _ALIVE
                    else None
                )
                for i in range(self.n_workers)
            }

    def wait_healthy(self, timeout: float = 30.0) -> None:
        """Block until the fleet is at full capacity *and* responsive.

        Healthy means: every worker slot is alive (all due respawns
        done), and a :meth:`worker_stats` round-trip to the whole fleet
        answers. Raises :class:`~repro.exceptions.FleetTimeoutError`
        otherwise — the recovery-time SLO check used by tests and
        ``benchmarks/bench_chaos.py`` — naming the slots (generation,
        pid) that did not answer the last round-trip.
        """
        limit = time.monotonic() + float(timeout)
        last_round = ""
        while True:
            with self._lock:
                if self._closed:
                    raise ServerClosedError("WorkerPool is closed")
                full = all(
                    self._worker_state[i] == _ALIVE
                    for i in range(self.n_workers)
                ) and not self._respawn_at
            if full:
                try:
                    # Short slices, not the whole remaining budget: a crash
                    # landing mid-round-trip costs one slice and a retry,
                    # not the entire wait.
                    replies = self.worker_stats(
                        timeout=min(1.0, max(0.1, limit - time.monotonic()))
                    )
                    if len(replies) == self.n_workers:
                        return
                    last_round = ""
                except TimeoutError as exc:
                    last_round = f"; last round: {exc}"
            if time.monotonic() > limit:
                raise FleetTimeoutError(
                    f"fleet not healthy within {timeout}s: "
                    f"{self.stats()['worker_states']}{last_round}"
                )
            time.sleep(self.poll_interval / 2)

    def worker_stats(self, timeout: float = 30.0) -> Dict[int, Dict]:
        """Every live worker's batcher counters (``n_requests``,
        ``n_batches``, ``n_rows``, ...) plus its private-memory
        footprint (``private_kb`` now, ``baseline_private_kb`` at worker
        start) — the numbers the zero-copy claim is verified against.
        Each worker answers in FIFO order, after every request queued
        before the stats message. Workers that crash during the
        round-trip are dropped from the expectation instead of hanging
        the call; a round that times out raises
        :class:`~repro.exceptions.FleetTimeoutError` naming the slots
        that did not answer.

        ``n_overflows`` is always 0: admission happens at the pool's fork
        queue, so a worker has no overflow counter, but the key stays in
        the payload because ``perfbench/loop.py`` sums it over workers
        for its ``serving.overflows`` metric. The pool's own count is
        ``stats()["n_overflows"]``."""
        with self._lock:
            if self._closed:
                raise ServerClosedError("WorkerPool is closed")
            token = next(self._stats_tokens)
            live = self._live_workers()
            if not live:
                # Whole fleet down (e.g. a crash was detected between the
                # caller's health check and this call): nothing will ever
                # answer, so don't register a waiter that can't be woken.
                return {}
            waiter = {
                "event": threading.Event(),
                "replies": {},
                "expected": set(live),
            }
            self._stats_waits[token] = waiter
            queues = [self._req_queues[i] for i in live]
        for req_q in queues:
            req_q.put(("stats", token))
        try:
            if not waiter["event"].wait(timeout):
                with self._lock:
                    missing = waiter["expected"] - set(waiter["replies"])
                    silent = ", ".join(
                        f"slot {i} (generation {self._worker_generation[i]}, "
                        f"pid {self._procs[i].pid})"
                        for i in sorted(missing)
                    )
                raise FleetTimeoutError(
                    f"worker stats incomplete after {timeout:.3g}s: "
                    f"{len(waiter['replies'])}/{len(live)} replied; "
                    f"no answer from {silent}"
                )
        finally:
            with self._lock:
                self._stats_waits.pop(token, None)
        replies = dict(sorted(waiter["replies"].items()))
        for worker_id, payload in replies.items():
            # Footprint gauges degrade, never raise: a worker on a kernel
            # without smaps_rollup reports None → NaN gauge + a counter
            # the dashboards can alert on.
            kb = payload.get("private_kb")
            gauge = self._g_worker_kb.labels(str(worker_id))
            if kb is None:
                gauge.set(float("nan"))
                self._m_smaps_unavailable.inc()
            else:
                gauge.set(float(kb))
        return replies

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Stop the fleet; queued requests are still served first.

        Each live worker's stop sentinel is FIFO behind its pending
        requests, which the worker serves before exiting — so close
        never drops an admitted request. Requests that
        were in flight on a worker that crashed (and whatever its
        respawn would have served) fail typed with
        :class:`~repro.exceptions.WorkerCrashedError` — resolved or
        failed, never hung. Idempotent; also safe mid-swap (pending
        swap acknowledgements drain before the supervisor exits).
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._respawn_at.clear()  # no respawns after close
            live = self._live_workers()
            queues = [self._req_queues[i] for i in live]
        for req_q in queues:
            req_q.put(("stop",))
        for proc in self._procs:
            if proc is None:
                continue
            proc.join(timeout=60.0)
            if proc.is_alive():  # wedged (e.g. chaos-stalled): don't hang
                proc.terminate()
                proc.join()
        # Belt and braces: the stop event bounds the supervisor's exit even
        # if the sentinel can never be delivered (a SIGKILLed worker can die
        # holding the result queue's shared write lock, wedging every later
        # writer — including our own feeder thread).
        self._stop_collecting.set()
        self._res_q.put(("__close__",))
        self._collector.join(timeout=max(10.0, 4 * self.poll_interval))
        # Unblock anyone still waiting on a fleet swap.
        with self._lock:
            for wait in self._swap_waits.values():
                wait["event"].set()
            for wait in self._stats_waits.values():
                wait["event"].set()
            leftovers = [entry[0] for entry in self._futures.values()]
            self._futures.clear()
        for future in leftovers:  # only reachable if a worker died
            if not future.done():
                future.set_exception(
                    WorkerCrashedError(
                        "WorkerPool closed before the request was served "
                        "(its worker crashed); the request was not scored"
                    )
                )
        for i, req_q in enumerate(self._req_queues):
            if self._worker_state.get(i) == _CRASHED:
                # No reader for whatever is buffered; don't block exit on it.
                req_q.cancel_join_thread()
            req_q.close()
        # The only parent-side put is the close sentinel; never let a wedged
        # feeder (poisoned shared write lock) block interpreter exit on it.
        self._res_q.cancel_join_thread()
        self._res_q.close()
