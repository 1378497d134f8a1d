"""Async front door for the serving plane: admission control + fair drain.

:class:`AsyncGateway` sits between ``asyncio`` application code and a
scoring backend (a :class:`~repro.serving.ModelServer` or a
:class:`~repro.serving.WorkerPool` — anything with ``submit(rows) ->
concurrent.futures.Future``) and adds what a shared front door owes its
tenants:

* **Admission control** — each tenant gets a *bounded* gateway queue.
  A tenant whose queue is full is rejected at the door with
  :class:`~repro.exceptions.ServerOverloadedError` (the same overflow
  contract as the backend's bounded queue, one layer out): one chatty
  tenant fills its own queue and gets its own rejections, instead of
  filling the shared backend queue and starving everyone.
* **Fair round-robin drain** — a single drain task forwards one queued
  request per tenant per rotation to the backend, so backend capacity is
  divided fairly across active tenants regardless of their arrival rates.
  When the *backend* pushes back (its bounded queue is full), the drain
  holds the request and retries with **bounded exponential backoff**
  (``retry_interval`` doubling up to ``max_retry_interval``) — backend
  overload causes backpressure (requests wait at the gateway), never
  silent drops or a hot retry spin.
* **Per-request deadlines** — ``submit(rows, deadline=...)`` bounds how
  long a request may wait end-to-end. A request that expires in the
  gateway queue (or while the backend pushes back) fails fast with
  :class:`~repro.exceptions.DeadlineExceededError`; the remaining budget
  is forwarded to the backend, which enforces it the rest of the way.
* **Circuit breaking + graceful degradation** — with
  ``breaker_threshold`` set, a streak of consecutive backend failures
  (worker crashes, overload push-backs) *opens* the breaker: new
  submissions are shed at the door instead of deepening the outage.
  After ``breaker_cooldown`` the breaker goes *half-open* and admits a
  single probe; a served probe closes it, a failed one re-opens it.
  Shed requests raise :class:`~repro.exceptions.CircuitOpenError` — or,
  when an ``on_shed`` hook is installed, return its fallback answer
  (degrade gracefully: a stale score or a rules answer usually beats a
  refusal).

``await gateway.submit(rows, tenant="team-a")`` resolves to the
``predict_proba`` matrix. Backend futures are bridged into the event loop
with ``asyncio.wrap_future``, so scoring never blocks the loop. The
gateway is single-loop: use it from one running event loop.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from .. import telemetry
from ..exceptions import (
    CircuitOpenError,
    ServerClosedError,
    DeadlineExceededError,
    ServerOverloadedError,
    WorkerCrashedError,
)
from .server import _expires_at

__all__ = ["AsyncGateway"]

#: Breaker states surfaced in ``stats()["breaker"]["state"]``.
_CLOSED, _OPEN, _HALF_OPEN = "closed", "open", "half_open"

#: Breaker state → ``repro_gateway_breaker_state`` gauge value.
_BREAKER_GAUGE = {_CLOSED: 0, _OPEN: 1, _HALF_OPEN: 2}


class AsyncGateway:
    """Fair, admission-controlled async facade over a scoring backend.

    Parameters
    ----------
    backend : ModelServer or WorkerPool
        Anything exposing ``submit(rows) -> concurrent.futures.Future``
        (raising :class:`~repro.exceptions.ServerOverloadedError` when
        its own queue is full). Backends whose ``submit`` accepts a
        ``deadline=`` keyword (both library backends do) get each
        request's remaining budget forwarded.
    max_pending_per_tenant : int, default 256
        Bound on each tenant's gateway queue; :meth:`submit` raises
        :class:`~repro.exceptions.ServerOverloadedError` beyond it.
    retry_interval : float, default 0.002
        Initial pause before re-offering a request the backend pushed
        back on; doubles per consecutive push-back.
    max_retry_interval : float, default 0.05
        Ceiling on the exponential retry pause.
    breaker_threshold : int, optional
        Consecutive backend failures (worker crashes or overload
        push-backs, uninterrupted by a served request) that open the
        circuit breaker. ``None`` (default) disables the breaker.
    breaker_cooldown : float, default 1.0
        Seconds the breaker stays open before half-opening for a probe.
    on_shed : callable, optional
        ``on_shed(rows, tenant, exc) -> fallback`` invoked for requests
        shed while the breaker is open; its return value is handed to
        the caller in place of a score. Without it, shed requests raise
        :class:`~repro.exceptions.CircuitOpenError`.
    chaos : :class:`repro.chaos.FaultPlan`, optional
        Deterministic fault injection; fired at ``gateway.forward``
        before each backend forward attempt.

    Examples
    --------
    >>> gateway = AsyncGateway(pool, breaker_threshold=5)  # doctest: +SKIP
    >>> proba = await gateway.submit(X, tenant="team-a")   # doctest: +SKIP
    >>> proba = await gateway.submit(X, deadline=0.050)    # doctest: +SKIP
    >>> gateway.stats()["breaker"]["state"]                # doctest: +SKIP
    >>> await gateway.close()                              # doctest: +SKIP
    """

    def __init__(
        self,
        backend,
        *,
        max_pending_per_tenant: int = 256,
        retry_interval: float = 0.002,
        max_retry_interval: float = 0.05,
        breaker_threshold: Optional[int] = None,
        breaker_cooldown: float = 1.0,
        on_shed: Optional[Callable] = None,
        chaos=None,
    ):
        if max_pending_per_tenant < 1:
            raise ValueError("max_pending_per_tenant must be >= 1")
        if retry_interval <= 0 or max_retry_interval < retry_interval:
            raise ValueError(
                "need 0 < retry_interval <= max_retry_interval"
            )
        if breaker_threshold is not None and breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1 (or None)")
        if breaker_cooldown <= 0:
            raise ValueError("breaker_cooldown must be > 0")
        self.backend = backend
        self.max_pending_per_tenant = int(max_pending_per_tenant)
        self.retry_interval = float(retry_interval)
        self.max_retry_interval = float(max_retry_interval)
        self.breaker_threshold = (
            None if breaker_threshold is None else int(breaker_threshold)
        )
        self.breaker_cooldown = float(breaker_cooldown)
        self.on_shed = on_shed
        self._chaos = chaos
        #: tenant → deque of (rows, done_future, expires_at, sw, ctx)
        self._queues: Dict[str, Deque[Tuple]] = {}
        self._order: List[str] = []  # rotation order = first-seen order
        self._rr = 0
        self._wake: Optional[asyncio.Event] = None
        self._drain_task: Optional[asyncio.Task] = None
        self._inflight: set = set()
        self._closed = False
        self._breaker_state = _CLOSED
        self._failure_streak = 0
        self._opened_at = 0.0
        self._probe_inflight = False
        self._n_forwards = 0
        self._init_metrics()

    # ------------------------------------------------------------------ #
    # telemetry
    # ------------------------------------------------------------------ #
    def _init_metrics(self) -> None:
        """Declare this gateway's metrics on its own scope; per-tenant
        traffic counters are families labeled by tenant."""
        m = self._metrics = telemetry.MetricScope("gateway")
        self.telemetry_label_ = m.label
        tenant = ("tenant",)
        self._f_submitted = m.counter(
            "repro_gateway_submitted_total",
            "Requests admitted past the gateway door, per tenant.",
            labels=tenant, stat="submitted")
        self._f_served = m.counter(
            "repro_gateway_served_total",
            "Requests answered by the backend, per tenant.",
            labels=tenant, stat="served")
        self._f_rejected = m.counter(
            "repro_gateway_rejected_total",
            "Requests rejected at the door (tenant queue full), per tenant.",
            labels=tenant, stat="rejected")
        self._f_queued = m.gauge(
            "repro_gateway_queue_depth",
            "Requests waiting in the gateway queue, per tenant.",
            labels=tenant)
        self._m_backpressure = m.counter(
            "repro_gateway_backpressure_waits_total",
            "Backend push-backs absorbed as backpressure pauses.",
            stat="n_backpressure_waits")
        self._m_deadline = m.counter(
            "repro_gateway_deadline_expired_total",
            "Requests failed because their deadline passed at the gateway.",
            stat="n_deadline_expired")
        self._m_breaker_opens = m.counter(
            "repro_gateway_breaker_opens_total",
            "Circuit-breaker trips (closed/half-open to open).",
            stat="breaker.n_opens")
        self._m_shed = m.counter(
            "repro_gateway_shed_total",
            "Requests shed while the circuit breaker was open.",
            stat="breaker.n_shed")
        self._g_breaker_state = m.gauge(
            "repro_gateway_breaker_state",
            "Circuit-breaker state: 0 closed, 1 open, 2 half-open.")
        self._g_inflight = m.gauge(
            "repro_gateway_inflight_requests",
            "Requests forwarded to the backend and awaiting its answer.")
        self._h_queue_wait = m.histogram(
            "repro_gateway_queue_wait_seconds",
            "Admission-to-forward wait in the gateway queue.")
        self._h_request = m.histogram(
            "repro_gateway_request_seconds",
            "End-to-end request latency through the gateway.")

    # Read by perfbench/servephase.py; goes with the benchmark change
    # that moves perfbench onto the registry.
    @property
    def n_backpressure_waits_(self) -> int:
        """Backpressure pauses taken (registry view)."""
        return int(self._m_backpressure.value)

    # Read by perfbench/servephase.py; goes with the benchmark change
    # that moves perfbench onto the registry.
    @property
    def n_deadline_expired_(self) -> int:
        """Deadline failures (registry view)."""
        return int(self._m_deadline.value)

    # ------------------------------------------------------------------ #
    async def submit(
        self, rows, *, tenant: str = "default", deadline: Optional[float] = None
    ):
        """Admit rows for tenant and await their ``predict_proba`` matrix.

        Raises :class:`~repro.exceptions.ServerOverloadedError`
        immediately when the tenant's gateway queue is full — the caller
        (not the gateway) decides whether to back off or shed load.
        ``deadline`` (seconds) bounds the whole wait: expiry anywhere —
        gateway queue, backend queue, a dead worker's wake — fails the
        request with :class:`~repro.exceptions.DeadlineExceededError`.
        While the circuit breaker is open the request is shed: answered
        by ``on_shed`` if installed, failed with
        :class:`~repro.exceptions.CircuitOpenError` otherwise.
        """
        if self._closed:
            raise ServerClosedError("AsyncGateway is closed")
        tenant = str(tenant)
        sw = telemetry.stopwatch()
        ctx = telemetry.current_context()
        expires_at = _expires_at(deadline, self._m_deadline)
        if not self._breaker_admits():
            self._m_shed.inc()
            exc = CircuitOpenError(
                f"circuit breaker is {self._breaker_state} after "
                f"{self._failure_streak} consecutive backend failures; "
                "shedding load until the backend recovers"
            )
            if self.on_shed is not None:
                return self.on_shed(rows, tenant, exc)
            raise exc
        self._ensure_draining()
        tenant_q = self._queues.get(tenant)
        if tenant_q is None:
            tenant_q = deque()
            self._queues[tenant] = tenant_q
            self._order.append(tenant)
        if len(tenant_q) >= self.max_pending_per_tenant:
            self._f_rejected.labels(tenant).inc()
            raise ServerOverloadedError(
                f"gateway queue for tenant {tenant!r} is full "
                f"({self.max_pending_per_tenant} pending); back off and retry"
            )
        done = asyncio.get_running_loop().create_future()
        if self._breaker_state == _HALF_OPEN:
            # This admission is the probe; free the slot when it settles
            # (success/failure handlers adjust the breaker state first).
            self._probe_inflight = True
            done.add_done_callback(self._probe_settled)
        tenant_q.append((rows, done, expires_at, sw, ctx))
        self._f_submitted.labels(tenant).inc()
        self._f_queued.labels(tenant).set(len(tenant_q))
        self._wake.set()
        return await done

    def _ensure_draining(self) -> None:
        if self._drain_task is None or self._drain_task.done():
            loop = asyncio.get_running_loop()
            self._wake = asyncio.Event()
            self._drain_task = loop.create_task(
                self._drain(), name="repro-gateway-drain"
            )

    # ------------------------------------------------------------------ #
    # circuit breaker
    # ------------------------------------------------------------------ #
    def _breaker_admits(self) -> bool:
        """Admission decision; may transition open → half-open."""
        if self.breaker_threshold is None or self._breaker_state == _CLOSED:
            return True
        if self._breaker_state == _OPEN:
            if time.monotonic() < self._opened_at + self.breaker_cooldown:
                return False
            self._breaker_state = _HALF_OPEN
            self._g_breaker_state.set(_BREAKER_GAUGE[_HALF_OPEN])
            self._probe_inflight = False
        # Half-open: exactly one probe in flight at a time.
        return not self._probe_inflight

    def _probe_settled(self, _future) -> None:
        self._probe_inflight = False

    def _trip_breaker(self) -> None:
        self._breaker_state = _OPEN
        self._g_breaker_state.set(_BREAKER_GAUGE[_OPEN])
        self._opened_at = time.monotonic()
        self._probe_inflight = False
        self._m_breaker_opens.inc()

    def _on_backend_failure(self) -> None:
        """A crash or overload push-back: extend the streak, maybe trip."""
        self._failure_streak += 1
        if self.breaker_threshold is None:
            return
        if self._breaker_state == _HALF_OPEN:
            self._trip_breaker()  # the probe failed: straight back open
        elif (
            self._breaker_state == _CLOSED
            and self._failure_streak >= self.breaker_threshold
        ):
            self._trip_breaker()

    def _on_backend_success(self) -> None:
        self._failure_streak = 0
        if self._breaker_state != _CLOSED:
            self._breaker_state = _CLOSED  # served = backend is back
            self._g_breaker_state.set(_BREAKER_GAUGE[_CLOSED])
            self._probe_inflight = False

    # ------------------------------------------------------------------ #
    def _next_item(self):
        """Pop the next request fairly: one per tenant per rotation step."""
        n = len(self._order)
        for step in range(n):
            idx = (self._rr + step) % n
            tenant_q = self._queues[self._order[idx]]
            if tenant_q:
                self._rr = (idx + 1) % n
                return self._order[idx], tenant_q.popleft()
        return None

    def _expired(self, done: asyncio.Future, expires_at: Optional[float]) -> bool:
        """Fail ``done`` typed if its deadline passed; True if it did."""
        if expires_at is None or time.monotonic() <= expires_at:
            return False
        self._m_deadline.inc()
        if not done.done():
            done.set_exception(
                DeadlineExceededError(
                    "request deadline expired in the gateway queue"
                )
            )
        return True

    async def _drain(self) -> None:
        while True:
            item = self._next_item()
            if item is None:
                if self._closed:
                    return
                self._wake.clear()
                item = self._next_item()  # re-check: no missed wakeups
                if item is None:
                    await self._wake.wait()
                    continue
            tenant, (rows, done, expires_at, sw, ctx) = item
            self._f_queued.labels(tenant).set(
                len(self._queues[tenant])
            )
            if done.done():  # caller gave up (cancelled/timed out)
                continue
            if self._expired(done, expires_at):
                continue
            wait_s = sw.observe(self._h_queue_wait)
            if ctx is not None:
                telemetry.record_span(
                    "gateway.queue_wait",
                    wait_s,
                    ctx,
                    gateway=self.telemetry_label_,
                    tenant=tenant,
                )
            pause = self.retry_interval
            while True:
                self._n_forwards += 1
                if self._chaos is not None:
                    self._chaos.fire("gateway.forward", count=self._n_forwards)
                try:
                    backend_future = self._forward(rows, expires_at, ctx)
                except ServerOverloadedError:
                    # Backend pushed back: hold the request (backpressure),
                    # never drop it. Head-of-line here is deliberate — the
                    # backend is full, so nothing else would go through
                    # either. The pause doubles up to max_retry_interval
                    # so a long overload isn't a hot spin.
                    self._m_backpressure.inc()
                    self._on_backend_failure()
                    await asyncio.sleep(pause)
                    pause = min(self.max_retry_interval, pause * 2)
                    if done.done() or self._expired(done, expires_at):
                        break
                    continue
                except DeadlineExceededError as exc:
                    self._m_deadline.inc()
                    if not done.done():
                        done.set_exception(exc)
                    break
                except BaseException as exc:
                    if not done.done():
                        done.set_exception(exc)
                    break
                else:
                    task = asyncio.ensure_future(
                        self._finish(tenant, backend_future, done, sw, ctx)
                    )
                    self._inflight.add(task)
                    self._g_inflight.set(len(self._inflight))
                    task.add_done_callback(self._inflight_done)
                    break

    def _forward(self, rows, expires_at, ctx):
        """One backend submit attempt, inside the request's trace context
        (so the backend captures the right parent span)."""
        if ctx is not None:
            with telemetry.resume_trace(*ctx):
                return self._forward(rows, expires_at, None)
        if expires_at is None:
            return self.backend.submit(rows)
        return self.backend.submit(
            rows, deadline=expires_at - time.monotonic()
        )

    def _inflight_done(self, task) -> None:
        self._inflight.discard(task)
        self._g_inflight.set(len(self._inflight))

    async def _finish(self, tenant: str, backend_future, done, sw, ctx) -> None:
        outcome = "ok"
        try:
            result = await asyncio.wrap_future(backend_future)
        except WorkerCrashedError as exc:
            outcome = "error"
            self._on_backend_failure()
            if not done.done():
                done.set_exception(exc)
        except BaseException as exc:
            outcome = "error"
            if not done.done():
                done.set_exception(exc)
        else:
            self._on_backend_success()
            self._f_served.labels(tenant).inc()
            if not done.done():
                done.set_result(result)
        total_s = sw.observe(self._h_request)
        if ctx is not None:
            telemetry.record_span(
                "gateway.request",
                total_s,
                ctx,
                gateway=self.telemetry_label_,
                tenant=tenant,
                outcome=outcome,
            )

    # ------------------------------------------------------------------ #
    def stats(self) -> Dict:
        """Gateway-health snapshot: per-tenant admission/served/rejected
        counters, queue depths, backpressure waits, deadline expiries,
        and the circuit breaker's state and shed counts.

        Every counter is read from the gateway's telemetry scope — the
        same values ``repro.telemetry.snapshot()`` exposes.
        """
        tenants = {}
        for tenant in self._order:
            queued = len(self._queues[tenant])
            self._f_queued.labels(tenant).set(queued)
            tenants[tenant] = {**self._metrics.counts(tenant), "queued": queued}
        self._g_inflight.set(len(self._inflight))
        counts = self._metrics.counts()
        breaker = counts.pop("breaker")
        return {
            "tenants": tenants,
            **counts,
            "inflight": len(self._inflight),
            "breaker": {
                "state": self._breaker_state,
                "failure_streak": self._failure_streak,
                **breaker,
            },
        }

    async def close(self) -> None:
        """Stop admitting; drain everything already queued, then return.

        Queued and in-flight requests are all served (or failed with
        their real, typed error) before close completes — the gateway
        never drops admitted work.
        """
        if self._closed:
            return
        self._closed = True
        if self._wake is not None:
            self._wake.set()
        if self._drain_task is not None:
            await self._drain_task
        if self._inflight:
            await asyncio.gather(*list(self._inflight), return_exceptions=True)

    async def __aenter__(self) -> "AsyncGateway":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()
