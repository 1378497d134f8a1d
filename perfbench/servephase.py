"""The serving half of the loop, driven by one open-loop asyncio client.

The champion artifact is served by ``serve(path, n_workers=<cores>)``
behind an :class:`~repro.serving.AsyncGateway` with two tenants, ``online``
(1-row requests) and ``bulk`` (512-row requests). Arrivals are a seeded
Poisson schedule per tenant; every request is timed from the moment it
was due, so a stalled client or gateway shows up as latency. Phases:

1. ``control``: traffic from the training distribution at the nominal
   rates.
2. ``drift``: the drift recipe's traffic. A :class:`DriftMonitor` observes
   the served scores (labels arrive one chunk later) until it reaches
   ALARM; the client then retrains a challenger on the monitor window
   through the lifecycle layer, saves it and calls ``swap_model`` while
   traffic continues. The phase ends shortly after every worker serves
   the challenger.
3. ``ladder``: ``online`` traffic alone at rising rates (doubling, then
   bisecting after the first failing rung). A rung passes when its
   latency at the tail percentile stays within :data:`LATENCY_LIMIT_MS`,
   every request succeeded and the backlog did not grow (the median
   latency of the rung's last tenth also stays within the limit).

Before and after the control phase, after the drift phase and after each
ladder rung, with no traffic in flight, a checkpoint runs the caller's compute probe
(see ``loop.Probes``) and then a ``saturate`` burst: closed-loop ``bulk``
callers keep the fleet busy, and the served rows per second of the
fastest burst are the path's work rate.

The monitor runs on its own thread so its detector sweeps never stall the
event loop. The challenger is fitted in a helper process and the blocking
``swap_model`` call runs on an executor thread while the loop keeps
sending.
"""

from __future__ import annotations

import asyncio
import gc
import heapq
import importlib
import math
import os
import threading
import time
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from common import median, quantile, tail

ONLINE, BULK = "online", "bulk"
BULK_ROWS = 512
#: Nominal open-loop rates (requests per second) of the control and drift
#: phases: well below the pool's capacity, so latency is not queueing.
ONLINE_RPS = 500.0
BULK_RPS = 40.0
#: Latency limit at the tail percentile for a ladder rung to pass.
LATENCY_LIMIT_MS = 20.0
#: Ladder: rung length, first rate, doublings until a rung fails, then
#: bisections between the last passing and the first failing rate.
RUNG_S = 0.75
LADDER_START_RPS = 1000.0
LADDER_DOUBLINGS = 5
LADDER_BISECTIONS = 1
#: Closed-loop saturation bursts: bulk callers in flight (two per worker on
#: two cores), rows per request and the length of one burst. Requests this
#: large keep the workers' kernels, not per-request wake-ups, the bulk of
#: the work. The served rate is that of the fastest burst: a neighbour's
#: load only ever slows the fleet, and on a shared host it comes in
#: stretches of tens of seconds, so bursts spread over the run and the
#: best of them track the work.
SATURATE_IN_FLIGHT = 4
SATURATE_ROWS = 4096
SATURATE_S = 1.5
#: The drift phase runs until this long after the fleet converged on the
#: challenger, and gives up (failing the run) after DRIFT_LIMIT_S.
DRIFT_TAIL_S = 1.5
DRIFT_LIMIT_S = 30.0
#: Monitor cadence: every tick hands the responses completed in request
#: order to the monitor thread.
MONITOR_TICK_S = 0.1
#: Rows per monitor step: observe a chunk, deliver the previous chunk's
#: labels, run the detectors.
MONITOR_CHUNK = 5000
#: The swap window runs from ALARM until this long after every worker
#: serves the challenger, so the first requests on the new version count.
SWAP_SETTLE_S = 1.0
#: Monitor window; detectors run only on a full window, so the challenger
#: always retrains on this many rows.
WINDOW_ROWS = 20_000
#: Online requests per window of the windowed p99 (p99 has exactly ten
#: samples beyond it at this count).
TAIL_WINDOW = 1000
#: One served response in this many is kept for the served-output gate.
SAMPLE_EVERY = 25


class Request:
    __slots__ = ("seq", "tenant", "phase", "due", "sent", "done", "outcome",
                 "version", "rows", "proba", "traced", "sampled")

    def __init__(self, seq: int, tenant: str, phase: str, due: float,
                 traced: bool, sampled: bool):
        self.seq = seq
        self.tenant = tenant
        self.phase = phase
        self.due = due
        self.sent = math.nan
        self.done = math.nan
        self.outcome = "pending"
        self.version: Optional[str] = None
        self.rows = None
        self.proba = None
        self.traced = traced
        self.sampled = sampled

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1000.0


class ScoredBackend:
    """Gateway backend that asks the pool for version-stamped results, so
    each response tells which model version scored it."""

    def __init__(self, pool):
        self.pool = pool

    def submit(self, rows, *, deadline=None):
        return self.pool.submit_scored(rows, deadline=deadline)


def _arrivals(rng: np.random.RandomState, rate: float, tenant: str) -> Iterator[Tuple[float, str]]:
    t = 0.0
    while True:
        t += rng.exponential(1.0 / rate)
        yield t, tenant


class SpanTally:
    """Stands in for the process span sink (the program calls only
    ``record`` and ``drain_trace`` on it) and keeps only what the
    benchmark reads: durations per span name and request outcomes.

    The program's sink is a bounded ring; a traced run emits far more
    spans than it holds. Forked pool workers inherit this object and must
    keep their spans until each reply drains them, so in any process but
    the one that created it ``record`` defers to a real ring.
    """

    def __init__(self):
        from repro.telemetry import TraceSink

        self._ring = TraceSink()
        self._owner = os.getpid()
        self._lock = threading.Lock()
        self.durations: Dict[str, List[float]] = defaultdict(list)
        self.outcomes: Counter = Counter()

    def record(self, span) -> None:
        if os.getpid() != self._owner:
            self._ring.record(span)
            return
        with self._lock:
            self.durations[span.name].append(span.duration_s)
            if span.name == "gateway.request":
                self.outcomes[span.tags.get("outcome")] += 1

    def drain_trace(self, trace_id):
        return self._ring.drain_trace(trace_id)

    def install(self) -> "SpanTally":
        trace_module = importlib.import_module("repro.telemetry.trace")
        self._previous = trace_module._SINK
        trace_module._SINK = self
        return self

    def uninstall(self) -> None:
        importlib.import_module("repro.telemetry.trace")._SINK = self._previous


@dataclass
class ServeResult:
    requests: List[Request] = field(default_factory=list)
    rungs: List[Dict] = field(default_factory=list)
    alarm_at: float = math.nan
    swap_start: float = math.nan
    converged: float = math.nan
    rows_to_alarm: int = 0
    control_alarms: int = 0
    observe_s: float = 0.0
    check_s: float = 0.0
    retrain_s: float = math.nan
    save_s: float = math.nan
    swap_s: float = math.nan
    challenger_path: Optional[str] = None
    late_ms: List[float] = field(default_factory=list)
    #: Rows per second served in each saturation burst.
    saturate_rates: List[float] = field(default_factory=list)
    saturate_attempted: int = 0
    saturate_failed: int = 0
    counters: Dict[str, float] = field(default_factory=dict)


class LoadClient:
    """One asyncio client: load generator, monitor loop and lifecycle."""

    def __init__(self, pool, control_s: float, control, drift, reference,
                 retrainer, workdir: str, rng: np.random.RandomState, tracer=None,
                 probe=None):
        self.pool = pool
        self.control_s = control_s
        self.probe = probe
        self.tables = {"control": control, "drift": drift, "ladder": drift}
        self.reference = reference
        self.retrainer = retrainer
        self.workdir = workdir
        self.rng = rng
        self.tracer = tracer
        self.result = ServeResult()
        self._cursor = {name: int(rng.randint(len(t[1]))) for name, t in self.tables.items()}
        # Served rows reach the monitor in request order, in chunks of
        # MONITOR_CHUNK rows, whatever order the responses arrive in: the
        # window at ALARM, and so the challenger, depend on the seed only.
        self._completed: Dict[int, Optional[Tuple]] = {}
        self._next_seq = 0
        self._buffer: List[Tuple] = []
        self._labels_due = None
        self._tasks: set = set()
        self._recovery: Optional[asyncio.Task] = None
        self._n_sent = 0

    # -- traffic -------------------------------------------------------- #
    def _rows(self, phase: str, n: int):
        X, y = self.tables[phase]
        start = self._cursor[phase]
        self._cursor[phase] = (start + n) % len(y)
        idx = np.arange(start, start + n) % len(y)
        return X[idx], y[idx]

    async def _one(self, req: Request) -> None:
        from repro import telemetry
        from repro.exceptions import ServerOverloadedError

        rows, labels = self._rows(req.phase, 1 if req.tenant == ONLINE else BULK_ROWS)
        req.sent = time.perf_counter()
        try:
            if req.traced:
                with telemetry.trace("request", tenant=req.tenant):
                    scored = await self.gateway.submit(rows, tenant=req.tenant)
            else:
                scored = await self.gateway.submit(rows, tenant=req.tenant)
        except ServerOverloadedError as exc:
            req.done = time.perf_counter()
            at_door = str(exc).startswith("gateway queue")
            req.outcome = "refused_at_gateway" if at_door else "admitted_then_refused"
            self._completed[req.seq] = None
        except Exception as exc:  # the load generator must keep running
            req.done = time.perf_counter()
            req.outcome = type(exc).__name__
            self._completed[req.seq] = None
        else:
            req.done = time.perf_counter()
            req.outcome = "ok"
            req.version = scored.model_version
            if req.sampled:
                req.rows, req.proba = rows, scored.proba
            self._completed[req.seq] = (
                None if req.phase == "ladder"
                else (rows, scored.proba[:, 1], labels,
                      np.full(len(labels), req.phase == "drift")))

    async def _send(self, phase: str, rates: Dict[str, float], until) -> List[Request]:
        """Issue the phase's schedule until ``until(elapsed)`` is true."""
        # Objects that outlive a phase (tables, models, the records of
        # earlier phases) are moved out of the cyclic collector's reach,
        # so full collections stay as short as the program makes them
        # instead of growing with the benchmark's own bookkeeping.
        gc.freeze()
        loop = asyncio.get_running_loop()
        streams = [_arrivals(self.rng, rate, tenant) for tenant, rate in rates.items()]
        start = time.perf_counter()
        issued: List[Request] = []
        trace_toggle = 0
        for offset, tenant in heapq.merge(*streams):
            if until(offset):
                break
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            traced = False
            if self.tracer is not None and phase == "control":
                trace_toggle += 1
                traced = trace_toggle % 2 == 0
            req = Request(self._n_sent, tenant, phase, due, traced,
                          sampled=self._n_sent % SAMPLE_EVERY == 0)
            self.result.late_ms.append((time.perf_counter() - due) * 1000.0)
            task = loop.create_task(self._one(req))
            self._n_sent += 1
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)
            issued.append(req)
        self.result.requests.extend(issued)
        return issued

    async def _drain(self, timeout: float = 30.0) -> None:
        if self._tasks:
            await asyncio.wait(set(self._tasks), timeout=timeout)

    # -- monitoring and recovery --------------------------------------- #
    # The monitor is touched only by ``_monitor_exec``'s single thread, so
    # its detector sweeps never block the event loop and never race.
    def _monitor_work(self, fresh: List[Tuple]):
        """Observe every full chunk of ``fresh`` rows (labels one chunk
        late) and check after each; returns the labeled window when a
        chunk holding drift rows first reaches ALARM, else ``None``."""
        from repro.monitoring import DriftLevel

        res = self.result
        self._buffer.extend(fresh)
        window = None
        while sum(len(b[0]) for b in self._buffer) >= MONITOR_CHUNK:
            X, score, y, drift = (np.concatenate([b[i] for b in self._buffer])
                                  for i in range(4))
            self._buffer = [(X[MONITOR_CHUNK:], score[MONITOR_CHUNK:],
                             y[MONITOR_CHUNK:], drift[MONITOR_CHUNK:])]
            t0 = time.perf_counter()
            if self._labels_due is not None:
                self.monitor.observe_labels(self._labels_due)
            self.monitor.observe(X[:MONITOR_CHUNK], score[:MONITOR_CHUNK])
            self._labels_due = y[:MONITOR_CHUNK]
            t1 = time.perf_counter()
            reports = self.monitor.check()
            t2 = time.perf_counter()
            res.observe_s += t1 - t0
            res.check_s += t2 - t1
            n_drift = int(drift[:MONITOR_CHUNK].sum())
            alarmed = math.isfinite(res.alarm_at)
            if not alarmed:
                res.rows_to_alarm += n_drift
            if max((r.level for r in reports), default=DriftLevel.OK) != DriftLevel.ALARM:
                continue
            if n_drift == 0:
                res.control_alarms += 1
            elif not alarmed:
                res.alarm_at = t2
                window = self.monitor.window()[:2]
        return window

    def _rebase(self, X_w, y_w) -> None:
        self.monitor.reset_after_swap()
        self.monitor.rebase_reference(X_w, y_w)

    async def _monitor_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(MONITOR_TICK_S)
            fresh = []
            while self._next_seq in self._completed:
                item = self._completed.pop(self._next_seq)
                self._next_seq += 1
                if item is not None:
                    fresh.append(item)
            window = await loop.run_in_executor(
                self._monitor_exec, self._monitor_work, fresh)
            if window is not None:
                self._recovery = loop.create_task(self._recover(*window))

    async def _recover(self, X_w, y_w) -> None:
        from fitphase import retrain_job

        loop = asyncio.get_running_loop()
        res = self.result
        path = os.path.join(self.workdir, "challenger.npz")
        res.retrain_s, res.save_s, breakdown = await asyncio.wrap_future(
            self.retrainer.submit(retrain_job, X_w, y_w, path, self.tracer is not None))
        if breakdown is not None:
            self.tracer.merge(breakdown)
        res.challenger_path = path
        res.swap_start = time.perf_counter()
        await loop.run_in_executor(None, lambda: self.pool.swap_model(path, version="v1"))
        res.converged = time.perf_counter()
        res.swap_s = res.converged - res.swap_start
        await loop.run_in_executor(self._monitor_exec, self._rebase, X_w, y_w)

    # -- ladder --------------------------------------------------------- #
    async def _rung(self, rate: float) -> Dict:
        issued = await self._send("ladder", {ONLINE: rate}, lambda t: t >= RUNG_S)
        await self._drain()
        ok = [r.latency_ms for r in issued if r.outcome == "ok"]
        done = [r.done for r in issued if r.outcome == "ok"]
        span = (max(done) - min(r.due for r in issued)) if done else math.inf
        # A growing backlog shows as the last tenth of the rung waiting
        # longer than the limit, even when the tail over the rung is fine.
        last = [r.latency_ms for r in issued[-max(1, len(issued) // 10):] if r.outcome == "ok"]
        rung = {
            "rate": rate,
            "n": len(ok),
            "tail_ms": windowed_tail(ok),
            "failed": len(issued) - len(ok),
            "end_ms": median(last),
            "throughput": len(ok) / span if span > 0 else 0.0,
        }
        rung["passed"] = (
            rung["n"] > 0 and rung["failed"] == 0
            and rung["tail_ms"] <= LATENCY_LIMIT_MS and rung["end_ms"] <= LATENCY_LIMIT_MS
        )
        self.result.rungs.append(rung)
        await self._checkpoint()
        return rung

    async def _checkpoint(self) -> None:
        """Run the compute probe, then one saturation burst; called only
        while no request is in flight."""
        if self.probe is not None:
            self.probe()
        await self._saturate()

    async def _saturate(self) -> None:
        """Closed loop: SATURATE_IN_FLIGHT bulk callers, each sending its
        next request as soon as the last one returns, for SATURATE_S. The
        fleet never idles, so the figure is the serving path's work rate."""
        from repro.exceptions import ReproError

        rows, _ = self._rows("ladder", SATURATE_ROWS)
        start = time.perf_counter()
        end = start + SATURATE_S
        served: List[float] = []

        async def caller():
            while time.perf_counter() < end:
                try:
                    await self.gateway.submit(rows, tenant=BULK)
                except ReproError:
                    self.result.saturate_attempted += 1
                    self.result.saturate_failed += 1
                else:
                    served.append(time.perf_counter())

        await asyncio.gather(*(caller() for _ in range(SATURATE_IN_FLIGHT)))
        self.result.saturate_attempted += len(served)
        in_time = sum(1 for t in served if t < end)
        self.result.saturate_rates.append(in_time * SATURATE_ROWS / SATURATE_S)

    async def _ladder(self) -> None:
        """Double the rate until a rung fails, then bisect (geometric
        mean) between the last passing and the first failing rate."""
        lo = hi = None
        rate = LADDER_START_RPS
        for _ in range(LADDER_DOUBLINGS):
            if (await self._rung(rate))["passed"]:
                lo, rate = rate, rate * 2.0
            elif lo is None:
                rate /= 2.0
            else:
                hi = rate
                break
        if lo is None or hi is None:
            return
        for _ in range(LADDER_BISECTIONS):
            mid = math.sqrt(lo * hi)
            if (await self._rung(mid))["passed"]:
                lo = mid
            else:
                hi = mid

    # -- the whole run --------------------------------------------------- #
    async def run(self) -> ServeResult:
        from repro.monitoring import DriftMonitor
        from repro.serving import AsyncGateway

        res = self.result
        self.monitor = DriftMonitor(self.reference, window_size=WINDOW_ROWS,
                                    min_window=WINDOW_ROWS)
        self.gateway = AsyncGateway(ScoredBackend(self.pool),
                                    max_pending_per_tenant=1_000_000)
        self._monitor_exec = ThreadPoolExecutor(max_workers=1)
        monitor_task = asyncio.get_running_loop().create_task(self._monitor_loop())
        try:
            await self._checkpoint()
            rates = {ONLINE: ONLINE_RPS, BULK: BULK_RPS}
            await self._send("control", rates, lambda t: t >= self.control_s)
            await self._drain()
            await self._checkpoint()
            await self._send("drift", rates, self._drift_done)
            await self._drain()
            if self._recovery is not None:
                await self._recovery
            await _cancel(monitor_task)
            await self._checkpoint()
            await self._ladder()
        finally:
            await _cancel(monitor_task)
            if self._recovery is not None and not self._recovery.done():
                await _cancel(self._recovery)
            await self._drain()
            await self.gateway.close()
            self._monitor_exec.shutdown(wait=True)
        res.counters = {
            "backpressure_waits": self.gateway.n_backpressure_waits_,
            "gateway_deadline_expired": self.gateway.n_deadline_expired_,
        }
        return res

    def _drift_done(self, elapsed: float) -> bool:
        res = self.result
        if elapsed >= DRIFT_LIMIT_S:
            return True
        return (not math.isnan(res.converged)
                and time.perf_counter() - res.converged >= DRIFT_TAIL_S)


async def _cancel(task: asyncio.Task) -> None:
    task.cancel()
    try:
        await task
    except asyncio.CancelledError:
        pass


def windowed_tail(latencies: List[float]) -> float:
    """Median over consecutive windows of :data:`TAIL_WINDOW` samples of
    each window's tail. Stalls of the host come in bursts; this keeps one
    burst from deciding the figure of a whole phase."""
    windows = [latencies[i:i + TAIL_WINDOW]
               for i in range(0, max(1, len(latencies) - TAIL_WINDOW + 1), TAIL_WINDOW)]
    return median([tail(w)[0] for w in windows])


def sustained_rate(rungs: List[Dict]) -> float:
    """The rate at which the ladder's tail latency reaches the limit.

    Interpolated (log latency against log rate) between the highest
    passing rung and the lowest failing rung above it, so one rung more or
    less does not jump the figure by a whole step. A rung that failed on
    errors or a growing backlog, not on its tail, caps the rate at the
    passing rung.
    """
    passed = [r for r in rungs if r["passed"]]
    if not passed:
        return math.nan
    lo = max(passed, key=lambda r: r["rate"])
    above = [r for r in rungs if not r["passed"] and r["rate"] > lo["rate"]]
    if not above:
        return lo["rate"]
    hi = min(above, key=lambda r: r["rate"])
    if hi["tail_ms"] <= LATENCY_LIMIT_MS or lo["tail_ms"] <= 0:
        return lo["rate"]
    frac = (math.log(LATENCY_LIMIT_MS / lo["tail_ms"])
            / math.log(hi["tail_ms"] / lo["tail_ms"]))
    return lo["rate"] * (hi["rate"] / lo["rate"]) ** min(1.0, max(0.0, frac))


def summarize(res: ServeResult) -> Dict[str, float]:
    """End-to-end serving metrics of one run (see ``catalog.py``)."""
    def lat(phase, tenant, lo=-math.inf, hi=math.inf):
        return [r.latency_ms for r in res.requests
                if r.phase == phase and r.tenant == tenant and r.outcome == "ok"
                and lo <= r.due <= hi]

    online = lat("control", ONLINE)
    bulk = lat("control", BULK) + lat("drift", BULK)
    swap = lat("drift", ONLINE, res.alarm_at, res.converged + SWAP_SETTLE_S)
    return {
        "lat_p50_ms": quantile(online, 0.5),
        "lat_p99_ms": windowed_tail(online),
        "bulk_p99_ms": tail(bulk)[0],
        "sustained_rps": sustained_rate(res.rungs),
        "recover_s": res.converged - res.alarm_at,
        "swap_p99_ms": tail(swap)[0],
        "served_rows_per_s": max(res.saturate_rates, default=0.0),
    }


def accounting(res: ServeResult) -> Dict[Tuple[str, str], Counter]:
    """Outcome counts per (tenant, phase); ``attempted`` = all issued."""
    table: Dict[Tuple[str, str], Counter] = defaultdict(Counter)
    for r in res.requests:
        row = table[(r.tenant, r.phase)]
        row["attempted"] += 1
        row["succeeded" if r.outcome == "ok" else r.outcome] += 1
    return table
