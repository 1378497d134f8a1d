"""Unified telemetry plane: metrics, tracing, exposition.

One dependency-free layer gives the whole serve→monitor→retrain loop a
machine-readable health surface:

* **Metrics** (:mod:`~repro.telemetry.metrics`) —
  :class:`Counter`/:class:`Gauge`/:class:`Histogram` primitives with
  log-scaled latency buckets, grouped into a process-wide named
  :class:`MetricsRegistry` (:func:`get_registry`); every serving,
  monitoring, and lifecycle component declares its metrics there once,
  through its own :class:`MetricScope`, under the
  ``repro_<component>_<what>[_<unit>]`` naming convention; the counter
  keys of their legacy ``stats()`` dicts are read back from that scope.
* **Tracing** (:mod:`~repro.telemetry.trace`) — :func:`trace` opens a
  per-request span; the serving queues carry the
  ``(trace_id, span_id)`` context, pool workers serialize their spans
  into reply messages, and the parent stitches the full
  gateway→queue→worker→kernel timeline back together.
* **Timers** (:mod:`~repro.telemetry.sampling`) — :func:`timer` /
  :func:`stopwatch` are the approved latency clocks (enforced by
  repro-lint's ``raw-latency-timing`` rule); :func:`set_sampling` turns
  spans and latency timing off wholesale, with the residual overhead
  benchmarked under 5 % in ``benchmarks/bench_telemetry.py``.
* **Exposition** (:mod:`~repro.telemetry.export`) —
  :func:`render_prometheus` (text format v0) and :func:`snapshot`
  (JSON dict with p50/p99 per histogram); :func:`metric_value` reads one
  sample.

Quickstart::

    from repro import telemetry

    with telemetry.trace("request", tenant="demo"):
        proba = server.predict_proba(rows)
    print(telemetry.render_prometheus())
    snap = telemetry.snapshot()

Fit-path stage timers (:func:`stage_timer`) account per-iteration
self-paced sampling, ensemble scoring, member fits, and tree levels into the
``repro_fit_stage_seconds{stage=...}`` histogram family.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict

from .export import metric_value, render_prometheus, snapshot
from .metrics import (
    Counter,
    DEFAULT_LATENCY_BUCKETS,
    Gauge,
    Histogram,
    MetricScope,
    MetricsRegistry,
    get_registry,
    instance_label,
)
from .sampling import (
    Stopwatch,
    sampling_enabled,
    set_sampling,
    stopwatch,
    timer,
)
from .trace import (
    Span,
    TraceSink,
    current_context,
    current_span,
    drain_trace,
    get_sink,
    record_span,
    resume_trace,
    trace,
)

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricScope",
    "MetricsRegistry",
    "Span",
    "Stopwatch",
    "TraceSink",
    "current_context",
    "current_span",
    "drain_trace",
    "get_registry",
    "get_sink",
    "instance_label",
    "metric_value",
    "record_span",
    "render_prometheus",
    "resume_trace",
    "sampling_enabled",
    "set_sampling",
    "snapshot",
    "stage_histogram",
    "stage_timer",
    "stopwatch",
    "timer",
    "trace",
]

#: Cached ``repro_fit_stage_seconds{stage=...}`` children — the fit loop
#: enters a stage per iteration (and per tree level); one dict lookup
#: beats a registry round-trip there.
_STAGE_CHILDREN: Dict[str, Histogram] = {}


def stage_histogram(stage: str) -> Histogram:
    """The ``repro_fit_stage_seconds{stage=...}`` child a
    :func:`stage_timer` observes into — for call sites that need to
    observe a :func:`stopwatch` across loop exits instead of wrapping a
    block."""
    child = _STAGE_CHILDREN.get(stage)
    if child is None:
        child = get_registry().histogram(
            "repro_fit_stage_seconds",
            "Fit-path stage durations (self-paced sampling, ensemble "
            "scoring, member fits, tree levels).",
            labels=("stage",),
        ).labels(stage)
        _STAGE_CHILDREN[stage] = child
    return child


@contextmanager
def stage_timer(stage: str):
    """Time one fit-path stage into
    ``repro_fit_stage_seconds{stage=...}`` (no-op while sampling is
    off)."""
    if not sampling_enabled():
        yield
        return
    with timer(stage_histogram(stage)):
        yield
