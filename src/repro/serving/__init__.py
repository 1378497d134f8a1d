"""The serving plane: from one warm server to a zero-copy worker fleet.

One front door — :func:`serve` — mirrors the training side's
``get_classifier``: hand it a fitted model or an artifact path plus a
:class:`ServerConfig` (or keyword overrides), and it returns the right
deployment shape.

* :class:`ModelServer` (``n_workers=0``) — the in-process micro-batcher:
  warm packed kernel, bounded queue with
  :class:`~repro.exceptions.ServerOverloadedError` overflow, tunable
  decision threshold, zero-downtime :meth:`~ModelServer.swap_model`,
  per-request ``model_version`` stamps on :class:`ScoredBatch`.
* :class:`WorkerPool` (``n_workers >= 1``) — N forked, *supervised*
  micro-batching workers sharing **one** copy of the model: the artifact
  is loaded memory-mapped (``load_model(path, mmap_mode="r")``) and its
  serving kernel packed *before* the fork, so worker memory is
  copy-on-write shared, and :meth:`~WorkerPool.swap_model` broadcasts a
  new artifact path fleet-wide with zero dropped requests. Crashed
  workers fail their in-flight futures typed
  (:class:`~repro.exceptions.WorkerCrashedError`) and respawn with
  capped exponential backoff onto the current version.
* :class:`AsyncGateway` — the ``asyncio`` front door over either backend:
  per-tenant bounded admission queues, a fair round-robin drain with
  bounded-exponential overload retry, an optional circuit breaker
  (:class:`~repro.exceptions.CircuitOpenError` / ``on_shed`` fallback),
  and per-request deadlines.

Every layer takes ``submit(rows, deadline=...)``; expired requests fail
fast with :class:`~repro.exceptions.DeadlineExceededError`. Faults are
injectable deterministically through :mod:`repro.chaos`.

:func:`threshold_for_precision` (re-exported from
:mod:`repro.metrics`) derives the decision threshold from a validation PR
curve. See ``DESIGN.md`` → "Serving" and "The serving plane".
"""

from .facade import ServerConfig, serve
from .gateway import AsyncGateway
from .pool import WorkerPool, process_private_kb
from .server import ModelServer, ScoredBatch, threshold_for_precision

__all__ = [
    "AsyncGateway",
    "ModelServer",
    "ScoredBatch",
    "ServerConfig",
    "WorkerPool",
    "process_private_kb",
    "serve",
    "threshold_for_precision",
]
