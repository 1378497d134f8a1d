"""One-call front door to the serving plane: ``serve()`` + ``ServerConfig``.

The serving mirror of :func:`repro.registry.get_classifier`: one function,
one config object, and the right deployment shape falls out of the
arguments —

>>> server = serve(clf, threshold=0.3)                    # doctest: +SKIP
>>> fleet = serve("model.npz", n_workers=4, mmap=True)    # doctest: +SKIP

``n_workers=0`` (the default) returns an in-process
:class:`~repro.serving.ModelServer`; ``n_workers >= 1`` returns a
:class:`~repro.serving.WorkerPool` of forked workers sharing one
memory-mapped model. Both answer the same surface (``submit``,
``submit_scored``, ``predict_proba``, ``predict``, ``swap_model``,
``stats``, ``close``), so callers and the
:class:`~repro.lifecycle.LifecycleController` don't care which they got.
Wrap either in an :class:`~repro.serving.AsyncGateway` for the asyncio
front door.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Optional

from .pool import WorkerPool
from .server import ModelServer

__all__ = ["ServerConfig", "serve"]


@dataclass(frozen=True)
class ServerConfig:
    """Deployment knobs for :func:`serve`, as one immutable record.

    Parameters
    ----------
    threshold : float, default 0.5
        Decision threshold on the positive-class probability.
    max_batch : int, default 256
        Rows coalesced per kernel call by each server's micro-batcher.
    max_pending : int, default 4096
        Bounded-queue admission limit (per worker, for a pool); overflow
        raises :class:`~repro.exceptions.ServerOverloadedError`.
    n_workers : int, default 0
        ``0`` → one in-process :class:`~repro.serving.ModelServer`;
        ``>= 1`` → a :class:`~repro.serving.WorkerPool` of that many
        forked worker processes.
    mmap : bool, default False
        Memory-map artifact loads so co-located processes share one
        page-cache copy of the model (pools default this on — see
        :func:`serve`).
    model_version : str, default "v0"
        Version stamp for the initially served model.
    respawn_backoff : float, default 0.1
        Base delay before a crashed pool worker is respawned; doubles
        per consecutive crash of the same slot. Pool-only.
    respawn_backoff_cap : float, default 5.0
        Ceiling on the exponential respawn delay. Pool-only.
    chaos : :class:`repro.chaos.FaultPlan`, optional
        Deterministic fault injection for tests and the chaos benchmark;
        ``None`` (production) disables every hook.

    Configs are frozen; derive variants with :func:`dataclasses.replace`::

        fleet_cfg = replace(base_cfg, n_workers=8)
    """

    threshold: float = 0.5
    max_batch: int = 256
    max_pending: int = 4096
    n_workers: int = 0
    mmap: Optional[bool] = None
    model_version: str = "v0"
    respawn_backoff: float = 0.1
    respawn_backoff_cap: float = 5.0
    chaos: Optional[object] = None


def serve(model, config: Optional[ServerConfig] = None, **overrides):
    """Build the right server for ``model`` from a :class:`ServerConfig`.

    Parameters
    ----------
    model : fitted classifier, or artifact path
        Paths are loaded through :func:`repro.persistence.load_model`
        (memory-mapped when ``mmap`` resolves true).
    config : ServerConfig, optional
        Base configuration; defaults to ``ServerConfig()``.
    **overrides
        Individual :class:`ServerConfig` fields, overriding ``config`` —
        the ``get_classifier(name, preset=..., **overrides)`` pattern.

    Returns
    -------
    ModelServer or WorkerPool
        ``n_workers == 0`` → :class:`~repro.serving.ModelServer`;
        ``n_workers >= 1`` → :class:`~repro.serving.WorkerPool`.
        ``mmap=None`` (the default) resolves to ``False`` for a single
        server and ``True`` for a pool — a lone process gains little from
        mapping, a fleet is the whole point.

    Raises
    ------
    TypeError
        On an override that is not a :class:`ServerConfig` field (with
        the valid field names in the message).
    """
    if config is None:
        config = ServerConfig()
    valid = {f.name for f in fields(ServerConfig)}
    unknown = sorted(set(overrides) - valid)
    if unknown:
        raise TypeError(
            f"serve() got invalid ServerConfig field(s) {unknown}; "
            f"valid fields: {sorted(valid)}"
        )
    config = replace(config, **overrides)
    if config.n_workers < 0:
        raise ValueError("n_workers must be >= 0")
    if config.n_workers == 0:
        return ModelServer(
            model,
            threshold=config.threshold,
            max_batch=config.max_batch,
            max_pending=config.max_pending,
            model_version=config.model_version,
            mmap=bool(config.mmap) if config.mmap is not None else False,
            chaos=config.chaos,
        )
    return WorkerPool(
        model,
        n_workers=config.n_workers,
        threshold=config.threshold,
        max_batch=config.max_batch,
        max_pending=config.max_pending,
        model_version=config.model_version,
        mmap=bool(config.mmap) if config.mmap is not None else True,
        respawn_backoff=config.respawn_backoff,
        respawn_backoff_cap=config.respawn_backoff_cap,
        chaos=config.chaos,
    )
