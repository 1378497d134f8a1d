"""Exception types used across the :mod:`repro` library."""


class ReproError(Exception):
    """Base class for all library-specific errors."""


class NotFittedError(ReproError, AttributeError):
    """Raised when an estimator is used before ``fit`` was called."""


class DataValidationError(ReproError, ValueError):
    """Raised when input arrays fail validation checks."""


class NotEnoughSamplesError(ReproError, ValueError):
    """Raised when a sampler or estimator needs more samples than provided."""


class PersistenceError(ReproError, ValueError):
    """Raised when a model artifact cannot be written or read: unsupported
    estimator or hyper-parameter, unknown/newer schema version, or a
    corrupted file (checksum, dtype, or shape mismatch)."""


class ServerOverloadedError(ReproError, RuntimeError):
    """Raised when a :class:`repro.serving.ModelServer` request queue is at
    capacity; callers should back off and retry."""


class WorkerCrashedError(ReproError, RuntimeError):
    """Raised when a :class:`repro.serving.WorkerPool` worker process died
    before answering a request. The pool's supervisor fails every in-flight
    future of the crashed worker with this error immediately (no request
    ever hangs on a dead process) and respawns the worker with capped
    exponential backoff; callers may retry — the request was never
    (completely) scored."""


class DeadlineExceededError(ReproError, TimeoutError):
    """Raised when a request's deadline expired before it could be scored.
    Expired requests fail fast wherever they are found — at submission, in
    a serving queue, or by the pool supervisor — instead of being scored
    late; a request that got this error was never scored."""


class ServerClosedError(ReproError, RuntimeError):
    """Raised when a request reaches a serving component —
    :class:`repro.serving.ModelServer`, :class:`repro.serving.WorkerPool`,
    or :class:`repro.serving.AsyncGateway` — after its ``close()``.
    Subclasses ``RuntimeError`` so pre-typed callers keep working."""


class UnsupportedPlatformError(ReproError, RuntimeError):
    """Raised when the platform cannot provide a capability a component
    requires — e.g. :class:`repro.serving.WorkerPool` needs the ``fork``
    start method for zero-copy model inheritance."""


class SwapFailedError(ReproError, RuntimeError):
    """Raised when a fleet-wide :meth:`repro.serving.WorkerPool.swap_model`
    broadcast failed on one or more workers for *heterogeneous* reasons.
    When every failing worker reported the same exception type, that type
    is re-raised directly instead."""


class FleetTimeoutError(ReproError, TimeoutError):
    """Raised when a fleet-wide wait — swap acknowledgement, stats
    collection, or :meth:`repro.serving.WorkerPool.wait_healthy` — did
    not complete within its timeout. Subclasses ``TimeoutError`` so
    pre-typed callers keep working."""


class CircuitOpenError(ReproError, RuntimeError):
    """Raised by :class:`repro.serving.AsyncGateway` while its circuit
    breaker is open: the backend has been crashing or overloaded for long
    enough that sending more traffic would only deepen the outage. The
    breaker half-opens after a cooldown and probes with a single request;
    install an ``on_shed`` hook on the gateway to route shed traffic to a
    fallback instead of erroring."""


class UndefinedMetricWarning(UserWarning):
    """Emitted when a ranking metric is undefined for the given window —
    e.g. AUROC / AUPRC over a window holding a single class — and ``nan``
    is returned instead of a score. Monitoring windows over highly
    imbalanced streams are routinely all-majority, so this is an expected,
    non-fatal condition."""


class RegistryError(ReproError, ValueError):
    """Raised when an :class:`repro.lifecycle.ArtifactRegistry` operation
    fails: unknown version, corrupted manifest, or an artifact whose bytes
    no longer match the checksum recorded at registration."""
