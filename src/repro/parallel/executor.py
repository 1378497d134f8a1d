"""Executors for the ensemble engine.

Everything in :mod:`repro.parallel` is built on one primitive —
:func:`parallel_map` — which applies a function over a list of task
payloads and returns the results *in task order*. ``n_jobs`` is the only
knob; the executor is fixed by the job:

* ``n_jobs`` ≤ 1 (or a single task) — a plain loop in the calling thread,
  the reference semantics every pool must reproduce bit-for-bit;
* ``processes=True`` — a :class:`~concurrent.futures.ProcessPoolExecutor`,
  used for member fits (python-heavy tree building that threads serialise
  on the GIL); results cross back via pickle. Each worker runs numpy's
  bundled OpenBLAS on one thread: the workers already use the cores, and
  BLAS threads on top of them (logistic, SVM and MLP members) would
  oversubscribe them;
* ``processes=False`` — a :class:`~concurrent.futures.ThreadPoolExecutor`,
  used for chunked scoring (numpy kernels release the GIL, and threads
  share the estimators and rows without a copy).

Data that every task needs travels **once per worker**, not once per task:
the caller registers it under a fresh key (:func:`payload_key`) and passes
:func:`install_payload` as the pool initializer, so tasks carry only the
key. A forked worker inherits the initializer arguments without a pickle;
thread and serial workers share the caller's registry.

Determinism contract: callers must make each task self-contained — any
randomness a task needs is derived from a per-task seed drawn *before*
dispatch (:mod:`repro.parallel.seeding`), and reductions over task results
always run in task order. Under that contract every executor and every
``n_jobs`` produces identical output.
"""

from __future__ import annotations

import ctypes
import itertools
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = ["install_payload", "parallel_map", "payload_key", "resolve_n_jobs"]

#: Per-process registry of payloads shared by every task of one call. The
#: caller's key is removed when its :func:`payload_key` block exits;
#: worker-process copies die with the pool.
_SHARED_PAYLOADS: Dict[Tuple[int, int], tuple] = {}
_payload_counter = itertools.count()


def resolve_n_jobs(n_jobs: Optional[int] = None) -> int:
    """Turn an ``n_jobs`` hyper-parameter into a concrete worker count.

    ``None`` means 1 (no parallelism); positive integers pass through;
    negative integers count back from the CPU count the way joblib does
    (``-1`` → all CPUs, ``-2`` → all but one, never below 1).
    """
    if n_jobs is None:
        return 1
    n_jobs = int(n_jobs)
    if n_jobs == 0:
        raise ValueError("n_jobs == 0 has no meaning; use 1, a positive int, or -1")
    if n_jobs < 0:
        return max(1, (os.cpu_count() or 1) + 1 + n_jobs)
    return n_jobs


@contextmanager
def payload_key() -> Iterator[Tuple[int, int]]:
    """A fresh registry key, dropped from this process's registry on exit."""
    key = (os.getpid(), next(_payload_counter))
    try:
        yield key
    finally:
        _SHARED_PAYLOADS.pop(key, None)


def install_payload(key, payload) -> None:
    """Pool initializer: register ``payload`` under ``key`` in this worker."""
    _SHARED_PAYLOADS[key] = payload


def _openblas_symbol(name: str):
    """``name`` from the first OpenBLAS loaded in this process that exports
    it, or ``None``. Libraries are found in the process's own map of
    loaded files, so no library is loaded that was not loaded already."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line})
    except OSError:
        return None
    for path in paths:
        try:
            return getattr(ctypes.CDLL(path), name)
        except (OSError, AttributeError):
            continue
    return None


def _process_worker_init(initializer: Optional[Callable], initargs: tuple) -> None:
    """Process-pool initializer: one BLAS thread, then the caller's own."""
    set_threads = _openblas_symbol("scipy_openblas_set_num_threads64_")
    if set_threads is not None:
        set_threads(1)
    if initializer is not None:
        initializer(*initargs)


def parallel_map(
    fn: Callable,
    tasks: Sequence,
    *,
    n_jobs: Optional[int] = None,
    processes: bool = False,
    initializer: Optional[Callable] = None,
    initargs: Sequence = (),
) -> List:
    """Apply ``fn`` to every payload in ``tasks``; results in task order.

    Falls back to the serial loop whenever parallelism cannot pay off (one
    worker or one task), so callers pass ``n_jobs`` straight through.
    ``processes`` picks the pool: processes when true, threads otherwise.

    ``initializer(*initargs)`` runs once per worker before any task (and
    once in the calling thread on the serial path). With processes, ``fn``
    and every task must be picklable (module-level functions and
    :func:`functools.partial` of them qualify; closures do not), and each
    worker first sets numpy's OpenBLAS to one thread.
    """
    tasks = list(tasks)
    workers = min(resolve_n_jobs(n_jobs), max(len(tasks), 1))
    if workers <= 1:
        if initializer is not None:
            initializer(*initargs)
        return [fn(task) for task in tasks]
    pool_cls = ThreadPoolExecutor
    if processes:
        pool_cls = ProcessPoolExecutor
        initializer, initargs = _process_worker_init, (initializer, tuple(initargs))
    with pool_cls(
        max_workers=workers, initializer=initializer, initargs=tuple(initargs)
    ) as pool:
        return list(pool.map(fn, tasks))
