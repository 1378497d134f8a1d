"""Parallel execution engine: executors, seeding, fitting, and inference.

The subsystem has four small layers:

* :mod:`repro.parallel.executor` — one ordered :func:`parallel_map`
  primitive (serial loop, process pool or thread pool) and the keyed
  registry that ships shared data to each worker once;
* :mod:`repro.parallel.seeding` — per-task seed derivation so results are
  bit-identical across worker counts;
* :mod:`repro.parallel.engine` — the generic "resample → build → fit"
  member loop every bagging-style ensemble shares;
* :mod:`repro.parallel.inference` — chunked, batched
  :func:`ensemble_predict_proba` for streaming large scoring jobs.

All ensemble classes expose one knob on top of it, ``n_jobs`` (worker
count, ``-1`` = all CPUs); the job fixes the executor: member fits run on
a process pool, chunked scoring on a thread pool, and ``n_jobs`` ≤ 1 runs
the serial loop.
"""

from .engine import fit_ensemble_member, fit_ensemble_parallel
from .executor import parallel_map, resolve_n_jobs
from .inference import (
    DEFAULT_CHUNK_SIZE,
    ESTIMATOR_BLOCK,
    ensemble_predict_proba,
)
from .seeding import MAX_SEED, spawn_seeds, task_rng

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "ESTIMATOR_BLOCK",
    "MAX_SEED",
    "ensemble_predict_proba",
    "fit_ensemble_member",
    "fit_ensemble_parallel",
    "parallel_map",
    "resolve_n_jobs",
    "spawn_seeds",
    "task_rng",
]
