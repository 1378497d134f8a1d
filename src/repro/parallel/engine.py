"""Parallel ensemble-fitting engine.

Every bagging-style ensemble in the library is "n independent recipes":
member *i* resamples the training data, builds an unfitted model, and fits
it. The engine captures that shape once —

* ``sample_fn(i, rng, X, y) -> (X_bag, y_bag)`` builds member *i*'s
  training set from its private RNG;
* ``make_model(rng) -> model`` builds member *i*'s unfitted model (seeding
  it from the same private RNG);

— derives one seed per member up front (:func:`repro.parallel.seeding`),
and dispatches the members through :func:`repro.parallel.parallel_map`.
Results come back in member order, so ``estimators_`` is stable across
worker counts.

With ``n_jobs`` > 1 the members fit on a process pool (tree building is
python-heavy and serialises on the GIL under threads). Tasks carry only
``(key, seed, index)``: ``(X, y, sample_fn, make_model)`` reach each worker
once through the pool initializer, which a forked worker inherits without
a pickle. The fitted members are pickled back, so models must pickle.
Sequential methods (cascades, boosting) reuse :func:`fit_ensemble_member`
for single fits so the per-member plumbing is defined exactly once.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

from .executor import _SHARED_PAYLOADS, install_payload, parallel_map, payload_key
from .seeding import spawn_seeds, task_rng

__all__ = ["fit_ensemble_member", "fit_ensemble_parallel"]


def fit_ensemble_member(
    index: int,
    rng: np.random.RandomState,
    X: np.ndarray,
    y: np.ndarray,
    sample_fn: Callable,
    make_model: Callable,
) -> Tuple[object, int]:
    """Resample, build, and fit one ensemble member.

    Returns ``(fitted_model, n_training_samples)``. The RNG consumption
    order — sample first, then model seeding — is part of the determinism
    contract; both parallel members (via :func:`fit_ensemble_parallel`) and
    sequential callers (cascade rounds) go through this single code path.
    """
    X_bag, y_bag = sample_fn(index, rng, X, y)
    model = make_model(rng)
    model.fit(X_bag, y_bag)
    return model, len(y_bag)


def _member_task(task) -> Tuple[object, int]:
    key, seed, index = task
    X, y, sample_fn, make_model = _SHARED_PAYLOADS[key]
    return fit_ensemble_member(index, task_rng(seed), X, y, sample_fn, make_model)


def fit_ensemble_parallel(
    X: np.ndarray,
    y: np.ndarray,
    *,
    n_estimators: int,
    sample_fn: Callable,
    make_model: Callable,
    random_state=None,
    n_jobs: Optional[int] = None,
) -> Tuple[List, int]:
    """Fit ``n_estimators`` independent members, possibly in parallel.

    Returns ``(estimators, total_training_samples)`` with estimators in
    member order. Given the same ``random_state`` the output is identical
    for every ``n_jobs`` because each member's
    randomness comes from a seed drawn sequentially before dispatch.
    """
    if n_estimators < 1:
        raise ValueError("n_estimators must be >= 1")
    seeds = spawn_seeds(random_state, n_estimators)
    with payload_key() as key:
        results = parallel_map(
            _member_task,
            [(key, seed, i) for i, seed in enumerate(seeds)],
            n_jobs=n_jobs,
            processes=True,
            initializer=install_payload,
            initargs=(key, (X, y, sample_fn, make_model)),
        )
    estimators = [model for model, _ in results]
    n_samples = int(sum(n for _, n in results))
    return estimators, n_samples
