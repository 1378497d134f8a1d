"""Source adapters for the resampled-ensemble family.

:func:`repro.imbalance_ensemble.fit_resampled_ensemble` treats its ``X`` as
an opaque payload handed to each member's ``sample_fn`` — so a
:class:`DataSource` can ride through the existing parallel engine unchanged.
:func:`source_balanced_subset_sample` rebuilds the library's random balanced
under-sample from a source plus its class-index scan, consuming the member
RNG in exactly the order of the in-memory
:func:`~repro.imbalance_ensemble.base.balanced_subset_sample` — which makes
``fit_source`` on :class:`~repro.imbalance_ensemble.UnderBaggingClassifier`
and :class:`~repro.imbalance_ensemble.EasyEnsembleClassifier` bit-identical
to ``fit`` on the same data for every ``n_jobs``.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..imbalance_ensemble.base import fit_resampled_ensemble
from .sources import ClassIndexScan, DataSource

__all__ = [
    "fit_balanced_source_ensemble",
    "source_balanced_subset_sample",
]


def source_balanced_subset_sample(
    index: int,
    rng: np.random.RandomState,
    source: DataSource,
    y_unused,
    scan: ClassIndexScan,
) -> Tuple[np.ndarray, np.ndarray]:
    """Engine ``sample_fn``: one random balanced under-sample per member,
    gathered from a source. RNG-order-identical to the in-memory
    ``balanced_subset_sample`` (choice over the majority index map, then one
    permutation of the combined subset)."""
    maj_idx, min_idx = scan.maj_idx, scan.min_idx
    n = min(len(min_idx), len(maj_idx))
    chosen = rng.choice(maj_idx, size=n, replace=len(maj_idx) < n)
    idx = rng.permutation(np.concatenate([chosen, min_idx]))
    return source.take(idx), scan.y[idx]


def fit_balanced_source_ensemble(
    source: DataSource,
    scan: ClassIndexScan,
    *,
    n_estimators: int,
    estimator=None,
    make_model: Optional[Callable] = None,
    random_state=None,
    n_jobs: Optional[int] = None,
) -> Tuple[List, int]:
    """Fit ``n_estimators`` members on balanced under-samples of a source.

    One class-index scan (``collect_indices=True``, internal labels) feeds
    every member; each member gathers only its own ~2·|P| training rows,
    so feature memory never exceeds one subset per concurrent worker.
    Returns ``(estimators, total_training_samples)``.
    """
    return fit_resampled_ensemble(
        source,
        None,
        n_estimators=n_estimators,
        sample_fn=partial(source_balanced_subset_sample, scan=scan),
        estimator=estimator,
        make_model=make_model,
        random_state=random_state,
        n_jobs=n_jobs,
    )
