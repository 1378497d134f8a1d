"""Per-task seed derivation — the determinism half of the parallel engine.

A naively parallelised ensemble is non-deterministic because base models
race for draws from one shared random stream. The engine avoids this by
splitting the stream *before* dispatch: the parent RNG emits one integer
seed per task in a single sequential draw, and each task builds its own
private :class:`~numpy.random.RandomState` from its seed. The schedule of
draws is then a function of ``random_state`` alone — not of the executor,
the worker count, or task completion order — which is what makes results
bit-identical for every ``n_jobs``.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..utils.validation import check_random_state

__all__ = ["MAX_SEED", "spawn_seeds", "task_rng"]

#: Exclusive upper bound for derived seeds (int32 positive range, matching
#: the ``rng.randint(np.iinfo(np.int32).max)`` idiom used across the library).
MAX_SEED = np.iinfo(np.int32).max


def spawn_seeds(random_state, n_tasks: int) -> List[int]:
    """Draw ``n_tasks`` independent task seeds from a parent random state.

    The parent stream advances exactly once regardless of how the tasks are
    later scheduled. Accepts anything :func:`check_random_state` accepts; a
    shared :class:`~numpy.random.RandomState` instance advances in place so
    successive engine calls (e.g. the rounds of a cascade) stay decorrelated.
    """
    if n_tasks < 0:
        raise ValueError("n_tasks must be >= 0")
    rng = check_random_state(random_state)
    return [int(s) for s in rng.randint(0, MAX_SEED, size=n_tasks)]


def task_rng(seed: int) -> np.random.RandomState:
    """Private random state for one task, built from its derived seed."""
    return np.random.RandomState(int(seed))
