"""Correctness gates: each returns ``None`` when it holds, else a reason.

A failed gate fails the run outright (``"correct": false``, exit code 1);
it never turns into a slower number.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence

import numpy as np


def mmap_identical(in_memory: np.ndarray, mmap_loaded: np.ndarray) -> Optional[str]:
    """The mmap-loaded model predicts bit-identically to the fitted one."""
    if np.array_equal(in_memory, mmap_loaded):
        return None
    return "mmap-loaded predict_proba differs from the in-memory model"


def repeats_exactly(values: Sequence[float], what: str) -> Optional[str]:
    """Every repetition of a deterministic quantity gave the same bits."""
    if len(set(float(v) for v in values)) > 1:
        return f"{what} is not repeatable: {sorted(set(values))}"
    return None


def served_match(samples: Iterable, models: Dict[str, object]) -> Optional[str]:
    """Each sampled response equals ``predict_proba`` of the artifact of
    the version stamped on it. ``samples`` holds ``(rows, proba, version)``."""
    checked = 0
    for rows, proba, version in samples:
        model = models.get(version)
        if model is None:
            return f"response stamped with unknown version {version!r}"
        expected = model.predict_proba(rows)
        if not np.array_equal(expected, proba):
            return f"a response stamped {version!r} differs from that artifact's predict_proba"
        checked += 1
    if checked == 0:
        return "no served responses were sampled"
    return None


def version_stamps(responses: Iterable, swap_start: float, converged: float,
                   old: str, new: str) -> Optional[str]:
    """Responses that completed before the swap began carry ``old``;
    requests sent after the fleet converged carry ``new``.
    ``responses`` holds ``(sent, done, version)``."""
    before = after = 0
    for sent, done, version in responses:
        if done < swap_start:
            before += 1
            if version != old:
                return f"a response completed before the swap is stamped {version!r}, not {old!r}"
        elif sent > converged:
            after += 1
            if version != new:
                return f"a request sent after convergence is stamped {version!r}, not {new!r}"
    if before == 0 or after == 0:
        return f"too few responses to check the swap ({before} before, {after} after)"
    return None
