"""Tiny timing utilities used by the experiment harness (Table V timings)."""

from __future__ import annotations

import time
from typing import Callable

__all__ = ["timed_call"]


def timed_call(fn: Callable, *args, **kwargs):
    """Return ``(result, seconds)`` for a single call."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start
