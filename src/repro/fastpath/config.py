"""Runtime switch for the fastpath kernels.

The packed-forest inference kernel and the packed majority-scoring path are
bit-identical to the legacy per-tree code, so they are **on by default**.
The switch exists for A/B benchmarking (``benchmarks/bench_fastpath.py``
times both sides) and as an escape hatch: set the environment variable
``REPRO_FASTPATH=0`` or call :func:`set_fastpath` / use
:func:`fastpath_disabled` to force every consumer back onto the legacy
per-tree loops.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Optional

__all__ = ["fastpath_enabled", "set_fastpath", "fastpath_disabled"]

#: Tri-state programmatic override; ``None`` defers to the environment.
_OVERRIDE: Optional[bool] = None

_FALSY = ("0", "false", "off", "no")


def fastpath_enabled() -> bool:
    """True when the packed inference/scoring kernels should be used."""
    if _OVERRIDE is not None:
        return _OVERRIDE
    return os.environ.get("REPRO_FASTPATH", "1").strip().lower() not in _FALSY


def set_fastpath(enabled: Optional[bool]) -> None:
    """Force the fastpath on/off (``True``/``False``) or restore the
    environment-driven default (``None``)."""
    global _OVERRIDE
    _OVERRIDE = enabled


@contextmanager
def fastpath_disabled():
    """Run a block on the legacy per-tree code paths (A/B benchmarking)."""
    global _OVERRIDE
    previous = _OVERRIDE
    _OVERRIDE = False
    try:
        yield
    finally:
        _OVERRIDE = previous
