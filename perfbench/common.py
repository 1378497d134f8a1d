"""Shared helpers: host fingerprint, percentiles, memory, work directory."""

from __future__ import annotations

import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Sequence, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

#: Fewest samples that must lie beyond a reported percentile.
TAIL_SAMPLES = 10


def tail_quantile(n: int, target: float = 0.99) -> float:
    """The highest quantile up to ``target`` with at least
    :data:`TAIL_SAMPLES` of ``n`` samples beyond it (0.5 at minimum)."""
    if n <= 0:
        return 0.5
    return max(0.5, min(target, 1.0 - TAIL_SAMPLES / n))


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile of ``values`` (nan when empty)."""
    if not values:
        return math.nan
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail(values: Sequence[float], target: float = 0.99) -> Tuple[float, float, int]:
    """``(value, quantile used, sample count)`` of the tail percentile."""
    q = tail_quantile(len(values), target)
    return quantile(values, q), q, len(values)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else math.nan


def peak_rss_mb() -> float:
    """Peak resident set of this process (children excluded), MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _git(args: List[str]) -> str:
    try:
        out = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True,
            timeout=20, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return ""
    return out.stdout.strip()


def fingerprint(workload: str, seed: int, scale: float) -> Dict:
    """What a result depends on besides the code: host, toolchain, inputs.

    ``host`` and ``inputs`` must match for two runs to be compared;
    ``code`` (git sha and dirty flag) is what a comparison varies.
    """
    import numpy

    sha = _git(["rev-parse", "HEAD"]) or "unknown"
    dirty = bool(_git(["status", "--porcelain", "--untracked-files=no"])) if sha != "unknown" else None
    return {
        "host": {
            "cores": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
        "inputs": {"workload": workload, "seed": seed, "scale": scale},
        "code": {"git_sha": sha, "dirty": dirty},
    }


def stop_resource_tracker(timeout: float = 10.0) -> None:
    """Stop multiprocessing's resource tracker and wait for it to end.

    The spawn-context retrain helper starts this helper process; left
    alone it exits only after the benchmark has, so a run would end with
    it still running. Closing our end of its pipe makes it exit; one that
    has not done so within ``timeout`` is killed.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    with tracker._lock:
        if tracker._fd is None:
            return
        os.close(tracker._fd)
        pid, tracker._fd, tracker._pid = tracker._pid, None, None
    if pid is None:
        return
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if os.waitpid(pid, os.WNOHANG) != (0, 0):
            return
        time.sleep(0.01)
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)


class WorkDir:
    """A scratch directory inside the checkout, removed on exit."""

    def __init__(self) -> None:
        self.path = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))

    def __enter__(self) -> str:
        os.makedirs(self.path, exist_ok=True)
        return self.path

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        parent = os.path.dirname(self.path)
        try:
            os.rmdir(parent)
        except OSError:
            pass


def log(*parts) -> None:
    """Progress lines go to stderr; stdout carries the report."""
    print(*parts, file=sys.stderr, flush=True)
