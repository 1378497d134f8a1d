"""CPU pinning for tests whose contract must hold on any core count.

:func:`pinned` restricts the test's own process to a set of CPUs for a
block (``os.sched_setaffinity``, which new threads and forked workers
inherit); :func:`cpu_sets` gives the two sets such tests run under: one
CPU, then every CPU the process may use. :func:`under_each_cpu_set`
runs a whole test body once per set.
"""

import contextlib
import functools
import os


def cpu_sets():
    """One CPU of this process's affinity set, then all of them."""
    all_cpus = os.sched_getaffinity(0)
    return ({min(all_cpus)}, all_cpus)


@contextlib.contextmanager
def pinned(cpus):
    """Restrict this process to ``cpus`` for the block, then restore."""
    original = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, original)


def under_each_cpu_set(test):
    """Decorate a test to run its body pinned to each of :func:`cpu_sets`."""

    @functools.wraps(test)
    def run(*args, **kwargs):
        for cpus in cpu_sets():
            with pinned(cpus):
                test(*args, **kwargs)

    return run
