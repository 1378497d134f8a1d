"""Determinism contract: every random draw is seeded, every deadline is
monotonic.

The paper's self-paced sampling is deterministic given a seed, and the
repo's bit-identity guarantees (across worker counts, across save/load,
across the serving fleet) only hold because no code path touches global
RNG state. Statically that means:

``unseeded-rng``
    No calls on the *global* ``numpy.random`` module (``np.random.rand``
    et al.) or the stdlib ``random`` module; no ``RandomState()`` /
    ``default_rng()`` / ``random.Random()`` constructed without a seed.
    Seeded constructors (``RandomState(7)``, ``default_rng(seed)``) and
    :func:`repro.utils.validation.check_random_state` are the approved
    sources of randomness.

``wall-clock-deadline``
    No ``time.time()``. Deadlines, timeouts, and durations must use
    ``time.monotonic()`` / ``time.perf_counter()`` — the serving plane's
    deadline contract breaks under NTP steps otherwise. Genuine
    wall-clock timestamps (manifest mtimes, log lines) are rare and must
    carry an explicit pragma justifying themselves.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set

from .core import Checker, Finding, SourceFile

#: numpy.random attributes that are legitimate *factories/types*, not draws.
_NP_RANDOM_OK = {
    "RandomState",
    "Generator",
    "default_rng",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "MT19937",
}

#: stdlib random-module callables that consume or mutate global state.
_STDLIB_RANDOM_FUNCS = {
    "random",
    "uniform",
    "randint",
    "randrange",
    "choice",
    "choices",
    "sample",
    "shuffle",
    "seed",
    "gauss",
    "normalvariate",
    "betavariate",
    "expovariate",
    "triangular",
    "vonmisesvariate",
    "paretovariate",
    "weibullvariate",
    "lognormvariate",
    "getrandbits",
    "randbytes",
}


def _attr_chain(node: ast.AST) -> List[str]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return list(reversed(parts))
    return []


class DeterminismChecker(Checker):
    """Unseeded RNG and wall-clock misuse."""

    name = "determinism"
    rules = {
        "unseeded-rng": (
            "global/unseeded RNG use breaks the seeded bit-identity "
            "contract; thread a seeded RandomState/Generator through "
            "instead"
        ),
        "wall-clock-deadline": (
            "time.time() is not monotonic; deadlines and durations must "
            "use time.monotonic()/perf_counter() (pragma genuine "
            "wall-clock timestamps)"
        ),
    }

    def check(self, src: SourceFile) -> Iterator[Finding]:
        imports_stdlib_random = False
        numpy_aliases: Set[str] = set()
        from_numpy_random: Set[str] = set()
        for node in ast.walk(src.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random":
                        imports_stdlib_random = True
                    if alias.name == "numpy":
                        numpy_aliases.add(alias.asname or "numpy")
            elif isinstance(node, ast.ImportFrom):
                if node.module in ("numpy.random", "numpy.random.mtrand"):
                    for alias in node.names:
                        from_numpy_random.add(alias.asname or alias.name)

        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = _attr_chain(node.func)
            if not chain:
                continue
            yield from self._check_call(
                src, node, chain, imports_stdlib_random, numpy_aliases,
                from_numpy_random,
            )

    def _check_call(
        self,
        src: SourceFile,
        node: ast.Call,
        chain: List[str],
        imports_stdlib_random: bool,
        numpy_aliases: Set[str],
        from_numpy_random: Set[str],
    ) -> Iterator[Finding]:
        dotted = ".".join(chain)
        unseeded = not node.args and not node.keywords

        # numpy global module: np.random.<draw>(...) / numpy.random...
        if len(chain) >= 3 and chain[0] in numpy_aliases and chain[1] == "random":
            func = chain[2]
            if func in _NP_RANDOM_OK:
                if func in ("RandomState", "default_rng") and unseeded and len(chain) == 3:
                    yield self.finding(
                        src, "unseeded-rng", node.lineno,
                        f"{dotted}() without a seed is nondeterministic",
                    )
            else:
                yield self.finding(
                    src, "unseeded-rng", node.lineno,
                    f"{dotted}() draws from numpy's *global* RNG — pass a "
                    "seeded RandomState/Generator through instead",
                )
            return

        # from numpy.random import RandomState / default_rng
        if len(chain) == 1 and chain[0] in from_numpy_random:
            if chain[0] in ("RandomState", "default_rng") and unseeded:
                yield self.finding(
                    src, "unseeded-rng", node.lineno,
                    f"{dotted}() without a seed is nondeterministic",
                )
            return

        # stdlib random module
        if imports_stdlib_random and len(chain) == 2 and chain[0] == "random":
            if chain[1] in _STDLIB_RANDOM_FUNCS:
                yield self.finding(
                    src, "unseeded-rng", node.lineno,
                    f"{dotted}() uses the stdlib global RNG — use a seeded "
                    "random.Random(seed) (or better, numpy) instead",
                )
            elif chain[1] == "Random" and unseeded:
                yield self.finding(
                    src, "unseeded-rng", node.lineno,
                    "random.Random() without a seed is nondeterministic",
                )
            return

        # wall clock
        if len(chain) == 2 and chain[0] == "time" and chain[1] == "time":
            yield self.finding(
                src, "wall-clock-deadline", node.lineno,
                "time.time() jumps with the wall clock; use "
                "time.monotonic() (deadlines) or perf_counter() (timings)",
            )
