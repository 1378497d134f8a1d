"""Layer spans recorded from the benchmark's side of the program's API.

The traced run wraps the public entry points of each layer the fit and
predict paths go through, and keeps spans in memory. A span's *self time*
is its duration minus the part covered by its child spans, so the self
times of every span under one root add up to the root's wall time.

Wrapped entry points (layer name -> call):

* ``core.majority_score`` -> ``InMemoryMajorityAccess.score``
* ``core.sampling``       -> ``self_paced_under_sample`` (as the fit loop
  looks it up in ``repro.core.self_paced``)
* ``tree.member_fit``     -> ``DecisionTreeClassifier.fit``
* ``fastpath.scoring_matrix`` -> ``ScoringMatrix.__init__``
* ``fastpath.pack``       -> ``PackedForest.from_estimators``
* ``parallel.predict``    -> ``ensemble_predict_proba`` (as
  ``SelfPacedEnsembleClassifier.predict_proba`` looks it up)

Roots (``fit``, ``predict``, ``retrain``, ...) and the persistence calls
are opened by the benchmark itself with :meth:`LayerTracer.span`.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional


class _Frame:
    __slots__ = ("layer", "start", "child_s")

    def __init__(self, layer: str, start: float):
        self.layer = layer
        self.start = start
        self.child_s = 0.0


class LayerTracer:
    """Per-layer self and inclusive time, calls and counts, grouped by
    root span.

    Spans are only recorded below an open root, so set-up work (data
    generation, the champion fit of the serving workload) stays out of
    the breakdown. ``self_s[root][layer]``, ``incl_s[root][layer]`` and
    ``calls[root][layer]`` sum over every root span of that name;
    ``roots[root]`` holds each root span's wall time.
    """

    def __init__(self) -> None:
        self.self_s: Dict[str, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        self.incl_s: Dict[str, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        self.calls: Dict[str, Dict[str, int]] = defaultdict(
            lambda: defaultdict(int)
        )
        self.counts: Dict[str, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        self.roots: Dict[str, List[float]] = defaultdict(list)
        self._local = threading.local()
        self._patches: List[tuple] = []

    # -- span bookkeeping ---------------------------------------------- #
    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _root(self) -> Optional[str]:
        stack = self._stack()
        return stack[0].layer if stack else None

    @contextmanager
    def span(self, layer: str, root: bool = False):
        """Time ``layer``; with ``root=True`` it opens a new breakdown."""
        stack = self._stack()
        if not root and not stack:
            yield
            return
        frame = _Frame(layer, time.perf_counter())
        stack.append(frame)
        try:
            yield
        finally:
            duration = time.perf_counter() - frame.start
            stack.pop()
            name = layer if root else stack[0].layer
            self.self_s[name][layer] += duration - frame.child_s
            self.incl_s[name][layer] += duration
            self.calls[name][layer] += 1
            if stack:
                stack[-1].child_s += duration
            if root:
                self.roots[layer].append(duration)

    def count(self, key: str, amount: float) -> None:
        """Add ``amount`` to a counter of the open root (if any)."""
        root = self._root()
        if root is not None:
            self.counts[root][key] += amount

    # -- wrapping the program's entry points --------------------------- #
    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap_function(self, owner, attr: str, layer: str,
                      on_call: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` (function or method) by a timed wrapper;
        ``on_call(tracer, args, result)`` records counts after each call."""
        original = owner.__dict__[attr]
        tracer = self

        def timed(*args, **kwargs):
            with tracer.span(layer):
                result = original(*args, **kwargs)
            if on_call is not None and tracer._root() is not None:
                on_call(tracer, args, result)
            return result

        timed.__wrapped__ = original
        self._patch(owner, attr, timed)

    def wrap_classmethod(self, owner, attr: str, layer: str) -> None:
        """Like :meth:`wrap_function` for a ``classmethod``."""
        original = owner.__dict__[attr].__func__
        tracer = self

        def timed(cls, *args, **kwargs):
            with tracer.span(layer):
                return original(cls, *args, **kwargs)

        self._patch(owner, attr, classmethod(timed))

    def install(self) -> "LayerTracer":
        """Wrap every layer entry point listed in the module docstring."""
        from repro.core import self_paced
        from repro.fastpath import packed
        from repro.tree import decision_tree

        def tree_counts(tracer, args, result):
            tracer.count("tree.member_fits", 1)
            tracer.count("tree.member_rows", len(args[1]))
            tracer.count("tree.nodes", result.tree_.node_count)

        def matrix_counts(tracer, args, result):
            matrix = args[0]
            tracer.count("fastpath.code_bytes_per_row",
                         matrix.codes.itemsize * matrix.n_features)

        def score_counts(tracer, args, result):
            tracer.count("core.majority_rows_scored", len(result))

        def predict_counts(tracer, args, result):
            tracer.count("parallel.predict_rows", len(result))

        self.wrap_function(self_paced.InMemoryMajorityAccess, "score",
                           "core.majority_score", score_counts)
        self.wrap_function(self_paced, "self_paced_under_sample", "core.sampling")
        self.wrap_function(self_paced, "ensemble_predict_proba",
                           "parallel.predict", predict_counts)
        self.wrap_function(decision_tree.DecisionTreeClassifier, "fit",
                           "tree.member_fit", tree_counts)
        self.wrap_function(packed.ScoringMatrix, "__init__",
                           "fastpath.scoring_matrix", matrix_counts)
        self.wrap_classmethod(packed.PackedForest, "from_estimators",
                              "fastpath.pack")
        return self

    def uninstall(self) -> None:
        """Restore every wrapped entry point."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- moving a breakdown between processes -------------------------- #
    def snapshot(self) -> Dict:
        """The recorded figures as plain (picklable) dicts."""
        plain = lambda d: {k: dict(v) for k, v in d.items()}  # noqa: E731
        return {"self_s": plain(self.self_s), "incl_s": plain(self.incl_s),
                "calls": plain(self.calls), "counts": plain(self.counts),
                "roots": {k: list(v) for k, v in self.roots.items()}}

    def merge(self, snap: Dict) -> None:
        """Add a :meth:`snapshot` taken in another process."""
        for field in ("self_s", "incl_s", "calls", "counts"):
            ours = getattr(self, field)
            for root, layers in snap[field].items():
                for layer, value in layers.items():
                    ours[root][layer] += value
        for root, walls in snap["roots"].items():
            self.roots[root].extend(walls)

    # -- reconciliation ------------------------------------------------- #
    def reconcile(self, root: str) -> Dict[str, float]:
        """Check that the self times under ``root`` add up to its wall
        time and that none is negative; returns the per-layer self times.

        Raises ``ValueError`` when either does not hold.
        """
        parts = dict(self.self_s.get(root, {}))
        wall = sum(self.roots.get(root, []))
        negative = {k: v for k, v in parts.items() if v < -1e-9}
        if negative:
            raise ValueError(f"negative self time under {root!r}: {negative}")
        total = sum(parts.values())
        if abs(total - wall) > 1e-6 * max(wall, 1.0):
            raise ValueError(
                f"layers under {root!r} sum to {total:.6f}s, root wall "
                f"time is {wall:.6f}s"
            )
        return parts
