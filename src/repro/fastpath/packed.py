"""Packed-forest inference kernel.

``PackedForest`` flattens every fitted :class:`repro.tree.Tree` of an
ensemble into one set of contiguous node arrays

::

    feature   int64  (n_nodes,)   split feature, -1 for leaves
    threshold float64(n_nodes,)   raw-value split threshold (x < t goes left)
    left      int64  (n_nodes,)   left-child node id; right child is left+1
    value     float64(n_nodes, C) leaf class distribution, already scattered
                                  into the ensemble's full class space
    roots     int64  (n_trees,)   node id of each tree's root

Nodes are renumbered level-by-level at pack time so each internal node's
children sit at consecutive ids: one traversal step is a single child
gather plus a boolean add (``left[cur] + (x >= t)``) instead of two gathers
and a select. All index arrays are int64 — numpy silently *copies* narrower
index arrays to ``intp`` on every fancy-indexing call, which erases any
cache win from smaller dtypes.

Evaluation picks one of two shapes by the number of ``(tree, row)``
lanes (:data:`_FUSED_LANES`, measured crossover in ``DESIGN.md``):

* **fused** (small batches, the serving-latency regime) — every tree in
  one lane vector, advanced one level per step with active-lane
  compaction, so python overhead is paid per *level*;
* **node partition** (large batches, the bulk-throughput regime) — rows
  are taken column-major (column-major input whole; a row-major input is
  transposed one :data:`_PARTITION_ROWS` chunk at a time, never whole, in
  cache-sized blocks of :data:`TRANSPOSE_ROWS` rows) and each tree splits
  its nodes in three regimes chosen by node size:

  - **mask** — a node holding at least :data:`_DENSE_SHARE` of the
    chunk's rows keeps a boolean mask over the whole chunk and splits
    with one contiguous compare, ``test = columns[f] < key``, then
    ``left = mask & test`` and ``right = mask ^ left``. These are the
    heavy nodes down the spine of a tree, which most rows pass through.
  - **index** — a child below that share converts its mask once, with
    ``flatnonzero``, to row indices; an index node splits by
    ``columns[f].take(rows) < key``, a 1-D gather from one
    cache-resident column, and cuts the non-empty children out of the
    rows with ``compress`` (about 4× cheaper per element than a boolean
    mask at 64k rows).
  - **lane walk** — nodes reached by fewer than :data:`_LANE_ROWS` rows
    hand their rows to one fused-style lane walk shared by all trees of
    the chunk; the lane walk keeps boolean masks, which win on the
    smallest serving batches.

The kernel runs on one thread. Splitting the rows into equal chunks over
two threads made it slower on a 2-core x86_64 host (routing 10 SPE
members over 149k rows 0.20 → 0.26 s, a 50k-row predict 0.064 → 0.10 s).

Bit-identity: routing uses the same ``x < threshold`` comparisons as
:meth:`repro.tree.Tree.apply` (NaN falls right in both), leaf lookup is
arithmetic-free, and :meth:`PackedForest.proba_from_leaves` replays the
legacy accumulation order of :func:`repro.parallel.ensemble_predict_proba`
exactly — trees summed sequentially inside fixed blocks of
:data:`ESTIMATOR_BLOCK`, block partials reduced in block order, one final
division — so the probabilities match the per-tree path bit for bit
(gated by ``tests/test_fastpath_equivalence.py``).

``ScoringMatrix`` rank-codes a fixed matrix per feature (smallest unsigned
integer dtype that fits the per-feature cardinality — ``uint8`` up to 256
distinct values) and maps any tree threshold ``t`` to the exact code cut
``#{values < t}``, so scoring over the codes routes every row identically.
The SPE fit loop does not use it: on continuous features the codes are as
wide as the float64 rows, and building them costs more than routing the
raw columns (see ``DESIGN.md``).

:func:`cached_packed_ensemble` keeps the packed forest alive per ensemble
so repeated ``predict_proba`` calls — the serving pattern — skip
re-packing. The cache is keyed weakly by the first estimator and
revalidated by identity against every member and its fitted ``tree_``, so
refitting any member rebuilds the pack.
"""

from __future__ import annotations

import weakref
from typing import List, Optional, Sequence

import numpy as np

from ..tree._tree import Tree

__all__ = [
    "ESTIMATOR_BLOCK",
    "PackedForest",
    "ScoringMatrix",
    "TRANSPOSE_ROWS",
    "cached_packed_ensemble",
    "trees_of",
    "warm_serving_pack",
]

#: Estimators per accumulation block. Must match the legacy chunked engine
#: (:mod:`repro.parallel.inference` imports it from here) so the two paths
#: share one floating-point reduction order.
ESTIMATOR_BLOCK = 8

#: Below this many (tree, row) lanes the fused all-trees kernel wins (lane
#: state cache-resident, python overhead paid once per level); above it the
#: node-partition kernel wins (1-D gathers from one column per node).
_FUSED_LANES = 1 << 14

#: Row chunk of the partition kernel over row-major input — bounds its
#: transposed copy at ``_PARTITION_ROWS × n_features`` values. Column-major
#: input needs no copy and is routed whole, so small nodes are not cut
#: into a tail of per-chunk fragments for the lane walk.
_PARTITION_ROWS = 1 << 16

#: Rows below which a node of the partition kernel hands its rows to the
#: lane walk instead of splitting them itself.
_LANE_ROWS = 512

#: Share of a chunk's rows from which a node of the partition kernel splits
#: a boolean mask over the whole chunk instead of an index array (shares
#: 0.2–0.5 measured one plateau; sweep in ``DESIGN.md``).
_DENSE_SHARE = 0.25

#: Rows per block when row-major rows are copied into column-major storage
#: (:func:`_transpose_rows`, and the SPE fit's majority gather): a block of
#: a 30-feature float64 input (120 KiB) stays cache-resident while its
#: columns are scattered.
TRANSPOSE_ROWS = 512

_LEAF = -1


def _transpose_rows(matrix: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Rows ``lo:hi`` of a row-major ``matrix`` as a C-contiguous
    ``(n_features, hi - lo)`` array, copied :data:`TRANSPOSE_ROWS` rows at
    a time: the same bytes as ``np.ascontiguousarray(matrix[lo:hi].T)``,
    whose one strided pass over the whole chunk misses the cache on every
    row (50k × 30 float64: 6.5 → 1.3 ms, 2-core x86_64, numpy 2.4.6)."""
    columns = np.empty((matrix.shape[1], hi - lo), dtype=matrix.dtype)
    for start in range(lo, hi, TRANSPOSE_ROWS):
        stop = min(start + TRANSPOSE_ROWS, hi)
        columns[:, start - lo : stop - lo] = matrix[start:stop].T
    return columns


def trees_of(estimators: Sequence) -> Optional[List[Tree]]:
    """The fitted :class:`Tree` of every estimator, or ``None`` if any
    member is not a single-tree classifier (the packed fast path then
    falls back to the generic per-estimator loop)."""
    trees = []
    for est in estimators:
        tree = getattr(est, "tree_", None)
        if not isinstance(tree, Tree):
            return None
        trees.append(tree)
    return trees


def _level_order_adjacent(tree: Tree):
    """Breadth-first node order with sibling-adjacent children.

    Returns ``(order, new_id)`` — new→old and old→new id maps. Built one
    level at a time with vectorised interleaving, so the python cost is
    O(depth), not O(nodes).
    """
    n = tree.node_count
    order = np.empty(n, dtype=np.int64)
    new_id = np.empty(n, dtype=np.int64)
    level = np.zeros(1, dtype=np.int64)  # old ids of the current level
    filled = 0
    while level.size:
        order[filled : filled + level.size] = level
        new_id[level] = np.arange(filled, filled + level.size)
        filled += level.size
        internal = level[tree.feature[level] != _LEAF]
        nxt = np.empty(2 * internal.size, dtype=np.int64)
        nxt[0::2] = tree.children_left[internal]
        nxt[1::2] = tree.children_right[internal]
        level = nxt
    return order, new_id


class PackedForest:
    """Contiguous node-array representation of a fitted tree ensemble."""

    def __init__(
        self,
        feature: np.ndarray,
        threshold: np.ndarray,
        left: np.ndarray,
        value: np.ndarray,
        roots: np.ndarray,
        n_features: int,
    ):
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.value = value
        self.roots = roots
        self.n_features = n_features

    @property
    def n_trees(self) -> int:
        """Number of packed trees."""
        return len(self.roots)

    @property
    def n_classes(self) -> int:
        """Number of classes."""
        return self.value.shape[1]

    # ------------------------------------------------------------------ #
    @classmethod
    def from_trees(
        cls,
        trees: Sequence[Tree],
        column_maps: Sequence[Sequence[int]],
        n_classes: int,
        n_features: int,
    ) -> "PackedForest":
        """Pack fitted trees; ``column_maps[t]`` scatters tree ``t``'s local
        class columns into the ensemble's full class space (a tree fitted on
        a single-class subset contributes one column, the rest stay zero)."""
        if not trees:
            raise ValueError("PackedForest requires at least one tree")
        counts = [t.node_count for t in trees]
        offsets = np.concatenate([[0], np.cumsum(counts)[:-1]]).astype(np.int64)
        total = int(sum(counts))
        feature = np.empty(total, dtype=np.int64)
        threshold = np.empty(total, dtype=np.float64)
        left = np.full(total, _LEAF, dtype=np.int64)
        value = np.zeros((total, n_classes), dtype=np.float64)
        for t, (tree, off) in enumerate(zip(trees, offsets)):
            order, new_id = _level_order_adjacent(tree)
            hi = off + tree.node_count
            feature[off:hi] = tree.feature[order]
            threshold[off:hi] = tree.threshold[order]
            internal = tree.feature[order] != _LEAF
            left[off:hi][internal] = new_id[tree.children_left[order][internal]] + off
            cols = np.asarray(column_maps[t], dtype=np.int64)
            value[off:hi, cols] = tree.value[order]
        return cls(feature, threshold, left, value, roots=offsets,
                   n_features=n_features)

    @classmethod
    def from_estimators(cls, estimators: Sequence, classes: np.ndarray):
        """Pack fitted tree classifiers, or return ``None`` when the
        ensemble is not packable (non-tree member, unknown class, or
        inconsistent feature counts — the caller then uses the legacy
        path, which also owns the error reporting for those cases)."""
        trees = trees_of(estimators)
        if trees is None:
            return None
        class_pos = {c: i for i, c in enumerate(np.asarray(classes).tolist())}
        column_maps = []
        n_features = getattr(estimators[0], "n_features_in_", None)
        for est in estimators:
            if getattr(est, "n_features_in_", None) != n_features:
                return None
            try:
                column_maps.append([class_pos[c] for c in est.classes_.tolist()])
            except (KeyError, AttributeError):
                return None
        if n_features is None:
            return None
        return cls.from_trees(trees, column_maps, len(class_pos), int(n_features))

    # ------------------------------------------------------------------ #
    def _route(self, matrix: np.ndarray, keys: np.ndarray,
               column_major: bool = False) -> np.ndarray:
        """Leaf node id of every row in every tree: ``(n_trees, n)`` int64.

        ``matrix`` is ``(n, n_features)``, or ``(n_features, n)`` with
        ``column_major``. A row goes left exactly when its ``feature`` value
        is ``< keys[node]`` (``keys`` = thresholds for raw floats, code cuts
        for coded rows).
        """
        n = matrix.shape[1] if column_major else matrix.shape[0]
        if self.n_trees * n <= _FUSED_LANES:
            node = np.repeat(self.roots, n)
            rows = np.tile(np.arange(n, dtype=np.int64), self.n_trees)
            columns = matrix if column_major else matrix.T
            return self._walk_lanes(columns, keys, node, rows).reshape(self.n_trees, n)
        out = np.empty((self.n_trees, n), dtype=np.int64)
        if column_major:
            self._partition(matrix, keys, out)
            return out
        for lo in range(0, n, _PARTITION_ROWS):
            hi = min(lo + _PARTITION_ROWS, n)
            self._partition(_transpose_rows(matrix, lo, hi), keys, out[:, lo:hi])
        return out

    def _walk_lanes(self, columns: np.ndarray, keys: np.ndarray,
                    node: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Advance every ``(node, row)`` lane to its leaf, one level per
        step with active-lane compaction (python cost per *level*);
        ``columns`` is any ``(n_features, n)`` view. Updates ``node``."""
        feature, left = self.feature, self.left
        active = np.flatnonzero(feature[node] != _LEAF)
        while active.size:
            cur = node[active]
            go_left = columns[feature[cur], rows[active]] < keys[cur]
            nxt = left[cur] + ~go_left
            node[active] = nxt
            active = active[feature[nxt] != _LEAF]
        return node

    def _partition(self, columns: np.ndarray, keys: np.ndarray,
                   out: np.ndarray) -> None:
        """Route a column-major chunk through every tree into ``out``
        ``(n_trees, n)``, in three regimes chosen by node size:

        * **mask** — a node holding at least :data:`_DENSE_SHARE` of the
          chunk keeps its rows as a boolean mask over the whole chunk and
          splits with one contiguous compare, ``test = columns[f] < key``,
          then ``left = mask & test`` and ``right = mask ^ left``; a leaf
          writes ``out[t][mask] = node``.
        * **index** — a smaller node keeps its row indices (a masked child
          converts once, with ``flatnonzero``), splits them by one 1-D
          gather from one column, ``columns[f].take(idx) < key``, and cuts
          the children out with ``compress``.
        * **lane walk** — nodes reached by fewer than :data:`_LANE_ROWS`
          rows would pay more python cost than gather work, so their rows
          finish together, across all trees, in one lane walk.

        The heavy nodes are the long spine that holds most of a chunk: a
        mask split there costs a few contiguous passes over the chunk
        instead of a gather and two compresses over tens of thousands of
        indices. An index split uses ``idx.compress(mask)``, not
        ``idx[mask]``: on a 64k-row node boolean-mask indexing costs about
        7.9 ns per element and ``compress`` about 2.1 ns (2-core x86_64,
        numpy 2.4). The lane walk keeps masks: serving runs it on arrays of
        10–5,000 lanes, and at the small end ``compress``'s fixed
        method-call cost loses (10 elements: 0.66 µs masked, 1.2 µs
        compressed)."""
        feature, left = self.feature, self.left
        n = columns.shape[1]
        dense_rows = _DENSE_SHARE * n
        every_row = np.ones(n, dtype=bool)  # read-only: splits build new masks
        pending = []  # (tree, node, rows) left to the lane walk
        for t, root in enumerate(self.roots):
            out_t = out[t]
            masks = [(root, every_row, n)]  # (node, mask, rows)
            stack = []  # (node, row indices)
            while masks:
                node, mask, count = masks.pop()
                if feature[node] == _LEAF:
                    out_t[mask] = node
                elif count < dense_rows:
                    stack.append((node, np.flatnonzero(mask)))
                else:
                    go_left = mask & (columns[feature[node]] < keys[node])
                    n_left = np.count_nonzero(go_left)
                    right = left[node] + 1
                    if count - n_left:
                        masks.append((right, mask ^ go_left, count - n_left))
                    if n_left:
                        masks.append((right - 1, go_left, n_left))
            while stack:
                node, idx = stack.pop()
                if feature[node] == _LEAF:
                    out_t[idx] = node
                elif idx.size < _LANE_ROWS:
                    pending.append((t, node, idx))
                else:
                    go_left = columns[feature[node]].take(idx) < keys[node]
                    right = left[node] + 1
                    for child, part in ((right, idx.compress(~go_left)),
                                        (right - 1, idx.compress(go_left))):
                        if part.size:
                            stack.append((child, part))
        if pending:
            sizes = [len(idx) for _, _, idx in pending]
            trees = np.repeat([t for t, _, _ in pending], sizes)
            node = np.repeat([nd for _, nd, _ in pending], sizes)
            rows = np.concatenate([idx for _, _, idx in pending])
            out[trees, rows] = self._walk_lanes(columns, keys, node, rows)

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf node id (packed space) of every row in every tree; routing
        decisions are the exact comparisons of :meth:`Tree.apply`."""
        X = np.ascontiguousarray(X, dtype=np.float64)
        return self._route(X, self.threshold)

    def apply_columns(self, columns: np.ndarray) -> np.ndarray:
        """:meth:`apply` over a column-major float64 matrix
        ``(n_features, n)``, read where it lies (no transposed copy)."""
        return self._route(columns, self.threshold, column_major=True)

    def apply_codes(self, codes: np.ndarray, cuts: np.ndarray) -> np.ndarray:
        """Leaf ids over a pre-coded matrix: a row goes left when
        ``codes[row, feature] < cuts[node]``."""
        return self._route(codes, cuts)

    # ------------------------------------------------------------------ #
    def proba_from_leaves(self, leaves: np.ndarray) -> np.ndarray:
        """Average class distribution, replaying the legacy reduction order:
        sequential in-block sums, then block partials in block order, then
        one division by the tree count. Each class sums 1-D takes of its own
        contiguous ``value`` column, which adds the same floats in the same
        order as gathering whole rows."""
        n = leaves.shape[1]
        columns = []
        for c in range(self.n_classes):
            value = np.ascontiguousarray(self.value[:, c])
            partials = []
            for blk_start in range(0, self.n_trees, ESTIMATOR_BLOCK):
                part = np.zeros(n)
                for t in range(blk_start, min(blk_start + ESTIMATOR_BLOCK, self.n_trees)):
                    part += value.take(leaves[t])
                partials.append(part)
            total = partials[0]
            for extra in partials[1:]:
                total = total + extra
            columns.append(total)
        return np.stack(columns, axis=1) / self.n_trees

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Class probabilities, columns ordered by ``classes_``."""
        return self.proba_from_leaves(self.apply(X))


class ScoringMatrix:
    """A fixed matrix pre-coded for exact, repeated tree scoring.

    Each feature column is replaced by the rank of its value among the
    column's sorted distinct values. For any threshold ``t``,
    ``x < t  ⇔  rank(x) < #{distinct values < t}``, so routing through the
    integer codes is *exactly* the raw-float comparison — for arbitrary
    trees, not just trees fitted on this matrix. The per-feature distinct
    values are kept to map thresholds at scoring time (O(tree nodes), not
    O(rows)).
    """

    def __init__(self, X: np.ndarray):
        X = np.ascontiguousarray(X, dtype=np.float64)
        self.n_rows, self.n_features = X.shape
        self._uniques = tuple(np.unique(X[:, j]) for j in range(self.n_features))
        max_card = max((u.size for u in self._uniques), default=1)
        if max_card <= np.iinfo(np.uint8).max + 1:
            dtype: type = np.uint8
        elif max_card <= np.iinfo(np.uint16).max + 1:
            dtype = np.uint16
        else:
            dtype = np.int64
        codes = np.empty((self.n_rows, self.n_features), dtype=dtype)
        for j, uniques in enumerate(self._uniques):
            codes[:, j] = np.searchsorted(uniques, X[:, j]).astype(dtype)
        self.codes = codes

    def threshold_cuts(self, forest: PackedForest) -> np.ndarray:
        """Per-node code cut ``#{distinct values < threshold}`` (0 at leaves)."""
        cuts = np.zeros(len(forest.feature), dtype=np.int64)
        internal = forest.feature != _LEAF
        for j in np.unique(forest.feature[internal]):
            sel = forest.feature == j
            cuts[sel] = np.searchsorted(
                self._uniques[j], forest.threshold[sel], side="left"
            )
        return cuts

    def score(self, forest: PackedForest) -> np.ndarray:
        """Averaged class probabilities of the packed ensemble on this
        matrix, bit-identical to evaluating the raw floats."""
        leaves = forest.apply_codes(self.codes, self.threshold_cuts(forest))
        return forest.proba_from_leaves(leaves)


#: first estimator -> (other members, trees, classes key, forest). The
#: entry must NOT hold a strong reference to the key itself (a
#: WeakKeyDictionary value that references its key is immortal), so the
#: first estimator is stored only implicitly as the key; the remaining
#: members and every fitted Tree are held strongly, which keeps the
#: identity checks valid for exactly as long as the entry is reachable.
_PACK_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def cached_packed_ensemble(
    estimators: Sequence, classes: np.ndarray
) -> Optional[PackedForest]:
    """Packed forest of an ensemble, cached across calls; ``None`` when
    the ensemble is not packable."""
    est0 = estimators[0]
    classes_key = tuple(np.asarray(classes).tolist())
    trees = tuple(getattr(est, "tree_", None) for est in estimators)
    try:
        entry = _PACK_CACHE.get(est0)
    except TypeError:  # unhashable / non-weakrefable estimator type
        entry = None
    if entry is not None:
        others, cached_trees, cached_classes, forest = entry
        if (
            cached_classes == classes_key
            and len(others) == len(estimators) - 1
            and all(a is b for a, b in zip(others, estimators[1:]))
            and all(a is b for a, b in zip(cached_trees, trees))
        ):
            return forest
    forest = PackedForest.from_estimators(estimators, classes)
    if forest is None:
        return None
    try:
        _PACK_CACHE[est0] = (tuple(estimators[1:]), trees, classes_key, forest)
    except TypeError:
        pass
    return forest


def warm_serving_pack(model) -> bool:
    """Eagerly build (and cache) a model's packed serving kernel; returns
    whether one was built.

    Uses the model's ``__serving_ensemble__`` hook — the exact
    ``(estimators, classes)`` pair ``predict_proba`` feeds to the pack
    cache — so the warmed entry is the one every later request hits.
    ``False`` when the model has no hook or its members are not packable;
    callers then serve through the model's normal path. This is the
    pre-build step of both :class:`~repro.serving.ModelServer` construction
    and :meth:`~repro.serving.ModelServer.swap_model` — the swap packs the
    challenger *before* flipping the active model, so no in-flight request
    ever waits on a re-pack.
    """
    hook = getattr(model, "__serving_ensemble__", None)
    if hook is None:
        return False
    estimators, classes = hook()
    return cached_packed_ensemble(list(estimators), classes) is not None
