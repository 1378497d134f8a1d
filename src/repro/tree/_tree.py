"""Array-backed decision tree structure and depth-first builder."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .. import telemetry
from ..utils.validation import check_random_state
from ._binning import FeatureBinner
from ._criterion import class_sum, node_impurity, split_gain

__all__ = ["Tree", "build_tree"]

_LEAF = -1


@dataclass
class Tree:
    """Flat-array decision tree.

    ``feature[i] == -1`` marks node ``i`` as a leaf. Internal nodes route a
    sample left when ``x[feature[i]] < threshold[i]``. ``value`` holds the
    (normalised) class-weight distribution of training samples per node.
    """

    feature: np.ndarray
    threshold: np.ndarray
    children_left: np.ndarray
    children_right: np.ndarray
    value: np.ndarray
    n_node_samples: np.ndarray
    impurity: np.ndarray
    n_classes: int

    @property
    def node_count(self) -> int:
        return len(self.feature)

    @property
    def max_depth(self) -> int:
        depth = np.zeros(self.node_count, dtype=int)
        for i in range(self.node_count):
            for child in (self.children_left[i], self.children_right[i]):
                if child != _LEAF:
                    depth[child] = depth[i] + 1
        return int(depth.max()) if self.node_count else 0

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf index for every row of raw (un-binned) ``X``."""
        n = X.shape[0]
        node = np.zeros(n, dtype=np.int64)
        while True:
            active = np.flatnonzero(self.feature[node] != _LEAF)
            if active.size == 0:
                break
            cur = node[active]
            feat = self.feature[cur]
            go_left = X[active, feat] < self.threshold[cur]
            node[active] = np.where(
                go_left, self.children_left[cur], self.children_right[cur]
            )
        return node

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        leaves = self.apply(X)
        return self.value[leaves]


@dataclass
class _NodeRecord:
    indices: np.ndarray
    depth: int
    parent: int
    is_left: bool


@dataclass
class _Growing:
    feature: List[int] = field(default_factory=list)
    threshold: List[float] = field(default_factory=list)
    left: List[int] = field(default_factory=list)
    right: List[int] = field(default_factory=list)
    value: List[np.ndarray] = field(default_factory=list)
    n_samples: List[int] = field(default_factory=list)
    impurity: List[float] = field(default_factory=list)

    def add(self, value: np.ndarray, n_samples: int, impurity: float) -> int:
        self.feature.append(_LEAF)
        self.threshold.append(0.0)
        self.left.append(_LEAF)
        self.right.append(_LEAF)
        self.value.append(value)
        self.n_samples.append(n_samples)
        self.impurity.append(impurity)
        return len(self.feature) - 1


def _class_planes(cells: np.ndarray, w: Optional[np.ndarray], shape):
    """Integer and weighted (C, E, F, B) class-major histogram planes.

    ``cells`` is an (m, F) matrix holding, for each of m rows and each
    candidate feature, the flat index of its (class, node, feature, bin)
    cell; one ``bincount`` over its ravel fills every plane. Each cell
    accumulates its rows in ascending row order — the float accumulation
    order of a per-feature, per-node ``bincount`` — so the weighted planes
    keep their bits. ``w is None`` (uniform weights) skips the weighted
    pass: the split search reads class weights off the integer counts.
    """
    size = math.prod(shape)
    flat = cells.ravel()
    counts = np.bincount(flat, minlength=size).reshape(shape)
    if w is None:
        return counts, None
    weighted = np.bincount(
        flat, weights=np.repeat(w, cells.shape[1]), minlength=size
    ).reshape(shape)
    return counts, weighted


#: Live candidates scored per :func:`split_gain` call. It bounds one
#: call's temporaries to a few hundred KiB however wide a level is, so
#: they are reused from block to block and level to level. A wide level
#: scored in one call takes multi-MiB temporaries, and where the allocator
#: hands those back to the OS between levels (a fresh process, for one)
#: their page faults cost as much as the arithmetic.
_SCORE_BLOCK = 4096


def _best_splits(
    counts: np.ndarray,
    weighted: Optional[np.ndarray],
    class_w: np.ndarray,
    imp: np.ndarray,
    n_rows: np.ndarray,
    criterion: str,
    min_samples_leaf: int,
):
    """Best split of each of ``E`` nodes from its class-major planes.

    ``counts`` / ``weighted`` are the (C, E, F, B) integer and weighted
    (class, node, feature, bin) histograms, ``weighted`` being ``None``
    for uniform weights; both are consumed (their cumsums overwrite them).
    ``class_w`` (E, C), ``imp`` (E,) and ``n_rows`` (E,) describe the
    nodes. Candidate ``(f, b)`` for ``b < B - 1`` sends codes ``<= b``
    left. Returns per node the feature position on the F axis, the code
    and the gain; a node without a usable candidate gets gain ``-inf``.

    Only *live* candidates are scored: bin ``b`` holds rows and each side
    keeps ``min_samples_leaf`` rows. A candidate on an empty bin repeats
    the previous code's split exactly (adding an all-zero bin to the
    cumsum changes no bit), so its gain equals that earlier gain and the
    row-major argmax, which keeps the first maximum, never picks it; an
    empty bin 0 leaves the left side empty, which ``split_gain`` scores
    ``-inf``. Dead candidates therefore stay ``-inf`` and the argmax picks
    the same (feature, code) as over the dense grid, with identical gains:
    ``split_gain`` is elementwise, and ``right = class_w - left`` is the
    same subtraction whichever candidates are gathered, so scoring them
    in blocks of ``_SCORE_BLOCK`` changes no bit either. With uniform
    weights the left class weights are the integer cumsums cast to float,
    which is exactly their float cumsum below 2**53 rows.
    """
    C, E, F, B = counts.shape
    live = counts.any(axis=0)
    # Nothing lies right of a (node, feature)'s last bin: no candidate.
    live[..., -1] = False
    cum = counts.cumsum(axis=-1, out=counts)
    n_left = class_sum(cum)
    if min_samples_leaf > 1:  # an occupied bin already leaves one row left
        live &= n_left >= min_samples_leaf
    live &= n_left <= (n_rows - min_samples_leaf)[:, None, None]
    live = np.flatnonzero(live)
    if weighted is not None:
        cum = weighted.cumsum(axis=-1, out=weighted)
    cum = cum.reshape(C, -1)
    class_w = class_w.T
    gains = np.full(E * F * B, -np.inf)
    for lo in range(0, live.size, _SCORE_BLOCK):
        cand = live[lo:lo + _SCORE_BLOCK]
        node = cand // (F * B)
        # The left children, then ``right = class_w - left``.
        children = np.empty((2, C, cand.size))
        children[0] = cum.take(cand, axis=1)
        np.subtract(class_w.take(node, axis=1), children[0], out=children[1])
        gains[cand] = split_gain(children, imp.take(node), criterion)
    gains = gains.reshape(E, F * B)
    best = gains.argmax(axis=1)
    return best // B, best % B, gains[np.arange(E), best]


def build_tree(
    X_binned: np.ndarray,
    y_encoded: np.ndarray,
    sample_weight: np.ndarray,
    binner: FeatureBinner,
    *,
    n_classes: int,
    criterion: str = "gini",
    max_depth: Optional[int] = None,
    min_samples_split: int = 2,
    min_samples_leaf: int = 1,
    min_impurity_decrease: float = 0.0,
    max_features: Optional[int] = None,
    random_state=None,
) -> Tree:
    """Grow a tree on pre-binned data.

    ``max_features`` (when set below the feature count) samples that many
    candidate features per node without replacement — the randomisation
    Random Forest relies on — and grows depth-first, consuming the RNG in
    stack order. Without feature subsampling there is no per-node
    randomness, and the tree is grown level-synchronously instead: one
    histogram ``bincount`` and one split search per *level* covering every
    frontier node at once, then renumbered to the exact depth-first node
    ids the stack builder would have produced. Both builders run the same
    split search, :func:`_best_splits`, which scores only live candidates
    (non-empty bin, ``min_samples_leaf`` rows each side) and picks exactly
    what the dense candidate grid would. Both emit bit-identical trees,
    pinned against a dense reference by ``tests/test_fastpath_units.py``.

    One carve-out keeps that guarantee exact: entropy-family node impurity
    compacts to the nonzero class probabilities before summing, and
    numpy's pairwise reduction only matches that grouping bitwise for
    vectors of fewer than 8 entries (from 8 on it sums in eight interleaved
    lanes) — so entropy/gain-ratio trees with 8 or more classes stay on the
    depth-first builder.
    """
    n_features = X_binned.shape[1]
    max_depth = np.inf if max_depth is None else max_depth
    # Sums of unit weights are exact, so the weighted histogram equals the
    # count histogram bit for bit and one bincount per node can be skipped.
    uniform_weight = bool(np.all(sample_weight == 1.0))
    n_bins_all = np.asarray(binner.n_bins_, dtype=np.int64)
    args = (
        X_binned, y_encoded, sample_weight, binner, n_classes, criterion,
        max_depth, min_samples_split, min_samples_leaf,
        min_impurity_decrease, uniform_weight, n_bins_all,
    )
    subsampling = max_features is not None and max_features < n_features
    if subsampling or (criterion != "gini" and n_classes >= 8):
        return _grow_depth_first(*args, max_features=max_features,
                                 random_state=random_state)
    return _grow_level_synchronous(*args)


def _grow_depth_first(
    X_binned: np.ndarray,
    y_encoded: np.ndarray,
    sample_weight: np.ndarray,
    binner: FeatureBinner,
    n_classes: int,
    criterion: str,
    max_depth,
    min_samples_split: int,
    min_samples_leaf: int,
    min_impurity_decrease: float,
    uniform_weight: bool,
    n_bins_all: np.ndarray,
    *,
    max_features: Optional[int],
    random_state,
) -> Tree:
    """Stack-based builder (the reference semantics; used when per-node
    feature subsampling needs the documented RNG consumption order)."""
    rng = check_random_state(random_state)
    n_features = X_binned.shape[1]
    grow = _Growing()
    stack: List[_NodeRecord] = [
        _NodeRecord(np.arange(X_binned.shape[0]), 0, _LEAF, False)
    ]

    while stack:
        rec = stack.pop()
        idx = rec.indices
        y_node = y_encoded[idx]
        if uniform_weight:
            w_node = None  # histograms come from integer counts alone
            class_w = np.bincount(y_node, minlength=n_classes).astype(np.float64)
        else:
            w_node = sample_weight[idx]
            class_w = np.bincount(y_node, weights=w_node, minlength=n_classes)
        total_w = np.add.reduce(class_w)
        imp = node_impurity(class_w, criterion)
        dist = class_w / total_w if total_w > 0 else np.full(n_classes, 1.0 / n_classes)
        node_id = grow.add(dist, len(idx), imp)
        if rec.parent != _LEAF:
            if rec.is_left:
                grow.left[rec.parent] = node_id
            else:
                grow.right[rec.parent] = node_id

        if (
            rec.depth >= max_depth
            or len(idx) < min_samples_split
            or imp <= 1e-12
        ):
            continue

        if max_features is not None and max_features < n_features:
            features = rng.choice(n_features, size=max_features, replace=False)
        else:
            features = np.arange(n_features)

        # Vectorised split search: one set of class planes covers every
        # candidate feature, scored as a one-node _best_splits call.
        # ``n_bins`` is padded to the widest candidate feature; a feature's
        # phantom bins hold no rows, so they are never live candidates.
        # Row-major order over (feature-in-draw-order, code) reproduces the
        # per-feature loop's tie-breaking: earliest drawn feature, then
        # lowest code, strictly-greater gains.
        codes_node = X_binned[idx]
        n_bins = int(n_bins_all[features].max()) if len(features) else 0
        if n_bins < 2:
            continue
        n_cand = len(features)
        cells = codes_node[:, features] + np.arange(n_cand) * n_bins
        cells += (y_node * (n_cand * n_bins))[:, None]
        counts, weighted = _class_planes(
            cells, w_node, (n_classes, 1, n_cand, n_bins)
        )
        (pos,), (code,), (gain,) = _best_splits(
            counts, weighted, class_w[None], np.array([imp]),
            np.array([len(idx)]), criterion, min_samples_leaf,
        )
        if not (gain > -np.inf) or gain <= min_impurity_decrease + 1e-12:
            continue
        best_feature = int(features[pos])
        best_code = int(code)

        grow.feature[node_id] = best_feature
        grow.threshold[node_id] = binner.threshold_value(best_feature, best_code)
        go_left = codes_node[:, best_feature] <= best_code
        # Push right first so left is processed next (cosmetic: left-to-right ids).
        stack.append(_NodeRecord(idx[~go_left], rec.depth + 1, node_id, False))
        stack.append(_NodeRecord(idx[go_left], rec.depth + 1, node_id, True))

    return Tree(
        feature=np.asarray(grow.feature, dtype=np.int64),
        threshold=np.asarray(grow.threshold, dtype=np.float64),
        children_left=np.asarray(grow.left, dtype=np.int64),
        children_right=np.asarray(grow.right, dtype=np.int64),
        value=np.asarray(grow.value, dtype=np.float64),
        n_node_samples=np.asarray(grow.n_samples, dtype=np.int64),
        impurity=np.asarray(grow.impurity, dtype=np.float64),
        n_classes=n_classes,
    )


def _node_stats(class_w: np.ndarray, criterion: str):
    """Class distribution and impurity of each node from its (S, C) class
    weights: row-wise :func:`node_impurity`, identical per-row float ops.
    A node without weight gets the uniform distribution and impurity 0."""
    total_w = np.add.reduce(class_w, axis=1)
    empty = total_w <= 0
    dist = class_w / np.where(empty, 1.0, total_w)[:, None]
    if criterion == "gini":
        imp = 1.0 - np.add.reduce(dist * dist, axis=1)
    else:
        # log2 of the *actual* probability (node_impurity does not clamp);
        # zero entries contribute exact 0.0 terms, which cannot change any
        # pairwise partial sum.
        logp = np.where(dist > 0, np.log2(np.where(dist > 0, dist, 1.0)), 0.0)
        imp = -np.add.reduce(dist * logp, axis=1)
    imp[empty] = 0.0
    dist[empty] = 1.0 / class_w.shape[1]
    return dist, imp


def _grow_level_synchronous(
    X_binned: np.ndarray,
    y_encoded: np.ndarray,
    sample_weight: np.ndarray,
    binner: FeatureBinner,
    n_classes: int,
    criterion: str,
    max_depth,
    min_samples_split: int,
    min_samples_leaf: int,
    min_impurity_decrease: float,
    uniform_weight: bool,
    n_bins_all: np.ndarray,
) -> Tree:
    """Grow all frontier nodes of a level together, then renumber to the
    depth-first ids of the stack builder.

    Per level, one ``bincount`` over ``(class, node, feature, bin)``
    builds every node's split histograms at once, one :func:`_best_splits`
    call scores the live candidates of every node, and the node arrays
    grow by whole levels, so python/numpy dispatch cost is paid per level
    instead of per node. Bit-identity with the stack builder: rows keep
    ascending order inside each node (never re-sorted), so histogram cells
    accumulate identical float sequences; both builders share the split
    search, whose gain formulas are elementwise and whose per-node
    row-major argmax reproduces the earliest-feature/lowest-code
    tie-breaking; and the final preorder renumbering yields the same node
    ids the depth-first stack would have assigned.
    """
    n_rows, n_features = X_binned.shape
    C = n_classes
    F = n_features
    B = int(n_bins_all.max()) if F else 0
    # Per level, in construction order: (links, threshold, value,
    # n_samples, impurity), where links holds (feature, left, right) per
    # node; child ids are construction ids until the final renumbering.
    levels: List[Tuple[np.ndarray, ...]] = []
    # Every feature's cut points in one flat table: the threshold of a
    # split after code c of feature f is edge_table[edge_start[f] + c].
    edge_table = np.concatenate(binner.edges_)
    edge_start = np.cumsum(n_bins_all - 1) - (n_bins_all - 1)
    # Row i's code on feature f sits at i * F + f.
    codes = np.ascontiguousarray(X_binned).ravel()

    rows = np.arange(n_rows)
    slots = np.zeros(n_rows, dtype=np.int64)
    n_slots = 1
    base_id = 0
    depth = 0
    # Each row's flat (feature, bin) cell; a level adds its (class, node)
    # plane offset.
    x_off = X_binned + np.arange(F, dtype=np.int64) * B

    # Per-level stage timing: the watch is observed at the top of the
    # next level (and once after the loop), so every exit path — normal
    # depletion or any of the early breaks — closes the last level.
    level_hist = telemetry.stage_histogram("tree_level")
    level_watch = None

    while n_slots:
        if level_watch is not None:
            level_watch.observe(level_hist)
        level_watch = telemetry.stopwatch()
        S = n_slots
        y_lvl = y_encoded.take(rows)
        comb = slots * C + y_lvl
        counts_cls = np.bincount(comb, minlength=S * C).reshape(S, C)
        if uniform_weight:
            class_w = counts_cls.astype(np.float64)
        else:
            class_w = np.bincount(
                comb, weights=sample_weight.take(rows), minlength=S * C
            ).reshape(S, C)
        m_slot = np.add.reduce(counts_cls, axis=1)
        dist, imp = _node_stats(class_w, criterion)
        # Every node starts as a leaf; the split below fills in its slots.
        links = np.full((S, 3), _LEAF, dtype=np.int64)
        threshold = np.zeros(S)
        levels.append((links, threshold, dist, m_slot, imp))
        base_id += S

        if depth >= max_depth or B < 2:
            break
        can_split = (m_slot >= min_samples_split) & (imp > 1e-12)
        eligible = np.flatnonzero(can_split)
        E = eligible.size
        if E == 0:
            break

        keep = can_split.take(slots)
        r = rows.compress(keep)
        # Each kept row's node on the eligible (E) axis.
        node = (np.cumsum(can_split) - 1).take(slots.compress(keep))
        # One bincount over every (class, node, feature, bin) cell.
        cells = x_off.take(r, axis=0)
        cells += ((y_lvl.compress(keep) * E + node) * (F * B))[:, None]
        counts, weighted = _class_planes(
            cells, None if uniform_weight else sample_weight.take(r), (C, E, F, B)
        )
        del cells
        best_pos, best_code, best_gain = _best_splits(
            counts, weighted, class_w.take(eligible, axis=0), imp.take(eligible),
            m_slot.take(eligible), criterion, min_samples_leaf,
        )
        ok = best_gain > min_impurity_decrease + 1e-12
        n_split = int(np.count_nonzero(ok))
        if n_split == 0:
            break
        split_slots = eligible.compress(ok)
        feat = best_pos.compress(ok)
        links[split_slots, 0] = feat
        threshold[split_slots] = edge_table.take(edge_start.take(feat) + best_code.compress(ok))
        # Split k's children are the next level's slots 2k (left), 2k + 1.
        left = base_id + 2 * np.arange(n_split)
        links[split_slots, 1] = left
        links[split_slots, 2] = left + 1

        moved = ok.take(node)
        rows = r.compress(moved)
        node = node.compress(moved)
        go_right = codes.take(rows * F + best_pos.take(node)) > best_code.take(node)
        slots = 2 * (np.cumsum(ok) - 1).take(node) + go_right
        n_slots = 2 * n_split
        depth += 1

    if level_watch is not None:
        level_watch.observe(level_hist)

    # Renumber construction (level) order to the stack builder's
    # depth-first preorder (node, left subtree, right subtree): subtree
    # sizes bottom-up, then each left child follows its parent and each
    # right child follows the parent's left subtree.
    links, thr_arr, val_arr, ns_arr, imp_arr = (
        np.concatenate(column) for column in zip(*levels)
    )
    feat_arr, left_arr, right_arr = links.T
    n = feat_arr.size
    level_ids = np.split(np.arange(n), np.cumsum([lv[1].size for lv in levels])[:-1])
    inner_ids = [ids[feat_arr[ids] != _LEAF] for ids in level_ids]
    size = np.ones(n, dtype=np.int64)
    for ids in reversed(inner_ids):
        size[ids] += size[left_arr[ids]] + size[right_arr[ids]]
    new_id = np.zeros(n, dtype=np.int64)
    for ids in inner_ids:
        new_id[left_arr[ids]] = new_id[ids] + 1
        new_id[right_arr[ids]] = new_id[ids] + 1 + size[left_arr[ids]]
    order = np.empty(n, dtype=np.int64)
    order[new_id] = np.arange(n)
    internal = feat_arr[order] != _LEAF
    children_left = np.full(n, _LEAF, dtype=np.int64)
    children_right = np.full(n, _LEAF, dtype=np.int64)
    children_left[internal] = new_id[left_arr[order][internal]]
    children_right[internal] = new_id[right_arr[order][internal]]
    return Tree(
        feature=feat_arr[order],
        threshold=thr_arr[order],
        children_left=children_left,
        children_right=children_right,
        value=val_arr[order],
        n_node_samples=ns_arr[order].astype(np.int64),
        impurity=imp_arr[order],
        n_classes=n_classes,
    )
