"""Unit pins for the fastpath building blocks and the satellite
optimisations: vectorised bin gathering, keyed inference payloads, binner
caching, the level-synchronous tree builder, and the packed kernel."""

import contextlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.binning import cut_hardness_bins, allocate_bin_samples, self_paced_bin_weights
from repro.core.self_paced import self_paced_under_sample
from repro.fastpath import PackedForest, ScoringMatrix
from repro.parallel import ensemble_predict_proba
from repro.parallel.executor import _SHARED_PAYLOADS, parallel_map
from repro.tree import DecisionTreeClassifier, FeatureBinner
from repro.tree._tree import _LEAF, Tree, _grow_depth_first, build_tree

from per_tree import per_tree_reference


# --------------------------------------------------------------------- #
def _reference_under_sample(hardness, k_bins, alpha, n_samples, rng):
    """The historical per-bin np.flatnonzero formulation (pre-argsort)."""
    bins = cut_hardness_bins(hardness, k_bins)
    if bins.degenerate:
        n = min(n_samples, hardness.size)
        return rng.choice(hardness.size, size=n, replace=False), bins
    weights = self_paced_bin_weights(bins, alpha)
    counts = allocate_bin_samples(weights, bins.populations, n_samples)
    chosen = []
    for b in np.flatnonzero(counts > 0):
        members = np.flatnonzero(bins.assignments == b)
        chosen.append(rng.choice(members, size=int(counts[b]), replace=False))
    if not chosen:
        n = min(n_samples, hardness.size)
        return rng.choice(hardness.size, size=n, replace=False), bins
    return np.concatenate(chosen), bins


@st.composite
def _sampler_cases(draw):
    """``(hardness, k_bins, alpha, n_samples, seed)`` for the sampler."""
    n = draw(st.integers(1, 5000))
    values = np.random.RandomState(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["continuous", "few_distinct", "constant"]))
    if shape == "continuous":
        # rounding to 3 decimals leaves ties in every large draw
        hardness = np.round(values.rand(n), draw(st.sampled_from([3, 16])))
    else:
        pool = draw(st.lists(st.floats(0.0, 10.0), min_size=1,
                             max_size=1 if shape == "constant" else 4))
        hardness = np.array(pool)[values.randint(len(pool), size=n)]
    k_bins = draw(st.one_of(st.sampled_from([255, 256, 257]),
                            st.integers(1, 600)))
    alpha = draw(st.one_of(st.just(0.0), st.floats(1e-9, 1.0), st.just(1e16)))
    n_samples = draw(st.integers(0, n + 10))
    return hardness, k_bins, alpha, n_samples, draw(st.integers(0, 2**32 - 1))


class TestVectorisedUnderSample:
    @pytest.mark.parametrize("alpha", [0.0, 0.3, 5.0, 1e16])
    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_bit_identical_to_per_bin_scan(self, alpha, seed):
        rng = np.random.RandomState(seed)
        hardness = rng.rand(5000)
        got, _ = self_paced_under_sample(
            hardness, 20, alpha, 400, np.random.RandomState(seed)
        )
        want, _ = _reference_under_sample(
            hardness, 20, alpha, 400, np.random.RandomState(seed)
        )
        assert np.array_equal(got, want)

    def test_degenerate_hardness(self):
        got, bins = self_paced_under_sample(
            np.full(100, 0.5), 10, 1.0, 30, np.random.RandomState(0)
        )
        assert bins.degenerate and len(got) == 30

    def test_sparse_bins(self):
        """Hardness concentrated in few bins: empty-bin slices must be
        skipped exactly like the flatnonzero scan skipped them."""
        rng = np.random.RandomState(1)
        hardness = np.concatenate([np.zeros(500), np.ones(5)])
        got, _ = self_paced_under_sample(hardness, 50, 0.0, 50, np.random.RandomState(2))
        want, _ = _reference_under_sample(hardness, 50, 0.0, 50, np.random.RandomState(2))
        assert np.array_equal(got, want)

    @settings(max_examples=150, deadline=None)
    @given(case=_sampler_cases())
    @example(case=(np.linspace(0.0, 1.0, 3000), 255, 0.0, 400, 0))
    @example(case=(np.linspace(0.0, 1.0, 3000), 256, 1e-3, 400, 1))
    @example(case=(np.linspace(0.0, 1.0, 3000), 257, 1e16, 400, 2))
    def test_property_matches_per_bin_scan(self, case):
        """Differential property over both sort keys: uint8 up to 256
        bins, the int assignments beyond; ties, constant vectors, few distinct
        values, α from 0 to the schedule's 1e16 clamp, and any sample
        size. Both sides draw from identically seeded RNGs."""
        hardness, k_bins, alpha, n_samples, seed = case
        got, got_bins = self_paced_under_sample(
            hardness, k_bins, alpha, n_samples, np.random.RandomState(seed)
        )
        want, want_bins = _reference_under_sample(
            hardness, k_bins, alpha, n_samples, np.random.RandomState(seed)
        )
        assert np.array_equal(got, want)
        assert np.array_equal(got_bins.populations, want_bins.populations)


# --------------------------------------------------------------------- #
class TestFeatureBinnerCaching:
    def test_edges_cached_as_tuple(self, rng):
        binner = FeatureBinner(max_bins=8).fit(rng.randn(100, 3))
        assert isinstance(binner.edges_, tuple)
        assert len(binner.edges_) == 3

    def test_transform_skips_validation_on_float_arrays(self, rng):
        X = rng.randn(50, 2)
        binner = FeatureBinner(max_bins=8).fit(X)
        codes = binner.transform(X)
        # list input still goes through check_array conversion
        assert np.array_equal(binner.transform(X.tolist()), codes)
        # feature-count validation is preserved on the fast path
        with pytest.raises(ValueError, match="features"):
            binner.transform(rng.randn(10, 5))

    def test_threshold_semantics_unchanged(self, rng):
        X = rng.randn(200, 1)
        binner = FeatureBinner(max_bins=6).fit(X)
        codes = binner.transform(X).ravel()
        for c in range(int(binner.n_bins_[0]) - 1):
            thr = binner.threshold_value(0, c)
            assert np.array_equal(codes <= c, X.ravel() < thr)


# --------------------------------------------------------------------- #
_TREE_ATTRS = ("feature", "threshold", "children_left", "children_right",
               "value", "n_node_samples", "impurity")


def _dense_rows_impurity(W, criterion):
    totals = np.add.reduce(W, axis=1)
    safe = np.where(totals > 0, totals, 1.0)
    p = W / safe[:, None]
    if criterion == "gini":
        return 1.0 - np.add.reduce(p * p, axis=1)
    logp = np.where(p > 0, np.log2(np.maximum(p, 1e-12)), 0.0)
    return -np.add.reduce(p * logp, axis=1)


def _dense_gains(left, right, parent_impurity, criterion):
    wl = np.add.reduce(left, axis=1)
    wr = np.add.reduce(right, axis=1)
    total = wl + wr
    safe_total = np.where(total > 0, total, 1.0)
    child = "entropy" if criterion == "gain_ratio" else criterion
    both = _dense_rows_impurity(np.concatenate([left, right]), child)
    gain = parent_impurity - (wl * both[:len(left)] + wr * both[len(left):]) / safe_total
    if criterion == "gain_ratio":
        pl = np.clip(wl / safe_total, 1e-12, 1.0)
        pr = np.clip(wr / safe_total, 1e-12, 1.0)
        gain = gain / np.maximum(-(pl * np.log2(pl) + pr * np.log2(pr)), 1e-12)
    gain[(wl <= 0) | (wr <= 0)] = -np.inf
    return gain


def _dense_reference_tree(Xb, y, w, binner, n_classes, criterion, max_depth,
                          min_samples_split, min_samples_leaf,
                          min_impurity_decrease):
    """Depth-first split search over the full dense (F, B - 1) candidate
    grid: every code scored with ``np.add.reduce`` row sums, then the
    ``min_samples_leaf`` mask, then a row-major argmax. An independent
    statement of the split rule the shared live-candidate search must
    reproduce bit for bit."""
    C = n_classes
    n_rows, F = Xb.shape
    B = int(np.max(binner.n_bins_))
    nodes = []  # [feature, threshold, left, right, value, n_samples, impurity]
    stack = [(np.arange(n_rows), 0, _LEAF, False)]
    while stack:
        idx, depth, parent, is_left = stack.pop()
        class_w = np.bincount(y[idx], weights=w[idx], minlength=C)
        total_w = class_w.sum()
        if total_w > 0:
            p = class_w / total_w
            if criterion == "gini":
                imp = float(1.0 - np.sum(p * p))
            else:
                nz = p[p > 0]
                imp = float(-np.sum(nz * np.log2(nz)))
            dist = p
        else:
            imp, dist = 0.0, np.full(C, 1.0 / C)
        node_id = len(nodes)
        nodes.append([_LEAF, 0.0, _LEAF, _LEAF, dist, len(idx), imp])
        if parent != _LEAF:
            nodes[parent][2 if is_left else 3] = node_id
        if depth >= max_depth or len(idx) < min_samples_split or imp <= 1e-12 or B < 2:
            continue
        weighted = np.zeros((F, B, C))
        counts = np.zeros((F, B, C), dtype=np.int64)
        for f in range(F):
            cell = Xb[idx, f].astype(np.int64) * C + y[idx]
            weighted[f] = np.bincount(cell, weights=w[idx], minlength=B * C).reshape(B, C)
            counts[f] = np.bincount(cell, minlength=B * C).reshape(B, C)
        left = weighted.cumsum(axis=1)[:, :-1, :].reshape(-1, C)
        gains = _dense_gains(left, class_w - left, imp, criterion)
        n_left = np.add.reduce(counts, axis=2).cumsum(axis=1)[:, :-1].ravel()
        gains[(n_left < min_samples_leaf) | (len(idx) - n_left < min_samples_leaf)] = -np.inf
        best = int(gains.argmax())
        if not gains[best] > min_impurity_decrease + 1e-12:
            continue
        feature, code = best // (B - 1), best % (B - 1)
        nodes[node_id][:2] = [feature, binner.threshold_value(feature, code)]
        go_left = Xb[idx, feature] <= code
        stack.append((idx[~go_left], depth + 1, node_id, False))
        stack.append((idx[go_left], depth + 1, node_id, True))
    columns = list(zip(*nodes))
    return Tree(
        feature=np.asarray(columns[0], dtype=np.int64),
        threshold=np.asarray(columns[1], dtype=np.float64),
        children_left=np.asarray(columns[2], dtype=np.int64),
        children_right=np.asarray(columns[3], dtype=np.int64),
        value=np.asarray(columns[4], dtype=np.float64),
        n_node_samples=np.asarray(columns[5], dtype=np.int64),
        impurity=np.asarray(columns[6], dtype=np.float64),
        n_classes=C,
    )


@st.composite
def _split_search_cases(draw):
    """Data and settings for the split-search differential test; the bulk
    arrays come from a drawn seed so examples stay cheap to generate."""
    rng = np.random.RandomState(draw(st.integers(0, 2**31 - 1)))
    n_rows = draw(st.integers(1, 300))
    n_features = draw(st.integers(1, 5))
    n_classes = draw(st.sampled_from([2, 3, 8, 9, 12]))
    X = rng.randn(n_rows, n_features)
    if draw(st.booleans()):  # heavy duplicates
        X = np.round(X * draw(st.sampled_from([1, 2, 4])))
    if draw(st.booleans()):  # one constant column
        X[:, draw(st.integers(0, n_features - 1))] = 0.5
    y = rng.randint(0, n_classes, n_rows)
    weights = draw(st.sampled_from(["uniform", "random", "partly_zero"]))
    if weights == "uniform":
        w = np.ones(n_rows)
    else:
        w = rng.rand(n_rows) * 4.0
        if weights == "partly_zero":
            w[rng.rand(n_rows) < 0.4] = 0.0
    settings_ = dict(
        criterion=draw(st.sampled_from(["gini", "entropy", "gain_ratio"])),
        max_depth=draw(st.sampled_from([None, 2, 5])),
        min_samples_split=draw(st.integers(2, 6)),
        min_samples_leaf=draw(st.integers(1, 5)),
        min_impurity_decrease=draw(st.sampled_from([0.0, 1e-3, 0.05])),
    )
    return X, y, w, n_classes, draw(st.integers(2, 16)), settings_


class TestSplitSearchAgainstDenseReference:
    @settings(max_examples=150, deadline=None)
    @given(case=_split_search_cases())
    def test_builders_match_dense_reference(self, case):
        """Both builders score only live candidates through the shared
        split search; they must still grow the tree the full dense grid
        grows, byte for byte, on every array — also through the public
        estimator, which bins with ``fit_transform``."""
        X, y, w, n_classes, max_bins, kw = case
        binner = FeatureBinner(max_bins=max_bins).fit(X)
        Xb = binner.transform(X)
        max_depth = np.inf if kw["max_depth"] is None else kw["max_depth"]
        expected = _dense_reference_tree(
            Xb, y, w, binner, n_classes, kw["criterion"], max_depth,
            kw["min_samples_split"], kw["min_samples_leaf"],
            kw["min_impurity_decrease"],
        )
        grown = {
            "build_tree": build_tree(Xb, y, w, binner, n_classes=n_classes, **kw),
            "depth_first": _grow_depth_first(
                Xb, y, w, binner, n_classes, kw["criterion"], max_depth,
                kw["min_samples_split"], kw["min_samples_leaf"],
                kw["min_impurity_decrease"], bool(np.all(w == 1.0)),
                np.asarray(binner.n_bins_), max_features=None, random_state=None,
            ),
        }
        # The public path: fused fit_transform binning, the estimator's own
        # label encoding (absent classes drop out of ``classes_``).
        clf = DecisionTreeClassifier(max_bins=max_bins, **kw).fit(X, y, sample_weight=w)
        y_enc = np.searchsorted(clf.classes_, y)
        public = _dense_reference_tree(
            Xb, y_enc, w, binner, len(clf.classes_), kw["criterion"],
            max_depth, kw["min_samples_split"], kw["min_samples_leaf"],
            kw["min_impurity_decrease"],
        )
        checks = [(name, tree, expected) for name, tree in grown.items()]
        checks.append(("DecisionTreeClassifier", clf.tree_, public))
        for name, tree, want_tree in checks:
            for attr in _TREE_ATTRS:
                got, want = getattr(tree, attr), getattr(want_tree, attr)
                assert got.dtype == want.dtype, (name, attr)
                assert got.tobytes() == want.tobytes(), (name, attr)


class TestLevelSynchronousBuilder:
    @pytest.mark.parametrize("criterion", ["gini", "entropy", "gain_ratio"])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_bit_identical_to_depth_first(self, criterion, weighted):
        """Covers both class-sum branches: the direct two-column add (the
        binary case SPE runs) and ``np.add.reduce`` for three classes."""
        for n_classes in (2, 3):
            rng = np.random.RandomState(0)
            X = rng.randn(300, 4)
            y = rng.randint(0, n_classes, 300)
            w = rng.rand(300) if weighted else np.ones(300)
            binner = FeatureBinner(max_bins=16).fit(X)
            Xb = binner.transform(X)
            kwargs = dict(n_classes=n_classes, criterion=criterion, max_depth=6,
                          min_samples_split=4, min_samples_leaf=2,
                          min_impurity_decrease=0.0)
            level = build_tree(Xb, y, w, binner, **kwargs)
            depth_first = _grow_depth_first(
                Xb, y, w, binner, n_classes, criterion, 6, 4, 2, 0.0,
                bool(np.all(w == 1.0)), np.asarray(binner.n_bins_),
                max_features=None, random_state=None,
            )
            assert level.node_count > 1
            for attr in _TREE_ATTRS:
                assert np.array_equal(getattr(level, attr),
                                      getattr(depth_first, attr)), (n_classes, attr)

    def test_many_class_gini_still_levelwise_identical(self):
        """Gini impurity has no nonzero-compaction, so the level builder
        stays exact at any class count; entropy from 8 classes on routes to
        the depth-first builder instead (pairwise-sum grouping)."""
        rng = np.random.RandomState(2)
        X = rng.randn(400, 3)
        y = rng.randint(0, 12, 400)
        w = np.ones(400)
        binner = FeatureBinner(max_bins=16).fit(X)
        Xb = binner.transform(X)
        level = build_tree(Xb, y, w, binner, n_classes=12, max_depth=5)
        depth_first = _grow_depth_first(
            Xb, y, w, binner, 12, "gini", 5, 2, 1, 0.0, True,
            np.asarray(binner.n_bins_), max_features=None, random_state=None,
        )
        assert np.array_equal(level.value, depth_first.value)
        assert np.array_equal(level.impurity, depth_first.impurity)

    def test_max_features_uses_depth_first_rng_order(self):
        """Feature-subsampled trees must keep the documented stack-order
        RNG consumption (regression pin for the forest path)."""
        rng = np.random.RandomState(0)
        X = rng.randn(200, 6)
        y = (X[:, 0] + X[:, 3] > 0).astype(int)
        a = DecisionTreeClassifier(max_features=2, random_state=5).fit(X, y)
        b = DecisionTreeClassifier(max_features=2, random_state=5).fit(X, y)
        assert np.array_equal(a.tree_.feature, b.tree_.feature)
        assert np.array_equal(a.tree_.threshold, b.tree_.threshold)


# --------------------------------------------------------------------- #
#: Routing regimes forced through the kernel's module constants:
#: ``(_FUSED_LANES, _LANE_ROWS, _PARTITION_ROWS, _DENSE_SHARE)``.
#: "partition" splits every node itself over 7-row chunks; "hybrid" hands
#: nodes of < 3 rows to the lane walk; both keep the shipped mask share.
#: "dense" splits every node as a chunk-wide mask, down to its leaves;
#: "index" turns the masks off (index splits above 3 rows, lane walk
#: below); "mixed" runs all three over 7-row chunks (masks from 4 rows,
#: index splits at 3, lane walk below).
_REGIME_CONSTANTS = {
    "fused": (1 << 62, 512, 1 << 16, 0.25),
    "partition": (-1, 0, 7, 0.25),
    "hybrid": (-1, 3, 1 << 16, 0.25),
    "dense": (-1, 0, 1 << 16, 0.0),
    "index": (-1, 3, 1 << 16, 2.0),
    "mixed": (-1, 3, 7, 0.5),
}
_REGIMES = sorted(_REGIME_CONSTANTS)


@contextlib.contextmanager
def _routing_regime(regime):
    import repro.fastpath.packed as packed_mod

    names = ("_FUSED_LANES", "_LANE_ROWS", "_PARTITION_ROWS", "_DENSE_SHARE")
    saved = [getattr(packed_mod, name) for name in names]
    try:
        for name, value in zip(names, _REGIME_CONSTANTS[regime]):
            setattr(packed_mod, name, value)
        yield
    finally:
        for name, value in zip(names, saved):
            setattr(packed_mod, name, value)


def _draw_tree(draw, n_features, thresholds, max_depth):
    """A random :class:`Tree` in pre-order; each node's value is unique,
    so equal leaf values mean equal leaves."""
    nodes = []

    def grow(depth):
        node = len(nodes)
        nodes.append(None)
        if depth == 0 or not draw(st.booleans()):
            nodes[node] = (_LEAF, -2.0, -1, -1)
        else:
            feature = draw(st.integers(0, n_features - 1))
            threshold = draw(st.sampled_from(thresholds))
            left = grow(depth - 1)
            nodes[node] = (feature, threshold, left, grow(depth - 1))
        return node

    grow(draw(st.integers(0, max_depth)))
    feature, threshold, left, right = (np.array(col) for col in zip(*nodes))
    n = len(nodes)
    ids = np.arange(n, dtype=np.float64)
    return Tree(
        feature=feature.astype(np.int64),
        threshold=threshold.astype(np.float64),
        children_left=left.astype(np.int64),
        children_right=right.astype(np.int64),
        value=np.column_stack([ids, -ids]),
        n_node_samples=np.zeros(n, dtype=np.int64),
        impurity=np.zeros(n),
        n_classes=2,
    )


_FLOATS = [-np.inf, -1.5, 0.0, 0.5, 2.0, np.inf]


@st.composite
def _float_routing_cases(draw):
    n_features = draw(st.integers(1, 3))
    n_rows = draw(st.integers(0, 40))
    trees = [_draw_tree(draw, n_features, _FLOATS, max_depth=5)
             for _ in range(draw(st.integers(1, 3)))]
    cells = draw(st.lists(st.sampled_from(_FLOATS + [np.nan]),
                          min_size=n_rows * n_features,
                          max_size=n_rows * n_features))
    return trees, np.array(cells, dtype=np.float64).reshape(n_rows, n_features)


_CODES = {
    np.uint8: ([0, 1, 2, 254, 255], [0, 1, 2, 255, 256, 300]),
    np.uint16: ([0, 1, 255, 256, 65535], [0, 1, 256, 65535, 65536, 70000]),
}


@st.composite
def _code_routing_cases(draw):
    dtype = draw(st.sampled_from(sorted(_CODES, key=str)))
    values, cuts = _CODES[dtype]
    n_features = draw(st.integers(1, 3))
    n_rows = draw(st.integers(0, 40))
    trees = [_draw_tree(draw, n_features, [float(c) for c in cuts], max_depth=5)
             for _ in range(draw(st.integers(1, 3)))]
    cells = draw(st.lists(st.sampled_from(values),
                          min_size=n_rows * n_features,
                          max_size=n_rows * n_features))
    return trees, np.array(cells, dtype=dtype).reshape(n_rows, n_features)


class TestPackedKernel:
    def test_apply_matches_tree_apply(self, rng):
        X = rng.randn(400, 3)
        y = (X[:, 0] * X[:, 1] > 0).astype(int)
        trees = [DecisionTreeClassifier(max_depth=d, random_state=d).fit(X, y)
                 for d in (1, 4, 8)]
        forest = PackedForest.from_estimators(trees, np.array([0, 1]))
        leaves = forest.apply(X)
        for t, est in enumerate(trees):
            # node ids are renumbered at pack time; the routed leaf values
            # must agree with the per-tree evaluation exactly
            assert np.array_equal(forest.value[leaves[t]], est.predict_proba(X))

    def test_fused_and_partition_agree(self, rng):
        """Small batches take the fused kernel, large the node-partition
        one — force both over the same rows and compare."""
        X = rng.randn(2000, 2)
        y = (X[:, 0] > 0).astype(int)
        trees = [DecisionTreeClassifier(max_depth=6, random_state=s).fit(X, y)
                 for s in range(4)]
        forest = PackedForest.from_estimators(trees, np.array([0, 1]))
        with _routing_regime("fused"):
            fused = forest.apply(X)
        with _routing_regime("hybrid"):
            partition = forest.apply(X)
        assert np.array_equal(fused, partition)

    @pytest.mark.parametrize("regime", _REGIMES)
    @settings(max_examples=60, deadline=None)
    @given(case=_float_routing_cases())
    def test_routing_matches_tree_apply(self, regime, case):
        """Differential property: packed routing lands every row on the
        leaf ``Tree.apply`` reaches, whatever kernel the batch takes —
        duplicates, thresholds equal to data values, ±inf, NaN (goes
        right), root-is-leaf trees, 0 and 1 rows."""
        trees, X = case
        forest = PackedForest.from_trees(trees, [[0, 1]] * len(trees), 2,
                                         X.shape[1])
        with _routing_regime(regime):
            by_rows = forest.apply(X)
            by_columns = forest.apply_columns(np.ascontiguousarray(X.T))
        assert by_rows.shape == (len(trees), len(X))
        for t, tree in enumerate(trees):
            want = tree.value[tree.apply(X)]
            assert np.array_equal(forest.value[by_rows[t]], want)
            assert np.array_equal(forest.value[by_columns[t]], want)

    @pytest.mark.parametrize("regime", _REGIMES)
    @settings(max_examples=60, deadline=None)
    @given(case=_code_routing_cases())
    def test_code_routing_matches_tree_apply(self, regime, case):
        """``apply_codes`` over uint8/uint16 codes, with integer cuts up to
        and beyond the dtype's range, routes like ``Tree.apply`` on the
        same codes as floats."""
        trees, codes = case
        forest = PackedForest.from_trees(trees, [[0, 1]] * len(trees), 2,
                                         codes.shape[1])
        cuts = np.where(forest.feature >= 0, forest.threshold, 0).astype(np.int64)
        with _routing_regime(regime):
            leaves = forest.apply_codes(codes, cuts)
        for t, tree in enumerate(trees):
            want = tree.value[tree.apply(codes.astype(np.float64))]
            assert np.array_equal(forest.value[leaves[t]], want)

    def test_blocked_transpose_of_ragged_chunks(self, rng, monkeypatch):
        """A row-major input is copied to column-major in blocks of
        ``TRANSPOSE_ROWS``; chunks whose length is not a multiple of the
        block (1,000-row chunks of 512-row blocks, a 500-row tail) still
        route every row to the leaf ``Tree.apply`` reaches, and the copy
        holds the bytes of a plain transpose for floats and codes."""
        import repro.fastpath.packed as packed_mod

        X = rng.randn(2500, 3)
        y = (X[:, 0] + X[:, 2] > 0).astype(int)
        trees = [DecisionTreeClassifier(max_depth=8, random_state=s).fit(X, y)
                 for s in range(3)]
        forest = PackedForest.from_estimators(trees, np.array([0, 1]))
        monkeypatch.setattr(packed_mod, "_FUSED_LANES", -1)
        monkeypatch.setattr(packed_mod, "_PARTITION_ROWS", 1000)
        assert 1000 % packed_mod.TRANSPOSE_ROWS
        leaves = forest._route(X, forest.threshold)
        for t, est in enumerate(trees):
            want = est.tree_.value[est.tree_.apply(X)]
            assert np.array_equal(forest.value[leaves[t]], want)
        for matrix in (X, (X * 1000 % 65536).astype(np.uint16)):
            got = packed_mod._transpose_rows(matrix, 3, 1300)
            assert got.flags.c_contiguous
            assert got.tobytes() == np.ascontiguousarray(matrix[3:1300].T).tobytes()

    def test_scoring_matrix_dtype_ladder(self, rng):
        low_card = np.repeat(np.arange(4.0), 25).reshape(-1, 1)
        assert ScoringMatrix(low_card).codes.dtype == np.uint8
        high_card = rng.randn(60000, 1)
        assert ScoringMatrix(high_card).codes.dtype == np.uint16


# --------------------------------------------------------------------- #
class TestMajorityScoring:
    """``InMemoryMajorityAccess.score`` reads one member's leaf values
    directly; that must equal the averaged-probability route and the
    chunked fallback bit for bit."""

    @staticmethod
    def _member(kind, X, y):
        if kind == "deep":
            return DecisionTreeClassifier(random_state=0).fit(X, y)
        if kind == "depth0":
            return DecisionTreeClassifier(max_depth=0).fit(X, y)
        # fitted on majority rows only: classes_ == [0], so the packed
        # minority column is scattered as 0
        return DecisionTreeClassifier(random_state=0).fit(X[:500], np.zeros(500, int))

    @pytest.mark.parametrize("regime", _REGIMES)
    @pytest.mark.parametrize("kind", ["deep", "depth0", "majority_only"])
    def test_score_matches_proba_routes(self, rng, kind, regime):
        from repro.core import SelfPacedEnsembleClassifier
        from repro.core.self_paced import InMemoryMajorityAccess

        X = rng.randn(20000, 3)
        y = (X[:, 0] + 0.5 * rng.randn(20000) > 1.5).astype(int)
        maj_idx = np.flatnonzero(y == 0)
        member = self._member(kind, X, y)
        majority = InMemoryMajorityAccess(
            X, maj_idx, SelfPacedEnsembleClassifier()._proba_pos
        )
        with _routing_regime(regime):
            got = majority.score(member)
            forest = PackedForest.from_estimators([member], np.array([0, 1]))
            columns = np.ascontiguousarray(X[maj_idx].T)
            want = forest.proba_from_leaves(forest.apply_columns(columns))[:, 1]
        with per_tree_reference():
            legacy = majority.score(member)
        assert got.shape == (len(maj_idx),)
        assert np.array_equal(got, want)
        assert np.array_equal(got, legacy)
        if kind == "majority_only":
            assert not got.any()
        else:
            assert got.any()


# --------------------------------------------------------------------- #
class TestInferencePayloads:
    def test_payload_registry_cleaned_up(self, rng, monkeypatch):
        from repro.parallel import inference

        monkeypatch.setattr(inference, "DEFAULT_CHUNK_SIZE", 64)
        X = rng.randn(300, 2)
        y = (X[:, 0] > 0).astype(int)
        trees = [DecisionTreeClassifier(max_depth=2, random_state=s).fit(X, y)
                 for s in range(3)]
        for n_jobs in (1, 2):
            ensemble_predict_proba(
                trees, X, np.array([0, 1]), packed="never", n_jobs=n_jobs
            )
            assert not _SHARED_PAYLOADS, n_jobs

    def test_process_backend_tasks_carry_no_estimators(self, rng, monkeypatch):
        """Task payloads carry only (key, block id, row chunk) — estimators
        travel once per worker through the pool initializer, and a worker
        never receives more than one chunk of the matrix per task."""
        import pickle

        from repro.parallel import inference

        X = rng.randn(500, 2)
        y = (X[:, 0] > 0).astype(int)
        trees = [DecisionTreeClassifier(max_depth=3, random_state=s).fit(X, y)
                 for s in range(9)]
        seen = []
        original = inference.parallel_map

        def spy(fn, tasks, **kwargs):
            seen.append((list(tasks), kwargs))
            return original(fn, tasks, **kwargs)

        monkeypatch.setattr(inference, "DEFAULT_CHUNK_SIZE", 100)
        inference.parallel_map = spy
        try:
            ensemble_predict_proba(trees, X, np.array([0, 1]), packed="never")
        finally:
            inference.parallel_map = original
        tasks, kwargs = seen[0]
        assert len(tasks) == 5 * 2  # 5 row spans x 2 estimator blocks
        chunk_bytes = 100 * 2 * 8
        for task in tasks:
            assert len(pickle.dumps(task)) < chunk_bytes + 500  # no estimators
        assert kwargs["initializer"] is not None

    def test_executor_initializer_runs_on_serial_path(self):
        state = {}
        parallel_map(
            lambda t: state["k"] + t, [1, 2],
            initializer=lambda v: state.__setitem__("k", v), initargs=(10,),
        )

    def test_packed_path_rejects_non_finite_like_chunked(self, rng):
        """The packed path must not silently accept rows the chunked path
        rejects — NaN input raises the same validation error on both."""
        from repro.exceptions import DataValidationError

        X = rng.randn(50, 2)
        y = (X[:, 0] > 0).astype(int)
        tree = DecisionTreeClassifier(max_depth=2).fit(X, y)
        X_bad = X.copy()
        X_bad[3, 1] = np.nan
        for packed in ("auto", "never"):
            with pytest.raises(DataValidationError):
                ensemble_predict_proba(
                    [tree], X_bad, np.array([0, 1]), packed=packed
                )

    def test_pack_cache_entries_die_with_the_ensemble(self, rng):
        """The weak-keyed pack cache must not keep estimators alive."""
        import gc
        import weakref

        X = rng.randn(60, 2)
        y = (X[:, 0] > 0).astype(int)
        tree = DecisionTreeClassifier(max_depth=2).fit(X, y)
        ensemble_predict_proba([tree], X, np.array([0, 1]))
        ref = weakref.ref(tree)
        del tree
        gc.collect()
        assert ref() is None


# --------------------------------------------------------------------- #
class TestPerTreeReference:
    """``per_tree_reference`` is the oracle of the differential, fastpath
    and persistence suites. If it stopped declining packing, they would
    compare the packed path with itself and still pass."""

    def test_reference_runs_per_tree_and_default_packs(self, rng, monkeypatch):
        from repro.core import SelfPacedEnsembleClassifier
        from repro.fastpath import warm_serving_pack
        from repro.parallel import inference

        calls = {"packed": 0, "chunked": 0}
        route, partial = PackedForest._route, inference._partial_proba

        def counting_route(self, *args, **kwargs):
            calls["packed"] += 1
            return route(self, *args, **kwargs)

        def counting_partial(task):
            calls["chunked"] += 1
            return partial(task)

        monkeypatch.setattr(PackedForest, "_route", counting_route)
        monkeypatch.setattr(inference, "_partial_proba", counting_partial)
        X = rng.randn(600, 3)
        y = (X[:, 0] + 0.5 * rng.randn(600) > 1.5).astype(int)
        with per_tree_reference():
            model = SelfPacedEnsembleClassifier(n_estimators=4, random_state=0)
            reference = model.fit(X, y).predict_proba(X)
            assert not warm_serving_pack(model)
        # the 3 majority re-scorings of the fit (one per member after the
        # cold start) and the predict each ran one chunked cell
        assert calls == {"packed": 0, "chunked": 4}
        calls.update(packed=0, chunked=0)
        assert warm_serving_pack(model)
        assert model.predict_proba(X).tobytes() == reference.tobytes()
        assert calls == {"packed": 1, "chunked": 0}


# --------------------------------------------------------------------- #
class TestFitDigestTool:
    def test_digest_runs_and_repeats(self):
        """``tools/fit_digest.py`` runs as a script, and its digest of an
        SPE fit repeats — the byte-identity check a fit-path change runs
        on both checkouts relies on that."""
        import pathlib
        import subprocess
        import sys

        tools = pathlib.Path(__file__).resolve().parents[1] / "tools"
        args = ["--rows", "3000", "--ir", "10", "--seed", "1"]
        run = subprocess.run(
            [sys.executable, str(tools / "fit_digest.py"), *args],
            capture_output=True, text=True, check=True, timeout=120,
        )
        printed = run.stdout.strip()
        assert len(printed) == 64 and int(printed, 16) >= 0
        sys.path.insert(0, str(tools))
        try:
            import fit_digest
        finally:
            sys.path.pop(0)
        assert fit_digest.fit_digest(3000, 10.0, 1) == printed
        assert fit_digest.fit_digest(3000, 10.0, 2) != printed

        # --predict extends the same digest with the predict_proba bytes
        run = subprocess.run(
            [sys.executable, str(tools / "fit_digest.py"), *args, "--predict"],
            capture_output=True, text=True, check=True, timeout=120,
        )
        with_predict = run.stdout.strip()
        assert len(with_predict) == 64 and with_predict != printed
        assert fit_digest.fit_digest(3000, 10.0, 1, predict=True) == with_predict

        # --estimator picks a registry name; spe is the default, and
        # EasyEnsemble's trees sit inside its AdaBoost bags
        run = subprocess.run(
            [sys.executable, str(tools / "fit_digest.py"), *args,
             "--estimator", "easy_ensemble"],
            capture_output=True, text=True, check=True, timeout=120,
        )
        easy = run.stdout.strip()
        assert len(easy) == 64 and easy != printed
        assert fit_digest.fit_digest(3000, 10.0, 1, estimator="easy_ensemble") == easy
        assert fit_digest.fit_digest(3000, 10.0, 1, estimator="spe") == printed

        # GBDT keeps gradient regression trees in ``trees_``; a single tree
        # has no ``n_estimators`` and is hashed through its own ``tree_``
        run = subprocess.run(
            [sys.executable, str(tools / "fit_digest.py"), *args,
             "--estimator", "gbdt", "--predict"],
            capture_output=True, text=True, check=True, timeout=120,
        )
        gbdt = run.stdout.strip()
        assert len(gbdt) == 64
        assert fit_digest.fit_digest(3000, 10.0, 1, predict=True, estimator="gbdt") == gbdt
        singles = {
            name: fit_digest.fit_digest(3000, 10.0, 1, estimator=name)
            for name in ("tree", "c45")
        }
        assert len({gbdt, printed, easy, *singles.values()}) == 5
        assert fit_digest.fit_digest(3000, 10.0, 1, estimator="tree") == singles["tree"]

    def test_digest_of_models_without_trees(self):
        """KNN and logistic regression take no ``random_state`` and grow no
        tree: the script completes for both, and with ``--predict`` their
        digest is the SHA-256 of their ``predict_proba`` bytes alone. The
        script's output is not compared with this process's: their
        distances and dot products go through BLAS, whose threading may
        differ between the two processes."""
        import hashlib
        import pathlib
        import subprocess
        import sys

        from repro.datasets import make_credit_fraud
        from repro.registry import get_classifier

        tools = pathlib.Path(__file__).resolve().parents[1] / "tools"
        sys.path.insert(0, str(tools))
        try:
            import fit_digest
        finally:
            sys.path.pop(0)
        X, y = make_credit_fraud(n_samples=2000, imbalance_ratio=10.0, random_state=1)
        for name in ("knn", "logistic"):
            run = subprocess.run(
                [sys.executable, str(tools / "fit_digest.py"), "--rows", "2000",
                 "--ir", "10", "--seed", "1", "--estimator", name, "--predict"],
                capture_output=True, text=True, check=True, timeout=120,
            )
            printed = run.stdout.strip()
            assert len(printed) == 64 and int(printed, 16) >= 0
            digest = hashlib.sha256()
            fit_digest._update(digest, "predict_proba",
                               get_classifier(name).fit(X, y).predict_proba(X))
            assert fit_digest.fit_digest(2000, 10.0, 1, predict=True,
                                         estimator=name) == digest.hexdigest()

    def test_digest_covers_every_tree_array(self):
        """Each estimator kind's digest is exactly the SHA-256 over its
        trees' node arrays in member order, so no array escapes the gate."""
        import hashlib
        import pathlib
        import sys

        from repro.datasets import make_credit_fraud
        from repro.registry import get_classifier

        sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tools"))
        try:
            import fit_digest
        finally:
            sys.path.pop(0)
        X, y = make_credit_fraud(n_samples=2000, imbalance_ratio=10.0, random_state=2)
        for name, params, trees, arrays in (
            ("gbdt", {"n_estimators": 10}, lambda m: m.trees_,
             fit_digest.GRADIENT_TREE_ARRAYS),
            ("tree", {}, lambda m: [m.tree_], fit_digest.TREE_ARRAYS),
        ):
            model = get_classifier(name, random_state=2, **params).fit(X, y)
            digest = hashlib.sha256()
            for tree in trees(model):
                for array_name in arrays:
                    fit_digest._update(digest, array_name, getattr(tree, array_name))
            assert fit_digest.fit_digest(2000, 10.0, 2, estimator=name) == digest.hexdigest()
        assert set(fit_digest.GRADIENT_TREE_ARRAYS) == {
            "feature_", "threshold_", "left_", "right_", "value_"}

    def test_mode_reaches_the_reservoir_trainer(self):
        """``--mode reservoir`` fits streaming SPE's reservoir trainer: the
        script prints the digest of that model, which differs from the
        exact trainer's; a model without a ``mode`` ignores it."""
        import pathlib
        import subprocess
        import sys

        from repro.datasets import make_credit_fraud
        from repro.streaming import StreamingSelfPacedEnsembleClassifier

        tools = pathlib.Path(__file__).resolve().parents[1] / "tools"
        sys.path.insert(0, str(tools))
        try:
            import fit_digest
        finally:
            sys.path.pop(0)
        run = subprocess.run(
            [sys.executable, str(tools / "fit_digest.py"), "--rows", "2000",
             "--ir", "10", "--seed", "1", "--estimator", "streaming_spe",
             "--mode", "reservoir"],
            capture_output=True, text=True, check=True, timeout=120,
        )
        reservoir = run.stdout.strip()
        X, y = make_credit_fraud(n_samples=2000, imbalance_ratio=10.0, random_state=1)
        model = StreamingSelfPacedEnsembleClassifier(
            n_estimators=10, random_state=1, mode="reservoir"
        ).fit(X, y)
        assert fit_digest.model_digest(model) == reservoir
        exact = fit_digest.fit_digest(2000, 10.0, 1, estimator="streaming_spe")
        assert exact != reservoir
        assert fit_digest.fit_digest(
            2000, 10.0, 1, estimator="streaming_spe", mode="exact") == exact
        assert fit_digest.fit_digest(2000, 10.0, 1, mode="reservoir") == \
            fit_digest.fit_digest(2000, 10.0, 1)

    def test_persist_digest_covers_state_and_loaded_model(self):
        """``--persist`` extends the ``--predict`` digest with the saved
        state tree and the mmap-loaded model's ``predict_proba``, repeats,
        and its state tree reaches every member tree's arrays."""
        import hashlib
        import pathlib
        import sys

        from repro.core import SelfPacedEnsembleClassifier
        from repro.datasets import make_credit_fraud

        sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tools"))
        try:
            import fit_digest
        finally:
            sys.path.pop(0)
        predicted = fit_digest.fit_digest(2000, 10.0, 1, predict=True)
        persisted = fit_digest.fit_digest(2000, 10.0, 1, predict=True, persist=True)
        assert persisted != predicted
        assert fit_digest.fit_digest(2000, 10.0, 1, predict=True,
                                     persist=True) == persisted

        X, y = make_credit_fraud(n_samples=2000, imbalance_ratio=10.0, random_state=1)
        model = SelfPacedEnsembleClassifier(n_estimators=3, random_state=0).fit(X, y)
        digests = []
        for _ in range(2):
            digest = hashlib.sha256()
            fit_digest._update_state(digest, model)
            digests.append(digest.hexdigest())
            model.estimators_[-1].tree_.threshold[0] += 1.0
        assert digests[0] != digests[1]
