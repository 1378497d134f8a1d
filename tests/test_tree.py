"""Tests for the decision-tree substrate (binning, CART, C4.5)."""

import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ensemble import AdaBoostClassifier
from repro.exceptions import DataValidationError, NotFittedError
from repro.imbalance_ensemble import RUSBoostClassifier, SMOTEBoostClassifier
from repro.tree import (
    C45Classifier,
    DecisionTreeClassifier,
    FeatureBinner,
    _binning,
)


class TestFeatureBinner:
    def test_few_unique_values_exact(self):
        X = np.array([[0.0], [1.0], [1.0], [2.0]])
        binner = FeatureBinner(max_bins=64).fit(X)
        codes = binner.transform(X)
        assert len(np.unique(codes)) == 3  # one code per distinct value

    def test_codes_monotonic_in_value(self, rng):
        X = rng.randn(100, 1)
        binner = FeatureBinner(max_bins=8).fit(X)
        codes = binner.transform(X).ravel()
        order = np.argsort(X.ravel())
        assert (np.diff(codes[order]) >= 0).all()

    def test_threshold_semantics(self, rng):
        """code <= c  iff  value < threshold_value(feature, c)."""
        X = rng.randn(200, 1)
        binner = FeatureBinner(max_bins=6).fit(X)
        codes = binner.transform(X).ravel()
        for c in range(int(binner.n_bins_[0]) - 1):
            thr = binner.threshold_value(0, c)
            assert np.array_equal(codes <= c, X.ravel() < thr)

    def test_max_bins_respected(self, rng):
        X = rng.randn(1000, 2)
        binner = FeatureBinner(max_bins=16).fit(X)
        assert (binner.n_bins_ <= 16).all()

    def test_invalid_max_bins(self):
        with pytest.raises(ValueError):
            FeatureBinner(max_bins=1)

    def test_feature_count_check(self, rng):
        binner = FeatureBinner().fit(rng.randn(10, 2))
        with pytest.raises(ValueError):
            binner.transform(rng.randn(10, 3))


def _reference_edges(col, max_bins):
    """Per-column ``np.unique`` + ``np.quantile`` cut points; a midpoint
    whose sum overflows (a Python float goes to inf without a warning) is
    taken as the sum of the halves, and a quantile whose interpolation
    overflows as twice the quantile of the halves."""
    unique = np.unique(col)
    if unique.size <= max_bins:
        return np.array([
            (a + b) / 2.0 if math.isfinite(a + b) else a / 2.0 + b / 2.0
            for a, b in zip(unique[:-1].tolist(), unique[1:].tolist())
        ], dtype=np.float64)
    quantiles = np.linspace(0.0, 1.0, max_bins + 1)[1:-1]
    with np.errstate(over="ignore", invalid="ignore"):
        q = np.quantile(col, quantiles)
    overflowed = ~np.isfinite(q)
    q[overflowed] = 2.0 * np.quantile(col / 2.0, quantiles)[overflowed]
    return np.unique(q)


@st.composite
def _binner_cases(draw):
    """Matrices up to member-fit size (2,000+ rows, 32+ columns) whose
    columns are continuous, heavily duplicated with a distinct count right
    around ``max_bins``, constant, rich in -0.0 and +0.0, holding -0.0 but
    never +0.0, or so large that the sum of two neighbours overflows; the
    bulk values come from a drawn seed."""
    rng = np.random.RandomState(draw(st.integers(0, 2**31 - 1)))
    n_rows = draw(st.one_of(st.integers(1, 300), st.integers(2_000, 2_200)))
    max_bins = draw(st.integers(2, 255))
    columns = []
    for _ in range(draw(st.one_of(st.integers(1, 6), st.integers(32, 36)))):
        kind = draw(st.sampled_from(
            ["continuous", "pool", "constant", "zeros", "negative_zeros", "huge"]
        ))
        if kind == "continuous":
            col = rng.randn(n_rows) * 10.0
        elif kind == "pool":
            n_distinct = max(1, max_bins + draw(st.integers(-2, 2)))
            col = rng.randn(n_distinct)[rng.randint(0, n_distinct, n_rows)]
        elif kind == "constant":
            col = np.full(n_rows, 0.5)
        elif kind == "zeros":
            col = np.round(rng.randn(n_rows) * draw(st.sampled_from([0.5, 4.0, 100.0])))
            col[rng.rand(n_rows) < 0.3] = -0.0
        elif kind == "negative_zeros":
            col = rng.randn(n_rows)
            col[rng.rand(n_rows) < draw(st.sampled_from([0.3, 0.9]))] = -0.0
        else:
            col = rng.uniform(-1.0, 1.0, n_rows) * np.finfo(np.float64).max
        columns.append(col)
    return np.column_stack(columns), max_bins


class TestFeatureBinnerAgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(case=_binner_cases(), block_columns=st.sampled_from([None, 1, 2, 3]))
    def test_fit_transform_matches_fit_and_reference(self, case, block_columns):
        """Both fits give the reference cut points bit for bit, and
        ``fit_transform`` the codes of ``fit(X).transform(X)``, also when a
        small block budget (1-3 columns a block) makes the matrix cross
        block boundaries."""
        X, max_bins = case
        budget = _binning._BLOCK_VALUES if block_columns is None else X.shape[0] * block_columns
        with mock.patch.object(_binning, "_BLOCK_VALUES", budget):
            fused = FeatureBinner(max_bins=max_bins)
            codes = fused.fit_transform(X)
            fitted = FeatureBinner(max_bins=max_bins).fit(X)
            want = [_reference_edges(X[:, j], max_bins) for j in range(X.shape[1])]
        expected = fitted.transform(X)
        assert codes.dtype == expected.dtype
        assert codes.tobytes() == expected.tobytes()
        for binner in (fused, fitted):
            assert binner.n_bins_.tolist() == [e.size + 1 for e in want]
            for got, ref in zip(binner.edges_, want):
                assert got.dtype == ref.dtype
                assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("method", ["fit", "fit_transform"])
    def test_overflowing_midpoint_stays_finite(self, method):
        """``1e308 + 1.5e308`` overflows: the cut between them is the sum of
        their halves, so a split can still separate them."""
        X = np.array([[1e308], [1.5e308], [-1.0]])
        binner = FeatureBinner(max_bins=64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            codes = getattr(binner, method)(X)
        if method == "fit":
            codes = binner.transform(X)
        assert binner.edges_[0].tolist() == [5e307, 1.25e308]
        assert codes.ravel().tolist() == [1, 2, 0]

    @pytest.mark.parametrize("method", ["fit", "fit_transform"])
    def test_overflowing_quantile_stays_finite(self, method):
        """The median of three values sits between -1e308 and 1.5e308,
        whose difference overflows: it is interpolated between their
        halves, so the cut stays finite and matches the reference."""
        X = np.array([[-1.6e308], [-1e308], [1.5e308]])
        binner = FeatureBinner(max_bins=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            codes = getattr(binner, method)(X)
            want = _reference_edges(X[:, 0], 2)
        if method == "fit":
            codes = binner.transform(X)
        assert binner.edges_[0].tolist() == want.tolist() == [-1e308]
        assert codes.ravel().tolist() == [0, 1, 1]

    @settings(max_examples=25, deadline=None)
    @given(case=_binner_cases(), data=st.data())
    def test_nan_rejected_on_both_paths(self, case, data):
        X, max_bins = case
        X[data.draw(st.integers(0, X.shape[0] - 1)),
          data.draw(st.integers(0, X.shape[1] - 1))] = np.nan
        with pytest.raises(DataValidationError):
            FeatureBinner(max_bins=max_bins).fit(X)
        with pytest.raises(DataValidationError):
            FeatureBinner(max_bins=max_bins).fit_transform(X)

    @pytest.mark.parametrize("method", ["fit", "fit_transform"])
    def test_block_budget_bounds_peak_memory(self, method):
        """Binning a tall matrix holds one block of columns at a time: the
        traced peak stays within the codes it returns plus a few
        block-sized temporaries, well below one pass over the whole
        matrix."""
        X = np.random.RandomState(0).randn(_binning._BLOCK_VALUES // 2, 12)
        block_bytes = 8 * _binning._BLOCK_VALUES
        codes_bytes = 4 * X.size if method == "fit_transform" else 0
        tracemalloc.start()
        try:
            getattr(FeatureBinner(max_bins=64), method)(X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= codes_bytes + 8 * block_bytes < codes_bytes + 2 * X.nbytes


class TestDecisionTree:
    def test_pure_split_learned(self):
        """A single-threshold concept must be learned exactly."""
        X = np.linspace(0, 1, 100).reshape(-1, 1)
        y = (X.ravel() > 0.5).astype(int)
        clf = DecisionTreeClassifier(max_depth=1).fit(X, y)
        assert clf.score(X, y) == 1.0

    def test_xor_learned_with_depth(self):
        """XOR defeats any depth-1 tree; enough depth must solve it.

        Greedy impurity splits see ~zero gain at the XOR root, so a few
        extra levels are needed before the quadrant structure emerges —
        the same behaviour as sklearn's exact-split trees.
        """
        rng = np.random.RandomState(0)
        X = rng.uniform(-1, 1, size=(1500, 2))
        y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(int)
        shallow = DecisionTreeClassifier(max_depth=1).fit(X, y)
        deep = DecisionTreeClassifier(max_depth=6).fit(X, y)
        assert shallow.score(X, y) < 0.7
        assert deep.score(X, y) > 0.95

    def test_max_depth_respected(self, binary_blobs):
        X, y = binary_blobs
        clf = DecisionTreeClassifier(max_depth=2).fit(X, y)
        assert clf.tree_.max_depth <= 2

    def test_min_samples_leaf(self, binary_blobs):
        X, y = binary_blobs
        clf = DecisionTreeClassifier(min_samples_leaf=30).fit(X, y)
        leaf_mask = clf.tree_.feature < 0
        assert clf.tree_.n_node_samples[leaf_mask].min() >= 30

    def test_proba_sums_to_one(self, binary_blobs):
        X, y = binary_blobs
        proba = DecisionTreeClassifier(max_depth=4).fit(X, y).predict_proba(X)
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_predict_is_argmax(self, binary_blobs):
        X, y = binary_blobs
        clf = DecisionTreeClassifier(max_depth=4).fit(X, y)
        proba = clf.predict_proba(X)
        assert np.array_equal(clf.predict(X), clf.classes_[proba.argmax(axis=1)])

    def test_sample_weight_shifts_decision(self):
        """Heavily weighting one class must pull the prediction toward it."""
        X = np.array([[0.0], [0.0], [0.0], [1.0]])
        y = np.array([0, 0, 1, 1])
        w_heavy_1 = np.array([1.0, 1.0, 10.0, 1.0])
        clf = DecisionTreeClassifier(max_depth=1).fit(X, y, sample_weight=w_heavy_1)
        proba = clf.predict_proba(np.array([[0.0]]))
        assert proba[0, 1] > 0.5

    @pytest.mark.parametrize(
        "bad",
        [np.nan, np.inf, -np.inf, -0.5],
        ids=["nan", "inf", "neg_inf", "negative"],
    )
    def test_rejects_invalid_sample_weight_value(self, binary_blobs, bad):
        X, y = binary_blobs
        w = np.ones(len(y))
        w[3] = bad
        with pytest.raises(DataValidationError):
            DecisionTreeClassifier(max_depth=3).fit(X, y, sample_weight=w)

    def test_rejects_sample_weight_of_wrong_length(self, binary_blobs):
        X, y = binary_blobs
        with pytest.raises(DataValidationError):
            DecisionTreeClassifier().fit(X, y, sample_weight=np.ones(len(y) - 1))

    def test_rejects_two_dimensional_sample_weight(self, binary_blobs):
        X, y = binary_blobs
        with pytest.raises(DataValidationError):
            DecisionTreeClassifier().fit(X, y, sample_weight=np.ones((len(y), 2)))

    def test_valid_sample_weight_is_not_rescaled(self, binary_blobs, rng):
        """Weights reach the builder as given (a column vector is raveled),
        so the tree equals one grown on the raw weights directly."""
        from repro.tree._tree import build_tree

        X, y = binary_blobs
        w = rng.rand(len(y)) * 5.0
        w[:10] = 0.0
        clf = DecisionTreeClassifier(max_depth=4).fit(X, y, sample_weight=w[:, None])
        binner = FeatureBinner(max_bins=64).fit(X)
        y_enc = np.unique(y, return_inverse=True)[1]
        tree = build_tree(binner.transform(X), y_enc, w, binner, n_classes=2,
                          max_depth=4)
        assert np.array_equal(clf.tree_.value, tree.value)
        assert np.array_equal(clf.tree_.threshold, tree.threshold)

    @pytest.mark.parametrize(
        "ensemble",
        [
            AdaBoostClassifier(n_estimators=5, random_state=0),
            RUSBoostClassifier(n_estimators=5, random_state=0),
            SMOTEBoostClassifier(n_estimators=5, random_state=0),
        ],
        ids=["adaboost", "rusboost", "smoteboost"],
    )
    def test_boosting_still_fits_weighted_trees(self, ensemble, rng):
        X = rng.randn(300, 3)
        y = (X[:, 0] + 0.3 * rng.randn(300) > 1.0).astype(int)
        proba = ensemble.fit(X, y).predict_proba(X)
        assert np.isfinite(proba).all()

    def test_multiclass(self, rng):
        X = np.vstack([rng.randn(50, 2) + c * 4 for c in range(3)])
        y = np.repeat([0, 1, 2], 50)
        clf = DecisionTreeClassifier(max_depth=4).fit(X, y)
        assert clf.score(X, y) > 0.95
        assert clf.predict_proba(X).shape == (150, 3)

    def test_non_contiguous_labels(self, rng):
        X = np.vstack([rng.randn(30, 2), rng.randn(30, 2) + 5])
        y = np.concatenate([np.full(30, 7), np.full(30, 42)])
        clf = DecisionTreeClassifier(max_depth=3).fit(X, y)
        assert set(np.unique(clf.predict(X))) <= {7, 42}

    def test_apply_leaves(self, binary_blobs):
        X, y = binary_blobs
        clf = DecisionTreeClassifier(max_depth=3).fit(X, y)
        leaves = clf.apply(X)
        assert (clf.tree_.feature[leaves] == -1).all()

    def test_feature_importances(self):
        rng = np.random.RandomState(3)
        X = rng.randn(300, 3)
        y = (X[:, 1] > 0).astype(int)  # only feature 1 matters
        clf = DecisionTreeClassifier(max_depth=3, random_state=0).fit(X, y)
        importances = clf.feature_importances_
        assert importances.argmax() == 1
        assert importances.sum() == pytest.approx(1.0)

    def test_unknown_criterion(self):
        with pytest.raises(ValueError):
            DecisionTreeClassifier(criterion="bogus").fit(np.ones((4, 1)), [0, 1, 0, 1])

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            DecisionTreeClassifier().predict(np.ones((2, 2)))

    def test_feature_mismatch_at_predict(self, binary_blobs):
        X, y = binary_blobs
        clf = DecisionTreeClassifier(max_depth=2).fit(X, y)
        with pytest.raises(ValueError):
            clf.predict(np.ones((2, X.shape[1] + 1)))

    @pytest.mark.parametrize("method", ["apply", "predict_proba"])
    def test_feature_mismatch_at_apply(self, rng, method):
        """``apply`` checks the column count as ``predict_proba`` does: a
        wider matrix must not route rows on its leading columns."""
        X = rng.randn(60, 3)
        clf = DecisionTreeClassifier(max_depth=3).fit(X, (X[:, 0] > 0).astype(int))
        with pytest.raises(ValueError, match="3"):
            getattr(clf, method)(np.hstack([X, X]))

    def test_deterministic_given_seed(self, binary_blobs):
        X, y = binary_blobs
        p1 = (
            DecisionTreeClassifier(max_depth=5, max_features=2, random_state=9)
            .fit(X, y)
            .predict_proba(X)
        )
        p2 = (
            DecisionTreeClassifier(max_depth=5, max_features=2, random_state=9)
            .fit(X, y)
            .predict_proba(X)
        )
        assert np.allclose(p1, p2)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=8))
    def test_depth_property(self, depth):
        rng = np.random.RandomState(0)
        X = rng.randn(200, 3)
        y = (X[:, 0] + X[:, 1] > 0).astype(int)
        clf = DecisionTreeClassifier(max_depth=depth).fit(X, y)
        assert clf.tree_.max_depth <= depth


class TestC45:
    def test_uses_gain_ratio(self):
        assert C45Classifier().criterion == "gain_ratio"

    def test_learns_separable(self, binary_blobs):
        X, y = binary_blobs
        assert C45Classifier(max_depth=5).fit(X, y).score(X, y) > 0.9

    def test_clone_roundtrip(self):
        from repro.base import clone

        clf = clone(C45Classifier(max_depth=7))
        assert clf.max_depth == 7
