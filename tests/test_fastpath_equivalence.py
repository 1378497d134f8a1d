"""Fastpath equivalence contract: packed inference and fastpath scoring are
bit-identical to the legacy per-tree paths, for every tree-based ensemble
and for the degenerate shapes that break naive packing."""

import numpy as np
import pytest

from repro.core import SelfPacedEnsembleClassifier
from repro.datasets import make_checkerboard
from repro.ensemble import BaggingClassifier, RandomForestClassifier
from repro.fastpath import PackedForest, ScoringMatrix, cached_packed_ensemble
from repro.imbalance_ensemble import (
    BalanceCascadeClassifier,
    EasyEnsembleClassifier,
    UnderBaggingClassifier,
)
from repro.parallel import ensemble_predict_proba
from repro.streaming import ArraySource, StreamingSelfPacedEnsembleClassifier
from repro.tree import DecisionTreeClassifier

from per_tree import per_tree_reference


@pytest.fixture(scope="module")
def data():
    return make_checkerboard(n_minority=80, n_majority=800, random_state=0)


@pytest.fixture(scope="module")
def test_rows():
    X, _ = make_checkerboard(n_minority=80, n_majority=800, random_state=99)
    return X


def _assert_packed_matches_legacy(model, X):
    proba_fast = ensemble_predict_proba(model.estimators_, X, model.classes_)
    proba_legacy = ensemble_predict_proba(
        model.estimators_, X, model.classes_, packed="never"
    )
    assert np.array_equal(proba_fast, proba_legacy)
    # and through the public API with packing declined
    with per_tree_reference():
        assert np.array_equal(model.predict_proba(X), proba_legacy)


class TestPackedEqualsPerTree:
    """PackedForest vs per-tree predict_proba, exact equality."""

    def test_self_paced_ensemble(self, data, test_rows):
        X, y = data
        model = SelfPacedEnsembleClassifier(n_estimators=6, random_state=0).fit(X, y)
        _assert_packed_matches_legacy(model, test_rows)

    def test_random_forest(self, data, test_rows):
        X, y = data
        model = RandomForestClassifier(n_estimators=7, random_state=1).fit(X, y)
        _assert_packed_matches_legacy(model, test_rows)

    def test_bagging(self, data, test_rows):
        X, y = data
        model = BaggingClassifier(n_estimators=5, random_state=2).fit(X, y)
        _assert_packed_matches_legacy(model, test_rows)

    def test_under_bagging(self, data, test_rows):
        X, y = data
        model = UnderBaggingClassifier(n_estimators=5, random_state=3).fit(X, y)
        _assert_packed_matches_legacy(model, test_rows)

    def test_balance_cascade(self, data, test_rows):
        X, y = data
        model = BalanceCascadeClassifier(n_estimators=4, random_state=4).fit(X, y)
        _assert_packed_matches_legacy(model, test_rows)

    def test_easy_ensemble_plain_members(self, data, test_rows):
        X, y = data
        model = EasyEnsembleClassifier(
            n_estimators=4, n_boost_rounds=1, random_state=5
        ).fit(X, y)
        _assert_packed_matches_legacy(model, test_rows)

    def test_easy_ensemble_boosted_members_fall_back(self, data, test_rows):
        """Boosted bags are not single trees: the packed path must refuse
        and the chunked fallback must serve identical probabilities."""
        X, y = data
        model = EasyEnsembleClassifier(
            n_estimators=3, n_boost_rounds=3, random_state=6
        ).fit(X, y)
        assert cached_packed_ensemble(model.estimators_, model.classes_) is None
        _assert_packed_matches_legacy(model, test_rows)

    def test_streaming_exact_mode(self, data, test_rows):
        X, y = data
        model = StreamingSelfPacedEnsembleClassifier(
            n_estimators=5, random_state=7
        ).fit(ArraySource(X, y, block_size=128))
        _assert_packed_matches_legacy(model, test_rows)

    def test_streaming_reservoir_mode(self, data, test_rows):
        X, y = data
        model = StreamingSelfPacedEnsembleClassifier(
            n_estimators=4, mode="reservoir", random_state=8
        ).fit(ArraySource(X, y, block_size=128))
        _assert_packed_matches_legacy(model, test_rows)


class TestDegenerateShapes:
    def test_single_node_trees(self, data, test_rows):
        """max_depth=0 would be invalid; a huge min_samples_split leaves
        every tree a single root leaf."""
        X, y = data
        base = DecisionTreeClassifier(min_samples_split=10_000)
        model = BaggingClassifier(estimator=base, n_estimators=4, random_state=0).fit(X, y)
        assert all(est.tree_.node_count == 1 for est in model.estimators_)
        _assert_packed_matches_legacy(model, test_rows)

    def test_single_class_members(self, data, test_rows):
        """A member fitted on one class contributes a single column that
        must be scattered into the right slot of the class space."""
        X, y = data
        full = DecisionTreeClassifier(max_depth=3).fit(X, y)
        only_zero = DecisionTreeClassifier(max_depth=3).fit(X[:10], np.zeros(10, dtype=int))
        only_one = DecisionTreeClassifier(max_depth=3).fit(X[:10], np.ones(10, dtype=int))
        classes = np.array([0, 1])
        for members in ([full, only_zero], [only_one, full], [only_zero, only_one]):
            fast = ensemble_predict_proba(members, test_rows, classes)
            legacy = ensemble_predict_proba(members, test_rows, classes, packed="never")
            assert np.array_equal(fast, legacy)

    def test_single_estimator(self, data, test_rows):
        X, y = data
        model = SelfPacedEnsembleClassifier(n_estimators=1, random_state=0).fit(X, y)
        assert len(model.estimators_) == 1
        _assert_packed_matches_legacy(model, test_rows)

    def test_many_estimators_cross_block_reduction(self, data, test_rows):
        """More members than ESTIMATOR_BLOCK exercises the block-partial
        reduction order on both paths."""
        X, y = data
        model = UnderBaggingClassifier(n_estimators=19, random_state=9).fit(X, y)
        _assert_packed_matches_legacy(model, test_rows)


class TestScoringFastpath:
    """The SPE fit loop's majority scoring (node-partition routing over the
    column-major majority) must not change the fitted ensemble by a single
    bit."""

    @pytest.mark.parametrize("fused_lanes", [0, 1 << 62], ids=["partition", "fused"])
    def test_fit_bit_identical_with_and_without_kernels(
        self, data, test_rows, fused_lanes, monkeypatch
    ):
        """Both routing regimes of the fit loop's scoring — the large-batch
        partition kernel and the fused one — against the per-tree scorer."""
        import repro.fastpath.packed as packed_mod

        X, y = data
        monkeypatch.setattr(packed_mod, "_FUSED_LANES", fused_lanes)
        fast = SelfPacedEnsembleClassifier(n_estimators=6, random_state=0).fit(X, y)
        with per_tree_reference():
            legacy = SelfPacedEnsembleClassifier(
                n_estimators=6, random_state=0
            ).fit(X, y)
            # evaluate both through the same (per-tree) path to isolate fit
            p_fast = fast.predict_proba(test_rows)
            p_legacy = legacy.predict_proba(test_rows)
        assert np.array_equal(p_fast, p_legacy)

    def test_scoring_matrix_exact_for_foreign_trees(self, data, test_rows):
        """Rank-coded scoring is exact for trees fitted on *other* data —
        thresholds fall between the matrix's values arbitrarily."""
        X, y = data
        rng = np.random.RandomState(3)
        X_other = rng.randn(300, X.shape[1])
        tree = DecisionTreeClassifier(max_depth=6).fit(
            X_other, (X_other[:, 0] > 0).astype(int)
        )
        forest = PackedForest.from_estimators([tree], np.array([0, 1]))
        scoring = ScoringMatrix(test_rows)
        assert np.array_equal(
            scoring.score(forest), forest.predict_proba(test_rows)
        )


class TestPackCache:
    def test_cache_hit_and_refit_invalidation(self, data, test_rows):
        X, y = data
        model = BaggingClassifier(n_estimators=3, random_state=0).fit(X, y)
        first = cached_packed_ensemble(model.estimators_, model.classes_)
        again = cached_packed_ensemble(model.estimators_, model.classes_)
        assert first is again  # same PackedForest object: cache hit
        before = model.predict_proba(test_rows)
        model.fit(X, 1 - y)  # refit in place: trees replaced
        rebuilt = cached_packed_ensemble(model.estimators_, model.classes_)
        assert rebuilt is not first
        after = model.predict_proba(test_rows)
        assert not np.array_equal(before, after)
        _assert_packed_matches_legacy(model, test_rows)
