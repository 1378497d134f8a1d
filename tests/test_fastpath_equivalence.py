"""Fastpath equivalence contract: packed inference and fastpath scoring are
bit-identical to the legacy per-tree paths, for every tree-based ensemble
and for the degenerate shapes that break naive packing."""

import numpy as np
import pytest

from repro.core import SelfPacedEnsembleClassifier
from repro.datasets import make_checkerboard
from repro.ensemble import BaggingClassifier, RandomForestClassifier
from repro.fastpath import (
    CodeTable,
    PackedForest,
    ScoringMatrix,
    cached_packed_ensemble,
    fastpath_disabled,
)
from repro.imbalance_ensemble import (
    BalanceCascadeClassifier,
    EasyEnsembleClassifier,
    UnderBaggingClassifier,
)
from repro.parallel import ensemble_predict_proba
from repro.streaming import ArraySource, StreamingSelfPacedEnsembleClassifier
from repro.tree import DecisionTreeClassifier


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
    # and through the public API with the kernels globally disabled
    with fastpath_disabled():
        assert np.array_equal(model.predict_proba(X), proba_legacy)


class TestPackedEqualsPerTree:
    """PackedForest vs per-tree predict_proba, exact equality."""

    def test_self_paced_ensemble(self, data, test_rows):
        X, y = data
        model = SelfPacedEnsembleClassifier(n_estimators=6, random_state=0).fit(X, y)
        _assert_packed_matches_legacy(model, test_rows)

    def test_self_paced_ensemble_shared_binning(self, data, test_rows):
        X, y = data
        model = SelfPacedEnsembleClassifier(
            n_estimators=6, shared_binning=True, random_state=0
        ).fit(X, y)
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
    column-major majority / CodeTable) must not change the fitted ensemble
    by a single bit."""

    @pytest.mark.parametrize("fused_lanes", [0, 1 << 62], ids=["partition", "fused"])
    @pytest.mark.parametrize("shared", [False, True])
    def test_fit_bit_identical_with_and_without_kernels(
        self, data, test_rows, shared, fused_lanes, monkeypatch
    ):
        """Both routing regimes of the fit loop's scoring — the large-batch
        partition kernel and the fused one — against the legacy scorer."""
        import repro.fastpath.packed as packed_mod

        X, y = data
        monkeypatch.setattr(packed_mod, "_FUSED_LANES", fused_lanes)
        fast = SelfPacedEnsembleClassifier(
            n_estimators=6, shared_binning=shared, random_state=0
        ).fit(X, y)
        with fastpath_disabled():
            legacy = SelfPacedEnsembleClassifier(
                n_estimators=6, shared_binning=shared, random_state=0
            ).fit(X, y)
            # evaluate both through the same (legacy) path to isolate fit
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

    def test_code_table_refuses_foreign_thresholds(self, data):
        """A tree whose thresholds are not shared-binner edges must not be
        compiled into a table."""
        X, y = data
        shared = SelfPacedEnsembleClassifier(
            n_estimators=2, shared_binning=True, random_state=0
        ).fit(X, y)
        context = shared.estimators_[0]._shared_bin_context
        rng = np.random.RandomState(1)
        foreign = DecisionTreeClassifier(max_depth=4).fit(
            rng.randn(200, X.shape[1]), rng.randint(0, 2, 200)
        )
        forest = PackedForest.from_estimators([foreign], np.array([0, 1]))
        assert CodeTable.maybe_build(forest, context.binner) is None

    def test_code_table_matches_traversal(self, data, test_rows):
        X, y = data
        model = SelfPacedEnsembleClassifier(
            n_estimators=5, shared_binning=True, random_state=2
        ).fit(X, y)
        entry = cached_packed_ensemble(model.estimators_, model.classes_)
        assert entry is not None
        forest, table = entry
        assert table is not None, "shared-binning SPE should compile a table"
        assert np.array_equal(
            table.predict_proba(test_rows), forest.predict_proba(test_rows)
        )


class TestSharedBinningBehaviour:
    def test_deterministic_and_backend_equivalent(self, data, test_rows):
        X, y = data
        ref = None
        for backend in ("serial", "thread"):
            model = UnderBaggingClassifier(
                n_estimators=5, shared_binning=True, backend=backend,
                n_jobs=2, random_state=0,
            ).fit(X, y)
            proba = model.predict_proba(test_rows)
            if ref is None:
                ref = proba
            assert np.array_equal(proba, ref)

    def test_process_backend_rejected(self, data):
        X, y = data
        model = UnderBaggingClassifier(
            n_estimators=3, shared_binning=True, backend="process", random_state=0
        )
        with pytest.raises(ValueError, match="process"):
            model.fit(X, y)

    def test_spe_draws_same_rows_either_mode(self, data):
        """Shared binning changes tree thresholds, never the sampling: RNG
        consumption is identical, so both modes train on the same subsets."""
        X, y = data
        a = SelfPacedEnsembleClassifier(n_estimators=6, random_state=0).fit(X, y)
        b = SelfPacedEnsembleClassifier(
            n_estimators=6, shared_binning=True, random_state=0
        ).fit(X, y)
        assert a.n_training_samples_ == b.n_training_samples_
        assert [e.tree_.n_node_samples[0] for e in a.estimators_] == [
            e.tree_.n_node_samples[0] for e in b.estimators_
        ]

    def test_quality_parity(self):
        """Full-matrix bin edges must not cost measurable quality (averaged
        over seeds — individual fits differ by normal ensemble variance)."""
        from repro.metrics import average_precision_score

        X, y = make_checkerboard(n_minority=150, n_majority=1500, random_state=5)
        X_te, y_te = make_checkerboard(n_minority=150, n_majority=1500, random_state=6)
        scores = {False: [], True: []}
        for seed in range(5):
            for shared in (False, True):
                model = SelfPacedEnsembleClassifier(
                    n_estimators=10, shared_binning=shared, random_state=seed
                ).fit(X, y)
                scores[shared].append(
                    average_precision_score(y_te, model.predict_proba(X_te)[:, 1])
                )
        assert abs(np.mean(scores[True]) - np.mean(scores[False])) < 0.05

    def test_non_tree_estimator_rejected(self, data):
        from repro.neighbors import KNeighborsClassifier

        X, y = data
        model = SelfPacedEnsembleClassifier(
            estimator=KNeighborsClassifier(), shared_binning=True, random_state=0
        )
        with pytest.raises(ValueError, match="tree base estimator"):
            model.fit(X, y)

    def test_streaming_rejects_shared_binning(self, data):
        X, y = data
        model = StreamingSelfPacedEnsembleClassifier(
            n_estimators=3, shared_binning=True, random_state=0
        )
        with pytest.raises(ValueError, match="out-of-core"):
            model.fit(ArraySource(X, y))

    def test_forest_and_bagging_shared_fit_predicts_sanely(self, data, test_rows):
        X, y = data
        for cls in (RandomForestClassifier, BaggingClassifier, EasyEnsembleClassifier):
            model = cls(n_estimators=4, shared_binning=True, random_state=0).fit(X, y)
            proba = model.predict_proba(test_rows)
            assert proba.shape == (len(test_rows), 2)
            assert np.allclose(proba.sum(axis=1), 1.0)
            _assert_packed_matches_legacy(model, test_rows)


class TestPackCache:
    def test_cache_hit_and_refit_invalidation(self, data, test_rows):
        X, y = data
        model = BaggingClassifier(n_estimators=3, random_state=0).fit(X, y)
        first = cached_packed_ensemble(model.estimators_, model.classes_)
        again = cached_packed_ensemble(model.estimators_, model.classes_)
        assert first[0] is again[0]  # same PackedForest object: cache hit
        before = model.predict_proba(test_rows)
        model.fit(X, 1 - y)  # refit in place: trees replaced
        rebuilt = cached_packed_ensemble(model.estimators_, model.classes_)
        assert rebuilt[0] is not first[0]
        after = model.predict_proba(test_rows)
        assert not np.array_equal(before, after)
        _assert_packed_matches_legacy(model, test_rows)
