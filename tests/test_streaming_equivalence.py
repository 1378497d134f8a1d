"""Streaming equivalence: out-of-core training must never change the model.

The streaming counterpart of tests/test_parallel_equivalence.py — the
tentpole guarantee of the out-of-core subsystem: with a fixed
``random_state``, ``SelfPacedEnsembleClassifier.fit_source`` (``mode="exact"``)
fed any :class:`~repro.streaming.DataSource` produces bit-identical
``predict_proba`` to the in-memory ``fit(X, y)``, for any
block size, and ``fit_source`` on the balanced-subset ensembles matches
their ``fit`` the same way.
"""

import numpy as np
import pytest

from repro.core import SelfPacedEnsembleClassifier
from repro.imbalance_ensemble import EasyEnsembleClassifier, UnderBaggingClassifier
from repro.metrics import average_precision_score
from repro.streaming import (
    ArraySource,
    CSVSource,
    save_csv,
)
from repro.tree import DecisionTreeClassifier


def _base():
    return DecisionTreeClassifier(max_depth=4, random_state=0)


def _spe_kwargs(**extra):
    return dict(estimator=_base(), n_estimators=5, random_state=7, **extra)


@pytest.fixture
def reference_proba(imbalanced_data):
    X, y = imbalanced_data
    model = SelfPacedEnsembleClassifier(**_spe_kwargs()).fit(X, y)
    return model.predict_proba(X)


class TestStreamingSPEBitIdentical:
    @pytest.mark.parametrize("block_size", [16, 100, 100_000])
    def test_array_source_any_block_size(
        self, imbalanced_data, reference_proba, block_size
    ):
        """The issue's headline guarantee, across block sizes."""
        X, y = imbalanced_data
        model = SelfPacedEnsembleClassifier(**_spe_kwargs()).fit_source(
            ArraySource(X, y, block_size=block_size)
        )
        assert np.array_equal(reference_proba, model.predict_proba(X))

    @pytest.mark.parametrize("block_size", [16, 100, 100_000])
    def test_npy_source_any_block_size(
        self, imbalanced_data, reference_proba, npy_source, block_size
    ):
        """The same guarantee through the block-walking exact seam."""
        X, y = imbalanced_data
        model = SelfPacedEnsembleClassifier(**_spe_kwargs()).fit_source(
            npy_source(X, y, block_size)
        )
        assert np.array_equal(reference_proba, model.predict_proba(X))

    def test_npy_source(self, imbalanced_data, reference_proba, npy_source):
        X, y = imbalanced_data
        source = npy_source(X, y, block_size=64)
        model = SelfPacedEnsembleClassifier(**_spe_kwargs()).fit_source(source)
        assert np.array_equal(reference_proba, model.predict_proba(X))

    def test_csv_source(self, imbalanced_data, reference_proba, tmp_path):
        """CSV round-trips through %.17g, so even text ingress is bit-exact."""
        X, y = imbalanced_data
        save_csv(tmp_path / "data.csv", X, y)
        source = CSVSource(tmp_path / "data.csv", block_size=97)
        model = SelfPacedEnsembleClassifier(**_spe_kwargs()).fit_source(source)
        assert np.array_equal(reference_proba, model.predict_proba(X))

    def test_in_memory_convenience_signature(
        self, imbalanced_data, reference_proba
    ):
        """fit(X, y) of the default exact mode is the reference itself."""
        X, y = imbalanced_data
        model = SelfPacedEnsembleClassifier(**_spe_kwargs()).fit(X, y)
        assert np.array_equal(reference_proba, model.predict_proba(X))

    def test_fitted_metadata_matches(self, imbalanced_data):
        X, y = imbalanced_data
        ref = SelfPacedEnsembleClassifier(**_spe_kwargs()).fit(X, y)
        stream = SelfPacedEnsembleClassifier(**_spe_kwargs()).fit_source(
            ArraySource(X, y, block_size=50)
        )
        assert np.array_equal(ref.classes_, stream.classes_)
        assert ref.n_training_samples_ == stream.n_training_samples_
        assert ref.n_features_in_ == stream.n_features_in_

    def test_eval_curve_matches(self, imbalanced_data):
        X, y = imbalanced_data
        eval_set = (X[:100], y[:100])
        ref = SelfPacedEnsembleClassifier(**_spe_kwargs()).fit(
            X[100:], y[100:], eval_set=eval_set
        )
        stream = SelfPacedEnsembleClassifier(**_spe_kwargs()).fit_source(
            ArraySource(X[100:], y[100:], block_size=64), eval_set=eval_set
        )
        assert ref.train_curve_ == stream.train_curve_

    def test_eval_curve_matches_npy_source(self, imbalanced_data, npy_source):
        X, y = imbalanced_data
        eval_set = (X[:100], y[:100])
        ref = SelfPacedEnsembleClassifier(**_spe_kwargs()).fit(
            X[100:], y[100:], eval_set=eval_set
        )
        stream = SelfPacedEnsembleClassifier(**_spe_kwargs()).fit_source(
            npy_source(X[100:], y[100:], 64), eval_set=eval_set
        )
        assert ref.train_curve_ == stream.train_curve_

    def test_record_bins_matches(self, imbalanced_data):
        X, y = imbalanced_data
        ref = SelfPacedEnsembleClassifier(**_spe_kwargs(record_bins=True)).fit(X, y)
        stream = SelfPacedEnsembleClassifier(
            **_spe_kwargs(record_bins=True)
        ).fit_source(ArraySource(X, y, block_size=33))
        assert len(ref.bin_history_) == len(stream.bin_history_)
        for (a_ref, bins_ref, _), (a_str, bins_str, _) in zip(
            ref.bin_history_, stream.bin_history_
        ):
            assert a_ref == a_str
            assert np.array_equal(bins_ref.populations, bins_str.populations)

    def test_record_bins_matches_npy_source(self, imbalanced_data, npy_source):
        X, y = imbalanced_data
        ref = SelfPacedEnsembleClassifier(**_spe_kwargs(record_bins=True)).fit(X, y)
        stream = SelfPacedEnsembleClassifier(
            **_spe_kwargs(record_bins=True)
        ).fit_source(npy_source(X, y, 33))
        assert len(ref.bin_history_) == len(stream.bin_history_)
        for (a_ref, bins_ref, _), (a_str, bins_str, _) in zip(
            ref.bin_history_, stream.bin_history_
        ):
            assert a_ref == a_str
            assert np.array_equal(bins_ref.populations, bins_str.populations)


def _under_bagging(**kw):
    return UnderBaggingClassifier(_base(), n_estimators=4, random_state=3, **kw)


def _easy_ensemble(**kw):
    return EasyEnsembleClassifier(
        n_estimators=3, n_boost_rounds=3, random_state=7, **kw
    )


def _assert_fit_source_equals_fit(build, X, y, data, n_jobs=1):
    ref = build().fit(X, y)
    src = build(n_jobs=n_jobs).fit_source(data)
    assert np.array_equal(ref.predict_proba(X), src.predict_proba(X))
    assert ref.n_training_samples_ == src.n_training_samples_


class TestFitSourceBitIdentical:
    def test_under_bagging(self, imbalanced_data):
        X, y = imbalanced_data
        _assert_fit_source_equals_fit(
            _under_bagging, X, y, ArraySource(X, y, block_size=64)
        )

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_under_bagging_every_backend(self, imbalanced_data, backend):
        """Sources ride the parallel engine: serial loop and process pool,
        same bits as the in-memory fit."""
        X, y = imbalanced_data
        _assert_fit_source_equals_fit(
            _under_bagging,
            X,
            y,
            ArraySource(X, y, block_size=128),
            n_jobs={"serial": 1, "process": 2}[backend],
        )

    def test_npy_source_under_bagging(self, imbalanced_data, npy_source):
        X, y = imbalanced_data
        _assert_fit_source_equals_fit(
            _under_bagging, X, y, npy_source(X, y, block_size=100)
        )

    @pytest.mark.parametrize("n_jobs", [1, 2])
    @pytest.mark.parametrize("source", ["array", "npy"])
    @pytest.mark.parametrize("build", [_easy_ensemble], ids=["easy_ensemble"])
    def test_fit_source_equals_fit(
        self, imbalanced_data, npy_source, build, source, n_jobs
    ):
        """Each bag gathers its rows from the source, serially and on the
        process pool, with the same bits as the in-memory fit."""
        X, y = imbalanced_data
        if source == "array":
            data = ArraySource(X, y, block_size=64)
        else:
            data = npy_source(X, y, block_size=100)
        _assert_fit_source_equals_fit(build, X, y, data, n_jobs=n_jobs)

    def test_unsupported_ensembles_raise(self, imbalanced_data):
        """Only the balanced pair fits from a source; the lifecycle retrain
        routes on whether ``fit_source`` exists."""
        from repro.imbalance_ensemble import (
            BalanceCascadeClassifier,
            ResampleEnsembleClassifier,
            SMOTEBaggingClassifier,
        )

        X, y = imbalanced_data
        with pytest.raises(AttributeError):
            BalanceCascadeClassifier(_base()).fit_source(ArraySource(X, y))
        for cls in (SMOTEBaggingClassifier, ResampleEnsembleClassifier):
            assert not hasattr(cls(), "fit_source")


class TestDatasetAsSource:
    def test_as_source_round_trips_into_streaming_fit(self):
        from repro.datasets import load_dataset

        ds = load_dataset("checkerboard", scale=0.1, random_state=0)
        ref = SelfPacedEnsembleClassifier(**_spe_kwargs()).fit(ds.X, ds.y)
        stream = SelfPacedEnsembleClassifier(**_spe_kwargs()).fit_source(
            ds.as_source(block_size=128)
        )
        assert np.array_equal(
            ref.predict_proba(ds.X), stream.predict_proba(ds.X)
        )


class TestReservoirMode:
    """mode="reservoir" is statistically faithful, not bit-identical."""

    def test_trains_and_scores_reasonably(self, imbalanced_data):
        X, y = imbalanced_data
        model = SelfPacedEnsembleClassifier(
            **_spe_kwargs(mode="reservoir")
        ).fit_source(ArraySource(X, y, block_size=64))
        assert len(model.estimators_) == 5
        score = average_precision_score(y, model.predict_proba(X)[:, 1])
        prevalence = float((y == 1).mean())
        assert score > 2 * prevalence

    def test_deterministic_given_seed(self, imbalanced_data):
        X, y = imbalanced_data
        probas = [
            SelfPacedEnsembleClassifier(**_spe_kwargs(mode="reservoir"))
            .fit_source(ArraySource(X, y, block_size=64))
            .predict_proba(X)
            for _ in range(2)
        ]
        assert np.array_equal(probas[0], probas[1])

    def test_invalid_mode_rejected(self, imbalanced_data):
        X, y = imbalanced_data
        with pytest.raises(ValueError, match="mode"):
            SelfPacedEnsembleClassifier(mode="bogus").fit_source(
                ArraySource(X, y)
            )

    def test_source_with_y_rejected(self, imbalanced_data):
        X, y = imbalanced_data
        with pytest.raises(ValueError):
            SelfPacedEnsembleClassifier().fit(ArraySource(X, y), y)
