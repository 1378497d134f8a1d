"""Arbitrary binary label support across the ensemble family.

The historical API only accepted labels already in {0, 1} with 1 the
minority; these tests pin the fix: ``fit`` maps any two-label alphabet to
the internal encoding by minority *frequency* (tie → second sorted label),
``predict`` decodes back to the original labels, and ``predict_proba``
columns follow ``classes_`` order. Relabelling the same data must never
change the minority-class probabilities — pinned bit-exactly against the
{0, 1} reference fit.
"""

import numpy as np
import pytest

from repro.core import SelfPacedEnsembleClassifier
from repro.datasets import make_checkerboard
from repro.exceptions import DataValidationError
from repro.imbalance_ensemble import (
    BalanceCascadeClassifier,
    EasyEnsembleClassifier,
    RUSBoostClassifier,
    SMOTEBoostClassifier,
    UnderBaggingClassifier,
)
from repro.streaming import (
    ArraySource,
    NPYSource,
    label_value_scan,
)
from repro.utils.validation import (
    binary_column_order,
    check_binary_labels,
    encode_binary_labels,
)


@pytest.fixture(scope="module")
def data():
    X, y = make_checkerboard(n_minority=50, n_majority=500, random_state=0)
    return X, y


class TestEncodeBinaryLabels:
    def test_identity_for_internal_encoding(self):
        classes, y_int, minority_idx = encode_binary_labels([0, 0, 0, 1])
        assert classes.tolist() == [0, 1]
        assert y_int.tolist() == [0, 0, 0, 1]
        assert minority_idx == 1

    def test_minority_by_frequency_flips(self):
        classes, y_int, minority_idx = encode_binary_labels([1, 1, 1, 0])
        assert minority_idx == 0  # 0 is the rarer label here
        assert y_int.tolist() == [0, 0, 0, 1]

    def test_tie_breaks_to_second_sorted_label(self):
        classes, y_int, minority_idx = encode_binary_labels([0, 1, 0, 1])
        assert minority_idx == 1
        assert y_int.tolist() == [0, 1, 0, 1]

    def test_string_labels(self):
        classes, y_int, minority_idx = encode_binary_labels(
            ["ok", "ok", "fraud", "ok"]
        )
        assert classes.tolist() == ["fraud", "ok"]
        assert classes[minority_idx] == "fraud"
        assert y_int.tolist() == [0, 0, 1, 0]

    def test_three_classes_rejected(self):
        with pytest.raises(DataValidationError):
            encode_binary_labels([0, 1, 2])

    def test_single_label_outside_01_rejected(self):
        with pytest.raises(DataValidationError):
            encode_binary_labels(["only"])

    def test_single_01_label_passes_through(self):
        classes, y_int, minority_idx = encode_binary_labels([1, 1])
        assert classes.tolist() == [1]
        assert y_int.tolist() == [1, 1]
        assert minority_idx is None

    def test_check_binary_labels_still_guards_internal_encoding(self):
        with pytest.raises(DataValidationError):
            check_binary_labels([-1, 1])

    def test_column_order(self):
        assert binary_column_order([0, 1], 1).tolist() == [0, 1]
        assert binary_column_order([-1, 1], -1).tolist() == [1, 0]
        assert binary_column_order(["fraud", "ok"], "fraud").tolist() == [1, 0]


ENSEMBLES = {
    "spe": lambda: SelfPacedEnsembleClassifier(n_estimators=4, random_state=0),
    "under_bagging": lambda: UnderBaggingClassifier(n_estimators=4, random_state=0),
    "easy_ensemble": lambda: EasyEnsembleClassifier(
        n_estimators=3, n_boost_rounds=2, random_state=0
    ),
    "streaming_spe": lambda: SelfPacedEnsembleClassifier(
        n_estimators=4, random_state=0
    ),
    "balance_cascade": lambda: BalanceCascadeClassifier(n_estimators=3, random_state=0),
    "rus_boost": lambda: RUSBoostClassifier(n_estimators=3, random_state=0),
    "smote_boost": lambda: SMOTEBoostClassifier(n_estimators=3, random_state=0),
}


class TestEnsemblesAcceptArbitraryLabels:
    @pytest.mark.parametrize("name", sorted(ENSEMBLES))
    def test_relabelling_preserves_minority_proba_bitwise(self, data, name):
        """{-1, 1} and string alphabets give the exact probabilities of the
        {0, 1} reference fit — the internal training problem is identical."""
        X, y = data
        build = ENSEMBLES[name]
        ref = build().fit(X, y)
        ref_min = ref.predict_proba(X)[:, list(ref.classes_).index(1)]
        for relabel in (
            lambda v: np.where(v == 1, 1, -1),
            lambda v: np.where(v == 1, "pos", "neg"),
        ):
            y_alt = relabel(y)
            clf = build().fit(X, y_alt)
            minority = clf.minority_class_
            col = list(clf.classes_).index(minority)
            assert np.array_equal(ref_min, clf.predict_proba(X)[:, col]), name
            pred = clf.predict(X)
            assert set(np.unique(pred)) <= set(np.unique(y_alt)), name
            assert np.array_equal(
                pred == minority, ref.predict(X) == 1
            ), name

    @pytest.mark.parametrize("name", sorted(ENSEMBLES))
    def test_predict_proba_columns_follow_classes(self, data, name):
        X, y = data
        y_str = np.where(y == 1, "pos", "neg")  # minority sorts second
        clf = ENSEMBLES[name]().fit(X, y_str)
        assert clf.classes_.tolist() == ["neg", "pos"]
        proba = clf.predict_proba(X)
        assert proba.shape[1] == 2
        # predict is the argmax over classes_-ordered columns for every family
        pred = clf.predict(X)
        assert np.array_equal(pred, clf.classes_[np.argmax(proba, axis=1)])

    def test_flipped_frequency_maps_zero_to_minority(self, data):
        """{0, 1} data where 1 is the MAJORITY: minority is found by
        frequency, not by label value."""
        X, y = data
        y_flip = 1 - y
        ref = SelfPacedEnsembleClassifier(n_estimators=4, random_state=0).fit(X, y)
        clf = SelfPacedEnsembleClassifier(n_estimators=4, random_state=0).fit(X, y_flip)
        assert clf.minority_class_ == 0 and clf.majority_class_ == 1
        assert np.array_equal(
            ref.predict_proba(X)[:, 1], clf.predict_proba(X)[:, 0]
        )

    def test_eval_set_accepts_original_alphabet(self, data):
        X, y = data
        y_pm = np.where(y == 1, 1, -1)
        ref = SelfPacedEnsembleClassifier(n_estimators=3, random_state=0).fit(
            X, y, eval_set=(X, y)
        )
        clf = SelfPacedEnsembleClassifier(n_estimators=3, random_state=0).fit(
            X, y_pm, eval_set=(X, y_pm)
        )
        assert clf.train_curve_ == ref.train_curve_

    @pytest.mark.parametrize("mode", ["exact", "reservoir"])
    def test_spe_fit_keeps_float_labels(self, data, mode):
        """``fit(X, y)`` encodes labels like every in-memory ensemble in
        either mode: float labels give float ``classes_``, and non-integral
        ones (which an ``ArraySource`` rejects) are accepted."""
        X, y = data
        ref = SelfPacedEnsembleClassifier(n_estimators=3, mode=mode, random_state=0)
        ref_proba = ref.fit(X, y).predict_proba(X)
        for y_float in (y.astype(float), np.where(y == 1, 1.5, 0.5)):
            clf = SelfPacedEnsembleClassifier(n_estimators=3, mode=mode, random_state=0)
            clf.fit(X, y_float)
            assert clf.classes_.dtype.kind == "f"
            assert clf.classes_.tolist() == np.unique(y_float).tolist()
            assert np.array_equal(ref_proba, clf.predict_proba(X))


class TestStreamingLabelSupport:
    def test_label_value_scan(self, data):
        X, y = data
        y_pm = np.where(y == 1, 1, -1)
        classes, counts, minority_idx = label_value_scan(
            ArraySource(X, y_pm, block_size=64)
        )
        assert classes.tolist() == [-1, 1]
        assert counts.tolist() == [500, 50]
        assert minority_idx == 1

    def test_streaming_exact_bit_identical_under_relabelling(self, data):
        X, y = data
        y_pm = np.where(y == 1, 1, -1)
        ref = SelfPacedEnsembleClassifier(n_estimators=4, random_state=0).fit(X, y)
        clf = SelfPacedEnsembleClassifier(n_estimators=4, random_state=0).fit_source(
            ArraySource(X, y_pm, block_size=128)
        )
        assert clf.classes_.tolist() == [-1, 1]
        assert np.array_equal(ref.predict_proba(X)[:, 1], clf.predict_proba(X)[:, 1])
        assert set(np.unique(clf.predict(X))) <= {-1, 1}

    def test_npy_source_with_pm_labels(self, data, tmp_path):
        X, y = data
        y_pm = np.where(y == 1, 1, -1)
        np.save(tmp_path / "x.npy", X)
        np.save(tmp_path / "y.npy", y_pm)
        source = NPYSource(tmp_path / "x.npy", tmp_path / "y.npy", block_size=128)
        clf = SelfPacedEnsembleClassifier(n_estimators=3, random_state=0).fit_source(
            source
        )
        ref = SelfPacedEnsembleClassifier(n_estimators=3, random_state=0).fit(X, y)
        assert np.array_equal(ref.predict_proba(X)[:, 1], clf.predict_proba(X)[:, 1])

    def test_fit_source_accepts_pm_labels(self, data):
        X, y = data
        y_pm = np.where(y == 1, 1, -1)
        ref = UnderBaggingClassifier(n_estimators=3, random_state=0).fit(X, y)
        clf = UnderBaggingClassifier(n_estimators=3, random_state=0).fit_source(
            ArraySource(X, y_pm, block_size=128)
        )
        assert clf.classes_.tolist() == [-1, 1]
        assert np.array_equal(ref.predict_proba(X)[:, 1], clf.predict_proba(X)[:, 1])

    def test_array_source_still_rejects_multiclass(self, data):
        X, _ = data
        with pytest.raises(DataValidationError):
            ArraySource(X, np.arange(len(X)) % 3)


class TestBinHistoryShape:
    def test_bin_history_entries_are_3_tuples(self, data):
        """record_bins appends (alpha, majority_bins, subset_bins) — the
        documented 3-tuple, pinned here after the annotation fix."""
        from repro.core.binning import HardnessBins

        X, y = data
        spe = SelfPacedEnsembleClassifier(
            n_estimators=4, record_bins=True, random_state=0
        ).fit(X, y)
        assert len(spe.bin_history_) == 3  # n_estimators - 1 iterations
        for entry in spe.bin_history_:
            assert isinstance(entry, tuple) and len(entry) == 3
            alpha, majority_bins, subset_bins = entry
            assert isinstance(alpha, float)
            assert isinstance(majority_bins, HardnessBins)
            assert isinstance(subset_bins, HardnessBins)
