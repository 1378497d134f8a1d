"""Versioned model persistence: bit-identical round trips, hard rejection.

The acceptance criteria of the persistence issue:

* ``load_model(save_model(clf))`` predicts **bit-identically** to ``clf``
  for every ensemble class, on the packed and the per-tree path and for
  every ``n_jobs``;
* corrupted artifacts and unknown schema versions are rejected with clear
  :class:`~repro.exceptions.PersistenceError`\\ s, never silently misread;
* label-decoded models ({-1, 1}, strings) round-trip including their
  ``classes_`` alphabet and minority mapping.
"""

import io
import json
import pathlib
import zipfile

import numpy as np
import pytest

from repro.core import SelfPacedEnsembleClassifier
from repro.datasets import make_checkerboard
from repro.ensemble.bagging import BaggingClassifier
from repro.ensemble.forest import RandomForestClassifier
from repro.exceptions import NotFittedError, PersistenceError
from repro.imbalance_ensemble import EasyEnsembleClassifier, UnderBaggingClassifier
from repro.persistence import SCHEMA_VERSION, load_model, save_model
from repro.persistence.format import MAGIC
from repro.tree import DecisionTreeClassifier

from per_tree import per_tree_reference


@pytest.fixture(scope="module")
def data():
    X, y = make_checkerboard(n_minority=50, n_majority=500, random_state=0)
    X_test, _ = make_checkerboard(n_minority=50, n_majority=500, random_state=99)
    return X, y, X_test


def _builders():
    return {
        "spe": lambda: SelfPacedEnsembleClassifier(n_estimators=4, random_state=0),
        "streaming_spe": lambda: SelfPacedEnsembleClassifier(
            n_estimators=4, random_state=0
        ),
        "forest": lambda: RandomForestClassifier(n_estimators=4, random_state=0),
        "bagging": lambda: BaggingClassifier(n_estimators=4, random_state=0),
        "under_bagging": lambda: UnderBaggingClassifier(n_estimators=4, random_state=0),
        "easy_ensemble": lambda: EasyEnsembleClassifier(
            n_estimators=3, n_boost_rounds=3, random_state=0
        ),
    }


class TestRoundTripBitIdentity:
    @pytest.mark.parametrize("name", sorted(_builders()))
    @pytest.mark.parametrize("fastpath", [True, False], ids=["fastpath", "legacy"])
    def test_predict_proba_bit_identical(self, data, tmp_path, name, fastpath):
        X, y, X_test = data
        clf = _builders()[name]().fit(X, y)
        loaded = load_model(save_model(clf, tmp_path / f"{name}.npz"))
        if fastpath:
            ref, got = clf.predict_proba(X_test), loaded.predict_proba(X_test)
        else:
            with per_tree_reference():
                ref, got = clf.predict_proba(X_test), loaded.predict_proba(X_test)
        assert np.array_equal(ref, got)
        assert np.array_equal(clf.predict(X_test), loaded.predict(X_test))
        assert np.array_equal(clf.classes_, loaded.classes_)

    @pytest.mark.parametrize("backend", ["thread"])
    def test_backends_score_loaded_model_identically(
        self, data, tmp_path, backend, monkeypatch
    ):
        """The loaded estimators score on the thread pool's chunked path
        exactly like the original."""
        from repro.parallel import inference

        X, y, X_test = data
        clf = SelfPacedEnsembleClassifier(n_estimators=4, random_state=0).fit(X, y)
        loaded = load_model(save_model(clf, tmp_path / "m.npz"))
        loaded.n_jobs = 2
        monkeypatch.setattr(inference, "DEFAULT_CHUNK_SIZE", 64)
        with per_tree_reference():  # force the chunked path
            ref = clf.predict_proba(X_test)
            got = loaded.predict_proba(X_test)
        assert np.array_equal(ref, got)

    def test_shared_binning_context_round_trips(self, tmp_path):
        """An artifact written while shared binning existed still loads.

        Its root holds a ``SharedBinContext`` child (with a ``binner``)
        that the loader skips, and a ``shared_binning`` parameter it drops;
        the members' raw-float thresholds carry the whole model. Loaded on
        the heap and mmap'd, and served through ``ModelServer``, it must
        reproduce the probabilities recorded when it was written, bit for
        bit. The two files in ``tests/data`` were
        written at commit ``9021e82`` with::

            import numpy as np
            from repro.core import SelfPacedEnsembleClassifier
            from repro.datasets import make_checkerboard
            from repro.persistence import save_model

            X, y = make_checkerboard(60, 600, random_state=0)
            clf = SelfPacedEnsembleClassifier(
                n_estimators=3, shared_binning=True, random_state=0
            ).fit(X, y)
            save_model(clf, "spe_shared_binning_pr17.npz")
            np.save("spe_shared_binning_pr17_proba.npy", clf.predict_proba(X))
        """
        import warnings

        from repro.serving import ModelServer

        data_dir = pathlib.Path(__file__).parent / "data"
        path = data_dir / "spe_shared_binning_pr17.npz"
        recorded = np.load(data_dir / "spe_shared_binning_pr17_proba.npy")
        header = json.loads(bytes(np.load(path)["__header__"]).decode())
        assert "shared_bin_context" in header["root"]["children"]
        X, _ = make_checkerboard(60, 600, random_state=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            heap = load_model(path)
            mapped = load_model(path, mmap_mode="r")
        for model in (heap, mapped):
            for retired in ("shared_binning", "backend", "chunk_size"):
                assert retired not in model.get_params()
            assert len(model.estimators_) == 3
            assert model.predict_proba(X).tobytes() == recorded.tobytes()
        for mmap in (False, True):
            with ModelServer(path, mmap=mmap) as server:
                assert server.packed_
                assert server.predict_proba(X).tobytes() == recorded.tobytes()

    def test_streaming_spe_artifact_loads_as_spe(self):
        """An artifact of the retired ``StreamingSelfPacedEnsembleClassifier``
        still loads, as a ``SelfPacedEnsembleClassifier``.

        It keeps ``mode="reservoir"``, drops the retired ``hardness_range``
        parameter, and, loaded on the heap and mmap'd, reproduces the
        probabilities recorded when it was written, bit for bit. The two
        files in ``tests/data`` were written at commit ``e87c7f3`` with::

            import numpy as np
            from repro.datasets import make_checkerboard
            from repro.persistence import save_model
            from repro.streaming import StreamingSelfPacedEnsembleClassifier

            X, y = make_checkerboard(60, 600, random_state=0)
            clf = StreamingSelfPacedEnsembleClassifier(
                n_estimators=3, mode="reservoir", random_state=0
            ).fit(X, y)
            save_model(clf, "streaming_spe_e87c7f3.npz")
            np.save("streaming_spe_e87c7f3_proba.npy", clf.predict_proba(X))
        """
        import warnings

        data_dir = pathlib.Path(__file__).parent / "data"
        path = data_dir / "streaming_spe_e87c7f3.npz"
        recorded = np.load(data_dir / "streaming_spe_e87c7f3_proba.npy")
        header = json.loads(bytes(np.load(path)["__header__"]).decode())
        assert header["root"]["class"] == "StreamingSelfPacedEnsembleClassifier"
        X, _ = make_checkerboard(60, 600, random_state=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            heap = load_model(path)
            mapped = load_model(path, mmap_mode="r")
        for model in (heap, mapped):
            assert type(model) is SelfPacedEnsembleClassifier
            assert model.mode == "reservoir"
            assert "hardness_range" not in model.get_params()
            assert len(model.estimators_) == 3
            assert model.predict_proba(X).tobytes() == recorded.tobytes()

    def test_fit_diagnostics_not_persisted(self, data, tmp_path):
        X, y, _ = data
        clf = SelfPacedEnsembleClassifier(
            n_estimators=3, record_bins=True, random_state=0
        ).fit(X, y)
        loaded = load_model(save_model(clf, tmp_path / "m.npz"))
        assert not hasattr(loaded, "bin_history_")
        assert loaded.n_training_samples_ == clf.n_training_samples_

    def test_single_member_tree_round_trips(self, data, tmp_path):
        X, y, X_test = data
        tree = DecisionTreeClassifier(max_depth=5, random_state=0).fit(X, y)
        loaded = load_model(save_model(tree, tmp_path / "tree.npz"))
        assert np.array_equal(tree.predict_proba(X_test), loaded.predict_proba(X_test))


class TestLabelRoundTrips:
    def test_minus_one_plus_one_labels(self, data, tmp_path):
        X, y, X_test = data
        y_pm = np.where(y == 1, 1, -1)
        clf = SelfPacedEnsembleClassifier(n_estimators=4, random_state=0).fit(X, y_pm)
        loaded = load_model(save_model(clf, tmp_path / "m.npz"))
        assert loaded.classes_.tolist() == [-1, 1]
        assert loaded.minority_class_ == 1 and loaded.majority_class_ == -1
        assert np.array_equal(clf.predict_proba(X_test), loaded.predict_proba(X_test))
        assert set(np.unique(loaded.predict(X_test))) <= {-1, 1}

    def test_string_labels(self, data, tmp_path):
        X, y, X_test = data
        y_str = np.where(y == 1, "fraud", "ok")
        clf = SelfPacedEnsembleClassifier(n_estimators=4, random_state=0).fit(X, y_str)
        loaded = load_model(save_model(clf, tmp_path / "m.npz"))
        assert loaded.classes_.tolist() == ["fraud", "ok"]
        assert loaded.minority_class_ == "fraud"
        pred = loaded.predict(X_test)
        assert set(np.unique(pred)) <= {"fraud", "ok"}
        assert np.array_equal(clf.predict(X_test), pred)
        assert np.array_equal(clf.predict_proba(X_test), loaded.predict_proba(X_test))


def _rewrite_artifact(path: pathlib.Path, mutate_header=None, mutate_arrays=None):
    """Re-write an artifact with the header and/or arrays mutated."""
    with np.load(path, allow_pickle=False) as data:
        payload = {k: data[k] for k in data.files}
    header = json.loads(bytes(bytearray(payload.pop("__header__"))).decode())
    if mutate_header is not None:
        mutate_header(header)
    if mutate_arrays is not None:
        mutate_arrays(payload)
    payload["__header__"] = np.frombuffer(
        json.dumps(header).encode("utf-8"), dtype=np.uint8
    )
    buffer = io.BytesIO()
    np.savez(buffer, **payload)
    path.write_bytes(buffer.getvalue())


class TestArtifactRejection:
    @pytest.fixture
    def artifact(self, data, tmp_path):
        X, y, _ = data
        clf = SelfPacedEnsembleClassifier(n_estimators=3, random_state=0).fit(X, y)
        path = tmp_path / "m.npz"
        save_model(clf, path)
        return path

    def test_newer_schema_rejected(self, artifact):
        _rewrite_artifact(
            artifact, mutate_header=lambda h: h.update(schema_version=SCHEMA_VERSION + 1)
        )
        with pytest.raises(PersistenceError, match="schema version"):
            load_model(artifact)

    def test_zero_schema_rejected(self, artifact):
        _rewrite_artifact(artifact, mutate_header=lambda h: h.update(schema_version=0))
        with pytest.raises(PersistenceError, match="schema version"):
            load_model(artifact)

    def test_wrong_magic_rejected(self, artifact):
        _rewrite_artifact(artifact, mutate_header=lambda h: h.update(format="other"))
        with pytest.raises(PersistenceError, match=MAGIC):
            load_model(artifact)

    def test_bit_flip_rejected_by_checksum(self, artifact):
        def corrupt(payload):
            key = sorted(k for k in payload if k.startswith("a"))[0]
            arr = payload[key].copy().reshape(-1)
            arr[0] = arr[0] + 1 if arr.dtype.kind in "iu" else arr[0] + 0.5
            payload[key] = arr.reshape(payload[key].shape)

        _rewrite_artifact(artifact, mutate_arrays=corrupt)
        with pytest.raises(PersistenceError, match="checksum"):
            load_model(artifact)

    def test_missing_array_rejected(self, artifact):
        def drop(payload):
            del payload[sorted(k for k in payload if k.startswith("a"))[0]]

        _rewrite_artifact(artifact, mutate_arrays=drop)
        with pytest.raises(PersistenceError, match="missing"):
            load_model(artifact)

    def test_unverified_array_reference_rejected(self, artifact):
        """A header whose root references a key absent from the checksum
        table must raise PersistenceError, not a raw KeyError."""

        def drop_checksum(header):
            key = sorted(header["checksums"])[0]
            del header["checksums"][key]

        _rewrite_artifact(artifact, mutate_header=drop_checksum)
        with pytest.raises(PersistenceError, match="unverified"):
            load_model(artifact)

    def test_headerless_root_rejected(self, artifact):
        _rewrite_artifact(artifact, mutate_header=lambda h: h.pop("root"))
        with pytest.raises(PersistenceError, match="root"):
            load_model(artifact)

    def test_not_an_artifact_rejected(self, tmp_path):
        junk = tmp_path / "junk.npz"
        junk.write_bytes(b"definitely not a zip file")
        with pytest.raises(PersistenceError):
            load_model(junk)
        plain = tmp_path / "plain.npz"
        np.savez(open(plain, "wb"), a=np.arange(3))
        with pytest.raises(PersistenceError, match="header"):
            load_model(plain)

    def test_artifact_contains_no_pickles(self, artifact):
        """Every archive member must be a plain .npy payload readable with
        allow_pickle=False (the loader never unpickles)."""
        with zipfile.ZipFile(artifact) as zf:
            names = zf.namelist()
        assert names
        with np.load(artifact, allow_pickle=False) as data:
            for name in data.files:
                data[name]  # raises if any member needed pickle

    def test_unfitted_model_rejected(self):
        with pytest.raises(NotFittedError):
            save_model(SelfPacedEnsembleClassifier(), "/tmp/never-written.npz")

    def test_callable_hyper_parameter_rejected(self, data, tmp_path):
        X, y, _ = data
        clf = SelfPacedEnsembleClassifier(
            n_estimators=3, hardness=lambda y, p: np.abs(y - p), random_state=0
        ).fit(X, y)
        with pytest.raises(PersistenceError, match="not serialisable"):
            save_model(clf, tmp_path / "m.npz")


class TestParamRoundTrip:
    def test_nested_estimator_params_survive(self, data, tmp_path):
        X, y, _ = data
        clf = UnderBaggingClassifier(
            estimator=DecisionTreeClassifier(max_depth=3, max_bins=16),
            n_estimators=3,
            random_state=0,
        ).fit(X, y)
        loaded = load_model(save_model(clf, tmp_path / "m.npz"))
        assert isinstance(loaded.estimator, DecisionTreeClassifier)
        assert loaded.estimator.max_depth == 3
        assert loaded.estimator.max_bins == 16
        assert loaded.n_estimators == 3

    def test_random_state_dropped_not_fatal(self, data, tmp_path):
        X, y, _ = data
        rng = np.random.RandomState(0)
        clf = BaggingClassifier(n_estimators=3, random_state=rng).fit(X, y)
        loaded = load_model(save_model(clf, tmp_path / "m.npz"))
        assert loaded.random_state is None  # live RNG cannot round-trip
