"""Memory-mapped artifact loading (the zero-copy half of the serving
plane): ``load_model(path, mmap_mode="r")`` must be observationally
identical to the eager load — bit-identical ``predict_proba`` for every
persistable registered classifier, the same corrupted-artifact error
contract — while keeping the fitted arrays as *read-only views into the
file* that serving never writes.
"""

import numpy as np
import pytest

from repro.exceptions import PersistenceError
from repro.persistence import load_model, save_model
from repro.registry import (
    classifier_spec,
    get_classifier,
    list_classifiers,
    make_classifier,
    toy_imbalanced_split,
)

PERSISTABLE = [n for n in list_classifiers() if classifier_spec(n).persistable]

#: BLAS-backed decision functions reproduce within 1 ULP, not bit-exactly.
ULP_TOLERANT = {"svm"}


@pytest.fixture(scope="module")
def toy():
    return toy_imbalanced_split()


def fitted(name, toy):
    X, y = toy
    clf = make_classifier(name, **classifier_spec(name).smoke_params)
    if hasattr(clf, "random_state"):
        clf.random_state = 0
    return clf.fit(X, y)


def walk_arrays(obj, seen=None):
    """Yield every ndarray reachable through the estimator's state."""
    if seen is None:
        seen = set()
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
        return
    if isinstance(obj, (list, tuple)):
        for item in obj:
            yield from walk_arrays(item, seen)
        return
    if isinstance(obj, dict):
        for item in obj.values():
            yield from walk_arrays(item, seen)
        return
    state = getattr(obj, "__dict__", None)
    if state is not None:
        yield from walk_arrays(state, seen)


class TestMmapMatrix:
    @pytest.mark.parametrize("name", PERSISTABLE)
    def test_mmap_load_bit_identical_to_eager(self, name, toy, tmp_path):
        X, _ = toy
        clf = fitted(name, toy)
        path = tmp_path / f"{name}.npz"
        save_model(clf, path)
        eager = load_model(path).predict_proba(X)
        mapped = load_model(path, mmap_mode="r").predict_proba(X)
        if name in ULP_TOLERANT:
            np.testing.assert_allclose(mapped, eager, rtol=0, atol=1e-12)
        else:
            assert np.array_equal(mapped, eager)

    @pytest.mark.parametrize("name", PERSISTABLE)
    def test_mmap_views_are_read_only(self, name, toy, tmp_path):
        """Every array restored from a mapped artifact refuses writes —
        serving can never silently corrupt the shared page-cache copy."""
        clf = fitted(name, toy)
        path = tmp_path / f"{name}.npz"
        save_model(clf, path)
        loaded = load_model(path, mmap_mode="r")
        arrays = list(walk_arrays(loaded))
        assert arrays, "expected fitted arrays on the restored model"
        checked = 0
        for arr in arrays:
            base = arr.base if arr.base is not None else arr
            if isinstance(base, np.ndarray) and not base.flags.writeable:
                with pytest.raises((ValueError, RuntimeError)):
                    arr[(0,) * arr.ndim] = 0
                checked += 1
        assert checked, "no read-only mapped arrays found on the model"

    def test_serving_from_mmap_never_writes_views(self, toy, tmp_path):
        """A full predict_proba pass over a mapped SPE artifact (packed
        kernel) leaves the file bytes untouched."""
        X, _ = toy
        clf = get_classifier("spe", preset="fast", random_state=0).fit(*toy)
        path = tmp_path / "spe.npz"
        save_model(clf, path)
        before = path.read_bytes()
        loaded = load_model(path, mmap_mode="r")
        loaded.predict_proba(X)
        assert path.read_bytes() == before


class TestMmapContracts:
    def test_invalid_mmap_mode_rejected(self, toy, tmp_path):
        clf = fitted("tree", toy)
        path = tmp_path / "m.npz"
        save_model(clf, path)
        with pytest.raises(ValueError, match="mmap_mode"):
            load_model(path, mmap_mode="r+")

    def test_missing_file_error_identical(self, tmp_path):
        with pytest.raises(PersistenceError):
            load_model(tmp_path / "nope.npz", mmap_mode="r")

    def test_corrupted_payload_detected(self, toy, tmp_path):
        """Flipping bytes inside a stored array must still fail checksum
        verification on the mapped path."""
        clf = fitted("tree", toy)
        path = tmp_path / "m.npz"
        save_model(clf, path)
        raw = bytearray(path.read_bytes())
        # corrupt a run of bytes well inside the file body (past the
        # first member's zip + npy headers)
        mid = len(raw) // 2
        for i in range(mid, mid + 8):
            raw[i] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(PersistenceError):
            load_model(path, mmap_mode="r")

    def test_truncated_artifact_detected(self, toy, tmp_path):
        clf = fitted("tree", toy)
        path = tmp_path / "m.npz"
        save_model(clf, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(PersistenceError):
            load_model(path, mmap_mode="r")
