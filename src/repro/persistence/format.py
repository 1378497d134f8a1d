"""Versioned, pickle-free ``.npz`` model artifacts.

An artifact is a single numpy ``.npz`` archive:

* ``__header__`` — a UTF-8 JSON document stored as a ``uint8`` array. It
  carries the format magic, the integer ``schema_version``, a per-array
  SHA-256 checksum table, and the ``root`` node — a recursive description
  of the saved estimator: class name, JSON-encoded hyper-parameters, scalar
  fitted metadata, the attribute → archive-key map for its arrays, and its
  child objects (member models, binners).
* ``a0 .. aN`` — one ``.npy`` member per fitted array (tree node arrays,
  class vectors, binner edges, ...), exactly the bytes of the live model.

Nothing in the file is ever unpickled: :func:`load_model` reads with
``allow_pickle=False``, instantiates classes only from the explicit
registry below, and restores state through each class's
``__setstate_arrays__`` hook. Checksums are verified before any state is
rebuilt, so a truncated or bit-flipped artifact fails with a clear
:class:`~repro.exceptions.PersistenceError` instead of a corrupt model.

``load_model(path, mmap_mode="r")`` attaches the fitted arrays as
**read-only memory-mapped views** instead of heap copies. ``np.savez``
stores members uncompressed, so every ``.npy`` payload sits at a fixed
offset inside the archive: one ``mmap`` of the file backs every array
(``np.frombuffer`` views into it), the OS page cache holds the only copy
of the bytes, and N serving processes that map the same artifact share
one physical copy of the model — the foundation of the multi-process
serving plane (see ``DESIGN.md`` → "The serving plane"). Checksums are
still verified up front (reading *through* the map, which faults the
pages into the shared cache exactly once per machine), and the views are
immutable: writing into a loaded model raises instead of silently
corrupting the page cache.

Round-trip guarantee (gated by ``tests/test_persistence.py``): for every
supported ensemble, ``load_model(save_model(clf, path))`` predicts
**bit-identically** to ``clf`` — the arrays are byte-preserved and every
inference path (chunked or packed forest; any ``n_jobs``) is deterministic in
them.
"""

from __future__ import annotations

import hashlib
import importlib
import itertools
import json
import mmap
import os
import struct
import zipfile
from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..base import BaseEstimator
from ..exceptions import PersistenceError

__all__ = ["SCHEMA_VERSION", "load_model", "save_model"]

#: Format magic written into every artifact header.
MAGIC = "repro-model"

#: Current (and oldest readable) artifact schema version. Bump on any
#: incompatible layout change; readers reject versions they do not know.
SCHEMA_VERSION = 1

#: Non-estimator helper classes that appear inside artifacts (children of
#: fitted models) but have no classifier-registry entry of their own:
#: class name → defining module, imported lazily. Estimator class names are
#: resolved through the classifier registry
#: (:func:`repro.registry.persistable_class_by_name`), so registering a new
#: persistable classifier automatically makes its artifacts loadable.
_AUX: Dict[str, str] = {
    "FeatureBinner": "repro.tree._binning",
    "GradientRegressionTree": "repro.ensemble.gbdt.regression_tree",
}

#: Child classes of older artifacts that carry no prediction state any
#: more. ``SharedBinContext`` held the bin edges shared-binning ensembles
#: were fitted on; their members' thresholds are raw floats, so the model
#: predicts without it. Such children (and their own children) are skipped
#: on load, nothing is imported for them.
_RETIRED = frozenset({"SharedBinContext"})

#: Classes of older artifacts that were folded into another class, which
#: loads them. Streaming SPE became ``SelfPacedEnsembleClassifier``'s
#: ``fit_source`` and ``mode``.
_RENAMED = {"StreamingSelfPacedEnsembleClassifier": "SelfPacedEnsembleClassifier"}

#: Hyper-parameters that older artifacts store and no constructor takes
#: any more; they are dropped on load.
_RETIRED_PARAMS = frozenset(
    {"backend", "chunk_size", "hardness_range", "shared_binning"}
)


def _persistable_names():
    from ..registry import list_classifiers, classifier_spec

    names = {
        classifier_spec(n).cls.__name__
        for n in list_classifiers()
        if classifier_spec(n).persistable
    }
    return sorted(names | set(_AUX))


def _registry_class(name: str):
    name = _RENAMED.get(name, name)
    module_path = _AUX.get(name)
    if module_path is not None:
        return getattr(importlib.import_module(module_path), name)
    from ..registry import persistable_class_by_name

    cls = persistable_class_by_name(name)
    if cls is None:
        raise PersistenceError(
            f"{name} is not a persistable class; supported classes: "
            f"{_persistable_names()}"
        )
    return cls


def _digest(arr: np.ndarray) -> str:
    """SHA-256 over dtype, shape, and raw bytes of an array.

    Hashes through a flat byte view instead of ``tobytes()``: verifying a
    memory-mapped artifact must stream the pages, not duplicate the whole
    array on the heap first.
    """
    h = hashlib.sha256()
    h.update(arr.dtype.str.encode())
    h.update(repr(tuple(arr.shape)).encode())
    h.update(memoryview(np.ascontiguousarray(arr)).cast("B"))
    return h.hexdigest()


# --------------------------------------------------------------------- #
# hyper-parameter encoding
# --------------------------------------------------------------------- #
def _encode_value(name: str, value: Any) -> Any:
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, (list, tuple)):
        return {
            "__seq__": [_encode_value(name, v) for v in value],
            "tuple": isinstance(value, tuple),
        }
    if isinstance(value, BaseEstimator):
        from ..registry import persistable_class_by_name

        cls_name = type(value).__name__
        if persistable_class_by_name(cls_name) is not type(value):
            raise PersistenceError(
                f"hyper-parameter {name!r} holds a {cls_name}, which is not "
                "a persistable estimator class (register it, or pass its "
                "registry name as a string instead of an instance)"
            )
        return {
            "__estimator__": cls_name,
            "params": _encode_params(value.get_params(deep=False)),
        }
    if isinstance(value, (np.random.RandomState, np.random.Generator)):
        # A live RNG cannot round-trip through JSON; inference never uses
        # it, so it is dropped (the loaded model would refit differently).
        return {"__dropped__": "random_state"}
    raise PersistenceError(
        f"hyper-parameter {name}={value!r} is not serialisable — callables "
        "and custom objects cannot be written to a model artifact"
    )


def _decode_value(value: Any) -> Any:
    if isinstance(value, dict):
        if "__seq__" in value:
            seq = [_decode_value(v) for v in value["__seq__"]]
            return tuple(seq) if value.get("tuple") else seq
        if "__estimator__" in value:
            cls = _registry_class(value["__estimator__"])
            return cls(**_decode_params(value["params"]))
        if "__dropped__" in value:
            return None
    return value


def _encode_params(params: Dict[str, Any]) -> Dict[str, Any]:
    return {k: _encode_value(k, v) for k, v in params.items()}


def _decode_params(params: Dict[str, Any]) -> Dict[str, Any]:
    return {
        k: _decode_value(v)
        for k, v in params.items()
        if k not in _RETIRED_PARAMS
    }


# --------------------------------------------------------------------- #
# save
# --------------------------------------------------------------------- #
def _export(root) -> Tuple[Dict, Dict[str, np.ndarray]]:
    arrays: Dict[str, np.ndarray] = {}
    counter = itertools.count()

    def visit(obj) -> Dict:
        cls = type(obj)
        registered = _registry_class(cls.__name__)
        if registered is not cls:
            raise PersistenceError(
                f"cannot save {cls.__name__}: it shadows the registered "
                f"class of the same name"
            )
        hook = getattr(obj, "__getstate_arrays__", None)
        if hook is None:
            raise PersistenceError(
                f"{cls.__name__} does not implement __getstate_arrays__"
            )
        meta, obj_arrays, children = hook()
        node: Dict = {
            "class": cls.__name__,
            "meta": meta,
            "arrays": {},
            "children": {},
        }
        if isinstance(obj, BaseEstimator):
            node["params"] = _encode_params(obj.get_params(deep=False))
        for attr, arr in obj_arrays.items():
            arr = np.asarray(arr)
            if arr.dtype == object:
                raise PersistenceError(
                    f"{cls.__name__}.{attr} is an object array; artifacts "
                    "hold only plain numeric/string dtypes"
                )
            key = f"a{next(counter)}"
            arrays[key] = arr
            node["arrays"][attr] = key
        for child_name, child in children.items():
            if isinstance(child, (list, tuple)):
                node["children"][child_name] = [visit(c) for c in child]
            else:
                node["children"][child_name] = visit(child)
        return node

    return visit(root), arrays


def save_model(model, path) -> str:
    """Write a fitted model to a versioned, pickle-free ``.npz`` artifact.

    Supports every ensemble in the library (SPE, random forest, bagging,
    UnderBagging, EasyEnsemble) plus their member models;
    raises :class:`~repro.exceptions.PersistenceError` for unsupported
    classes or hyper-parameters and
    :class:`~repro.exceptions.NotFittedError` for unfitted models. Returns
    the path written.
    """
    root, arrays = _export(model)
    header = {
        "format": MAGIC,
        "schema_version": SCHEMA_VERSION,
        "checksums": {key: _digest(arr) for key, arr in arrays.items()},
        "root": root,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    payload = dict(arrays)
    payload["__header__"] = np.frombuffer(header_bytes, dtype=np.uint8)
    path = os.fspath(path)
    # savez appends ".npz" to *paths* but writes file objects verbatim.
    with open(path, "wb") as handle:
        np.savez(handle, **payload)
    return path


# --------------------------------------------------------------------- #
# load
# --------------------------------------------------------------------- #
_LOCAL_HEADER = struct.Struct("<4s22xHH")  # signature, name len, extra len


def _member_data_start(handle, zinfo: "zipfile.ZipInfo") -> int:
    """File offset of a stored zip member's payload.

    The central directory records where the member's *local header*
    starts; the payload follows the 30-byte fixed header plus the local
    (not central!) name and extra fields, so the local header must be
    re-read — its extra field routinely differs from the directory's.
    """
    handle.seek(zinfo.header_offset)
    local = handle.read(_LOCAL_HEADER.size)
    signature, name_len, extra_len = (
        _LOCAL_HEADER.unpack(local) if len(local) == _LOCAL_HEADER.size else (b"", 0, 0)
    )
    if signature != b"PK\x03\x04":
        raise PersistenceError(
            f"corrupted artifact — bad local header for member {zinfo.filename!r}"
        )
    return zinfo.header_offset + _LOCAL_HEADER.size + name_len + extra_len


def _mmap_member(mapped: mmap.mmap, handle, zinfo) -> Optional[np.ndarray]:
    """A read-only array view over one stored ``.npy`` member, or ``None``
    when the member cannot be mapped (compressed, Fortran-ordered, or an
    npy header version this reader does not parse) — the caller then falls
    back to an eager read of just that member."""
    if zinfo.compress_type != zipfile.ZIP_STORED:
        return None
    start = _member_data_start(handle, zinfo)
    handle.seek(start)
    try:
        version = np.lib.format.read_magic(handle)
        if version == (1, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_1_0(handle)
        elif version == (2, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_2_0(handle)
        else:
            return None
    except ValueError:
        return None
    if fortran or dtype.hasobject:
        return None
    offset = handle.tell()
    count = int(np.prod(shape, dtype=np.int64)) if shape else 1
    if offset + count * dtype.itemsize > start + zinfo.file_size:
        raise PersistenceError(
            f"corrupted artifact — member {zinfo.filename!r} is truncated"
        )
    # One mmap backs every view; ACCESS_READ makes them immutable, so a
    # stray write into a loaded model raises instead of dirtying the
    # machine-wide shared page cache.
    return np.frombuffer(mapped, dtype=dtype, count=count, offset=offset).reshape(
        shape
    )


def _mmap_arrays(path: str, keys) -> Dict[str, np.ndarray]:
    """Read-only (mostly memory-mapped) arrays for ``keys`` of an artifact."""
    try:
        archive = zipfile.ZipFile(path)
    except (OSError, zipfile.BadZipFile) as exc:
        raise PersistenceError(
            f"{path}: not a readable model artifact ({exc})"
        ) from exc
    with archive:
        handle = archive.fp
        # mmap dups the descriptor, so the mapping (and every array view
        # holding a reference to it) outlives the ZipFile handle.
        mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        members = {zinfo.filename: zinfo for zinfo in archive.infolist()}
        arrays: Dict[str, np.ndarray] = {}
        for key in keys:
            zinfo = members.get(f"{key}.npy")
            if zinfo is None:
                raise PersistenceError(
                    f"{path}: corrupted artifact — array {key!r} is missing"
                )
            arr = _mmap_member(mapped, handle, zinfo)
            if arr is None:  # unmappable member: eager read, still immutable
                with archive.open(zinfo) as member:
                    arr = np.lib.format.read_array(member, allow_pickle=False)
                arr.flags.writeable = False
            arrays[key] = arr
    return arrays


def _restore(node: Dict, data) -> Any:
    cls = _registry_class(node["class"])
    arrays = {}
    for attr, key in node["arrays"].items():
        if key not in data:  # referenced but absent from the checksum table
            raise PersistenceError(
                f"corrupted artifact — header references unverified array "
                f"{key!r} ({node['class']}.{attr})"
            )
        arrays[attr] = data[key]
    children: Dict = {}
    for child_name, child in node["children"].items():
        if isinstance(child, dict) and child.get("class") in _RETIRED:
            continue
        if isinstance(child, list):
            children[child_name] = [_restore(c, data) for c in child]
        else:
            children[child_name] = _restore(child, data)
    if "params" in node:
        obj = cls(**_decode_params(node["params"]))
        obj.__setstate_arrays__(node["meta"], arrays, children)
        return obj
    return cls.__from_state_arrays__(node["meta"], arrays, children)


def load_model(path, *, mmap_mode: Optional[str] = None):
    """Load a model artifact written by :func:`save_model`.

    Verifies the format magic, the schema version (artifacts from a newer
    schema are rejected with a clear error rather than misread), and the
    SHA-256 checksum of every array *before* any state is reconstructed.
    The returned estimator predicts bit-identically to the one saved.

    Parameters
    ----------
    mmap_mode : {None, "r"}, default None
        ``None`` loads every array onto the heap (private copies, the
        historical behaviour). ``"r"`` attaches the fitted arrays as
        *read-only memory-mapped views* into the artifact file: the page
        cache holds the single physical copy of the model, any number of
        processes mapping the same artifact share it, and the views refuse
        writes. Every error contract (magic / schema / checksum /
        truncation) is identical in both modes, and so is every predicted
        bit.
    """
    if mmap_mode not in (None, "r"):
        raise ValueError(
            f"mmap_mode must be None or 'r', got {mmap_mode!r} — model "
            "artifacts are immutable; writable maps are not supported"
        )
    path = os.fspath(path)
    try:
        data = np.load(path, allow_pickle=False)
    except (OSError, ValueError, zipfile.BadZipFile) as exc:
        raise PersistenceError(f"{path}: not a readable model artifact ({exc})") from exc
    try:
        return _verify_and_restore(path, data, mmap_mode)
    except PersistenceError:
        raise
    except (zipfile.BadZipFile, OSError, ValueError) as exc:
        # np.load is lazy: zip-level damage (a corrupted member header,
        # a truncated stream) can surface only when an array is first
        # materialised. Corruption is corruption — keep the error typed.
        raise PersistenceError(f"{path}: corrupted artifact ({exc})") from exc


def _verify_and_restore(path: str, data, mmap_mode: Optional[str]):
    with data:
        if "__header__" not in data:
            raise PersistenceError(f"{path}: missing artifact header")
        try:
            header = json.loads(bytes(bytearray(data["__header__"])).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise PersistenceError(f"{path}: corrupted artifact header") from exc
        if header.get("format") != MAGIC:
            raise PersistenceError(f"{path}: not a {MAGIC} artifact")
        version = header.get("schema_version")
        if not isinstance(version, int) or not 1 <= version <= SCHEMA_VERSION:
            raise PersistenceError(
                f"{path}: unsupported schema version {version!r}; this build "
                f"reads versions 1..{SCHEMA_VERSION}"
            )
        checksums = header.get("checksums", {})
        if mmap_mode is None:
            loaded = {}
            for key in checksums:
                if key not in data:
                    raise PersistenceError(
                        f"{path}: corrupted artifact — array {key!r} is missing"
                    )
                loaded[key] = data[key]
        else:
            loaded = _mmap_arrays(path, checksums)
    for key, digest in checksums.items():
        if _digest(loaded[key]) != digest:
            raise PersistenceError(
                f"{path}: corrupted artifact — checksum mismatch on "
                f"array {key!r}"
            )
    if "root" not in header:
        raise PersistenceError(f"{path}: artifact header has no root node")
    return _restore(header["root"], loaded)
