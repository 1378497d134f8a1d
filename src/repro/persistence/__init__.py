"""Versioned model persistence: pickle-free ``.npz`` artifacts.

:func:`save_model` / :func:`load_model` round-trip every fitted ensemble in
the library — SelfPacedEnsemble, RandomForest, Bagging, UnderBagging,
EasyEnsemble, and the streaming SPE — **bit-identically** on
``predict_proba``, for every ``n_jobs``, on the packed and the
per-tree path. Artifacts carry a schema-version header and per-array SHA-256
checksums; corrupted or newer-schema files are rejected with a clear
:class:`~repro.exceptions.PersistenceError`.

See ``DESIGN.md`` → "Model persistence" for the array layout, and
:mod:`repro.serving` for loading an artifact straight into a warm serving
kernel.
"""

from .format import SCHEMA_VERSION, load_model, save_model

__all__ = ["SCHEMA_VERSION", "load_model", "save_model"]
