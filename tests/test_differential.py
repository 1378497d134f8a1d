"""Differential guard: every way of serving a fitted ensemble agrees bit for
bit with the legacy per-tree reference.

Hypothesis draws a table and an ensemble config:

* a majority of 20–400 rows, imbalance ratio 1–40, 1–6 features, some
  duplicated rows (one also across the two classes) and some constant
  columns, labelled with ints, shuffled ints (the minority sorts first) or
  strings;
* one of ``spe``, ``forest``, ``bagging``, ``under_bagging`` or
  ``easy_ensemble`` with 1–4 members and a seed.

The reference fits and predicts inside ``per_tree_reference()`` (the
per-tree loops end to end). The default-path model in memory, its artifact
loaded on the heap and mmap'd, and a :class:`ModelServer` on the artifact
must each return ``predict_proba`` bit-equal to it. One fixed example also
goes through a 2-worker :class:`WorkerPool`.

Every table is cut from seeded, session-scoped source rows built through
``check_random_state``, so no test touches numpy's global RNG.
"""

import os
import tempfile
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.persistence import load_model, save_model
from repro.registry import get_classifier
from repro.serving import ModelServer, WorkerPool
from repro.utils.validation import check_random_state

from per_tree import per_tree_reference

MAX_MAJORITY = 400
MAX_FEATURES = 6
ENSEMBLES = ("spe", "forest", "bagging", "under_bagging", "easy_ensemble")
#: (majority label, minority label) per alphabet.
ALPHABETS = {
    "ints": (0, 1),
    "shuffled_ints": (7, -3),
    "strings": ("legit", "fraud"),
}


@pytest.fixture(scope="session")
def source_rows():
    """Seeded majority and minority rows every drawn table is cut from."""
    rng = check_random_state(3)
    majority = rng.randn(MAX_MAJORITY, MAX_FEATURES)
    minority = rng.randn(MAX_MAJORITY, MAX_FEATURES) * 0.7 + 1.5
    return majority, minority


@dataclass(frozen=True)
class TableSpec:
    n_majority: int
    imbalance_ratio: int
    n_features: int
    n_duplicates: int
    constant_columns: tuple
    alphabet: str
    seed: int


@st.composite
def table_specs(draw):
    n_features = draw(st.integers(1, MAX_FEATURES))
    return TableSpec(
        n_majority=draw(st.integers(20, MAX_MAJORITY)),
        imbalance_ratio=draw(st.integers(1, 40)),
        n_features=n_features,
        n_duplicates=draw(st.integers(0, 10)),
        constant_columns=tuple(draw(st.sets(
            st.integers(0, n_features - 1), max_size=n_features
        ))),
        alphabet=draw(st.sampled_from(sorted(ALPHABETS))),
        seed=draw(st.integers(0, 2**16)),
    )


def make_table(source_rows, spec: TableSpec):
    """``(X, y)`` for ``spec``: cut, duplicate, flatten, shuffle, label."""
    majority, minority = source_rows
    n_min = max(2, spec.n_majority // spec.imbalance_ratio)
    X_maj = majority[: spec.n_majority, : spec.n_features].copy()
    X_min = minority[:n_min, : spec.n_features].copy()
    n_dup = min(spec.n_duplicates, spec.n_majority // 2)
    if n_dup:
        X_maj[-n_dup:] = X_maj[:n_dup]
        X_min[-1] = X_maj[0]  # the same row under both labels
    X = np.vstack([X_maj, X_min])
    for j in spec.constant_columns:
        X[:, j] = 0.5
    maj_label, min_label = ALPHABETS[spec.alphabet]
    y = np.array([maj_label] * spec.n_majority + [min_label] * n_min)
    order = check_random_state(spec.seed).permutation(len(y))
    return X[order], y[order]


def _build(name: str, n_estimators: int, seed: int):
    return get_classifier(name, n_estimators=n_estimators, random_state=seed)


def _reference(name, n_estimators, seed, X, y) -> bytes:
    with per_tree_reference():
        return _build(name, n_estimators, seed).fit(X, y).predict_proba(X).tobytes()


@settings(max_examples=100, deadline=None)
@given(
    spec=table_specs(),
    name=st.sampled_from(ENSEMBLES),
    n_estimators=st.integers(1, 4),
    seed=st.integers(0, 2**16),
)
def test_every_path_matches_legacy_reference(
    source_rows, spec, name, n_estimators, seed
):
    X, y = make_table(source_rows, spec)
    expected = _reference(name, n_estimators, seed, X, y)
    model = _build(name, n_estimators, seed).fit(X, y)
    assert model.predict_proba(X).tobytes() == expected
    with tempfile.TemporaryDirectory() as tmp:
        path = save_model(model, os.path.join(tmp, "model.npz"))
        assert load_model(path).predict_proba(X).tobytes() == expected
        mapped = load_model(path, mmap_mode="r")
        assert mapped.predict_proba(X).tobytes() == expected
        with ModelServer(path, mmap=True) as server:
            assert server.predict_proba(X).tobytes() == expected


def test_fixed_example_through_worker_pool(source_rows, tmp_path):
    spec = TableSpec(
        n_majority=300, imbalance_ratio=20, n_features=4, n_duplicates=5,
        constant_columns=(2,), alphabet="strings", seed=11,
    )
    X, y = make_table(source_rows, spec)
    expected = _reference("spe", 4, 0, X, y)
    path = save_model(_build("spe", 4, 0).fit(X, y), tmp_path / "spe.npz")
    with WorkerPool(path, n_workers=2) as pool:
        assert pool.predict_proba(X).tobytes() == expected
        # a second request lands on the other worker
        assert pool.predict_proba(X).tobytes() == expected
