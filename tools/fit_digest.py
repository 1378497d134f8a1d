#!/usr/bin/env python
"""Print one SHA-256 over every fitted tree of a model.

Fits a registered model (``--estimator``, a classifier-registry name,
default ``spe``; 10 members where the model takes ``n_estimators``) on a
credit-fraud table and hashes the flat node arrays of its trees in member
order: each member's ``tree_``, recursing into the members of a member
(EasyEnsemble's AdaBoost bags), a single tree's own ``tree_`` (``tree``,
``c45``), and GBDT's ``trees_`` of gradient regression trees. The boosters
(``adaboost``, ``rus_boost``, ``smote_boost``) hash their tree members
like any ensemble; ``--predict`` adds their alpha-weighted vote. A model
without trees (``knn``, ``logistic``) hashes nothing but its
``--predict`` output, so digest it with ``--predict``. Two
checkouts that print the same digest grew byte-identical trees, so a
change to the fit path can show it kept every model by running this once
per checkout:

    PYTHONPATH=src python tools/fit_digest.py --rows 20000 --ir 20 --seed 3
    PYTHONPATH=src python tools/fit_digest.py --estimator forest --seed 3
    PYTHONPATH=src python tools/fit_digest.py --estimator rus_boost --seed 3 --predict
    PYTHONPATH=src python tools/fit_digest.py --mode reservoir
    PYTHONPATH=../parent/src python tools/fit_digest.py --seed 3  # another checkout

``--seed`` seeds the table, and the model where it takes a
``random_state``. ``--mode`` is passed to a model that takes a ``mode``
(SPE's ``exact`` or ``reservoir`` trainer; the registry name
``streaming_spe`` builds the same SPE) and ignored by the others. A
model that needs a component to fit takes it from the registry's
``smoke_params`` (``resample_ensemble``'s ``sampler``, a
``RandomUnderSampler``); it is not persistable, so digest it without
``--persist``. ``--predict`` also hashes
the bytes of the fitted model's ``predict_proba`` on its own table, so
equal digests then mean equal predictions as well as trees. ``--persist``
saves the fitted model with :func:`repro.persistence.save_model`, loads it
back memory-mapped, and also hashes the saved state tree (each
``__getstate_arrays__`` meta, arrays and children, recursively) and the
bytes of the loaded model's ``predict_proba`` on the table, so equal
digests then mean equal artifacts and equal served predictions too.

Tier-1 holds one such line for each of 12 models
(``tests/test_golden_digests.py``): each is fitted on a committed table,
``tests/data/golden_table.npz``, and hashed with its predictions and its
persisted reload. A change that means to change a model rewrites the
lines with

    PYTHONPATH=src python tools/fit_digest.py --write-golden

and says in CHANGES.md which lines changed and why.

A digest is a same-host check: compare parent and change on one machine
at one numpy CPU-dispatch level. numpy picks SIMD kernels per CPU, and
``make_credit_fraud``'s Amount column goes through ``log1p``, whose last
bit differs between dispatch levels (setting ``NPY_DISABLE_CPU_FEATURES``
is enough to change it), so the table, and with it every digest, is only
reproducible within one dispatch level. GBDT, logistic regression and
MLP fits depend on the level even on one saved table (their digests
differed between the default level and ``NPY_DISABLE_CPU_FEATURES``
leaving X86_V3 on a 4,000-row table loaded from disk); the other 13
model configurations measured (SPE in both modes, KNN, and every
ensemble of decision trees) did not. EasyEnsemble did on the 2,000-row
golden table: a SAMME round reweights by ``np.exp(alpha)``, whose last
bit follows the dispatch level for some ``alpha``, so every booster
depends on the level for some tables. The BLAS thread count is part of
the same condition: members that go through BLAS can change the last
digits of their probabilities with ``OPENBLAS_NUM_THREADS`` (logistic
regression does), so compare checkouts under one setting.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from typing import Optional

import numpy as np

_DATA = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "tests", "data")
#: The saved table of the golden digests (2,000 credit-fraud rows x 30 at
#: IR 20) and their committed lines, one per model.
GOLDEN_TABLE = os.path.join(_DATA, "golden_table.npz")
GOLDEN_DIGESTS = os.path.join(_DATA, "golden_digests.txt")
GOLDEN_SEED = 0
#: ``(estimator, mode)`` of every golden model: the configurations whose
#: digests on the golden table were equal at every dispatch level of the
#: host that wrote them. GBDT, logistic regression, MLP and EasyEnsemble
#: were not (see above), so they have no line.
GOLDEN_MODELS = (
    ("spe", None), ("streaming_spe", None), ("streaming_spe", "reservoir"),
    ("forest", None), ("adaboost", None), ("rus_boost", None),
    ("smote_boost", None), ("bagging", None), ("under_bagging", None),
    ("smote_bagging", None), ("balance_cascade", None), ("knn", None),
)

#: The node arrays of :class:`repro.tree._tree.Tree`, hashed in this order.
TREE_ARRAYS = ("feature", "threshold", "children_left", "children_right",
               "value", "n_node_samples", "impurity")
#: The node arrays of a GBDT ``GradientRegressionTree``, hashed in this order.
GRADIENT_TREE_ARRAYS = ("feature_", "threshold_", "left_", "right_", "value_")


def _update(digest, name: str, array) -> None:
    digest.update(name.encode())
    digest.update(str(array.dtype).encode())
    digest.update(repr(array.shape).encode())
    digest.update(array.tobytes())


def _trees(model):
    """``(tree, array names)`` for every fitted tree of ``model``, in
    member order."""
    if hasattr(model, "tree_"):
        yield model.tree_, TREE_ARRAYS
    elif hasattr(model, "trees_"):
        for tree in model.trees_:
            yield tree, GRADIENT_TREE_ARRAYS
    else:
        # a model without trees (KNN, logistic regression) yields none
        for member in getattr(model, "estimators_", ()):
            yield from _trees(member)


def _update_state(digest, obj) -> None:
    """Fold the state tree ``save_model`` writes for ``obj`` into
    ``digest``: its class, meta, arrays and children, recursively."""
    meta, arrays, children = obj.__getstate_arrays__()
    digest.update(type(obj).__name__.encode())
    digest.update(json.dumps(meta, sort_keys=True).encode())
    for name in sorted(arrays):
        _update(digest, name, np.asarray(arrays[name]))
    for name in sorted(children):
        digest.update(name.encode())
        child = children[name]
        for member in child if isinstance(child, (list, tuple)) else [child]:
            _update_state(digest, member)


def model_digest(model, X=None, persist_X=None) -> str:
    """SHA-256 over every fitted tree of ``model``, then over the bytes
    of ``model.predict_proba(X)`` when ``X`` is given. With ``persist_X``,
    then over the model's saved state tree and the bytes of the
    memory-mapped reloaded model's ``predict_proba(persist_X)``."""
    digest = hashlib.sha256()
    for tree, names in _trees(model):
        for name in names:
            _update(digest, name, getattr(tree, name))
    if X is not None:
        _update(digest, "predict_proba", model.predict_proba(X))
    if persist_X is not None:
        from repro.persistence import load_model, save_model

        _update_state(digest, model)
        with tempfile.TemporaryDirectory() as tmp:
            path = save_model(model, os.path.join(tmp, "model.npz"))
            loaded = load_model(path, mmap_mode="r")
            _update(digest, "loaded_predict_proba", loaded.predict_proba(persist_X))
    return digest.hexdigest()


def fit_model(estimator: str, X, y, seed: int, mode: Optional[str] = None):
    """The registry model ``estimator`` fitted on ``X, y`` with the seed,
    10 members and ``mode`` wherever it takes them."""
    from repro.registry import classifier_spec, get_classifier

    spec = classifier_spec(estimator)
    names = spec.cls._get_param_names()
    # A component the model needs to fit (resample_ensemble's sampler)
    # comes from the registry's smoke config; its other overrides do not.
    params = {
        name: value
        for name, value in spec.smoke_params.items()
        if hasattr(value, "get_params")
    }
    if "random_state" in names:
        params["random_state"] = seed
    if "n_estimators" in names:
        params["n_estimators"] = 10
    if mode is not None and "mode" in names:
        params["mode"] = mode
    return get_classifier(estimator, **params).fit(X, y)


def fit_digest(rows: int, ir: float, seed: int, predict: bool = False,
               estimator: str = "spe", persist: bool = False,
               mode: Optional[str] = None) -> str:
    from repro.datasets import make_credit_fraud

    X, y = make_credit_fraud(n_samples=rows, imbalance_ratio=ir, random_state=seed)
    model = fit_model(estimator, X, y, seed, mode)
    return model_digest(model, X if predict else None, X if persist else None)


def golden_lines(X, y):
    """``"<digest>  <model>"`` for each of :data:`GOLDEN_MODELS` fitted on
    ``X, y``: its trees, ``predict_proba`` and persisted reload
    (``model_digest(model, X, X)``)."""
    lines = []
    for estimator, mode in GOLDEN_MODELS:
        model = fit_model(estimator, X, y, GOLDEN_SEED, mode)
        label = estimator if mode is None else f"{estimator} --mode {mode}"
        lines.append(f"{model_digest(model, X, X)}  {label}")
    return lines


def write_golden() -> None:
    """Rewrite :data:`GOLDEN_DIGESTS` from the saved table, saving the
    table first only if it is missing."""
    if not os.path.exists(GOLDEN_TABLE):
        from repro.datasets import make_credit_fraud

        X, y = make_credit_fraud(n_samples=2_000, imbalance_ratio=20.0,
                                 random_state=GOLDEN_SEED)
        np.savez_compressed(GOLDEN_TABLE, X=X, y=y)
    with np.load(GOLDEN_TABLE) as table:
        lines = golden_lines(table["X"], table["y"])
    with open(GOLDEN_DIGESTS, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=20_000)
    parser.add_argument("--ir", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--predict", action="store_true",
                        help="also hash predict_proba on the training table")
    parser.add_argument("--estimator", default="spe",
                        help="classifier-registry name of the model to fit")
    parser.add_argument("--persist", action="store_true",
                        help="also hash the saved state tree and the "
                             "mmap-loaded model's predict_proba")
    parser.add_argument("--mode", default=None,
                        help="training mode, for models that take a mode "
                             "(spe, streaming_spe: exact or reservoir)")
    parser.add_argument("--write-golden", action="store_true",
                        help="rewrite tests/data/golden_digests.txt and exit")
    args = parser.parse_args(argv)
    if args.write_golden:
        write_golden()
        return 0
    print(fit_digest(args.rows, args.ir, args.seed, predict=args.predict,
                     estimator=args.estimator, persist=args.persist,
                     mode=args.mode))
    return 0


if __name__ == "__main__":
    # Appended, not prepended: a PYTHONPATH naming another checkout's src
    # wins, so this one script can digest the parent's and the change's fit.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if src not in sys.path:
        sys.path.append(src)
    sys.exit(main())
