#!/usr/bin/env python
"""Print one SHA-256 over every member tree of an ensemble fit.

Fits a registered ensemble (``--estimator``, a classifier-registry name,
default ``spe``; 10 members, default trees) on a credit-fraud table and
hashes each member's flat node arrays in member order, recursing into the
members of a member (EasyEnsemble's AdaBoost bags). Two checkouts that
print the same digest grew byte-identical trees, so a change to the fit
path can show it kept every model by running this once per checkout:

    PYTHONPATH=src python tools/fit_digest.py --rows 20000 --ir 20 --seed 3
    PYTHONPATH=src python tools/fit_digest.py --estimator forest --seed 3

``--seed`` seeds both the table and the ensemble. ``--predict`` also
hashes the bytes of the fitted model's ``predict_proba`` on its own
table, so equal digests then mean equal predictions as well as trees.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys

#: The node arrays of :class:`repro.tree._tree.Tree`, hashed in this order.
TREE_ARRAYS = ("feature", "threshold", "children_left", "children_right",
               "value", "n_node_samples", "impurity")


def _update(digest, name: str, array) -> None:
    digest.update(name.encode())
    digest.update(str(array.dtype).encode())
    digest.update(repr(array.shape).encode())
    digest.update(array.tobytes())


def _trees(model):
    """Every fitted tree of ``model``'s members, in member order."""
    for member in model.estimators_:
        if hasattr(member, "tree_"):
            yield member.tree_
        else:
            yield from _trees(member)


def fit_digest(rows: int, ir: float, seed: int, predict: bool = False,
               estimator: str = "spe") -> str:
    from repro.datasets import make_credit_fraud
    from repro.registry import get_classifier

    X, y = make_credit_fraud(n_samples=rows, imbalance_ratio=ir, random_state=seed)
    model = get_classifier(estimator, n_estimators=10, random_state=seed).fit(X, y)
    digest = hashlib.sha256()
    for tree in _trees(model):
        for name in TREE_ARRAYS:
            _update(digest, name, getattr(tree, name))
    if predict:
        _update(digest, "predict_proba", model.predict_proba(X))
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=20_000)
    parser.add_argument("--ir", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--predict", action="store_true",
                        help="also hash predict_proba on the training table")
    parser.add_argument("--estimator", default="spe",
                        help="classifier-registry name of the ensemble to fit")
    args = parser.parse_args(argv)
    print(fit_digest(args.rows, args.ir, args.seed, predict=args.predict,
                     estimator=args.estimator))
    return 0


if __name__ == "__main__":
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    sys.exit(main())
