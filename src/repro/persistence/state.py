"""Shared fitted-state export/import helpers for estimator hooks.

Every persistable class implements the two-method protocol

* ``__getstate_arrays__() -> (meta, arrays, children)`` — JSON-safe scalar
  metadata, named numpy arrays, and nested persistable objects (a single
  object or a list per child slot);
* ``__setstate_arrays__(meta, arrays, children)`` — restore the fitted
  state onto a parameter-initialised instance (or, for non-estimator
  helpers, the classmethod ``__from_state_arrays__``).

The six ensemble classifiers share one shape — ``classes_`` + label
encoding + member list — so their hooks delegate to the two functions
here.

This module is import-light on purpose (numpy only): estimator modules
import it lazily from inside their hooks, so persistence never creates an
import cycle with the estimator layers.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

__all__ = ["export_ensemble_state", "restore_ensemble_state"]


def export_ensemble_state(est) -> Tuple[Dict, Dict, Dict]:
    """(meta, arrays, children) for a fitted ensemble classifier.

    Covers the prediction-relevant state every ensemble shares:
    ``classes_``, the internal minority mapping (when the ensemble is
    label-encoded), ``n_features_in_`` and the member models. Fit-time
    diagnostics (``train_curve_``, ``bin_history_``) are deliberately not
    persisted.
    """
    classes = np.asarray(est.classes_)
    meta: Dict = {"n_features_in": int(est.n_features_in_)}
    minority = getattr(est, "minority_class_", None)
    if minority is not None:
        meta["minority_class_index"] = int(
            np.flatnonzero(classes == minority)[0]
        )
    return meta, {"classes": classes}, {"estimators": list(est.estimators_)}


def restore_ensemble_state(est, meta: Dict, arrays: Dict, children: Dict) -> None:
    """Inverse of :func:`export_ensemble_state` (mutates ``est``)."""
    est.classes_ = np.asarray(arrays["classes"])
    minority_idx: Optional[int] = meta.get("minority_class_index")
    if minority_idx is not None:
        est.minority_class_ = est.classes_[minority_idx]
        est.majority_class_ = est.classes_[1 - minority_idx]
    elif hasattr(type(est), "_encode_labels"):
        # Label-encoded ensemble saved from a degenerate single-class fit.
        est.minority_class_ = None
        est.majority_class_ = est.classes_[0]
    est.estimators_ = list(children["estimators"])
    est.n_features_in_ = int(meta["n_features_in"])
