"""Shared machinery for imbalance-aware ensembles.

All ensembles here follow the same contract as the canonical classifiers
(``fit`` / ``predict`` / ``predict_proba``) plus two bookkeeping attributes
the paper's tables report:

* ``n_training_samples_`` — total number of samples used to train all base
  models (the "# Sample" column of Tables V and VI);
* ``estimators_`` — the fitted base models.

The per-member clone/resample/fit plumbing that used to be copy-pasted into
every subclass lives in one place now: :func:`fit_resampled_ensemble`, a
thin specialisation of :func:`repro.parallel.fit_ensemble_parallel` that
fills in the library's default model factory. Subclasses supply only their
``sample_fn`` (how member *i* builds its training set) and inherit the
``n_jobs`` knob.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, List, Optional, Tuple

import numpy as np

from ..base import BaseEstimator, ClassifierMixin, clone, supports_sample_weight
from ..ensemble.adaboost import check_learning_rate, samme_step, samme_vote
from ..ensemble.bagging import make_member_model
from ..parallel import ensemble_predict_proba, fit_ensemble_parallel
from ..utils.validation import (
    BinaryLabelEncoderMixin,
    check_array,
    check_is_fitted,
    check_random_state,
    check_X_y,
    encode_binary_labels,
)

__all__ = [
    "BaseImbalanceEnsemble",
    "BoostedImbalanceEnsemble",
    "ResampleEnsembleClassifier",
    "fit_resampled_ensemble",
    "random_balanced_subset",
]


def random_balanced_subset(
    X: np.ndarray,
    y: np.ndarray,
    maj_idx: np.ndarray,
    min_idx: np.ndarray,
    rng: np.random.RandomState,
) -> Tuple[np.ndarray, np.ndarray]:
    """All minority samples plus an equal-size random majority draw."""
    n = min(len(min_idx), len(maj_idx))
    chosen = rng.choice(maj_idx, size=n, replace=len(maj_idx) < n)
    idx = rng.permutation(np.concatenate([chosen, min_idx]))
    return X[idx], y[idx]


def balanced_subset_sample(
    index: int,
    rng: np.random.RandomState,
    X: np.ndarray,
    y: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Engine ``sample_fn``: one random balanced under-sample per member."""
    maj_idx = np.flatnonzero(y == 0)
    min_idx = np.flatnonzero(y == 1)
    return random_balanced_subset(X, y, maj_idx, min_idx, rng)


def _sampler_resample(
    index: int,
    rng: np.random.RandomState,
    X: np.ndarray,
    y: np.ndarray,
    sampler,
) -> Tuple[np.ndarray, np.ndarray]:
    member_sampler = clone(sampler)
    if hasattr(member_sampler, "random_state"):
        member_sampler.random_state = rng.randint(np.iinfo(np.int32).max)
    return member_sampler.fit_resample(X, y)


def fit_resampled_ensemble(
    X: np.ndarray,
    y: np.ndarray,
    *,
    n_estimators: int,
    sample_fn: Callable,
    estimator=None,
    make_model: Optional[Callable] = None,
    random_state=None,
    n_jobs: Optional[int] = None,
) -> Tuple[List, int]:
    """Fit an ensemble of independently resampled members.

    ``sample_fn(i, rng, X, y)`` builds member *i*'s training set;
    ``make_model(rng)`` (default: clone ``estimator``) its unfitted model.
    Returns ``(estimators, total_training_samples)``.
    """
    if make_model is None:
        make_model = partial(make_member_model, estimator=estimator)
    return fit_ensemble_parallel(
        X,
        y,
        n_estimators=n_estimators,
        sample_fn=sample_fn,
        make_model=make_model,
        random_state=random_state,
        n_jobs=n_jobs,
    )


class BaseImbalanceEnsemble(BaseEstimator, ClassifierMixin, BinaryLabelEncoderMixin):
    """Common fit plumbing: validation, base-model creation, averaging."""

    #: subclasses set these in __init__
    estimator = None
    n_estimators = 10
    random_state = None
    #: parallel knob; subclasses expose it as an __init__ param
    n_jobs: Optional[int] = None

    def _make_base(self, rng: np.random.RandomState):
        return make_member_model(rng, self.estimator)

    def _check_params(self) -> None:
        """Reject invalid hyper-parameters before any data is read."""
        if self.n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")

    def _validate(self, X, y):
        """Validate inputs and map arbitrary binary labels to the internal
        0/1 encoding (minority by frequency → 1); every member model trains
        on the internal codes, ``predict``/``predict_proba`` decode back."""
        self._check_params()
        X, y = check_X_y(X, y)
        classes, y, minority_idx = encode_binary_labels(y)
        self._set_label_encoding(classes, minority_idx)
        self.n_features_in_ = X.shape[1]
        return X, y, check_random_state(self.random_state)

    def _validate_source(self, source, collect_indices=True, collect_minority=False):
        """Source counterpart of :meth:`_validate` for ``fit_source``.

        A label-only pass sets the label encoding as the in-memory path
        does, then one :func:`~repro.streaming.class_index_scan` (with the
        given ``collect_*`` flags) runs over the source's internally
        encoded view, so the fitted members always see 0/1 codes. Returns
        ``(encoded source, scan, rng)``.
        """
        from ..streaming.sources import (
            class_index_scan,
            encoded_label_source,
            label_value_scan,
        )

        self._check_params()
        classes, _, minority_idx = label_value_scan(source)
        self._set_label_encoding(classes, minority_idx)
        source = encoded_label_source(source, classes, minority_idx)
        scan = class_index_scan(
            source,
            collect_indices=collect_indices,
            collect_minority=collect_minority,
        )
        self.n_features_in_ = scan.n_features
        return source, scan, check_random_state(self.random_state)

    def _voting_estimators(self) -> List:
        """The members ``predict_proba`` averages and serving packs."""
        return self.estimators_

    def predict_proba(self, X) -> np.ndarray:
        """Class probabilities, columns ordered by ``classes_``."""
        check_is_fitted(self, ["estimators_"])
        X = check_array(X)
        internal = ensemble_predict_proba(
            self._voting_estimators(),
            X,
            np.array([0, 1]),  # members are fitted on the internal encoding
            n_jobs=self.n_jobs,
        )
        return self._decode_proba(internal)

    # ------------------------------------------------------------------ #
    def __serving_ensemble__(self):
        """(voting members, member class vector) for serving-time warm-up —
        the exact pair ``predict_proba`` feeds to the packed-forest cache."""
        check_is_fitted(self, ["estimators_"])
        return self._voting_estimators(), np.array([0, 1])

    def __getstate_arrays__(self):
        """Pickle-free fitted-state export (see :mod:`repro.persistence`)."""
        check_is_fitted(self, ["estimators_"])
        from ..persistence.state import export_ensemble_state

        meta, arrays, children = export_ensemble_state(self)
        meta["n_training_samples"] = int(getattr(self, "n_training_samples_", 0))
        return meta, arrays, children

    def __setstate_arrays__(self, meta, arrays, children) -> None:
        from ..persistence.state import restore_ensemble_state

        restore_ensemble_state(self, meta, arrays, children)
        self.n_training_samples_ = int(meta.get("n_training_samples", 0))


class BoostedImbalanceEnsemble(BaseImbalanceEnsemble):
    """SAMME boosting over a per-round training set (RUSBoost, SMOTEBoost).

    Boosting weights live on the original rows. Each round,
    ``_round_set(X, y, w, rng)`` returns the round's rows and normalised
    weights; a model without ``sample_weight`` fits a weighted resample of
    them instead (all of them when the resample holds one class). Its error
    on the original rows drives :func:`repro.ensemble.adaboost.samme_step`.
    """

    def _round_set(self, X, y, w, rng):
        raise NotImplementedError

    def fit(self, X, y):
        """Fit on ``X``, ``y``; returns ``self``."""
        X, y, rng = self._validate(X, y)
        check_learning_rate(self.learning_rate)
        w = np.full(len(y), 1.0 / len(y))
        self.estimators_: List = []
        self.estimator_weights_: List[float] = []
        self.n_training_samples_ = 0
        for _ in range(self.n_estimators):
            X_r, y_r, w_r = self._round_set(X, y, w, rng)
            model = self._make_base(rng)
            if supports_sample_weight(model):
                model.fit(X_r, y_r, sample_weight=w_r * len(y_r))
            else:
                pick = rng.choice(len(y_r), size=len(y_r), p=w_r)
                if len(np.unique(y_r[pick])) > 1:
                    X_r, y_r = X_r[pick], y_r[pick]
                model.fit(X_r, y_r)
            self.n_training_samples_ += len(y_r)
            alpha, stop = samme_step(
                w, model.predict(X) != y, self.learning_rate, 2, not self.estimators_
            )
            if alpha is not None:
                self.estimators_.append(model)
                self.estimator_weights_.append(alpha)
            if stop:
                break
        return self

    #: Serving warm-up opt-out: predict_proba is an alpha-weighted vote
    #: over member *predictions*, never the packed probability kernel, so
    #: pre-packing the member trees would build an unused forest.
    __serving_ensemble__ = None

    def predict_proba(self, X) -> np.ndarray:
        """Class probabilities, columns ordered by ``classes_``."""
        # Members are fitted on the internal 0/1 encoding.
        return self._decode_proba(samme_vote(self, X, np.array([0, 1]))[1])

    def __getstate_arrays__(self):
        """Shared ensemble state plus the per-round boosting weights."""
        meta, arrays, children = super().__getstate_arrays__()
        arrays["estimator_weights"] = np.asarray(
            self.estimator_weights_, dtype=np.float64
        )
        return meta, arrays, children

    def __setstate_arrays__(self, meta, arrays, children) -> None:
        super().__setstate_arrays__(meta, arrays, children)
        self.estimator_weights_ = [float(w) for w in arrays["estimator_weights"]]


class ResampleEnsembleClassifier(BaseImbalanceEnsemble):
    """Generic sampler + bagging ensemble.

    Each base model trains on an independent ``sampler.fit_resample`` of the
    training data (re-seeded per round). With ``RandomUnderSampler`` this is
    UnderBagging; with ``SMOTE`` it is a SMOTEBagging without rate variation —
    useful as an ablation harness for arbitrary samplers.
    """

    def __init__(
        self,
        sampler=None,
        estimator=None,
        n_estimators: int = 10,
        n_jobs: Optional[int] = None,
        random_state=None,
    ):
        self.sampler = sampler
        self.estimator = estimator
        self.n_estimators = n_estimators
        self.n_jobs = n_jobs
        self.random_state = random_state

    def fit(self, X, y) -> "ResampleEnsembleClassifier":
        """Fit on ``X``, ``y``; returns ``self``."""
        if self.sampler is None:
            raise ValueError("ResampleEnsembleClassifier requires a sampler")
        X, y, rng = self._validate(X, y)
        self.estimators_, self.n_training_samples_ = fit_resampled_ensemble(
            X,
            y,
            n_estimators=self.n_estimators,
            sample_fn=partial(_sampler_resample, sampler=self.sampler),
            estimator=self.estimator,
            random_state=rng,
            n_jobs=self.n_jobs,
        )
        return self
