"""EasyEnsemble (Liu, Wu & Zhou, 2009)."""

from __future__ import annotations

from functools import partial
from typing import Optional

import numpy as np

from ..base import supports_sample_weight
from ..ensemble.adaboost import AdaBoostClassifier
from ..ensemble.bagging import make_member_model
from ..tree import DecisionTreeClassifier
from .base import (
    BaseImbalanceEnsemble,
    balanced_subset_sample,
    fit_resampled_ensemble,
)

__all__ = ["EasyEnsembleClassifier"]


def _make_boosted_model(
    rng: np.random.RandomState, base, n_boost_rounds: int, plain: bool
):
    if plain:
        return make_member_model(rng, base)
    return AdaBoostClassifier(
        estimator=base,
        n_estimators=n_boost_rounds,
        random_state=rng.randint(np.iinfo(np.int32).max),
    )


class EasyEnsembleClassifier(BaseImbalanceEnsemble):
    """Bagging of AdaBoost models, each on a random balanced subset.

    The original formulation boosts the base learner inside every bag. When
    the base learner cannot take ``sample_weight`` (and AdaBoost would have
    to fall back to weighted resampling anyway, e.g. for KNN), setting
    ``n_boost_rounds=1`` — or passing such a learner with
    ``boost_incapable='plain'`` — degenerates to UnderBagging, which is the
    equivalence the paper notes for C4.5.
    """

    def __init__(
        self,
        estimator=None,
        n_estimators: int = 10,
        n_boost_rounds: int = 10,
        boost_incapable: str = "resample",
        n_jobs: Optional[int] = None,
        random_state=None,
    ):
        self.estimator = estimator
        self.n_estimators = n_estimators
        self.n_boost_rounds = n_boost_rounds
        self.boost_incapable = boost_incapable
        self.n_jobs = n_jobs
        self.random_state = random_state

    def _member_factory(self):
        """The ``make_model`` shared by ``fit`` and ``fit_source``."""
        from ..registry import resolve_estimator

        if self.boost_incapable not in ("resample", "plain"):
            raise ValueError(f"Unknown boost_incapable {self.boost_incapable!r}")
        base = (
            resolve_estimator(self.estimator)
            if self.estimator is not None
            else DecisionTreeClassifier(max_depth=1)
        )
        plain = (
            self.boost_incapable == "plain" and not supports_sample_weight(base)
        ) or self.n_boost_rounds <= 1
        return partial(
            _make_boosted_model,
            base=base,
            n_boost_rounds=self.n_boost_rounds,
            plain=plain,
        )

    def fit(self, X, y) -> "EasyEnsembleClassifier":
        """Fit on ``X``, ``y``; returns ``self``."""
        make_model = self._member_factory()
        X, y, rng = self._validate(X, y)
        self.estimators_, self.n_training_samples_ = fit_resampled_ensemble(
            X,
            y,
            n_estimators=self.n_estimators,
            sample_fn=balanced_subset_sample,
            make_model=make_model,
            random_state=rng,
            n_jobs=self.n_jobs,
        )
        return self

    def fit_source(self, source) -> "EasyEnsembleClassifier":
        """Out-of-core ``fit`` from a :class:`repro.streaming.DataSource`:
        every boosted bag gathers only its own balanced subset.
        Bit-identical to ``fit`` on the same data for a fixed
        ``random_state``."""
        from ..streaming.adapters import fit_balanced_source_ensemble

        make_model = self._member_factory()
        source, scan, rng = self._validate_source(source)
        self.estimators_, self.n_training_samples_ = fit_balanced_source_ensemble(
            source,
            scan,
            n_estimators=self.n_estimators,
            make_model=make_model,
            random_state=rng,
            n_jobs=self.n_jobs,
        )
        return self
