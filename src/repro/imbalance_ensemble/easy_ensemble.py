"""EasyEnsemble (Liu, Wu & Zhou, 2009)."""

from __future__ import annotations

from functools import partial
from typing import Optional

import numpy as np

from ..base import supports_sample_weight
from ..ensemble.adaboost import AdaBoostClassifier
from ..ensemble.bagging import make_member_model
from ..tree import DecisionTreeClassifier
from .base import BalancedBagEnsemble

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


class EasyEnsembleClassifier(BalancedBagEnsemble):
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
        """One AdaBoost per bag (a plain clone of the base when boosting
        degenerates); rejects bad boosting parameters."""
        from ..registry import resolve_estimator

        if self.boost_incapable not in ("resample", "plain"):
            raise ValueError(f"Unknown boost_incapable {self.boost_incapable!r}")
        if self.n_boost_rounds < 1:
            raise ValueError("n_boost_rounds must be >= 1")
        base = (
            resolve_estimator(self.estimator)
            if self.estimator is not None
            else DecisionTreeClassifier(max_depth=1)
        )
        plain = (
            self.boost_incapable == "plain" and not supports_sample_weight(base)
        ) or self.n_boost_rounds == 1
        return partial(
            _make_boosted_model,
            base=base,
            n_boost_rounds=self.n_boost_rounds,
            plain=plain,
        )
