"""UnderBagging (Barandela et al., 2003)."""

from __future__ import annotations

from typing import Optional

from .base import BalancedBagEnsemble

__all__ = ["UnderBaggingClassifier"]


class UnderBaggingClassifier(BalancedBagEnsemble):
    """Bagging where every bag is a random balanced under-sample.

    Each of the ``n_estimators`` base models trains on all minority samples
    plus an equally sized random draw of the majority — cheap, but each bag
    sees only ``|P| / |N|`` of the majority information, the information-loss
    failure mode the paper attributes to RandUnder-style methods.
    """

    def __init__(
        self,
        estimator=None,
        n_estimators: int = 10,
        n_jobs: Optional[int] = None,
        random_state=None,
    ):
        self.estimator = estimator
        self.n_estimators = n_estimators
        self.n_jobs = n_jobs
        self.random_state = random_state
