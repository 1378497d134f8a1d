"""UnderBagging (Barandela et al., 2003)."""

from __future__ import annotations

from typing import Optional

from .base import (
    BaseImbalanceEnsemble,
    balanced_subset_sample,
    fit_resampled_ensemble,
)

__all__ = ["UnderBaggingClassifier"]


class UnderBaggingClassifier(BaseImbalanceEnsemble):
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

    def fit(self, X, y) -> "UnderBaggingClassifier":
        """Fit on ``X``, ``y``; returns ``self``."""
        X, y, rng = self._validate(X, y)
        self.estimators_, self.n_training_samples_ = fit_resampled_ensemble(
            X,
            y,
            n_estimators=self.n_estimators,
            sample_fn=balanced_subset_sample,
            estimator=self.estimator,
            random_state=rng,
            n_jobs=self.n_jobs,
        )
        return self

    def fit_source(self, source, scan=None) -> "UnderBaggingClassifier":
        """Out-of-core ``fit`` from a :class:`repro.streaming.DataSource`:
        each bag gathers only its own balanced subset. Bit-identical to
        ``fit`` on the same data for a fixed ``random_state``."""
        from ..streaming.adapters import fit_balanced_source_ensemble

        scan, rng = self._validate_source(source, scan)
        self.estimators_, self.n_training_samples_, _ = (
            fit_balanced_source_ensemble(
                source,
                n_estimators=self.n_estimators,
                estimator=self.estimator,
                random_state=rng,
                n_jobs=self.n_jobs,
                scan=scan,
            )
        )
        return self
