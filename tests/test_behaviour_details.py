"""Behavioural detail tests: schedules, cascades, Platt scaling, simulators."""

import numpy as np
import pytest

from repro.core import SelfPacedEnsembleClassifier, self_paced_under_sample
from repro.datasets import PaymentSimulator
from repro.imbalance_ensemble import BalanceCascadeClassifier
from repro.svm.svc import _fit_platt, _platt_proba
from repro.tree import DecisionTreeClassifier


class TestCascadeSchedule:
    def test_pool_follows_geometric_keep_rate(self):
        """|N_i| ≈ |N| * f^i with f = (|P|/|N|)^(1/(T-1)) — Liu et al. 2009."""
        rng = np.random.RandomState(0)
        n_maj, n_min, T = 1000, 50, 5
        X = np.vstack([rng.randn(n_maj, 2), rng.randn(n_min, 2) + 3])
        y = np.concatenate([np.zeros(n_maj, int), np.ones(n_min, int)])
        model = BalanceCascadeClassifier(
            DecisionTreeClassifier(max_depth=4, random_state=0),
            n_estimators=T,
            random_state=0,
        ).fit(X, y)
        f = (n_min / n_maj) ** (1.0 / (T - 1))
        for i, size in enumerate(model.pool_sizes_):
            expected = max(n_min, round(n_maj * f**i))
            assert size == pytest.approx(expected, abs=2)


class TestSelfPacedSamplingBudget:
    def test_request_exceeding_population(self, rng):
        h = rng.uniform(size=30)
        idx, _ = self_paced_under_sample(h, 5, 0.5, 100, rng)
        assert len(idx) == 30  # capped at the population

    def test_no_duplicates_across_bins(self, rng):
        h = rng.uniform(size=500)
        idx, _ = self_paced_under_sample(h, 10, 0.3, 200, rng)
        assert len(np.unique(idx)) == len(idx)


class TestPlattScaling:
    def test_probability_ordering(self):
        decision = np.array([-3.0, -1.0, 0.0, 1.0, 3.0])
        y = np.array([0, 0, 0, 1, 1])
        A, B = _fit_platt(decision, y)
        proba = _platt_proba(decision, A, B)
        assert (np.diff(proba) > 0).all()  # monotone in the decision value

    def test_probabilities_bracket_half(self):
        decision = np.concatenate([np.full(20, -2.0), np.full(20, 2.0)])
        y = np.concatenate([np.zeros(20, int), np.ones(20, int)])
        A, B = _fit_platt(decision, y)
        proba = _platt_proba(decision, A, B)
        assert proba[:20].max() < 0.5 < proba[20:].min()


class TestPaymentSimulatorKnobs:
    def test_full_drain_mode(self):
        """partial_drain_fraction=0 makes every fraud a full balance theft."""
        sim = PaymentSimulator(
            n_customers=200, fraud_rate=0.05, partial_drain_fraction=0.0,
            random_state=0,
        )
        X, y = sim.simulate(5000)
        transfer_frauds = (y == 1) & (X[:, 1] == 4)  # TRANSFER rows
        assert transfer_frauds.any()
        # drainRatio column: full drains have ratio 1.
        assert np.allclose(X[transfer_frauds, 10], 1.0)

    def test_partial_drain_mode_has_sub_unit_ratios(self):
        sim = PaymentSimulator(
            n_customers=200, fraud_rate=0.05, partial_drain_fraction=1.0,
            random_state=0,
        )
        X, y = sim.simulate(5000)
        transfer_frauds = (y == 1) & (X[:, 1] == 4)
        assert (X[transfer_frauds, 10] < 1.0 - 1e-9).any()


class TestSPEWithEvalSetCurveImproves:
    def test_curve_trends_upward(self, imbalanced_data):
        """On learnable data, the running-ensemble AUCPRC should improve
        from the first to the best iteration."""
        X, y = imbalanced_data
        spe = SelfPacedEnsembleClassifier(
            DecisionTreeClassifier(max_depth=4, random_state=0),
            n_estimators=8,
            random_state=0,
        )
        spe.fit(X[:330], y[:330], eval_set=(X[330:], y[330:]))
        assert max(spe.train_curve_) >= spe.train_curve_[0]
