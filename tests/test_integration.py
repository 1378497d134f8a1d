"""End-to-end integration tests crossing all subsystem boundaries."""

import numpy as np
import pytest

# Full paper-protocol runs; excluded from the PR-gating `make test-fast`.
pytestmark = pytest.mark.slow

from repro import SelfPacedEnsembleClassifier, clone
from repro.datasets import load_dataset, make_checkerboard
from repro.ensemble import AdaBoostClassifier, GradientBoostingClassifier
from repro.linear import LogisticRegression
from repro.metrics import evaluate_classifier
from repro.model_selection import train_valid_test_split
from repro.neighbors import KNeighborsClassifier
from repro.neural import MLPClassifier
from repro.tree import C45Classifier, DecisionTreeClassifier


class TestPaperProtocolEndToEnd:
    """The paper's full pipeline: load → 60/20/20 split → fit → evaluate."""

    @pytest.mark.parametrize(
        "dataset", ["credit_fraud", "kddcup_dos_vs_prb", "record_linkage"]
    )
    def test_spe_beats_prevalence_on_each_dataset(self, dataset):
        # IR capped at 40 so the 60/20/20 split keeps enough minority
        # samples for the assertion to be statistically meaningful.
        ds = load_dataset(dataset, scale=0.2, imbalance_ratio=40.0, random_state=0)
        X_tr, X_va, X_te, y_tr, y_va, y_te = train_valid_test_split(
            ds.X, ds.y, random_state=0
        )
        spe = SelfPacedEnsembleClassifier(
            DecisionTreeClassifier(max_depth=8, random_state=0),
            n_estimators=10,
            random_state=0,
        ).fit(X_tr, y_tr)
        scores = evaluate_classifier(spe, X_te, y_te)
        prevalence = y_te.mean()
        assert scores["AUCPRC"] > 5 * prevalence
        assert scores["F1"] > 0.1

    def test_spe_with_every_base_learner_family(self, checkerboard_small):
        """The paper's claim: SPE boosts any canonical classifier."""
        X, y = checkerboard_small
        Xs = (X - X.mean(axis=0)) / X.std(axis=0)
        bases = [
            KNeighborsClassifier(n_neighbors=5),
            DecisionTreeClassifier(max_depth=6, random_state=0),
            C45Classifier(max_depth=6, random_state=0),
            LogisticRegression(C=1.0),
            MLPClassifier(hidden_layer_sizes=(16,), max_epochs=10, random_state=0),
            AdaBoostClassifier(
                DecisionTreeClassifier(max_depth=2), n_estimators=5, random_state=0
            ),
            GradientBoostingClassifier(n_estimators=10, random_state=0),
        ]
        for base in bases:
            spe = SelfPacedEnsembleClassifier(base, n_estimators=5, random_state=0)
            spe.fit(Xs, y)
            proba = spe.predict_proba(Xs)
            assert proba.shape == (len(y), 2), type(base).__name__

    def test_gbdt_with_validation_early_stopping_pipeline(self):
        ds = load_dataset("payment_simulation", scale=0.1, random_state=0)
        X_tr, X_va, X_te, y_tr, y_va, y_te = train_valid_test_split(
            ds.X, ds.y, random_state=0
        )
        gbdt = GradientBoostingClassifier(
            n_estimators=100, early_stopping_rounds=5, random_state=0
        )
        gbdt.fit(X_tr, y_tr, eval_set=(X_va, y_va))
        scores = evaluate_classifier(gbdt, X_te, y_te)
        assert np.isfinite(scores["AUCPRC"])


class TestRobustnessStories:
    def test_spe_resists_overlap_better_than_cascade(self):
        """Fig 5's claim, asserted statistically over seeds: under heavy
        overlap Cascade's final iterations overfit noise."""
        from repro.imbalance_ensemble import BalanceCascadeClassifier

        spe_wins = 0
        for seed in range(3):
            X_tr, y_tr = make_checkerboard(400, 4000, cov_scale=0.15, random_state=seed)
            X_te, y_te = make_checkerboard(
                400, 4000, cov_scale=0.15, random_state=seed + 50
            )
            base = DecisionTreeClassifier(max_depth=8, random_state=seed)
            spe = SelfPacedEnsembleClassifier(
                clone(base), n_estimators=10, random_state=seed
            ).fit(X_tr, y_tr)
            cascade = BalanceCascadeClassifier(
                clone(base), n_estimators=10, random_state=seed
            ).fit(X_tr, y_tr)
            s = evaluate_classifier(spe, X_te, y_te)["AUCPRC"]
            c = evaluate_classifier(cascade, X_te, y_te)["AUCPRC"]
            spe_wins += int(s > c)
        assert spe_wins >= 2

    def test_missing_values_degrade_gracefully(self):
        """Table VII's protocol: AUCPRC decreases with missing ratio but SPE
        keeps a usable signal at 50% missing."""
        from repro.datasets import inject_missing_values, make_credit_fraud
        from repro.model_selection import train_test_split

        X, y = make_credit_fraud(n_samples=6000, imbalance_ratio=30, random_state=0)
        results = {}
        for ratio in (0.0, 0.25, 0.5):
            X_miss = inject_missing_values(X, ratio, random_state=0)
            X_tr, X_te, y_tr, y_te = train_test_split(
                X_miss, y, test_size=0.3, random_state=0
            )
            spe = SelfPacedEnsembleClassifier(
                DecisionTreeClassifier(max_depth=8, random_state=0),
                n_estimators=10,
                random_state=0,
            ).fit(X_tr, y_tr)
            results[ratio] = evaluate_classifier(spe, X_te, y_te)["AUCPRC"]
        # Table VII's shape: monotone degradation, yet still above chance
        # (= prevalence for AUCPRC) at 50% missing.
        assert results[0.0] > results[0.25] > results[0.5]
        assert results[0.5] > y.mean()

    def test_spe_cheaper_than_smote_in_samples(self, imbalanced_data):
        """Table V/VI's efficiency story: SPE trains on far less data."""
        from repro.imbalance_ensemble import SMOTEBaggingClassifier

        X, y = imbalanced_data
        base = DecisionTreeClassifier(max_depth=4, random_state=0)
        spe = SelfPacedEnsembleClassifier(clone(base), n_estimators=10, random_state=0)
        smote_bag = SMOTEBaggingClassifier(clone(base), n_estimators=10, random_state=0)
        spe.fit(X, y)
        smote_bag.fit(X, y)
        assert spe.n_training_samples_ * 5 < smote_bag.n_training_samples_
