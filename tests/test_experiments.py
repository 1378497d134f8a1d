"""Tests for the experiment harness: runner, formatting, visualization."""

import warnings

import numpy as np
import pytest

# Experiment-harness reproductions; excluded from the PR-gating `make test-fast`.
pytestmark = pytest.mark.slow

from repro.experiments import (
    MethodSpec,
    RecordingClassifier,
    ascii_heatmap,
    ascii_scatter,
    core_comparison_methods,
    ensemble_method,
    evaluate_combination,
    mean_std,
    org_method,
    prediction_grid,
    render_series,
    render_table,
    run_matrix,
    sampler_method,
    table2_classifiers,
    table4_dataset_plan,
    table5_classifiers,
    table5_methods,
    table6_methods,
)
from repro.core import SelfPacedEnsembleClassifier
from repro.sampling import RandomUnderSampler
from repro.tree import DecisionTreeClassifier


def _splits(imbalanced_data):
    X, y = imbalanced_data
    return X[:300], y[:300], X[300:], y[300:]


class TestFormatting:
    def test_mean_std_format(self):
        assert mean_std([0.5, 0.7]) == "0.600±0.100"

    def test_single_value(self):
        assert mean_std([0.5]) == "0.500"

    def test_empty(self):
        assert mean_std([]) == "-"

    def test_render_table_aligns(self):
        out = render_table(["A", "Method"], [["1", "x"], ["22", "yy"]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert len(set(len(l) for l in lines[1:])) <= 2  # header + rows aligned

    def test_render_series(self):
        out = render_series("curve", [1, 2], [0.1, 0.9])
        assert "curve" in out and "0.900" in out

    def test_render_series_skips_nan_bars(self):
        """A NaN point draws no bar and the finite points set the scale;
        an all-NaN series renders without a warning."""
        out = render_series("curve", [1, 2, 3], [0.0, float("nan"), 1.0], width=10)
        assert out.splitlines()[1:] == [
            "         1 0.000 |",
            "         2 nan |",
            "         3 1.000 |##########",
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = render_series("empty", [1, 2], [float("nan")] * 2)
        assert out.splitlines()[1:] == ["         1 nan |", "         2 nan |"]


class TestMethodSpecs:
    def test_org(self):
        assert org_method().kind == "org"

    def test_sampler_factory_seeds(self):
        spec = sampler_method("RU", RandomUnderSampler)
        sampler = spec.factory(123)
        assert sampler.random_state == 123

    def test_ensemble_factory_wraps_base(self):
        spec = ensemble_method("SPE", SelfPacedEnsembleClassifier, n_estimators=3)
        model = spec.factory(DecisionTreeClassifier(max_depth=2), 5)
        assert model.n_estimators == 3 and model.random_state == 5

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            MethodSpec(name="x", kind="bogus")

    def test_missing_factory(self):
        with pytest.raises(ValueError):
            MethodSpec(name="x", kind="sampler")


class TestEvaluateCombination:
    def test_org_runs(self, imbalanced_data):
        X_tr, y_tr, X_te, y_te = _splits(imbalanced_data)
        run = evaluate_combination(
            org_method(),
            DecisionTreeClassifier(max_depth=3, random_state=0),
            X_tr, y_tr, X_te, y_te,
            n_runs=2,
        )
        assert len(run.metrics["AUCPRC"]) == 2
        assert run.n_training_samples == [300, 300]

    def test_sampler_records_time_and_size(self, imbalanced_data):
        X_tr, y_tr, X_te, y_te = _splits(imbalanced_data)
        run = evaluate_combination(
            sampler_method("RU", RandomUnderSampler),
            DecisionTreeClassifier(max_depth=3, random_state=0),
            X_tr, y_tr, X_te, y_te,
            n_runs=2,
        )
        n_min = int(y_tr.sum())
        assert run.n_training_samples == [2 * n_min] * 2
        assert all(t >= 0 for t in run.resample_seconds)

    def test_ensemble_uses_reported_samples(self, imbalanced_data):
        X_tr, y_tr, X_te, y_te = _splits(imbalanced_data)
        run = evaluate_combination(
            ensemble_method("SPE", SelfPacedEnsembleClassifier, n_estimators=4),
            DecisionTreeClassifier(max_depth=3, random_state=0),
            X_tr, y_tr, X_te, y_te,
            n_runs=1,
        )
        n_min = int(y_tr.sum())
        assert run.n_training_samples == [4 * 2 * n_min]

    def test_runs_differ_across_seeds(self, imbalanced_data):
        X_tr, y_tr, X_te, y_te = _splits(imbalanced_data)
        run = evaluate_combination(
            sampler_method("RU", RandomUnderSampler),
            DecisionTreeClassifier(max_depth=3, random_state=0),
            X_tr, y_tr, X_te, y_te,
            n_runs=3,
        )
        assert len(set(run.metrics["AUCPRC"])) > 1


class TestRunMatrix:
    def test_matrix_shape(self, imbalanced_data):
        X_tr, y_tr, X_te, y_te = _splits(imbalanced_data)
        methods = [org_method(), sampler_method("RU", RandomUnderSampler)]
        classifiers = {"DT": DecisionTreeClassifier(max_depth=3, random_state=0)}
        result = run_matrix(methods, classifiers, X_tr, y_tr, X_te, y_te, n_runs=1)
        assert len(result.runs) == 2
        assert result.get("DT", "ORG").method == "ORG"
        assert isinstance(result.mean("DT", "RU", "AUCPRC"), float)

    def test_render_contains_methods(self, imbalanced_data):
        X_tr, y_tr, X_te, y_te = _splits(imbalanced_data)
        result = run_matrix(
            [org_method()],
            {"DT": DecisionTreeClassifier(max_depth=2, random_state=0)},
            X_tr, y_tr, X_te, y_te,
            n_runs=1,
        )
        out = result.render("title")
        assert "ORG" in out and "AUCPRC" in out

    def test_missing_combination_raises(self, imbalanced_data):
        X_tr, y_tr, X_te, y_te = _splits(imbalanced_data)
        result = run_matrix(
            [org_method()],
            {"DT": DecisionTreeClassifier(max_depth=2, random_state=0)},
            X_tr, y_tr, X_te, y_te,
            n_runs=1,
        )
        with pytest.raises(KeyError):
            result.get("DT", "SPE")


class TestTableSpecs:
    def test_core_methods_names(self):
        names = [m.name for m in core_comparison_methods()]
        assert names == ["RandUnder", "Clean", "SMOTE", "Easy", "Cascade", "SPE"]

    def test_table2_has_eight_classifiers(self):
        assert len(table2_classifiers()) == 8

    def test_table4_plan_covers_five_datasets(self):
        assert len(table4_dataset_plan()) == 5

    def test_table5_has_15_methods(self):
        assert len(table5_methods()) == 15

    def test_table5_classifiers(self):
        assert set(table5_classifiers()) == {"LR", "KNN", "DT", "AdaBoost10", "GBDT10"}

    def test_table6_six_methods(self):
        assert len(table6_methods(10)) == 6


class TestVisualization:
    def test_prediction_grid_shape(self, imbalanced_data):
        X, y = imbalanced_data
        clf = DecisionTreeClassifier(max_depth=3, random_state=0).fit(X[:, :2], y)
        xs, ys, grid = prediction_grid(clf, (-3, 3), (-3, 3), resolution=20)
        assert grid.shape == (20, 20)
        assert (grid >= 0).all() and (grid <= 1).all()

    def test_ascii_scatter_renders(self, imbalanced_data):
        X, y = imbalanced_data
        out = ascii_scatter(X[:, :2], y, width=30, height=10)
        assert "o" in out and "." in out
        assert len(out.splitlines()) == 10

    def test_ascii_scatter_needs_2d(self, imbalanced_data):
        X, y = imbalanced_data
        with pytest.raises(ValueError):
            ascii_scatter(X, y)

    def test_ascii_heatmap(self):
        grid = np.array([[0.0, 1.0], [0.5, 0.25]])
        out = ascii_heatmap(grid)
        assert len(out.splitlines()) == 2

    def test_recording_classifier_logs(self, imbalanced_data):
        X, y = imbalanced_data
        RecordingClassifier.clear_log("test-key")
        rec = RecordingClassifier(
            DecisionTreeClassifier(max_depth=2, random_state=0), log_key="test-key"
        )
        rec.fit(X, y)
        log = RecordingClassifier.get_log("test-key")
        assert len(log) == 1 and log[0][0].shape == X.shape
        RecordingClassifier.clear_log("test-key")

    def test_recording_survives_clone(self, imbalanced_data):
        from repro.base import clone

        X, y = imbalanced_data
        RecordingClassifier.clear_log("clone-key")
        rec = RecordingClassifier(
            DecisionTreeClassifier(max_depth=2, random_state=0), log_key="clone-key"
        )
        clone(rec).fit(X, y)
        clone(rec).fit(X, y)
        assert len(RecordingClassifier.get_log("clone-key")) == 2
        RecordingClassifier.clear_log("clone-key")

    def test_recording_delegates_prediction(self, imbalanced_data):
        X, y = imbalanced_data
        rec = RecordingClassifier(
            DecisionTreeClassifier(max_depth=3, random_state=0), log_key="deleg"
        ).fit(X, y)
        assert rec.predict_proba(X).shape == (len(y), 2)
        RecordingClassifier.clear_log("deleg")
