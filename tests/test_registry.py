"""The string registry, resolve_estimator funnel, and get_classifier
facade — plus the string-estimator plumbing through the ensembles and the
experiment runner."""

import numpy as np
import pytest

from repro.base import BaseEstimator, ClassifierMixin, clone
from repro.exceptions import RegistryError
from repro.linear import LogisticRegression
from repro.registry import (
    classifier_spec,
    get_classifier,
    list_classifiers,
    list_presets,
    make_classifier,
    register_classifier,
    resolve_estimator,
    toy_imbalanced_split,
)
from repro.tree import DecisionTreeClassifier


@pytest.fixture(scope="module")
def toy():
    return toy_imbalanced_split()


class TestCoreRegistry:
    def test_zoo_is_registered(self):
        names = list_classifiers()
        assert {"spe", "tree", "logistic", "gbdt", "under_bagging"} <= set(names)
        assert len(names) >= 20

    def test_make_classifier_passes_params(self):
        clf = make_classifier("logistic", C=0.5, max_iter=42)
        assert isinstance(clf, LogisticRegression)
        assert clf.C == 0.5 and clf.max_iter == 42

    def test_names_are_case_insensitive(self):
        assert type(make_classifier("SPE")) is classifier_spec("spe").cls

    def test_unknown_name_lists_alternatives(self):
        with pytest.raises(RegistryError, match="registered names"):
            make_classifier("no_such_model")

    def test_invalid_param_lists_valid_ones(self):
        with pytest.raises(RegistryError, match="valid parameters"):
            make_classifier("logistic", n_estimators=5)

    def test_reregistering_same_class_is_idempotent(self):
        spec = classifier_spec("tree")
        assert register_classifier("tree", spec.cls) is spec

    def test_rebinding_name_to_other_class_rejected(self):
        with pytest.raises(RegistryError, match="already registered"):
            register_classifier("tree", LogisticRegression)

    def test_contract_violating_class_rejected(self):
        class Broken(BaseEstimator, ClassifierMixin):
            def __init__(self, **kwargs):  # *kwargs: not introspectable
                pass

        with pytest.raises(RegistryError, match="contract"):
            register_classifier("broken", Broken)

    def test_spec_capability_flags(self):
        assert classifier_spec("spe").accepts_estimator
        assert not classifier_spec("logistic").accepts_estimator
        assert classifier_spec("spe").persistable
        assert not classifier_spec("resample_ensemble").persistable


class TestResolveEstimator:
    def test_none_passes_through(self):
        assert resolve_estimator(None) is None

    def test_instance_passes_through(self):
        tree = DecisionTreeClassifier(max_depth=2)
        assert resolve_estimator(tree) is tree

    def test_string_resolves_to_fresh_instance(self):
        a, b = resolve_estimator("logistic"), resolve_estimator("logistic")
        assert isinstance(a, LogisticRegression) and a is not b

    def test_class_rejected_with_pointed_message(self):
        with pytest.raises(TypeError, match=r"DecisionTreeClassifier\(\)"):
            resolve_estimator(DecisionTreeClassifier)

    def test_non_estimator_rejected(self):
        with pytest.raises(TypeError, match="contract"):
            resolve_estimator(object())


class TestFacade:
    def test_preset_then_overrides(self):
        clf = get_classifier("spe", preset="fraud", n_estimators=7)
        assert clf.n_estimators == 7  # override wins
        assert clf.k_bins == 20 and clf.hardness == "absolute"

    def test_list_presets(self):
        assert "fraud" in list_presets("spe")
        assert list_presets("logistic") == []

    def test_unknown_preset_lists_available(self):
        with pytest.raises(RegistryError, match="available presets"):
            get_classifier("spe", preset="nope")

    def test_base_requires_estimator_param(self):
        with pytest.raises(RegistryError, match="does not take a base"):
            get_classifier("logistic", base="tree")

    def test_base_name_kept_as_string(self):
        clf = get_classifier("under_bagging", base="logistic")
        assert clf.estimator == "logistic"

    def test_base_unknown_name_fails_at_construction(self):
        with pytest.raises(RegistryError, match="registered names"):
            get_classifier("spe", base="no_such_base")

    def test_base_instance_passes_through(self):
        tree = DecisionTreeClassifier(max_depth=3)
        assert get_classifier("bagging", base=tree).estimator is tree

    def test_base_estimator_alias_accepted_but_deprecated(self):
        with pytest.warns(DeprecationWarning, match="estimator="):
            clf = get_classifier("spe", base_estimator="logistic")
        assert clf.estimator == "logistic"

    def test_estimator_spelling_does_not_warn(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            clf = get_classifier("spe", estimator="logistic")
        assert clf.estimator == "logistic"

    def test_conflicting_base_spellings_rejected(self):
        with pytest.raises(RegistryError, match="once"):
            get_classifier("spe", base="logistic", estimator="tree")

    def test_facade_matches_handwritten_spelling(self, toy):
        X, y = toy
        via_facade = get_classifier(
            "spe", base="logistic", preset="fast", random_state=0
        ).fit(X, y)
        cls = classifier_spec("spe").cls
        by_hand = cls(
            estimator="logistic", n_estimators=5, k_bins=10, random_state=0
        ).fit(X, y)
        assert np.array_equal(
            via_facade.predict_proba(X), by_hand.predict_proba(X)
        )


class TestStringEstimatorsInEnsembles:
    """Every ensemble's estimator= accepts a registered name; the string
    spelling is equivalent to passing the instance."""

    @pytest.mark.parametrize(
        "ensemble", ["spe", "bagging", "adaboost", "under_bagging",
                     "easy_ensemble", "rus_boost", "smote_bagging"]
    )
    def test_string_equals_instance(self, ensemble, toy):
        X, y = toy
        spec = classifier_spec(ensemble)
        small = dict(spec.smoke_params)
        by_name = spec.cls(estimator="logistic", random_state=0, **small).fit(X, y)
        by_inst = spec.cls(
            estimator=LogisticRegression(), random_state=0, **small
        ).fit(X, y)
        assert np.array_equal(by_name.predict_proba(X), by_inst.predict_proba(X))

    def test_unknown_string_fails_with_registry_error(self, toy):
        X, y = toy
        clf = get_classifier("bagging", n_estimators=2, random_state=0)
        clf.estimator = "no_such_model"
        with pytest.raises(RegistryError, match="registered names"):
            clf.fit(X, y)

    def test_string_estimator_clones_per_member(self, toy):
        X, y = toy
        clf = get_classifier(
            "bagging", base="tree", n_estimators=3, random_state=0
        ).fit(X, y)
        members = clf.estimators_
        assert len({id(m) for m in members}) == 3


class TestExperimentRunnerNaming:
    def test_evaluate_combination_accepts_registered_name(self, toy):
        from repro.experiments import evaluate_combination, org_method

        X, y = toy
        run = evaluate_combination(
            org_method(), "logistic", X, y, X, y, n_runs=1,
            classifier_name="LR",
        )
        assert run.classifier == "LR"
        assert all(len(v) == 1 for v in run.metrics.values())

    def test_evaluate_combination_estimator_is_keywordable(self, toy):
        """The parameter is named `estimator` — the library-wide spelling."""
        from repro.experiments import evaluate_combination, org_method

        X, y = toy
        run = evaluate_combination(
            org_method(), estimator=LogisticRegression(),
            X_train=X, y_train=y, X_test=X, y_test=y, n_runs=1,
        )
        assert run.method == "ORG"


class TestLifecycleTrainFn:
    def test_resolve_train_fn_passthrough_for_callables(self):
        from repro.lifecycle import resolve_train_fn

        fn = lambda source: "sentinel"  # noqa: E731
        assert resolve_train_fn(fn) is fn

    def test_resolve_train_fn_from_name_and_instance(self, toy):
        from repro.lifecycle import resolve_train_fn
        from repro.streaming import ArraySource

        X, y = toy
        for spec in ("logistic", LogisticRegression(max_iter=50)):
            model = resolve_train_fn(spec)(ArraySource(X, y))
            assert isinstance(model, LogisticRegression)
            assert model.predict_proba(X[:2]).shape == (2, 2)

    def test_template_is_cloned_per_cycle(self, toy):
        from repro.lifecycle import resolve_train_fn
        from repro.streaming import ArraySource

        X, y = toy
        template = LogisticRegression(max_iter=50)
        train = resolve_train_fn(template)
        first, second = train(ArraySource(X, y)), train(ArraySource(X, y))
        assert first is not template and first is not second
        assert not hasattr(template, "classes_")

    def test_rejects_none(self):
        from repro.lifecycle import resolve_train_fn

        with pytest.raises(TypeError, match="train_fn"):
            resolve_train_fn(None)

    def test_spe_fits_an_array_source_in_memory(self, toy, monkeypatch):
        """SPE retrains through ``fit_source``: on an ``ArraySource`` it
        grows ``fit(X, y)``'s trees and probabilities, bit for bit, and
        never walks the window's blocks to stack them into a copy."""
        from repro.core import SelfPacedEnsembleClassifier
        from repro.lifecycle import resolve_train_fn
        from repro.streaming import ArraySource

        X, y = toy
        template = SelfPacedEnsembleClassifier(n_estimators=4, random_state=0)
        ref = clone(template).fit(X, y)

        def no_block_walk(self):
            raise AssertionError("the window was stacked block by block")

        monkeypatch.setattr(ArraySource, "iter_blocks", no_block_walk)
        assert isinstance(
            resolve_train_fn("spe")(ArraySource(X, y)), SelfPacedEnsembleClassifier
        )
        model = resolve_train_fn(template)(ArraySource(X, y))
        for a, b in zip(ref.estimators_, model.estimators_, strict=True):
            for name in ("feature", "threshold", "children_left",
                         "children_right", "value"):
                assert np.array_equal(getattr(a.tree_, name), getattr(b.tree_, name))
        assert model.predict_proba(X).tobytes() == ref.predict_proba(X).tobytes()

    def test_model_without_fit_source_trains_on_the_stacked_window(
        self, toy, monkeypatch
    ):
        from repro.imbalance_ensemble import BalanceCascadeClassifier
        from repro.lifecycle import resolve_train_fn
        from repro.streaming import ArraySource

        X, y = toy
        walked = []
        iter_blocks = ArraySource.iter_blocks

        def counting(self):
            walked.append(self)
            return iter_blocks(self)

        monkeypatch.setattr(ArraySource, "iter_blocks", counting)
        model = resolve_train_fn("balance_cascade")(ArraySource(X, y))
        assert isinstance(model, BalanceCascadeClassifier)
        assert len(walked) == 1
        assert model.predict_proba(X[:2]).shape == (2, 2)
