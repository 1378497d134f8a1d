"""The estimator contract, enforced uniformly over every registered
classifier (satellite of the registry issue): structural contract checks,
clone/get_params/set_params semantics, NotFittedError before fit, fitted
predict_proba shape/order guarantees, and the sample-weight capability
flag."""

import inspect

import numpy as np
import pytest

from repro.base import (
    check_classifier_contract,
    clone,
    is_persistable,
    supports_sample_weight,
)
from repro.exceptions import NotFittedError
from repro.registry import (
    classifier_spec,
    list_classifiers,
    make_classifier,
    toy_imbalanced_split,
)

ALL_NAMES = list_classifiers()


def smoke_instance(name):
    clf = make_classifier(name, **classifier_spec(name).smoke_params)
    if hasattr(clf, "random_state"):
        clf.random_state = 0
    return clf


def comparable_params(estimator):
    """get_params with nested estimator-like values (which clone
    deep-copies, breaking identity-based equality) compared structurally."""
    return {
        key: (type(value).__name__, value.get_params())
        if hasattr(value, "get_params")
        else value
        for key, value in estimator.get_params().items()
    }


@pytest.fixture(scope="module")
def toy():
    return toy_imbalanced_split()


class TestStructuralContract:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_registered_class_passes_contract_check(self, name):
        assert check_classifier_contract(classifier_spec(name).cls) == []

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_clone_preserves_params_and_drops_state(self, name, toy):
        X, y = toy
        clf = smoke_instance(name).fit(X, y)
        cloned = clone(clf)
        assert cloned is not clf
        assert comparable_params(cloned) == comparable_params(clf)
        assert not hasattr(cloned, "classes_")

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_set_params_round_trip(self, name):
        clf = smoke_instance(name)
        params = clf.get_params()
        assert "backend" not in params  # n_jobs is the only parallel knob
        assert clf.set_params(**params) is clf
        assert clf.get_params() == params

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_sample_weight_flag_matches_fit_signature(self, name):
        clf = smoke_instance(name)
        in_signature = "sample_weight" in inspect.signature(clf.fit).parameters
        flag = getattr(type(clf), "supports_sample_weight", None)
        expected = flag if isinstance(flag, bool) else in_signature
        assert supports_sample_weight(clf) == expected


class TestNotFittedUniformity:
    """predict/predict_proba before fit raise NotFittedError — the same
    exception type for every registered classifier, never a bare
    AttributeError from a missing fitted attribute."""

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_predict_proba_before_fit_raises(self, name, toy):
        X, _ = toy
        with pytest.raises(NotFittedError):
            smoke_instance(name).predict_proba(X[:3])

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_predict_before_fit_raises(self, name, toy):
        X, _ = toy
        with pytest.raises(NotFittedError):
            smoke_instance(name).predict(X[:3])

    def test_not_fitted_error_is_attribute_error(self):
        """Back-compat: NotFittedError subclasses AttributeError, so
        hasattr-style feature probes on unfitted models keep working."""
        assert issubclass(NotFittedError, AttributeError)


class TestFittedBehaviour:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_fit_predict_proba_shape_and_classes(self, name, toy):
        X, y = toy
        clf = smoke_instance(name).fit(X, y)
        assert np.array_equal(clf.classes_, [0, 1])
        proba = clf.predict_proba(X[:10])
        assert proba.shape == (10, 2)
        assert np.all(np.isfinite(proba))
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-9)
        assert set(np.unique(clf.predict(X[:10]))) <= {0, 1}

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_persistable_flag_matches_hooks(self, name):
        spec = classifier_spec(name)
        if spec.persistable:
            assert is_persistable(spec.cls)
