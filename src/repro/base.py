"""Base estimator machinery: parameter introspection, cloning, mixins.

This mirrors the small slice of the scikit-learn estimator contract that the
rest of the library relies on:

* ``get_params`` / ``set_params`` driven by the ``__init__`` signature,
* :func:`clone` producing an unfitted copy with identical hyper-parameters,
* ``ClassifierMixin.predict`` (the argmax of ``predict_proba``) and
  ``score`` (accuracy), and the ``fit/predict/predict_proba`` conventions
  used by every classifier in :mod:`repro`.

Fitted attributes always carry a trailing underscore (``classes_``,
``estimators_`` ...) so :func:`repro.utils.validation.check_is_fitted` can
tell fitted estimators apart from fresh ones.

The classifier contract
-----------------------
Every classifier in the zoo — and anything a user registers through
:mod:`repro.registry` — satisfies one structural contract:

* construction: every hyper-parameter is an explicit ``__init__`` keyword,
  stored unmodified on ``self`` (what ``get_params`` / ``set_params`` /
  :func:`clone` introspect);
* training: ``fit(X, y)`` returns ``self`` and sets ``classes_`` plus any
  other trailing-underscore fitted attributes;
* inference: ``predict_proba(X)`` returns an ``(n_samples, n_classes)``
  matrix whose columns follow ``classes_``; ``predict`` derives from it.
  Calling either before ``fit`` raises
  :class:`~repro.exceptions.NotFittedError`;
* capabilities (optional): :func:`supports_sample_weight` reports whether
  ``fit`` consumes boosting weights (signature-inspected, overridable with
  a class-level ``supports_sample_weight`` boolean), and
  :func:`is_persistable` whether the class implements the
  ``__getstate_arrays__`` / ``__setstate_arrays__`` hooks of
  :mod:`repro.persistence`.

:func:`check_classifier_contract` verifies the structural half of this for
a class and returns the list of violations — the registry runs it at
registration time and the CI completeness check runs it over the whole zoo.
"""

from __future__ import annotations

import copy
import inspect
from typing import Any, Dict, List

__all__ = [
    "BaseEstimator",
    "ClassifierMixin",
    "SamplerMixin",
    "check_classifier_contract",
    "clone",
    "is_classifier",
    "is_persistable",
    "supports_sample_weight",
]


class BaseEstimator:
    """Base class providing hyper-parameter introspection.

    Sub-classes must list every hyper-parameter explicitly in ``__init__``
    (no ``*args`` / ``**kwargs``) and store each one on ``self`` under the
    same name, which is what makes :func:`clone` and grid-style parameter
    manipulation possible.
    """

    @classmethod
    def _get_param_names(cls) -> List[str]:
        init = cls.__init__
        if init is object.__init__:
            return []
        sig = inspect.signature(init)
        names = []
        for name, param in sig.parameters.items():
            if name == "self":
                continue
            if param.kind in (param.VAR_POSITIONAL, param.VAR_KEYWORD):
                raise TypeError(
                    f"{cls.__name__}.__init__ must use explicit parameters, "
                    f"found *{name}"
                )
            names.append(name)
        return sorted(names)

    def get_params(self, deep: bool = True) -> Dict[str, Any]:
        """Return hyper-parameters as a dict.

        With ``deep=True`` nested estimator parameters are included using the
        ``component__param`` convention.
        """
        out: Dict[str, Any] = {}
        for name in self._get_param_names():
            value = getattr(self, name)
            out[name] = value
            if deep and hasattr(value, "get_params") and not inspect.isclass(value):
                for sub_name, sub_value in value.get_params(deep=True).items():
                    out[f"{name}__{sub_name}"] = sub_value
        return out

    def set_params(self, **params: Any) -> "BaseEstimator":
        """Set hyper-parameters; supports the nested ``a__b`` convention."""
        if not params:
            return self
        valid = set(self._get_param_names())
        nested: Dict[str, Dict[str, Any]] = {}
        for key, value in params.items():
            name, _, sub_key = key.partition("__")
            if name not in valid:
                raise ValueError(
                    f"Invalid parameter {name!r} for estimator "
                    f"{type(self).__name__}. Valid parameters: {sorted(valid)}"
                )
            if sub_key:
                nested.setdefault(name, {})[sub_key] = value
            else:
                setattr(self, name, value)
        for name, sub_params in nested.items():
            getattr(self, name).set_params(**sub_params)
        return self

    def __repr__(self) -> str:
        params = ", ".join(
            f"{k}={v!r}" for k, v in sorted(self.get_params(deep=False).items())
        )
        return f"{type(self).__name__}({params})"


class ClassifierMixin:
    """Mixin adding ``predict`` and ``score`` (accuracy) and marking the
    estimator type."""

    _estimator_type = "classifier"

    def predict(self, X):
        """Predicted class labels for ``X``: the ``classes_`` entry of each
        row's most probable ``predict_proba`` column."""
        import numpy as np

        proba = self.predict_proba(X)  # raises NotFittedError before fit
        return self.classes_[np.argmax(proba, axis=1)]

    def score(self, X, y) -> float:
        """Mean accuracy of ``self.predict(X)`` w.r.t. ``y``."""
        import numpy as np

        y = np.asarray(y)
        return float(np.mean(self.predict(X) == y))


class SamplerMixin:
    """Mixin marking re-samplers (objects exposing ``fit_resample``)."""

    _estimator_type = "sampler"


def clone(estimator: Any) -> Any:
    """Return an unfitted copy of ``estimator`` with the same parameters.

    Hyper-parameter values are deep-copied so the clone never shares mutable
    state (e.g. nested base estimators) with the original.
    """
    if isinstance(estimator, (list, tuple)):
        return type(estimator)(clone(e) for e in estimator)
    if not hasattr(estimator, "get_params"):
        raise TypeError(
            f"Cannot clone object of type {type(estimator).__name__}: "
            "it does not implement get_params()."
        )
    params = estimator.get_params(deep=False)
    params = {k: copy.deepcopy(v) for k, v in params.items()}
    return type(estimator)(**params)


def is_classifier(estimator: Any) -> bool:
    """True when ``estimator`` follows the classifier contract."""
    return getattr(estimator, "_estimator_type", None) == "classifier"


def supports_sample_weight(estimator: Any) -> bool:
    """True when ``estimator.fit`` consumes per-sample boosting weights.

    An explicit class-level ``supports_sample_weight`` boolean wins (the
    capability flag of the contract); otherwise the ``fit`` signature is
    inspected for an explicit ``sample_weight`` argument. The boosting
    ensembles use this to decide between weighted fits and the classical
    weighted-bootstrap workaround.
    """
    flag = getattr(type(estimator), "supports_sample_weight", None)
    if isinstance(flag, bool):
        return flag
    try:
        sig = inspect.signature(estimator.fit)
    except (TypeError, ValueError, AttributeError):
        return False
    return "sample_weight" in sig.parameters


def is_persistable(estimator_or_cls: Any) -> bool:
    """True when the class implements both pickle-free persistence hooks
    (``__getstate_arrays__`` / ``__setstate_arrays__``), i.e. it can round-
    trip through :func:`repro.persistence.save_model`."""
    cls = (
        estimator_or_cls
        if inspect.isclass(estimator_or_cls)
        else type(estimator_or_cls)
    )
    return hasattr(cls, "__getstate_arrays__") and hasattr(cls, "__setstate_arrays__")


def check_classifier_contract(cls: type) -> List[str]:
    """Structural contract check for a classifier class.

    Returns a list of human-readable violations (empty == compliant):
    the class must be a default-constructible ``BaseEstimator`` classifier
    exposing ``fit`` / ``predict`` / ``predict_proba``, with an
    introspectable ``__init__`` whose parameters survive a
    ``get_params`` → ``clone`` round trip. Never fits anything — this is
    the cheap gate the registry applies to every registration.
    """
    problems: List[str] = []
    if not inspect.isclass(cls):
        return [f"{cls!r} is not a class"]
    if not issubclass(cls, BaseEstimator):
        problems.append(f"{cls.__name__} does not subclass BaseEstimator")
    for method in ("fit", "predict", "predict_proba", "get_params", "set_params"):
        if not callable(getattr(cls, method, None)):
            problems.append(f"{cls.__name__} has no {method}() method")
    if getattr(cls, "_estimator_type", None) != "classifier":
        problems.append(
            f"{cls.__name__} is not marked as a classifier "
            "(missing ClassifierMixin / _estimator_type)"
        )
    try:
        param_names = cls._get_param_names()
    except TypeError as exc:  # *args / **kwargs in __init__
        problems.append(f"{cls.__name__}: {exc}")
        return problems
    except AttributeError:
        return problems  # no introspection at all; already reported above
    try:
        instance = cls()
    except TypeError as exc:
        problems.append(
            f"{cls.__name__} is not default-constructible ({exc}); every "
            "hyper-parameter needs a default"
        )
        return problems
    try:
        params = instance.get_params(deep=False)
    except AttributeError as exc:
        problems.append(
            f"{cls.__name__} does not store every __init__ parameter on "
            f"self ({exc})"
        )
        return problems
    twin = clone(instance)
    if twin.get_params(deep=False).keys() != params.keys():
        problems.append(f"{cls.__name__} does not survive a clone() round trip")
    return problems
