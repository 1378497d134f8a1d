"""repro — full reproduction of "Self-paced Ensemble for Highly Imbalanced
Massive Data Classification" (Liu et al., ICDE 2020).

The package implements the paper's contribution
(:class:`repro.core.SelfPacedEnsembleClassifier`) together with every
substrate its evaluation depends on: canonical classifiers, distance-based
re-samplers, baseline imbalance ensembles, evaluation metrics, and
generators/simulators for all six datasets.

Quickstart
----------
>>> from repro import SelfPacedEnsembleClassifier
>>> from repro.datasets import make_checkerboard
>>> from repro.metrics import evaluate_classifier
>>> X, y = make_checkerboard(n_minority=200, n_majority=2000, random_state=0)
>>> clf = SelfPacedEnsembleClassifier(n_estimators=10, random_state=0).fit(X, y)
>>> scores = evaluate_classifier(clf, X, y)   # AUCPRC / F1 / GM / MCC

Or pick any model from the zoo by name through the registry facade:

>>> from repro import get_classifier
>>> clf = get_classifier("spe", base="logistic", preset="fraud").fit(X, y)
"""

from .base import (
    BaseEstimator,
    ClassifierMixin,
    check_classifier_contract,
    clone,
    is_classifier,
    is_persistable,
    supports_sample_weight,
)
from .core import SelfPacedEnsembleClassifier
from .registry import (
    get_classifier,
    list_classifiers,
    list_presets,
    make_classifier,
    register_classifier,
)
from .persistence import load_model, save_model
from .serving import (
    AsyncGateway,
    ModelServer,
    ServerConfig,
    WorkerPool,
    serve,
)
from .monitoring import DriftMonitor, ReferenceSketch
from .lifecycle import ArtifactRegistry, LifecycleController, RetrainPolicy
from . import telemetry
from .telemetry import get_registry
from .exceptions import (
    CircuitOpenError,
    DataValidationError,
    DeadlineExceededError,
    FleetTimeoutError,
    NotEnoughSamplesError,
    NotFittedError,
    PersistenceError,
    RegistryError,
    ReproError,
    ServerClosedError,
    ServerOverloadedError,
    SwapFailedError,
    UndefinedMetricWarning,
    UnsupportedPlatformError,
    WorkerCrashedError,
)

__version__ = "1.0.0"

__all__ = [
    "BaseEstimator",
    "ClassifierMixin",
    "check_classifier_contract",
    "clone",
    "is_classifier",
    "is_persistable",
    "supports_sample_weight",
    "SelfPacedEnsembleClassifier",
    "get_classifier",
    "list_classifiers",
    "list_presets",
    "make_classifier",
    "register_classifier",
    "load_model",
    "save_model",
    "AsyncGateway",
    "ModelServer",
    "ServerConfig",
    "WorkerPool",
    "serve",
    "DriftMonitor",
    "ReferenceSketch",
    "ArtifactRegistry",
    "LifecycleController",
    "RetrainPolicy",
    "get_registry",
    "telemetry",
    "CircuitOpenError",
    "DataValidationError",
    "DeadlineExceededError",
    "FleetTimeoutError",
    "NotEnoughSamplesError",
    "NotFittedError",
    "PersistenceError",
    "RegistryError",
    "ReproError",
    "ServerClosedError",
    "ServerOverloadedError",
    "SwapFailedError",
    "UndefinedMetricWarning",
    "UnsupportedPlatformError",
    "WorkerCrashedError",
    "__version__",
]
