"""String registry + facade over the model zoo.

Every classifier this library exports is registered here under a short
stable name, which is what flows through the rest of the stack:

* ``make_classifier("logistic", C=0.5)`` — name → instance;
* ``get_classifier("spe", base="logistic", preset="fraud")`` — one-call
  facade composing ensembles, base estimators, and named presets;
* every ensemble's ``estimator=`` parameter accepts a registered name
  (resolved through :func:`resolve_estimator` at fit time);
* :mod:`repro.persistence` resolves artifact class names through
  :func:`persistable_class_by_name` instead of a hand-maintained table;
* :class:`repro.lifecycle.LifecycleController` accepts a registered name
  or instance as its retraining recipe.

The registration table below *is* the supported zoo; the completeness
audit (:func:`registry_problems`, run by ``make lint``) fails when an
exported classifier is missing from it.
"""

from __future__ import annotations

from ..core import SelfPacedEnsembleClassifier
from ..ensemble import (
    AdaBoostClassifier,
    BaggingClassifier,
    GradientBoostingClassifier,
    RandomForestClassifier,
)
from ..imbalance_ensemble import (
    BalanceCascadeClassifier,
    EasyEnsembleClassifier,
    ResampleEnsembleClassifier,
    RUSBoostClassifier,
    SMOTEBaggingClassifier,
    SMOTEBoostClassifier,
    UnderBaggingClassifier,
)
from ..linear import LogisticRegression
from ..neighbors import KNeighborsClassifier
from ..neural import MLPClassifier
from ..sampling import RandomUnderSampler
from ..svm import SVC, LinearSVC
from ..tree import C45Classifier, DecisionTreeClassifier
from .completeness import registry_problems, toy_imbalanced_split
from .core import (
    ClassifierSpec,
    classifier_spec,
    list_classifiers,
    make_classifier,
    persistable_class_by_name,
    register_classifier,
    resolve_estimator,
)
from .facade import get_classifier
from .presets import PRESETS, list_presets, preset_params

__all__ = [
    "ClassifierSpec",
    "classifier_spec",
    "get_classifier",
    "list_classifiers",
    "list_presets",
    "make_classifier",
    "persistable_class_by_name",
    "preset_params",
    "PRESETS",
    "register_classifier",
    "registry_problems",
    "resolve_estimator",
    "toy_imbalanced_split",
]

# --------------------------------------------------------------------- #
# The zoo. smoke_params are the tiny configurations the completeness
# audit and the round-trip test matrix fit on the toy split.
# --------------------------------------------------------------------- #

# Base learners -------------------------------------------------------- #
register_classifier(
    "tree", DecisionTreeClassifier, smoke_params={"max_depth": 4},
    description="Histogram-binned CART decision tree",
)
register_classifier(
    "c45", C45Classifier, smoke_params={"max_depth": 4},
    description="C4.5-style tree (gain ratio splits)",
)
register_classifier(
    "logistic", LogisticRegression, smoke_params={"max_iter": 100},
    description="L2 logistic regression (Newton solver)",
)
register_classifier(
    "svm", SVC, smoke_params={"max_iter": 5000},
    description="Kernel SVC (SMO) with Platt-scaled probabilities",
)
register_classifier(
    "linear_svm", LinearSVC, smoke_params={"max_iter": 200},
    description="Linear SVM (SGD hinge) with Platt-scaled probabilities",
)
register_classifier(
    "mlp", MLPClassifier,
    smoke_params={"hidden_layer_sizes": (8,), "max_epochs": 8},
    description="Multi-layer perceptron (Adam)",
)
register_classifier(
    "knn", KNeighborsClassifier, smoke_params={"n_neighbors": 3},
    description="k-nearest neighbours",
)

# General-purpose ensembles ------------------------------------------- #
register_classifier(
    "adaboost", AdaBoostClassifier, smoke_params={"n_estimators": 4},
    description="AdaBoost (SAMME / SAMME.R) over any base learner",
)
register_classifier(
    "bagging", BaggingClassifier, smoke_params={"n_estimators": 4},
    description="Bootstrap aggregating over any base learner",
)
register_classifier(
    "forest", RandomForestClassifier, smoke_params={"n_estimators": 4},
    description="Random forest (feature-subsampled bagged trees)",
)
register_classifier(
    "gbdt", GradientBoostingClassifier,
    smoke_params={"n_estimators": 5, "max_depth": 2},
    description="Gradient-boosted regression trees (logistic loss)",
)

# Imbalance-aware ensembles ------------------------------------------- #
register_classifier(
    "spe", SelfPacedEnsembleClassifier,
    smoke_params={"n_estimators": 4, "k_bins": 5},
    description="Self-paced ensemble (the paper's method)",
)
register_classifier(
    "streaming_spe", SelfPacedEnsembleClassifier,
    smoke_params={"n_estimators": 4, "k_bins": 5},
    description="Self-paced ensemble (alias of spe for out-of-core recipes)",
)
register_classifier(
    "under_bagging", UnderBaggingClassifier,
    smoke_params={"n_estimators": 4},
    description="Bagging over random balanced undersamples",
)
register_classifier(
    "easy_ensemble", EasyEnsembleClassifier,
    smoke_params={"n_estimators": 3, "n_boost_rounds": 3},
    description="Bagged AdaBoost over balanced subsets",
)
register_classifier(
    "balance_cascade", BalanceCascadeClassifier,
    smoke_params={"n_estimators": 3},
    description="Cascaded undersampling with majority pruning",
)
register_classifier(
    "rus_boost", RUSBoostClassifier, smoke_params={"n_estimators": 3},
    description="Boosting over random undersamples",
)
register_classifier(
    "smote_boost", SMOTEBoostClassifier,
    smoke_params={"n_estimators": 3, "k_neighbors": 3},
    description="Boosting with per-round SMOTE oversampling",
)
register_classifier(
    "smote_bagging", SMOTEBaggingClassifier,
    smoke_params={"n_estimators": 3, "k_neighbors": 3},
    description="Bagging with per-bag SMOTE oversampling",
)
register_classifier(
    "resample_ensemble", ResampleEnsembleClassifier,
    # A sampler is mandatory to fit; the smoke config uses the simplest one.
    smoke_params={"n_estimators": 3, "sampler": RandomUnderSampler()},
    # The sampler hyper-parameter is an arbitrary callable, which the
    # artifact header cannot encode — fitted models must stay in memory.
    persistable=False,
    description="Bagging over a custom resampling callable",
)
