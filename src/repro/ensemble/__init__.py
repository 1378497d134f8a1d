"""Canonical ensemble learners: Bagging, Random Forest, AdaBoost, GBDT."""

from .adaboost import AdaBoostClassifier
from .bagging import BaggingClassifier
from .forest import RandomForestClassifier
from .gbdt import GradientBoostingClassifier, GradientRegressionTree

__all__ = [
    "AdaBoostClassifier",
    "BaggingClassifier",
    "RandomForestClassifier",
    "GradientBoostingClassifier",
    "GradientRegressionTree",
]
