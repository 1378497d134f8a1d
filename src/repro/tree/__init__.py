"""Decision trees: CART-style (gini/entropy) and C4.5-style (gain ratio)."""

from ._binning import FeatureBinner
from .decision_tree import C45Classifier, DecisionTreeClassifier

__all__ = [
    "C45Classifier",
    "DecisionTreeClassifier",
    "FeatureBinner",
]
