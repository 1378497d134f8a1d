"""Nearest-neighbour search and classification."""

from .distance import kneighbors, pairwise_distances
from .knn import KNeighborsClassifier

__all__ = [
    "kneighbors",
    "pairwise_distances",
    "KNeighborsClassifier",
]
