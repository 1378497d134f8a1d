"""Splitting and evaluation protocols (stratified 60/20/20, stratified K-fold)."""

from .split import (
    StratifiedKFold,
    train_test_split,
    train_valid_test_split,
)

__all__ = [
    "StratifiedKFold",
    "train_test_split",
    "train_valid_test_split",
]
