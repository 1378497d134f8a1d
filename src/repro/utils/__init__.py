"""Shared utilities: validation, array helpers, timing."""

from .arrays import imbalance_ratio, stratified_indices
from .timing import timed_call
from .validation import (
    binary_column_order,
    check_array,
    check_binary_labels,
    check_is_fitted,
    check_random_state,
    check_X_y,
    column_or_1d,
    decode_binary_proba,
    encode_binary_labels,
    unique_labels,
)

__all__ = [
    "binary_column_order",
    "check_array",
    "check_binary_labels",
    "decode_binary_proba",
    "encode_binary_labels",
    "check_is_fitted",
    "check_random_state",
    "check_X_y",
    "column_or_1d",
    "unique_labels",
    "imbalance_ratio",
    "stratified_indices",
    "timed_call",
]
