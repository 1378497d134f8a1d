"""Input validation helpers shared by every estimator in the library."""

from __future__ import annotations

import numbers
from typing import Any, Iterable, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import DataValidationError, NotFittedError

__all__ = [
    "check_random_state",
    "check_array",
    "check_X_y",
    "check_is_fitted",
    "check_sample_weight",
    "column_or_1d",
    "unique_labels",
    "check_binary_labels",
    "encode_binary_labels",
    "binary_column_order",
    "decode_binary_proba",
    "BinaryLabelEncoderMixin",
]


def check_random_state(seed) -> np.random.RandomState:
    """Turn ``seed`` into a :class:`numpy.random.RandomState` instance.

    ``None`` yields a freshly seeded RandomState; an int seeds a new one;
    an existing RandomState passes through unchanged.
    """
    if seed is None:
        # The documented escape hatch: callers that explicitly pass
        # seed=None are asking for OS entropy.
        return np.random.RandomState()  # repro-lint: disable=unseeded-rng
    if isinstance(seed, numbers.Integral):
        return np.random.RandomState(int(seed))
    if isinstance(seed, np.random.RandomState):
        return seed
    if isinstance(seed, np.random.Generator):
        # Accept the new-style Generator by bridging through its bit stream.
        return np.random.RandomState(seed.integers(0, 2**32 - 1))
    raise ValueError(f"{seed!r} cannot be used to seed a RandomState instance")


def check_array(
    X,
    *,
    dtype=np.float64,
    ensure_2d: bool = True,
    allow_nan: bool = False,
    min_samples: int = 1,
    copy: bool = False,
) -> np.ndarray:
    """Validate an array-like and convert it to a numeric ndarray."""
    try:
        # np.asarray copies only when conversion requires it; np.array(copy=True)
        # always copies (numpy 2.x forbids copy=False when a copy is needed).
        X = np.array(X, dtype=dtype) if copy else np.asarray(X, dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise DataValidationError(f"Could not convert input to ndarray: {exc}") from exc
    if ensure_2d:
        if X.ndim == 1:
            raise DataValidationError(
                "Expected a 2D array, got a 1D array. Reshape with "
                ".reshape(-1, 1) for a single feature or .reshape(1, -1) "
                "for a single sample."
            )
        if X.ndim != 2:
            raise DataValidationError(f"Expected a 2D array, got {X.ndim}D.")
        if X.shape[1] == 0:
            raise DataValidationError("Found array with 0 features.")
    if X.shape[0] < min_samples:
        raise DataValidationError(
            f"Found array with {X.shape[0]} sample(s) while a minimum of "
            f"{min_samples} is required."
        )
    if not allow_nan and X.dtype.kind == "f":
        if not np.isfinite(X).all():
            raise DataValidationError(
                "Input contains NaN or infinity. Impute missing values first "
                "(see repro.preprocessing.SimpleImputer) or pass allow_nan=True "
                "where supported."
            )
    return X


def column_or_1d(y, *, name: str = "y") -> np.ndarray:
    """Ravel a column vector; reject anything that is not 1D-shaped."""
    y = np.asarray(y)
    if y.ndim == 2 and y.shape[1] == 1:
        y = y.ravel()
    if y.ndim != 1:
        raise DataValidationError(f"{name} must be 1D, got shape {y.shape}.")
    return y


def check_X_y(
    X,
    y,
    *,
    dtype=np.float64,
    allow_nan: bool = False,
    min_samples: int = 1,
) -> Tuple[np.ndarray, np.ndarray]:
    """Validate a feature matrix / label vector pair of matching length."""
    X = check_array(X, dtype=dtype, allow_nan=allow_nan, min_samples=min_samples)
    y = column_or_1d(y)
    if X.shape[0] != y.shape[0]:
        raise DataValidationError(
            f"X and y have inconsistent lengths: {X.shape[0]} != {y.shape[0]}."
        )
    return X, y


def check_is_fitted(estimator: Any, attributes: Optional[Sequence[str]] = None) -> None:
    """Raise :class:`NotFittedError` unless ``estimator`` looks fitted.

    Without explicit ``attributes``, any attribute ending in an underscore
    (and not starting with one) counts as evidence of fitting.
    """
    if attributes is not None:
        fitted = all(hasattr(estimator, attr) for attr in attributes)
    else:
        fitted = any(
            v.endswith("_") and not v.startswith("_") for v in vars(estimator)
        )
    if not fitted:
        raise NotFittedError(
            f"This {type(estimator).__name__} instance is not fitted yet. "
            "Call 'fit' with appropriate arguments first."
        )


def check_sample_weight(sample_weight, n_samples: int) -> np.ndarray:
    """Validate or default sample weights to uniform."""
    if sample_weight is None:
        return np.full(n_samples, 1.0 / n_samples)
    sample_weight = column_or_1d(sample_weight, name="sample_weight").astype(float)
    if sample_weight.shape[0] != n_samples:
        raise DataValidationError(
            f"sample_weight has {sample_weight.shape[0]} entries, expected "
            f"{n_samples}."
        )
    if (sample_weight < 0).any():
        raise DataValidationError("sample_weight must be non-negative.")
    total = sample_weight.sum()
    if total <= 0:
        raise DataValidationError("sample_weight must not sum to zero.")
    return sample_weight / total


def unique_labels(*ys: Iterable) -> np.ndarray:
    """Sorted array of the labels present across all given label vectors."""
    values: set = set()
    for y in ys:
        values.update(np.unique(np.asarray(y)).tolist())
    return np.array(sorted(values))


def check_binary_labels(y) -> np.ndarray:
    """Validate that ``y`` is already in the *internal* {0, 1} encoding.

    This is the internal-encoding check: every ensemble in the library
    trains its base models on 0 = majority / 1 = minority codes. User-facing
    ``fit`` methods accept arbitrary binary labels and map them through
    :func:`encode_binary_labels` first; paths that *require* the internal
    codes (streaming block scans, samplers, hand-rolled pipelines) validate
    with this function.
    """
    y = column_or_1d(y)
    labels = np.unique(y)
    if labels.size > 2:
        raise DataValidationError(
            f"Expected binary labels, found {labels.size} classes: {labels!r}."
        )
    if not np.isin(labels, (0, 1)).all():
        raise DataValidationError(
            f"Expected labels in {{0, 1}}, found {labels!r}. Encode the "
            "minority class as 1 and the majority class as 0."
        )
    return y.astype(int)


def encode_binary_labels(y) -> Tuple[np.ndarray, np.ndarray, Optional[int]]:
    """Map arbitrary binary labels onto the internal {0, 1} encoding.

    Returns ``(classes, y_internal, minority_idx)`` where ``classes`` is the
    sorted array of distinct labels (the fitted ``classes_``), ``y_internal``
    encodes the *minority* class (by frequency; tie → the second sorted
    label) as 1 and the majority as 0, and ``minority_idx`` is the minority
    label's position in ``classes``.

    For the library's historical encoding — ``{0, 1}`` with 1 the rarer
    class — the internal labels equal the input bit for bit, so existing
    pipelines are unaffected. A single-label ``y`` drawn from {0, 1} passes
    through unchanged with ``minority_idx=None`` (the degenerate case each
    ensemble rejects or handles itself); a single label outside {0, 1} is
    rejected because majority/minority cannot be assigned.
    """
    y = column_or_1d(y)
    classes, y_idx, counts = np.unique(y, return_inverse=True, return_counts=True)
    if classes.size > 2:
        raise DataValidationError(
            f"Expected binary labels, found {classes.size} classes: {classes!r}."
        )
    if classes.size == 1:
        if classes[0] in (0, 1):
            return classes, y.astype(int), None
        raise DataValidationError(
            f"Expected two classes, found only {classes[0]!r}; cannot assign "
            "majority/minority roles to a single arbitrary label."
        )
    minority_idx = 0 if counts[0] < counts[1] else 1
    return classes, (y_idx == minority_idx).astype(int), minority_idx


def binary_column_order(classes, minority_class) -> np.ndarray:
    """Column permutation mapping internal ``[P(majority), P(minority)]``
    probabilities onto ``classes_`` order (the public ``predict_proba``
    contract: column ``j`` is the probability of ``classes_[j]``)."""
    classes = np.asarray(classes)
    if classes.shape[0] == 2 and classes[0] == minority_class:
        return np.array([1, 0])
    return np.array([0, 1])


def decode_binary_proba(internal, classes, minority_class) -> np.ndarray:
    """Internal 2-column probabilities → columns in ``classes_`` order.

    Handles the degenerate single-class fit ({0} or {1} passthrough, see
    :func:`encode_binary_labels`): the output then has one column — the
    internal column of that lone label — matching the historical contract
    that ``predict_proba`` has ``len(classes_)`` columns.
    """
    classes = np.asarray(classes)
    if classes.shape[0] == 1:
        return internal[:, [int(classes[0])]]
    return internal[:, binary_column_order(classes, minority_class)]


class BinaryLabelEncoderMixin:
    """Fit-time label-encoding bookkeeping shared by every label-encoded
    classifier (SPE and the rest of the imbalance-ensemble family).

    One implementation keeps the three users from drifting apart: the
    mapping recorded by :meth:`_set_label_encoding` (typically from
    :func:`encode_binary_labels` / ``label_value_scan``) drives eval-label
    encoding and ``predict_proba`` column decoding identically everywhere.
    """

    def _set_label_encoding(self, classes: np.ndarray, minority_idx) -> None:
        """Record the fitted label alphabet and its internal 0/1 mapping."""
        self.classes_ = np.asarray(classes)
        if minority_idx is not None:
            self.minority_class_ = self.classes_[minority_idx]
            self.majority_class_ = self.classes_[1 - minority_idx]
        else:
            self.minority_class_ = None
            self.majority_class_ = self.classes_[0]

    def _encode_labels(self, y) -> np.ndarray:
        """Original-alphabet labels → internal 0/1 codes via the fitted map."""
        y = np.asarray(y)
        if getattr(self, "minority_class_", None) is None:
            return y.astype(int)
        return (y == self.minority_class_).astype(int)

    def _decode_proba(self, internal: np.ndarray) -> np.ndarray:
        """Internal ``[P(majority), P(minority)]`` columns → ``classes_`` order."""
        return decode_binary_proba(internal, self.classes_, self.minority_class_)

