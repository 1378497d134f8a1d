"""Missing-value injection (paper Section VI-C3, Table VII).

The paper's protocol: "randomly select values from all features in both
training and test datasets, then replace them with meaningless 0".
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..utils.validation import check_array, check_random_state

__all__ = ["inject_missing_values"]


def inject_missing_values(
    X,
    missing_ratio: float,
    *,
    fill_value: Optional[float] = 0.0,
    random_state=None,
) -> np.ndarray:
    """Return a copy of ``X`` with ``missing_ratio`` of entries replaced.

    ``fill_value=0.0`` reproduces the paper's protocol; ``fill_value=None``
    writes NaN instead, for learners that accept missing values.
    """
    if not 0.0 <= missing_ratio <= 1.0:
        raise ValueError(f"missing_ratio must be in [0, 1], got {missing_ratio}")
    X = check_array(X, allow_nan=True, copy=True)
    if missing_ratio == 0.0:
        return X
    rng = check_random_state(random_state)
    mask = rng.uniform(size=X.shape) < missing_ratio
    X[mask] = np.nan if fill_value is None else float(fill_value)
    return X
