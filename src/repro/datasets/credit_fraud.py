"""Credit-card fraud surrogate (paper's "Credit Fraud", Table III).

The original Kaggle dataset (Dal Pozzolo et al., 2018) has 284 807 European
card transactions over two days with 492 frauds (IR 578.88:1) and 30
numerical features: 28 anonymised PCA components ``V1..V28`` plus ``Time``
and ``Amount``.

This surrogate reproduces the properties the paper's experiments exercise:

* numerical-only features with PCA-like decaying variance,
* extreme imbalance with a minority that forms a few weak clusters shifted
  along the leading components (fraud modi operandi),
* a fraction of frauds statistically indistinguishable from genuine
  transactions (class overlap / label noise), so no method can reach a
  perfect score and noise-sensitive methods degrade,
* day/night bimodal ``Time`` and heavy-tailed ``Amount``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..utils.validation import check_random_state

__all__ = ["make_credit_fraud"]

#: paper-scale defaults (Table III)
PAPER_N_SAMPLES = 284_807
PAPER_IMBALANCE_RATIO = 578.88

#: rows of normal draws held at once while filling the output
_CHUNK_ROWS = 16_384


def make_credit_fraud(
    n_samples: int = 50_000,
    imbalance_ratio: float = PAPER_IMBALANCE_RATIO,
    n_pca_components: int = 28,
    n_fraud_clusters: int = 3,
    fraud_shift: float = 3.5,
    overlap_fraction: float = 0.15,
    random_state=None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Generate the credit-fraud surrogate.

    Parameters
    ----------
    n_samples : total number of transactions.
    imbalance_ratio : ``|N| / |P|``; the paper's value by default.
    n_fraud_clusters : number of fraud modi operandi (minority clusters).
    fraud_shift : cluster shift in units of each component's std deviation.
    overlap_fraction : fraction of frauds drawn from the *genuine*
        distribution — irreducible noise that punishes overfitting methods.

    Returns ``(X, y)``; columns are ``V1..V{n_pca_components}``, ``Time``,
    ``Amount``; fraud is class 1.
    """
    if n_samples < 10:
        raise ValueError("n_samples too small")
    if not 0.0 <= overlap_fraction <= 1.0:
        raise ValueError("overlap_fraction must be in [0, 1]")
    rng = check_random_state(random_state)
    n_fraud = max(1, int(round(n_samples / (1.0 + imbalance_ratio))))
    n_genuine = n_samples - n_fraud
    d = n_pca_components
    # One output buffer: genuine rows first, then fraud rows; columns are
    # the components, Time, Amount. Every block is drawn straight into its
    # slice. The draw order fixes every seeded table, so keep it.
    X = np.empty((n_samples, d + 2))

    # PCA-like spectrum: variances decay geometrically as in real PCA tails.
    stds = 1.8 * (0.88 ** np.arange(d)) + 0.15

    def genuine_components(out: np.ndarray) -> None:
        # Legacy ``RandomState.normal`` called per chunk continues the same
        # stream as one call over all rows, so the chunked draw is byte-equal
        # to it and holds only one chunk's temporary.
        for lo in range(0, len(out), _CHUNK_ROWS):
            part = out[lo : lo + _CHUNK_ROWS, :d]
            np.multiply(rng.normal(0.0, 1.0, size=part.shape), stds, out=part)

    genuine_components(X[:n_genuine])

    # Fraud clusters: shifted in a random low-dimensional direction each.
    n_overlap = int(round(overlap_fraction * n_fraud))
    n_clustered = n_fraud - n_overlap
    cluster_sizes = np.full(n_fraud_clusters, n_clustered // n_fraud_clusters)
    cluster_sizes[: n_clustered % n_fraud_clusters] += 1
    row = n_genuine
    for size in cluster_sizes:
        if size == 0:
            continue
        # Shift along a few leading components (like V14/V17 in the real
        # data), keeping the tail components genuine-like.
        direction = np.zeros(d)
        lead = rng.choice(min(10, d), size=3, replace=False)
        direction[lead] = rng.normal(0.0, 1.0, size=3)
        direction /= np.linalg.norm(direction)
        centre = fraud_shift * direction * stds
        spread = 0.6  # tighter than the genuine mass
        block = X[row : row + size, :d]
        np.multiply(rng.normal(0.0, spread, size=block.shape), stds, out=block)
        block += centre
        row += size
    genuine_components(X[row:])

    # Time: two days (in hours, 0-48), bimodal day/night; frauds skew to
    # night. Hours rather than seconds keep the column on a scale
    # commensurate with the PCA components — the paper stresses that this
    # dataset's normalised numerical features let distance-based methods
    # "achieve their maximum potential".
    def sample_time(n: int, night_bias: float) -> np.ndarray:
        day = rng.normal(14.0, 4.0, size=n)
        night = rng.normal(3.0, 2.0, size=n)
        pick_night = rng.uniform(size=n) < night_bias
        hours = np.where(pick_night, night, day) % 24.0
        return hours + rng.randint(0, 2, size=n) * 24.0

    X[:n_genuine, d] = sample_time(n_genuine, night_bias=0.2)
    X[n_genuine:, d] = sample_time(n_fraud, night_bias=0.45)

    # Amount on a log scale (log1p of a log-normal); frauds favour
    # small-to-mid "test" amounts.
    X[:n_genuine, d + 1] = np.log1p(rng.lognormal(mean=3.4, sigma=1.3, size=n_genuine))
    X[n_genuine:, d + 1] = np.log1p(rng.lognormal(mean=3.0, sigma=1.6, size=n_fraud))

    y = np.zeros(n_samples, dtype=int)
    y[n_genuine:] = 1
    perm = rng.permutation(n_samples)
    return X[perm], y[perm]
