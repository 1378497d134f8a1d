"""Hot-path acceleration for the library's tree ensembles.

Inference only (see ``DESIGN.md`` → "fastpath"): :class:`PackedForest`
flattens all fitted trees into contiguous node arrays and routes every row
through every tree: small batches in one fused level-synchronous lane pass,
large batches by node partition over column-major rows (which is also how
the SPE fit loop re-scores its column-major majority with each new member,
on the raw thresholds). :func:`cached_packed_ensemble` keeps one pack per
ensemble for repeated calls. :class:`ScoringMatrix` rank-codes a fixed
matrix for exact scoring over integer codes. All are bit-identical to the
per-tree path, which serves only ensembles that do not pack.
"""

from .packed import (
    ESTIMATOR_BLOCK,
    PackedForest,
    ScoringMatrix,
    TRANSPOSE_ROWS,
    cached_packed_ensemble,
    trees_of,
    warm_serving_pack,
)

__all__ = [
    "cached_packed_ensemble",
    "warm_serving_pack",
    "ESTIMATOR_BLOCK",
    "PackedForest",
    "ScoringMatrix",
    "TRANSPOSE_ROWS",
    "trees_of",
]
