"""Hot-path acceleration for the library's tree ensembles.

Two independent pieces (see ``DESIGN.md`` → "fastpath"):

* **Training** — :class:`SharedBinContext` bins an ensemble's training
  matrix once and lets every member tree fit on cached integer codes
  (opt-in via ``shared_binning=True`` on SPE / RandomForest / Bagging /
  UnderBagging / EasyEnsemble; changes bin edges, so statistically
  equivalent rather than bit-identical).
* **Inference** — :class:`PackedForest` flattens all fitted trees into
  contiguous node arrays and routes every row through every tree: small
  batches in one fused level-synchronous lane pass, large batches by node
  partition over column-major rows (which is also how the SPE fit loop
  re-scores its column-major majority with each new member, on the raw
  thresholds). :class:`ScoringMatrix` rank-codes a fixed matrix for exact
  scoring over integer codes. All are bit-identical to the legacy per-tree
  path and on by default (``REPRO_FASTPATH=0`` / :func:`fastpath_disabled`
  opt out).
"""

from .bincontext import (
    BinnedSubset,
    SharedBinContext,
    check_shared_binning_backend,
    shared_bin_context_for,
)
from .codetable import CodeTable, cached_packed_ensemble, warm_serving_pack
from .config import fastpath_disabled, fastpath_enabled, set_fastpath
from .packed import ESTIMATOR_BLOCK, PackedForest, ScoringMatrix, trees_of

__all__ = [
    "BinnedSubset",
    "SharedBinContext",
    "check_shared_binning_backend",
    "shared_bin_context_for",
    "CodeTable",
    "cached_packed_ensemble",
    "warm_serving_pack",
    "fastpath_disabled",
    "fastpath_enabled",
    "set_fastpath",
    "ESTIMATOR_BLOCK",
    "PackedForest",
    "ScoringMatrix",
    "trees_of",
]
