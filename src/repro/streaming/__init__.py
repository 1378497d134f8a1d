"""Out-of-core streaming training: datasets larger than memory.

The paper's headline is *massive* imbalanced data, and inference already
streams through :mod:`repro.parallel`; this subsystem extends the same idea
to training. Four layers:

* :mod:`repro.streaming.sources` — chunked dataset access
  (:class:`ArraySource` / :class:`CSVSource` / :class:`NPYSource`) plus the
  single-pass :func:`class_index_scan`;
* :mod:`repro.streaming.binstats` — running per-bin hardness statistics
  (:class:`StreamingBinStats`), folded in block by block;
* :mod:`repro.streaming.reservoir` — bounded-memory self-paced
  under-sampling (:func:`streaming_self_paced_under_sample`) built on
  per-bin reservoirs (:class:`BinReservoir`);
* :mod:`repro.streaming.self_paced` — the majority seams behind
  :meth:`SelfPacedEnsembleClassifier.fit_source
  <repro.core.SelfPacedEnsembleClassifier.fit_source>`, Algorithm 1 over a
  source: bit-identical to ``fit(X, y)`` in ``mode="exact"``,
  majority-size-independent memory in ``mode="reservoir"``.

UnderBagging and EasyEnsemble take the same sources through the
``fit_source`` of their shared base,
:class:`~repro.imbalance_ensemble.base.BalancedBagEnsemble`, which draws
each bag as ``fit`` does and gathers only its rows. Dataset loaders
expose matching sources via ``Dataset.as_source()``.
"""

from .binstats import StreamingBinStats
from .reservoir import BinReservoir, streaming_self_paced_under_sample
from .sources import (
    ArraySource,
    ClassIndexScan,
    CSVSource,
    DataSource,
    EncodedLabelSource,
    NPYSource,
    class_index_scan,
    encoded_label_source,
    label_value_scan,
    save_csv,
)

__all__ = [
    "ArraySource",
    "BinReservoir",
    "CSVSource",
    "ClassIndexScan",
    "DataSource",
    "EncodedLabelSource",
    "NPYSource",
    "StreamingBinStats",
    "class_index_scan",
    "encoded_label_source",
    "label_value_scan",
    "save_csv",
    "streaming_self_paced_under_sample",
]
