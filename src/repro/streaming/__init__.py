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
* :mod:`repro.streaming.self_paced` —
  :class:`StreamingSelfPacedEnsembleClassifier`, Algorithm 1 over a source:
  bit-identical to the in-memory classifier in ``mode="exact"``,
  majority-size-independent memory in ``mode="reservoir"``.

:mod:`repro.streaming.adapters` wires the same sources into the resampled
ensembles (``fit_source`` on UnderBagging / EasyEnsemble). Dataset loaders
expose matching sources via ``Dataset.as_source()``.
"""

from .adapters import fit_balanced_source_ensemble, source_balanced_subset_sample
from .binstats import StreamingBinStats
from .reservoir import BinReservoir, streaming_self_paced_under_sample
from .self_paced import StreamingSelfPacedEnsembleClassifier
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
    "StreamingSelfPacedEnsembleClassifier",
    "class_index_scan",
    "encoded_label_source",
    "fit_balanced_source_ensemble",
    "label_value_scan",
    "save_csv",
    "source_balanced_subset_sample",
    "streaming_self_paced_under_sample",
]
