"""The per-tree reference the packed-path tests compare against.

Inside :func:`per_tree_reference` no tree ensemble packs:
``PackedForest.from_estimators`` returns ``None`` and the pack cache is
swapped for an empty one, so every tree ensemble declines packing exactly
the way an ensemble of non-tree members does. The SPE fit then scores its
majority through ``proba_fn``, ``ensemble_predict_proba`` runs the chunked
per-tree engine (``Tree.apply`` per member, summed in the documented block
order) and ``warm_serving_pack`` returns ``False``.
"""

import contextlib
import weakref
from unittest import mock

from repro.fastpath import packed


@contextlib.contextmanager
def per_tree_reference():
    """Run a block with packing declined for every ensemble."""
    with mock.patch.object(packed.PackedForest, "from_estimators", return_value=None), \
            mock.patch.object(packed, "_PACK_CACHE", weakref.WeakKeyDictionary()):
        yield
