"""Every golden model fits to the bytes recorded in ``tests/data``.

Each model of ``tools/fit_digest.py``'s ``GOLDEN_MODELS`` is fitted on the
committed table ``tests/data/golden_table.npz`` and hashed with
``model_digest(model, X, X)``: its trees, its ``predict_proba`` on the
table, its saved state tree and the memory-mapped reload's
``predict_proba``. The line must equal the one in
``tests/data/golden_digests.txt``, with the process pinned to one CPU and
to all of them. A change that means to change a model rewrites the file
with ``tools/fit_digest.py --write-golden``.

The table is saved rather than generated here, because
``make_credit_fraud``'s ``log1p`` may differ in the last bit between
numpy's SIMD dispatch levels. GBDT, logistic regression, MLP and
EasyEnsemble have no line: their fits depend on the dispatch level even
on one saved table (EasyEnsemble through a SAMME round's ``np.exp``), so
their bytes are not the same on every host.
"""

import pathlib
import sys

import numpy as np

from affinity import under_each_cpu_set

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tools"))
try:
    from fit_digest import GOLDEN_DIGESTS, GOLDEN_TABLE, golden_lines
finally:
    sys.path.pop(0)


@under_each_cpu_set
def test_every_golden_model_is_byte_identical():
    with np.load(GOLDEN_TABLE) as table:
        got = golden_lines(table["X"], table["y"])
    with open(GOLDEN_DIGESTS, encoding="utf-8") as fh:
        assert got == fh.read().splitlines()
