"""Every golden model fits to the bytes recorded in ``tests/data``.

Each model of ``tools/fit_digest.py``'s ``GOLDEN_MODELS`` is fitted on the
committed table ``tests/data/golden_table.npz`` and hashed with
``model_digest(model, X, X)``: its trees, its ``predict_proba`` on the
table, its saved state tree and the memory-mapped reload's
``predict_proba``. The line must equal the one in
``tests/data/golden_digests.txt``, with the process pinned to one CPU and
to all of them. A change that means to change a model rewrites the file
with ``tools/fit_digest.py --write-golden``. The same lines must also
come out of a child process started at the lowest SIMD dispatch level
the CPU runs (the ``test_dispatch_level.py`` pattern).

The table is saved rather than generated here, because
``make_credit_fraud``'s ``log1p`` may differ in the last bit between
numpy's SIMD dispatch levels. GBDT, logistic regression, MLP and
EasyEnsemble have no line: their fits depend on the dispatch level even
on one saved table (EasyEnsemble through a SAMME round's ``np.exp``), so
their bytes are not the same on every host.
"""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import repro
from affinity import under_each_cpu_set

TOOLS = pathlib.Path(__file__).resolve().parents[1] / "tools"
SRC = pathlib.Path(repro.__file__).resolve().parents[1]

#: Print the dispatch levels in effect, then every golden line.
CHILD = """
import sys
sys.path[:0] = sys.argv[1:3]
import numpy as np
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
from fit_digest import GOLDEN_TABLE, golden_lines

print(",".join(f for f in __cpu_dispatch__ if __cpu_features__.get(f)))
with np.load(GOLDEN_TABLE) as table:
    print("\\n".join(golden_lines(table["X"], table["y"])))
"""

sys.path.insert(0, str(TOOLS))
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


def test_golden_models_at_the_lowest_dispatch_level():
    umath = pytest.importorskip("numpy._core._multiarray_umath")
    levels = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]
    if len(levels) < 2:
        pytest.skip(f"one SIMD dispatch level on this CPU: {levels}")
    out = subprocess.run(
        [sys.executable, "-c", CHILD, str(TOOLS), str(SRC)],
        env={**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(levels[1:])},
        capture_output=True, text=True, check=True, timeout=300,
    )
    active, *got = out.stdout.splitlines()
    assert active.split(",") == levels[:1]
    with open(GOLDEN_DIGESTS, encoding="utf-8") as fh:
        assert got == fh.read().splitlines()
