"""Fitted models do not depend on numpy's SIMD dispatch level.

numpy picks its SIMD kernels per CPU at import, and
``NPY_DISABLE_CPU_FEATURES`` switches the upper dispatch levels off for
a process started with it. An SPE fit on one saved table, and its
``predict_proba`` on that table, must give the same bytes at the default
level and at the lowest dispatch level the CPU runs. The table is made
once, in this process: its generator's ``log1p`` is itself allowed to
differ in the last bit between levels (see ``tools/fit_digest.py``).
"""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.datasets import make_credit_fraud

umath = pytest.importorskip("numpy._core._multiarray_umath")

TOOLS = pathlib.Path(__file__).resolve().parents[1] / "tools"
SRC = pathlib.Path(repro.__file__).resolve().parents[1]

#: Fit SPE on the saved table; print the dispatch levels in effect, the
#: digest of every fitted tree and the digest of predict_proba's bytes.
CHILD = """
import sys
sys.path[:0] = sys.argv[2:4]
import numpy as np
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
from fit_digest import model_digest
from repro.registry import get_classifier

table = np.load(sys.argv[1])
X, y = table["X"], table["y"]
model = get_classifier("spe", n_estimators=10, random_state=0).fit(X, y)
print(",".join(f for f in __cpu_dispatch__ if __cpu_features__.get(f)))
print(model_digest(model))
print(model_digest(model, X))
"""


def _enabled_levels():
    return [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]


def test_fit_and_predict_bytes_match_across_dispatch_levels(tmp_path):
    levels = _enabled_levels()
    if len(levels) < 2:
        pytest.skip(f"one SIMD dispatch level on this CPU: {levels}")
    X, y = make_credit_fraud(n_samples=20_000, imbalance_ratio=50.0, random_state=0)
    table = tmp_path / "table.npz"
    np.savez(table, X=X, y=y)

    def run(**env):
        out = subprocess.run(
            [sys.executable, "-c", CHILD, str(table), str(TOOLS), str(SRC)],
            env={**os.environ, **env}, capture_output=True, text=True,
            check=True, timeout=300,
        )
        active, trees, proba = out.stdout.split()
        return active.split(","), (trees, proba)

    active, default = run()
    assert active == levels
    active, reduced = run(NPY_DISABLE_CPU_FEATURES=" ".join(levels[1:]))
    assert active == levels[:1]
    assert reduced == default
