"""The library's import footprint: numpy is its only hard dependency.

scipy is needed only to fit ``LogisticRegression``, ``SVC`` and
``LinearSVC``, which import it inside the function that calls the
optimiser. Every other path (import, tree and SPE fits, persistence, mmap
loads and prediction) must run on a host without scipy.
"""

import os
import pathlib
import subprocess
import sys
import textwrap

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

_WITHOUT_SCIPY = textwrap.dedent(
    """
    import os
    import sys
    import tempfile

    import numpy as np

    import repro

    loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    assert not loaded, loaded
    sys.modules["scipy"] = None  # any later ``import scipy`` raises

    from repro import SelfPacedEnsembleClassifier, load_model, save_model
    from repro.datasets import make_credit_fraud

    X, y = make_credit_fraud(n_samples=3000, imbalance_ratio=20, random_state=0)
    spe = SelfPacedEnsembleClassifier(n_estimators=3, random_state=0).fit(X, y)
    with tempfile.TemporaryDirectory() as tmp:
        path = save_model(spe, os.path.join(tmp, "spe.npz"))
        served = load_model(path, mmap_mode="r")
        assert np.array_equal(served.predict_proba(X), spe.predict_proba(X))
    print("ok")
    """
)


def test_spe_loop_runs_without_scipy():
    run = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "ok"

