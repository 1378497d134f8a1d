"""The fit half of the loop: fit, save, mmap-load, predict, score.

Every repetition fits the same table with the same configuration, so the
fitted model, its predictions and its test AUPRC must repeat bit for bit;
only the times may differ.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import List

#: SPE configuration of every fit in the benchmark: the paper's default
#: ensemble size with the library's default tree members.
N_ESTIMATORS = 10
MODEL_SEED = 0
#: The held-out predict is timed at least this often and this long, and
#: the fastest call counts: on a shared host single calls of this
#: memory-bound kernel swing 2x within seconds, so the fastest call tracks
#: the work while the median tracks the neighbours (the first call, which
#: also packs the loaded forest, is never the fastest).
PREDICT_REPEATS = 3
PREDICT_MIN_S = 0.5


def make_spe(random_state: int = MODEL_SEED):
    from repro.core import SelfPacedEnsembleClassifier

    return SelfPacedEnsembleClassifier(n_estimators=N_ESTIMATORS,
                                       random_state=random_state)


@dataclass
class FitRep:
    fit_s: float
    save_s: float
    load_s: float
    predict_s: float
    predict_rows: int
    artifact_mb: float
    auprc: float
    traced: bool


def _timed(tracer, name: str, fn, *args, **kwargs):
    """Call ``fn``; under a tracer the call is the root span ``name``."""
    t0 = time.perf_counter()
    if tracer is None:
        out = fn(*args, **kwargs)
    else:
        with tracer.span(name, root=True):
            out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def fit_and_save(X, y, path: str, tracer=None):
    """Fit one SPE and save it; returns ``(model, fit_s, save_s)``."""
    from repro.persistence import save_model

    model, fit_s = _timed(tracer, "fit", make_spe().fit, X, y)
    t0 = time.perf_counter()
    save_model(model, path)
    return model, fit_s, time.perf_counter() - t0


def evaluate(model, path: str, X_test, y_test, fit_s: float, save_s: float,
             tracer, failures: List[str]) -> FitRep:
    """mmap-load the artifact, predict the held-out rows with it, gate that
    against the in-memory model and score it."""
    from gates import mmap_identical
    from repro.metrics import average_precision_score
    from repro.persistence import load_model

    t0 = time.perf_counter()
    loaded = load_model(path, mmap_mode="r")
    load_s = time.perf_counter() - t0
    times: List[float] = []
    while len(times) < PREDICT_REPEATS or sum(times) < PREDICT_MIN_S:
        proba_test, predict_s = _timed(tracer, "predict", loaded.predict_proba, X_test)
        times.append(predict_s)
    failure = mmap_identical(model.predict_proba(X_test), proba_test)
    if failure:
        failures.append(failure)
    return FitRep(
        fit_s=fit_s,
        save_s=save_s,
        load_s=load_s,
        predict_s=min(times),
        predict_rows=len(X_test),
        artifact_mb=os.path.getsize(path) / 2**20,
        auprc=float(average_precision_score(y_test, proba_test[:, 1])),
        traced=False,
    )


def retrain_job(X_w, y_w, path: str, traced: bool):
    """Fit a challenger on the monitor window through the lifecycle
    layer's recipe resolution and save it; runs in the retrain helper
    process. Returns ``(retrain_s, save_s, layer snapshot or None)``."""
    from layers import LayerTracer
    from repro.lifecycle import resolve_train_fn
    from repro.persistence import save_model
    from repro.streaming import ArraySource

    train = resolve_train_fn(make_spe())
    tracer = LayerTracer().install() if traced else None
    try:
        challenger, retrain_s = _timed(tracer, "retrain", train, ArraySource(X_w, y_w))
    finally:
        if tracer is not None:
            tracer.uninstall()
    t0 = time.perf_counter()
    save_model(challenger, path)
    return retrain_s, time.perf_counter() - t0, tracer.snapshot() if traced else None


def warm() -> None:
    """Import what :func:`retrain_job` needs, ahead of the timed part."""
    import layers  # noqa: F401
    import repro.lifecycle  # noqa: F401
    import repro.persistence  # noqa: F401
    import repro.streaming  # noqa: F401
