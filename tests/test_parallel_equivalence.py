"""n_jobs equivalence: parallelism must never change model output.

Every ensemble must produce bit-identical ``predict_proba`` for every
``n_jobs`` under a fixed ``random_state``. With ``n_jobs`` > 1 member fits
run on a process pool and chunked scoring on a thread pool; both are
checked with this process pinned to one CPU and to all of its CPUs
(``os.sched_setaffinity`` on the test's own process, which new threads
and forked workers inherit).
"""

import numpy as np
import pytest

from repro.core import SelfPacedEnsembleClassifier
from repro.ensemble import BaggingClassifier, RandomForestClassifier
from repro.imbalance_ensemble import (
    BalanceCascadeClassifier,
    EasyEnsembleClassifier,
    ResampleEnsembleClassifier,
    SMOTEBaggingClassifier,
    UnderBaggingClassifier,
)
from repro.sampling import RandomUnderSampler
from repro.streaming import ArraySource
from repro.tree import DecisionTreeClassifier

from affinity import cpu_sets, pinned


def _base():
    return DecisionTreeClassifier(max_depth=4, random_state=0)


def _fit_proba(name, X, y, n_jobs):
    model = FACTORIES[name](n_jobs=n_jobs)
    if name == "under_bagging_fit_source":
        model.fit_source(ArraySource(X, y, block_size=128))
    else:
        model.fit(X, y)
    return model.predict_proba(X)


FACTORIES = {
    "spe": lambda **kw: SelfPacedEnsembleClassifier(
        _base(), n_estimators=5, random_state=7, **kw
    ),
    "bagging": lambda **kw: BaggingClassifier(
        _base(), n_estimators=5, random_state=7, **kw
    ),
    "forest": lambda **kw: RandomForestClassifier(
        n_estimators=5, max_depth=4, random_state=7, **kw
    ),
    "under_bagging": lambda **kw: UnderBaggingClassifier(
        _base(), n_estimators=5, random_state=7, **kw
    ),
    "smote_bagging": lambda **kw: SMOTEBaggingClassifier(
        _base(), n_estimators=3, random_state=7, **kw
    ),
    "easy_ensemble": lambda **kw: EasyEnsembleClassifier(
        n_estimators=3, n_boost_rounds=3, random_state=7, **kw
    ),
    "resample_ensemble": lambda **kw: ResampleEnsembleClassifier(
        sampler=RandomUnderSampler(),
        estimator=_base(),
        n_estimators=4,
        random_state=7,
        **kw,
    ),
    "balance_cascade": lambda **kw: BalanceCascadeClassifier(
        _base(), n_estimators=4, random_state=7, **kw
    ),
    "under_bagging_fit_source": lambda **kw: UnderBaggingClassifier(
        _base(), n_estimators=5, random_state=7, **kw
    ),
}


# ``n_jobs`` for (fit, predict_proba) that puts each executor to work alone:
# the default serial loop, thread-pool chunked scoring of an ``n_jobs=1``
# fit, and process-pool member fits scored serially.
EXECUTOR_N_JOBS = {"serial": (None, None), "thread": (1, 2), "process": (2, 1)}


@pytest.mark.parametrize("name", ["spe", "bagging"])
@pytest.mark.parametrize("backend", list(EXECUTOR_N_JOBS))
def test_backends_bit_identical_core(name, backend, imbalanced_data):
    """On SPE and Bagging, each executor alone reproduces ``n_jobs=1``."""
    X, y = imbalanced_data
    reference = _fit_proba(name, X, y, 1)
    fit_jobs, predict_jobs = EXECUTOR_N_JOBS[backend]
    model = FACTORIES[name](n_jobs=fit_jobs).fit(X, y)
    model.set_params(n_jobs=predict_jobs)
    assert np.array_equal(reference, model.predict_proba(X))


@pytest.mark.parametrize("name", list(FACTORIES))
def test_backends_bit_identical_family(name, imbalanced_data):
    """``n_jobs`` 2 and 4 reproduce ``n_jobs=1`` on one CPU and on all."""
    X, y = imbalanced_data
    reference = _fit_proba(name, X, y, 1)
    for cpus in cpu_sets():
        with pinned(cpus):
            for n_jobs in (2, 4):
                proba = _fit_proba(name, X, y, n_jobs)
                assert np.array_equal(reference, proba), (len(cpus), n_jobs)


def test_spe_n_jobs_four_matches_one(imbalanced_data):
    """Acceptance criterion: n_jobs=4 reproduces the n_jobs=1 probabilities."""
    X, y = imbalanced_data
    p1 = (
        SelfPacedEnsembleClassifier(_base(), n_estimators=6, n_jobs=1, random_state=0)
        .fit(X, y)
        .predict_proba(X)
    )
    p4 = (
        SelfPacedEnsembleClassifier(_base(), n_estimators=6, n_jobs=4, random_state=0)
        .fit(X, y)
        .predict_proba(X)
    )
    assert np.array_equal(p1, p4)
