"""Tests for the parallel execution engine (repro.parallel)."""

import os

import numpy as np
import pytest

from repro.ensemble import BaggingClassifier
from repro.imbalance_ensemble import UnderBaggingClassifier
from repro.parallel import (
    ensemble_predict_proba,
    fit_ensemble_member,
    fit_ensemble_parallel,
    parallel_map,
    resolve_n_jobs,
    spawn_seeds,
    task_rng,
)
from repro.parallel import engine
from repro.parallel.executor import _SHARED_PAYLOADS, _openblas_symbol
from repro.tree import DecisionTreeClassifier

#: The three executors behind ``parallel_map``, as keyword arguments.
EXECUTORS = {
    "serial": dict(n_jobs=1),
    "thread": dict(n_jobs=2, processes=False),
    "process": dict(n_jobs=2, processes=True),
}


def _square(x):  # module-level so a process pool can pickle it
    return x * x


def _blas_threads(_task):
    return _openblas_symbol("scipy_openblas_get_num_threads64_")()


def _scipy_blas_threads(_task):
    import scipy.optimize  # noqa: F401  (loads scipy's own OpenBLAS)

    return _openblas_symbol("scipy_openblas_get_num_threads")()


def _holds_array(value) -> bool:
    if isinstance(value, np.ndarray):
        return True
    if isinstance(value, (tuple, list)):
        return any(_holds_array(v) for v in value)
    return False


def _balanced_pair_sample(index, rng, X, y):
    idx = rng.permutation(len(y))[: max(2, len(y) // 2)]
    return X[idx], y[idx]


def _make_tree(rng):
    return DecisionTreeClassifier(max_depth=3, random_state=rng.randint(2**31 - 1))


class TestResolveNJobs:
    def test_none_means_serial(self):
        assert resolve_n_jobs(None) == 1

    def test_positive_passthrough(self):
        assert resolve_n_jobs(1) == 1
        assert resolve_n_jobs(7) == 7

    def test_minus_one_is_cpu_count(self):
        assert resolve_n_jobs(-1) == os.cpu_count()

    def test_negative_counts_back_from_cpus(self):
        assert resolve_n_jobs(-2) == max(1, os.cpu_count() - 1)
        # Never resolves below one worker, however negative.
        assert resolve_n_jobs(-10_000) == 1

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            resolve_n_jobs(0)


class TestParallelMap:
    @pytest.mark.parametrize("backend", list(EXECUTORS))
    def test_ordered_results_all_backends(self, backend):
        items = list(range(20))
        assert parallel_map(_square, items, **EXECUTORS[backend]) == [
            i * i for i in items
        ]

    def test_unknown_backend(self):
        """``n_jobs`` is the only knob: the retired ``backend`` is rejected
        by the executor and by every ensemble constructor."""
        with pytest.raises(TypeError, match="backend"):
            parallel_map(_square, [1], backend="thread")
        for cls in (BaggingClassifier, UnderBaggingClassifier):
            with pytest.raises(TypeError, match="backend"):
                cls(backend="thread")

    def test_empty_tasks(self):
        assert parallel_map(_square, [], n_jobs=2) == []

    def test_process_workers_run_one_blas_thread(self):
        """Pool workers run numpy's and scipy's OpenBLAS on one thread,
        whatever the parent's count; the parent and the serial loop keep
        theirs."""
        get = _openblas_symbol("scipy_openblas_get_num_threads64_")
        set_ = _openblas_symbol("scipy_openblas_set_num_threads64_")
        if get is None or set_ is None:
            pytest.skip("numpy's OpenBLAS exports no thread-count symbols")
        before = get()
        set_(2)
        try:
            assert parallel_map(_blas_threads, [0, 1], n_jobs=2, processes=True) == [1, 1]
            # scipy's OpenBLAS, loaded by the task after the pin (or
            # inherited already loaded), runs one thread too.
            assert parallel_map(
                _scipy_blas_threads, [0, 1], n_jobs=2, processes=True
            ) == [1, 1]
            assert parallel_map(_blas_threads, [0], n_jobs=1, processes=True) == [2]
            assert get() == 2
        finally:
            set_(before)


class TestSeeding:
    def test_deterministic_given_seed(self):
        assert spawn_seeds(123, 8) == spawn_seeds(123, 8)

    def test_shared_rng_advances(self):
        rng = np.random.RandomState(0)
        first = spawn_seeds(rng, 4)
        second = spawn_seeds(rng, 4)
        assert first != second

    def test_task_rng_reproducible(self):
        a = task_rng(99).randint(0, 1000, size=5)
        b = task_rng(99).randint(0, 1000, size=5)
        assert np.array_equal(a, b)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            spawn_seeds(0, -1)


class TestEnsemblePredictProba:
    def test_matches_manual_average(self, binary_blobs):
        X, y = binary_blobs
        trees = [
            DecisionTreeClassifier(max_depth=d, random_state=d).fit(X, y)
            for d in (1, 2, 3)
        ]
        manual = sum(t.predict_proba(X) for t in trees) / 3
        engine = ensemble_predict_proba(trees, X, np.array([0, 1]))
        assert np.allclose(engine, manual)

    def test_chunk_size_never_changes_result(self, binary_blobs, monkeypatch):
        from repro.parallel import inference

        X, y = binary_blobs
        trees = [
            DecisionTreeClassifier(max_depth=3, random_state=s).fit(X, y)
            for s in range(10)
        ]
        reference = ensemble_predict_proba(trees, X, np.array([0, 1]))
        for chunk_size in (1, 7, 64, 10_000):
            monkeypatch.setattr(inference, "DEFAULT_CHUNK_SIZE", chunk_size)
            out = ensemble_predict_proba(
                trees, X, np.array([0, 1]), packed="never"
            )
            assert np.array_equal(out, reference)

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_backend_never_changes_result(self, binary_blobs, backend, monkeypatch):
        """The chunked path, serial or on the thread pool, reproduces the
        packed kernel bit for bit."""
        from repro.parallel import inference

        X, y = binary_blobs
        trees = [
            DecisionTreeClassifier(max_depth=3, random_state=s).fit(X, y)
            for s in range(10)
        ]
        reference = ensemble_predict_proba(trees, X, np.array([0, 1]))
        monkeypatch.setattr(inference, "DEFAULT_CHUNK_SIZE", 50)
        out = ensemble_predict_proba(
            trees,
            X,
            np.array([0, 1]),
            n_jobs=EXECUTORS[backend]["n_jobs"],
            packed="never",
        )
        assert np.array_equal(out, reference)

    def test_aligns_partial_classes(self, binary_blobs):
        X, y = binary_blobs
        full = DecisionTreeClassifier(max_depth=2).fit(X, y)
        only_zero = DecisionTreeClassifier(max_depth=2).fit(
            X[:5], np.zeros(5, dtype=int)
        )
        proba = ensemble_predict_proba([full, only_zero], X[:4], np.array([0, 1]))
        assert proba.shape == (4, 2)
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_requires_estimators(self, binary_blobs):
        X, _ = binary_blobs
        with pytest.raises(ValueError):
            ensemble_predict_proba([], X, np.array([0, 1]))


class TestFitEnsembleParallel:
    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_backend_equivalent_members(self, binary_blobs, backend):
        """Serial loop and process pool both reproduce the members fitted
        one by one from their derived seeds."""
        X, y = binary_blobs
        expected = [
            fit_ensemble_member(
                i, task_rng(seed), X, y, _balanced_pair_sample, _make_tree
            )
            for i, seed in enumerate(spawn_seeds(5, 4))
        ]
        members, n_samples = fit_ensemble_parallel(
            X,
            y,
            n_estimators=4,
            sample_fn=_balanced_pair_sample,
            make_model=_make_tree,
            random_state=5,
            n_jobs=EXECUTORS[backend]["n_jobs"],
        )
        assert n_samples == sum(n for _, n in expected)
        for (ref, _), got in zip(expected, members):
            assert np.array_equal(ref.predict_proba(X), got.predict_proba(X))

    @pytest.mark.parametrize("cls", [BaggingClassifier, UnderBaggingClassifier])
    def test_member_tasks_carry_no_arrays(self, binary_blobs, cls, monkeypatch):
        """Process-pool member fits ship ``(X, y)`` once per worker through
        the initializer; each task is only ``(key, seed, index)``."""
        X, y = binary_blobs
        seen = []
        original = engine.parallel_map

        def spy(fn, tasks, **kwargs):
            seen.append(list(tasks))
            return original(fn, tasks, **kwargs)

        monkeypatch.setattr(engine, "parallel_map", spy)
        cls(n_estimators=4, n_jobs=2, random_state=0).fit(X, y)
        assert [len(tasks) for tasks in seen] == [4]
        assert not any(_holds_array(task) for task in seen[0])
        assert not _SHARED_PAYLOADS

    def test_rejects_zero_estimators(self, binary_blobs):
        X, y = binary_blobs
        with pytest.raises(ValueError):
            fit_ensemble_parallel(
                X,
                y,
                n_estimators=0,
                sample_fn=_balanced_pair_sample,
                make_model=_make_tree,
            )


class TestBaggingNJobs:
    def test_n_jobs_minus_one_runs(self, binary_blobs):
        X, y = binary_blobs
        bag = BaggingClassifier(n_estimators=3, n_jobs=-1, random_state=0).fit(X, y)
        assert len(bag.estimators_) == 3
