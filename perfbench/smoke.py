"""Smoke tests of the benchmark itself, at a tiny scale.

    python3 -m pytest -q perfbench/smoke.py

They assert properties only, never timings: every metric is reported with
its unit and direction, the layer breakdown reconciles, and each
correctness gate fires when a model fitted on a different seed is
substituted for the right one.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import catalog  # noqa: E402
import compare  # noqa: E402
import gates  # noqa: E402
from common import ROOT, SRC  # noqa: E402

sys.path.insert(0, SRC)

TINY = ["--scale", "0.03", "--seconds", "3"]


def _run(*args):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    return proc, proc.stdout.strip().splitlines()


def _tiny_model(seed: int):
    from fitphase import make_spe
    from repro.datasets import make_credit_fraud

    X, y = make_credit_fraud(n_samples=3000, imbalance_ratio=20.0, random_state=seed)
    return make_spe().fit(X, y), X, y


@pytest.fixture(scope="module")
def models():
    return _tiny_model(1), _tiny_model(2)


def test_benchmark_json_mirrors_catalog():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == [w for w, _ in catalog.WORKLOADS]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] \
        == [m[:4] for m in catalog.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [m[:3] for m in catalog.PER_LAYER]


def test_list_prints_every_metric_with_unit():
    proc, lines = _run("--list")
    assert proc.returncode == 0
    text = "\n".join(lines)
    for name, unit, *_ in catalog.END_TO_END + catalog.PER_LAYER:
        assert any(name in line and f" {unit} " in line for line in lines), name
    assert "end-to-end" in text and "per-layer" in text


@pytest.mark.parametrize("workload,trace", [
    ("fit_credit", 0), ("fit_credit", 1), ("serve_drift", 0), ("serve_drift", 1),
])
def test_run_reports_every_metric(workload, trace):
    proc, lines = _run("--workload", workload, "--seed", "3", "--trace", str(trace), *TINY)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = catalog.PER_LAYER if trace else catalog.END_TO_END
    assert list(result["metrics"]) == [m[0] for m in expected]
    for name, unit, *_ in expected:
        value = result["metrics"][name]
        assert value["unit"] == unit
        assert np.isfinite(value["value"]), name
    assert lines[0].startswith("fingerprint ")
    if not trace:
        assert all(result["metrics"][m[0]]["value"] > 0 for m in expected)
    assert not any(line.startswith("GATE FAILED") for line in lines)


def test_fit_breakdown_reconciles(models):
    from fitphase import make_spe
    from layers import LayerTracer

    (_, X, y), _ = models
    with LayerTracer() as tracer:
        with tracer.span("fit", root=True):
            make_spe().fit(X, y)
    parts = tracer.reconcile("fit")
    assert abs(sum(parts.values()) - tracer.roots["fit"][0]) < 1e-6
    assert min(parts.values()) >= 0.0
    assert {"core.majority_score", "core.sampling", "tree.member_fit"} <= set(parts)
    assert tracer.counts["fit"]["tree.member_fits"] == 10
    tracer.self_s["fit"]["tree.member_fit"] += 1.0
    with pytest.raises(ValueError):
        tracer.reconcile("fit")


def test_wrappers_are_removed(models):
    from layers import LayerTracer
    from repro.tree import DecisionTreeClassifier

    original = DecisionTreeClassifier.__dict__["fit"]
    with LayerTracer():
        assert DecisionTreeClassifier.__dict__["fit"] is not original
    assert DecisionTreeClassifier.__dict__["fit"] is original


def test_mmap_gate_fires_on_other_seed_model(tmp_path, models):
    from repro.persistence import load_model, save_model

    (model, X, _), (other, _, _) = models
    for m, name in ((model, "same"), (other, "other")):
        save_model(m, str(tmp_path / f"{name}.npz"))
    same = load_model(str(tmp_path / "same.npz"), mmap_mode="r")
    swapped = load_model(str(tmp_path / "other.npz"), mmap_mode="r")
    assert gates.mmap_identical(model.predict_proba(X), same.predict_proba(X)) is None
    assert gates.mmap_identical(model.predict_proba(X), swapped.predict_proba(X))


def test_served_gate_fires_on_other_seed_model(models):
    (model, X, _), (other, _, _) = models
    samples = [(X[i:i + 1], model.predict_proba(X[i:i + 1]), "v0") for i in range(20)]
    assert gates.served_match(samples, {"v0": model}) is None
    assert gates.served_match(samples, {"v0": other})
    assert gates.served_match(samples, {"v1": model})


def test_version_gate_fires_on_wrong_stamp():
    ok = [(0.0, 1.0, "v0"), (5.0, 6.0, "v1")]
    assert gates.version_stamps(ok, swap_start=2.0, converged=4.0, old="v0", new="v1") is None
    stale = ok + [(5.0, 6.0, "v0")]
    assert gates.version_stamps(stale, 2.0, 4.0, "v0", "v1")
    early = ok + [(0.0, 1.5, "v1")]
    assert gates.version_stamps(early, 2.0, 4.0, "v0", "v1")


def test_auprc_gate_fires_on_other_seed_model(models):
    from repro.metrics import average_precision_score

    (model, X, y), (other, _, _) = models
    same = average_precision_score(y, model.predict_proba(X)[:, 1])
    again = average_precision_score(y, model.predict_proba(X)[:, 1])
    swapped = average_precision_score(y, other.predict_proba(X)[:, 1])
    assert gates.repeats_exactly([same, again], "test_auprc") is None
    assert gates.repeats_exactly([same, swapped], "test_auprc")


def test_compare_refuses_other_host(tmp_path):
    def record(cores):
        return {"fingerprint": {"host": {"cores": cores}, "inputs": {"scale": 1.0}}}

    with pytest.raises(SystemExit):
        compare.check_fingerprints([record(2)], [record(4)])
    compare.check_fingerprints([record(2)], [record(2)])
