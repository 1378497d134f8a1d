"""The workloads: generate, fit, persist, serve, monitor, retrain, swap.

Each workload derives all of its inputs from ``--seed``. A workload's data
is a fixed synthetic population: one draw of its generator with
:data:`POPULATION_SEED`, and one draw of its drift recipe with the next
seed. ``seed`` splits the population at random into the training table,
the held-out test rows and the control traffic, orders the drift traffic,
and (as ``seed + 2``) draws the request schedule. Like the random splits
of a fixed dataset in the paper's experiments, this varies the rows a run
sees but not the fraud geometry, which the generators draw from their
seed: between generator seeds the fitted ensemble's node count differed
by up to 20 %, and fit and predict cost with it. The program only ever
receives the generated arrays.
"""

from __future__ import annotations

import asyncio
import math
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

import catalog
from common import median, peak_rss_mb, quantile, tail, tail_quantile
from fitphase import PREDICT_REPEATS, evaluate, fit_and_save, make_spe, warm
from servephase import BULK, ONLINE, SWAP_SETTLE_S, TAIL_WINDOW, LoadClient, SpanTally, accounting, summarize

#: Generator seed of every workload's population (the drift recipe's is
#: the next one).
POPULATION_SEED = 0
#: Times set-up is repeated in one run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Share of ``--seconds`` the fit workloads spend repeating the fit (at
#: least two repetitions); the serving run gets the rest, and no less
#: than SERVE_MIN_SHARE.
FIT_SHARE = 0.4
SERVE_MIN_SHARE = 0.6
#: Share of the serving run spent in the control phase; the drift phase
#: and the capacity ladder take the rest.
CONTROL_SHARE = 0.45
#: Least time a checkpoint spends on held-out predict calls.
PROBE_PREDICT_S = 0.5


def _credit(n, ir, seed):
    from repro.datasets import make_credit_fraud

    return make_credit_fraud(n_samples=n, imbalance_ratio=ir, random_state=seed)


def _credit_drift(n, seed):
    """The fraud_drift_lifecycle recipe: an attack wave (IR 40), fraud
    modi operandi closer to genuine traffic, first 6 components +2.0."""
    from repro.datasets import make_credit_fraud

    X, y = make_credit_fraud(n_samples=n, imbalance_ratio=40.0,
                             fraud_shift=1.5, random_state=seed)
    X[:, :6] += 2.0
    return X, y


@dataclass(frozen=True)
class Workload:
    name: str
    rows: int
    ir: float
    test_rows: int
    traffic_rows: int
    #: True: the champion is fitted in set-up (serve_drift).
    fit_in_setup: bool

    def generate(self, scale: float, seed: int) -> Dict[str, tuple]:
        """All inputs of one run: train, test, control and drift tables."""
        rng = np.random.RandomState(seed)
        sizes = [_scaled(n, scale) for n in (self.rows, self.test_rows, self.traffic_rows)]
        X, y = _credit(sum(sizes), self.ir, POPULATION_SEED)
        parts = np.split(rng.permutation(len(y)), np.cumsum(sizes)[:-1])
        tables = {name: (X[idx], y[idx]) for name, idx in zip(("train", "test", "control"), parts)}
        X, y = _credit_drift(sizes[2], POPULATION_SEED + 1)
        idx = rng.permutation(len(y))
        tables["drift"] = (X[idx], y[idx])
        return tables


WORKLOADS = {
    w.name: w
    for w in [
        Workload("fit_credit", 150_000, 200.0, 50_000, 40_000, False),
        Workload("serve_drift", 20_000, 20.0, 10_000, 40_000, True),
    ]
}


@dataclass
class Report:
    e2e: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)
    accounting: Dict = field(default_factory=dict)


def _scaled(n: int, scale: float, floor: int = 2000) -> int:
    return max(floor, int(round(n * scale)))


class Probes:
    """The fit and the held-out predict, repeated at the serving run's
    checkpoints.

    Neighbours on a shared host slow every core for stretches of tens of
    seconds, so a figure taken in one burst reads whichever stretch it
    fell into. Repeated across the whole run, with the fastest repetition
    counting, it also sees the run's quiet moments.
    """

    def __init__(self, path: str, train, X_test):
        from repro.persistence import load_model

        self.loaded = load_model(path, mmap_mode="r")
        self.loaded.predict_proba(X_test[:1])  # packs the loaded forest
        self.train = train
        self.X_test = X_test
        self.fit_s: List[float] = []
        self.predict_s: List[float] = []

    def __call__(self) -> None:
        t0 = time.perf_counter()
        make_spe().fit(*self.train)
        self.fit_s.append(time.perf_counter() - t0)
        times: List[float] = []
        while len(times) < PREDICT_REPEATS or sum(times) < PROBE_PREDICT_S:
            t0 = time.perf_counter()
            self.loaded.predict_proba(self.X_test)
            times.append(time.perf_counter() - t0)
        self.predict_s.append(min(times))


def _start_pool(path: str):
    from repro.serving import serve

    pool = serve(path, n_workers=os.cpu_count() or 1)
    pool.wait_healthy()
    return pool


def _champion_setup(wl: Workload, scale: float, seed: int, workdir: str, tracer, report):
    """serve_drift: set-up is generate, fit, save, serve and wait_healthy,
    repeated; the pool of the last repetition serves the run."""
    setup, reps, pool = [], [], None
    for i in range(SETUP_REPEATS):
        if pool is not None:
            pool.close()
        t0 = time.perf_counter()
        tables = wl.generate(scale, seed)
        (X, y), (X_test, y_test) = tables["train"], tables["test"]
        path = os.path.join(workdir, f"champion-{i}.npz")
        model, fit_s, save_s = fit_and_save(X, y, path)
        pool = _start_pool(path)
        setup.append(time.perf_counter() - t0)
        reps.append(evaluate(model, path, X_test, y_test, fit_s, save_s, tracer, report.failures))
    return setup, reps, tables, path, pool


def _fit_reps(wl: Workload, scale: float, seed: int, seconds: float, workdir: str,
              tracer, report):
    """fit_*: set-up is generation alone, repeated; then fit, save, load
    and predict repeat for FIT_SHARE of the run. Under a tracer every
    second repetition is traced, so the run also has untraced times to
    compare against."""
    setup, reps = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        tables = wl.generate(scale, seed)
        setup.append(time.perf_counter() - t0)
    (X, y), (X_test, y_test) = tables["train"], tables["test"]
    start = time.perf_counter()
    while len(reps) < 2 or time.perf_counter() - start < FIT_SHARE * seconds:
        rep_tracer = tracer if len(reps) % 2 == 1 else None
        path = os.path.join(workdir, f"model-{len(reps)}.npz")
        model, fit_s, save_s = fit_and_save(X, y, path, rep_tracer)
        reps.append(evaluate(model, path, X_test, y_test, fit_s, save_s,
                             rep_tracer, report.failures))
        reps[-1].traced = rep_tracer is not None
    serve_s = max(seconds - (time.perf_counter() - start), SERVE_MIN_SHARE * seconds)
    return setup, reps, tables, path, serve_s


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: float, workdir: str) -> Report:
    """One run of a workload; with ``trace`` it also fills the layer table."""
    from gates import repeats_exactly
    from layers import LayerTracer
    from repro.monitoring import ReferenceSketch

    wl = WORKLOADS[name]
    report = Report()
    tracer = LayerTracer().install() if trace else None
    tally = SpanTally().install() if trace else None
    pool = None
    try:
        if wl.fit_in_setup:
            setup, reps, tables, path, pool = _champion_setup(
                wl, scale, seed, workdir, tracer, report)
            serve_s = seconds
        else:
            setup, reps, tables, path, serve_s = _fit_reps(
                wl, scale, seed, seconds, workdir, tracer, report)
        peak_mb = peak_rss_mb()
        if pool is None:
            pool = _start_pool(path)

        X, y = tables["train"]
        X_test = tables["test"][0]
        probes = Probes(path, (X, y), X_test)
        reference = ReferenceSketch(n_bins=16).fit(X, y)
        # The challenger is fitted in a helper process, started and warmed
        # before traffic, so the fit competes with serving for cores but
        # not for the client's interpreter lock.
        with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as retrainer:
            retrainer.submit(warm).result()
            client = LoadClient(pool, CONTROL_SHARE * serve_s, tables["control"],
                                tables["drift"], reference, retrainer, workdir,
                                np.random.RandomState(seed + 2), tracer=tracer,
                                probe=probes)
            serve_res = asyncio.run(client.run())
        worker_stats = pool.worker_stats()
        pool_stats = pool.stats()
        pool.close()
        pool = None

        _check_serving(serve_res, path, report)
        failure = repeats_exactly([r.auprc for r in reps], "test_auprc")
        if failure:
            report.failures.append(failure)
        report.accounting = accounting(serve_res)
        report.attempted = (len(reps) + len(serve_res.requests)
                            + serve_res.saturate_attempted)
        report.failed = (sum(1 for r in serve_res.requests if r.outcome != "ok")
                         + serve_res.saturate_failed)
        report.e2e = {
            "setup_s": median(setup),
            # Fastest repetition: a neighbour's load only ever slows a
            # compute-bound call, so the minimum tracks the work.
            "fit_s": min([r.fit_s for r in reps] + probes.fit_s),
            "predict_rows_per_s": len(X_test) / min([r.predict_s for r in reps]
                                                    + probes.predict_s),
            "test_auprc": reps[-1].auprc,
            "peak_rss_mb": peak_mb,
            **summarize(serve_res),
        }
        if trace:
            report.layers = {
                **{m[0]: report.e2e[m[0]] for m in catalog.UNBOUNDED},
                **_layers(tracer, tally, reps, serve_res, worker_stats, pool_stats,
                          root="retrain" if wl.fit_in_setup else "fit", report=report),
            }
        report.notes += _notes(serve_res, setup, reps, probes)
        return report
    finally:
        if pool is not None:
            pool.close()
        if tally is not None:
            tally.uninstall()
        if tracer is not None:
            tracer.uninstall()


def _check_serving(res, champion_path: str, report: Report) -> None:
    from gates import served_match, version_stamps
    from repro.persistence import load_model

    if math.isnan(res.converged):
        report.failures.append("drift was not detected and swapped within the drift phase")
        return
    models = {"v0": load_model(champion_path, mmap_mode="r"),
              "v1": load_model(res.challenger_path, mmap_mode="r")}
    samples = [(r.rows, r.proba, r.version) for r in res.requests if r.proba is not None]
    stamps = [(r.sent, r.done, r.version) for r in res.requests if r.outcome == "ok"]
    for failure in (served_match(samples, models),
                    version_stamps(stamps, res.swap_start, res.converged, "v0", "v1")):
        if failure:
            report.failures.append(failure)


def _layers(tracer, tally, reps, res, worker_stats, pool_stats, root, report) -> Dict[str, float]:
    out: Dict[str, float] = {}
    n_roots = max(1, len(tracer.roots.get(root, [])))
    try:
        parts = tracer.reconcile(root)
    except ValueError as exc:
        report.failures.append(str(exc))
        parts = dict(tracer.self_s.get(root, {}))
    calls = tracer.calls.get(root, {})
    counts = tracer.counts.get(root, {})

    def per_fit(d, key):
        return d.get(key, 0.0) / n_roots

    # Inclusive: ScoringMatrix construction and packing run inside score.
    out["core.majority_score_s"] = per_fit(tracer.incl_s.get(root, {}), "core.majority_score")
    out["core.majority_score_calls"] = per_fit(calls, "core.majority_score")
    out["core.majority_rows_scored"] = per_fit(counts, "core.majority_rows_scored")
    out["core.sampling_s"] = per_fit(parts, "core.sampling")
    out["core.fit_other_s"] = per_fit(parts, root)
    out["tree.member_fit_s"] = per_fit(parts, "tree.member_fit")
    out["tree.member_fits"] = per_fit(counts, "tree.member_fits")
    out["tree.member_rows"] = per_fit(counts, "tree.member_rows")
    out["tree.nodes"] = per_fit(counts, "tree.nodes")
    out["fastpath.scoring_matrix_s"] = per_fit(parts, "fastpath.scoring_matrix")
    n_matrix = calls.get("fastpath.scoring_matrix", 0)
    out["fastpath.code_bytes_per_row"] = (
        counts.get("fastpath.code_bytes_per_row", 0.0) / n_matrix if n_matrix else 0.0)
    out["fastpath.pack_s"] = per_fit(parts, "fastpath.pack")

    n_predict = max(1, len(tracer.roots.get("predict", [])))
    out["parallel.predict_s"] = tracer.self_s.get("predict", {}).get("parallel.predict", 0.0) / n_predict
    out["parallel.predict_rows"] = tracer.counts.get("predict", {}).get("parallel.predict_rows", 0.0) / n_predict
    out["persistence.save_s"] = median([r.save_s for r in reps])
    out["persistence.load_s"] = median([r.load_s for r in reps])
    out["persistence.artifact_mb"] = reps[-1].artifact_mb

    def ms(name, q=None):
        durations = tally.durations.get(name, [])
        return 1000.0 * (tail(durations)[0] if q is None else quantile(durations, q))

    out["serving.gateway_wait_ms_p99"] = ms("gateway.queue_wait")
    out["serving.pool_roundtrip_ms_p99"] = ms("pool.roundtrip")
    out["serving.server_wait_ms_p99"] = ms("server.queue_wait")
    out["serving.kernel_ms_p50"] = ms("server.kernel_eval", 0.5)
    out["serving.kernel_ms_p99"] = ms("server.kernel_eval")
    rows = sum(s["n_rows"] for s in worker_stats.values())
    batches = sum(s["n_batches"] for s in worker_stats.values())
    out["serving.rows_per_batch"] = rows / batches if batches else 0.0
    out["serving.backpressure_waits"] = res.counters["backpressure_waits"]
    out["serving.overflows"] = sum(s["n_overflows"] for s in worker_stats.values())
    out["serving.crashes"] = pool_stats["n_crashes"]
    out["serving.deadline_expired"] = (
        pool_stats["n_deadline_expired"] + res.counters["gateway_deadline_expired"]
        + sum(s["n_deadline_expired"] for s in worker_stats.values()))
    out["serving.swap_s"] = res.swap_s
    private = [s.get("private_kb") for s in worker_stats.values() if s.get("private_kb") is not None]
    out["serving.worker_private_mb"] = max(private) / 1024.0 if private else float("nan")
    out["monitoring.observe_s"] = res.observe_s
    out["monitoring.check_s"] = res.check_s
    out["monitoring.rows_to_alarm"] = res.rows_to_alarm
    out["lifecycle.retrain_s"] = res.retrain_s
    late = [ms_ for r, ms_ in zip(res.requests, res.late_ms) if r.phase != "ladder"]
    out["loadgen.late_ms_p99"] = tail(late)[0]

    traced = [r.fit_s for r in reps if r.traced]
    plain = [r.fit_s for r in reps if not r.traced and r.fit_s > 0]
    out["trace.fit_overhead_pct"] = (
        100.0 * (median(traced) / median(plain) - 1.0) if traced and plain else 0.0)
    online = [r for r in res.requests
              if r.phase == "control" and r.tenant == ONLINE and r.outcome == "ok"]
    on = [r.latency_ms for r in online if r.traced]
    off = [r.latency_ms for r in online if not r.traced]
    out["trace.serve_overhead_pct"] = 100.0 * (median(on) / median(off) - 1.0) if on and off else 0.0

    # Serving reconciliation: one span of each request-path kind per
    # successful traced request.
    ok_traced = sum(1 for r in res.requests if r.traced and r.outcome == "ok")
    for name in ("pool.roundtrip", "server.kernel_eval", "server.queue_wait", "gateway.queue_wait"):
        got = len(tally.durations.get(name, []))
        if got != ok_traced:
            report.failures.append(
                f"{got} {name} spans for {ok_traced} successful traced requests")
    if tally.outcomes.get("ok", 0) != ok_traced:
        report.failures.append(
            f"{tally.outcomes.get('ok', 0)} ok gateway.request spans for "
            f"{ok_traced} successful traced requests")
    return out


def _notes(res, setup, reps, probes) -> List[str]:
    notes = [
        f"setup_s samples: {', '.join(f'{s:.3f}' for s in setup)}",
        "fit reps: " + ", ".join(
            f"{r.fit_s:.3f}s{'(traced)' if r.traced else ''}" for r in reps),
        "fit probes: " + ", ".join(f"{s:.3f}s" for s in probes.fit_s),
        "fastest predict call per rep, then per probe: " + ", ".join(
            f"{s * 1000:.1f}ms" for s in [r.predict_s for r in reps] + probes.predict_s),
        "served rows/s per saturation burst: " + ", ".join(f"{r:.0f}" for r in res.saturate_rates),
    ]
    def count(tenant, phases, lo=-math.inf, hi=math.inf):
        return sum(1 for r in res.requests if r.tenant == tenant and r.phase in phases
                   and r.outcome == "ok" and lo <= r.due <= hi)

    n = count(ONLINE, ("control",))
    notes.append(f"lat_p99_ms: median of {max(1, n // TAIL_WINDOW)} window(s) of the "
                 f"{n} control-phase online samples")
    n = count(BULK, ("control", "drift"))
    notes.append(f"bulk_p99_ms: p{100 * tail_quantile(n):.1f} of {n} samples")
    n = count(ONLINE, ("drift",), res.alarm_at, res.converged + SWAP_SETTLE_S)
    notes.append(f"swap_p99_ms: p{100 * tail_quantile(n):.1f} of {n} samples")
    notes.append(f"recover: {res.rows_to_alarm} drift rows to ALARM, retrain "
                 f"{res.retrain_s:.3f} s, save {res.save_s:.3f} s, swap {res.swap_s:.3f} s")
    notes.append(f"control-phase ALARMs (not acted on): {res.control_alarms}")
    for rung in res.rungs:
        notes.append(
            f"ladder {rung['rate']:8.1f}/s: windowed tail={rung['tail_ms']:.2f} ms "
            f"n={rung['n']} failed={rung['failed']} last-tenth p50={rung['end_ms']:.2f} ms "
            f"served {rung['throughput']:.1f}/s {'PASS' if rung['passed'] else 'FAIL'}")
    return notes
