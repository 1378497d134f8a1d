"""Every workload and metric the benchmark reports, with units.

``BENCHMARK.json`` at the repository root mirrors these lists (checked by
``smoke.py``); ``python3 perfbench/run.py --list`` prints them.
"""

from __future__ import annotations

WORKLOADS = [
    ("fit_credit",
     "credit-fraud table, 30 continuous features with ~all-distinct values: "
     "int64 scoring codes make core/fastpath majority scoring the largest fit layer"),
    ("serve_drift",
     "small IR-20 champion whose fit is member-tree dominated, so scoring gains "
     "should barely show in its fit_s; long serving run with drift alarm, "
     "retrain and hot swap under load"),
]

#: (name, unit, better, bound, meaning). Bounds are the share of the
#: parent's median by which a metric may worsen before a change is
#: rejected. Timings get the largest bound allowed: on a small shared host
#: their run-to-run spread across seeds is of that order.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25,
     "median set-up time: data generation; for serve_drift also champion "
     "fit, save, serve() and wait_healthy()"),
    ("fit_s", "s", "lower", 0.25,
     "wall time of SelfPacedEnsembleClassifier.fit (fastest of the "
     "repetitions and the checkpoint refits)"),
    ("predict_rows_per_s", "1/s", "higher", 0.25,
     "rows per second of predict_proba on the mmap-loaded model over the "
     "held-out rows (fastest call of the repetitions and checkpoints)"),
    ("test_auprc", "ratio", "higher", 0.2,
     "AUPRC of the mmap-loaded model on the held-out rows of the seed's "
     "split; deterministic per seed, so any change means the model changed"),
    ("peak_rss_mb", "MiB", "lower", 0.1,
     "peak resident memory of the client process through fit, save, load "
     "and predict (before serving starts)"),
]

#: Serving figures that depend on cross-process wake-ups and on how the
#: worker processes land on a shared 2-vCPU host: open-loop latencies, the
#: one ALARM-to-convergence interval of a run and the saturated serving
#: rate. Between quiet and contended minutes they swing 2-5x (recover_s
#: 15-35 % IQR over ten seeds; served_rows_per_s 22-26 % even as the best
#: of 6-9 bursts spread over a minute) while compute-bound figures move
#: 10-20 %, so no bound holds them: they are reported with the layer
#: breakdown, without a bound, and printed by every run.
UNBOUNDED = [
    ("lat_p50_ms", "ms", "lower",
     "online-tenant latency from due time, control phase, nominal rate"),
    ("lat_p99_ms", "ms", "lower",
     "online-tenant p99 from due time, control phase: median over windows "
     "of 1000 consecutive requests (10 samples beyond p99 in each)"),
    ("bulk_p99_ms", "ms", "lower",
     "bulk-tenant tail latency (highest percentile up to p99 with >=10 "
     "samples beyond), control and drift phases"),
    ("sustained_rps", "1/s", "higher",
     "online rate at which the ladder's windowed p99 reaches 20 ms "
     "(no failures, no growing backlog below it)"),
    ("swap_p99_ms", "ms", "lower",
     "online tail latency of requests due from ALARM until 1 s after every "
     "worker serves the challenger"),
    ("recover_s", "s", "lower",
     "drift ALARM until every worker serves the retrained challenger"),
    ("served_rows_per_s", "1/s", "higher",
     "rows per second the gateway and worker pool serve to 4 closed-loop "
     "bulk-tenant callers (4096-row requests), fastest of the 1.5 s "
     "bursts at the serving run's checkpoints (6-9 per run)"),
]

#: (name, unit, better, meaning: the end-to-end metric it should move).
PER_LAYER = UNBOUNDED + [
    ("core.majority_score_s", "s", "lower",
     "time in InMemoryMajorityAccess.score per fit, ScoringMatrix build and "
     "packing included -> fit_s, most on fit_credit"),
    ("core.majority_score_calls", "count", "lower", "score calls per fit"),
    ("core.majority_rows_scored", "count", "lower", "majority rows scored per fit"),
    ("core.sampling_s", "s", "lower",
     "self time in self_paced_under_sample per fit -> fit_s (small share)"),
    ("core.fit_other_s", "s", "lower",
     "fit wall time not covered by any layer below -> fit_s"),
    ("tree.member_fit_s", "s", "lower",
     "self time in DecisionTreeClassifier.fit per fit -> fit_s on serve_drift, recover_s"),
    ("tree.member_fits", "count", "lower", "member trees fitted per fit"),
    ("tree.member_rows", "count", "lower", "training rows over all member fits per fit"),
    ("tree.nodes", "count", "lower", "nodes over all fitted member trees per fit"),
    ("fastpath.scoring_matrix_s", "s", "lower",
     "self time building ScoringMatrix per fit -> fit_s, peak_rss_mb on fit_credit"),
    ("fastpath.code_bytes_per_row", "B", "lower",
     "bytes per majority row of the ScoringMatrix codes -> peak_rss_mb"),
    ("fastpath.pack_s", "s", "lower",
     "self time in PackedForest.from_estimators per fit -> fit_s, recover_s"),
    ("parallel.predict_s", "s", "lower",
     "self time in ensemble_predict_proba per table predict -> predict_rows_per_s"),
    ("parallel.predict_rows", "count", "higher", "rows per table predict"),
    ("persistence.save_s", "s", "lower", "median save_model time -> setup_s, recover_s"),
    ("persistence.load_s", "s", "lower", "median mmap load_model time -> recover_s"),
    ("persistence.artifact_mb", "MiB", "lower", "artifact size on disk"),
    ("serving.gateway_wait_ms_p99", "ms", "lower",
     "gateway.queue_wait spans, control phase -> lat_p99_ms, bulk_p99_ms, served_rows_per_s"),
    ("serving.pool_roundtrip_ms_p99", "ms", "lower",
     "pool.roundtrip spans, control phase -> lat_p99_ms, bulk_p99_ms, served_rows_per_s"),
    ("serving.server_wait_ms_p99", "ms", "lower",
     "server.queue_wait spans, control phase -> lat_p99_ms, bulk_p99_ms, served_rows_per_s"),
    ("serving.kernel_ms_p50", "ms", "lower",
     "server.kernel_eval spans, control phase -> lat_p99_ms, bulk_p99_ms, served_rows_per_s"),
    ("serving.kernel_ms_p99", "ms", "lower",
     "server.kernel_eval spans, control phase -> lat_p99_ms, bulk_p99_ms, served_rows_per_s"),
    ("serving.rows_per_batch", "count", "higher",
     "rows per worker kernel call over the serving run -> lat_p99_ms, bulk_p99_ms, served_rows_per_s"),
    ("serving.backpressure_waits", "count", "lower",
     "gateway pauses on a full pool queue -> lat_p99_ms, bulk_p99_ms, served_rows_per_s"),
    ("serving.overflows", "count", "lower",
     "requests admitted by the pool then refused by a worker's inner queue -> failures"),
    ("serving.crashes", "count", "lower", "worker crashes -> failures"),
    ("serving.deadline_expired", "count", "lower", "deadline expiries -> failures"),
    ("serving.swap_s", "s", "lower", "the swap_model call -> recover_s, swap_p99_ms"),
    ("serving.worker_private_mb", "MiB", "lower",
     "largest private resident memory of a worker -> recover_s, swap_p99_ms"),
    ("monitoring.observe_s", "s", "lower",
     "DriftMonitor.observe and observe_labels time over the run -> recover_s"),
    ("monitoring.check_s", "s", "lower", "DriftMonitor.check time over the run -> recover_s"),
    ("monitoring.rows_to_alarm", "count", "lower",
     "drift-phase rows observed before ALARM -> recover_s"),
    ("lifecycle.retrain_s", "s", "lower",
     "challenger fit on the monitor window -> recover_s"),
    ("loadgen.late_ms_p99", "ms", "lower",
     "how far the client fell behind its schedule, control and drift (diagnostic)"),
    ("trace.fit_overhead_pct", "%", "lower",
     "traced over untraced fit time in the same run, minus 100 % "
     "(0 on serve_drift, whose only traced fit is the retrain)"),
    ("trace.serve_overhead_pct", "%", "lower",
     "traced over untraced online p50 in the control phase, minus 100 %"),
]


def units() -> dict:
    """Metric name -> unit, for both kinds."""
    return {m[0]: m[1] for m in END_TO_END + PER_LAYER}


def listing() -> str:
    """Every metric by name with its unit, direction and meaning."""
    lines = ["workloads:"]
    lines += [f"  {name:<14} {why}" for name, why in WORKLOADS]
    lines.append("end-to-end (--trace 0), bound = allowed worsening:")
    lines += [f"  {n:<34} {u:<6} {b:<7} {bd:<5} {d}" for n, u, b, bd, d in END_TO_END]
    lines.append("per-layer (--trace 1):")
    lines += [f"  {n:<34} {u:<6} {b:<7} {d}" for n, u, b, d in PER_LAYER]
    return "\n".join(lines)
