# Single-command entrypoints for CI and local verification.
# .github/workflows/ci.yml invokes exactly these targets — keep them green.
PYTHON ?= python
export PYTHONPATH := src

.PHONY: test test-fast coverage coverage-workloads bench-smoke perfbench-smoke fit-digest reach-audit bench-fastpath bench-serving bench-monitoring bench-chaos bench-telemetry lint lint-fix-baseline

# Tier-1 suite (the ROADMAP verify command). Runs everything, including
# tests marked `slow`.
test:
	$(PYTHON) -m pytest -x -q

# PR-gating subset: skips `slow` experiment/figure reproductions and
# anything marked `bench` (markers registered in pyproject.toml). Warning
# clean by contract: any RuntimeWarning (overflow, invalid value, ...)
# fails the run.
test-fast:
	$(PYTHON) -m pytest -x -q -W error::RuntimeWarning -m "not slow and not bench"

# Informational line-coverage summary for src/repro. Uses pytest-cov /
# coverage.py when installed (the CI coverage job installs them); otherwise
# falls back to the dependency-free stdlib tracer in tools/coverage_run.py.
coverage:
	$(PYTHON) tools/coverage_run.py

# Per function, the src/repro statements that the examples, the paper
# benches (small REPRO_SCALE) and short perfbench runs never reach, from the
# stdlib tracer in tools/coverage_run.py (forked children traced, spawn
# children not). A report of deletion candidates, not a gate: exits 0.
coverage-workloads:
	$(PYTHON) tools/coverage_run.py --workloads

# Fast end-to-end run of the perf benchmarks; writes BENCH_parallel.json,
# BENCH_streaming.json, BENCH_fastpath.json, BENCH_serving.json,
# BENCH_monitoring.json, BENCH_chaos.json, and BENCH_telemetry.json at
# the repo root (uploaded as CI artifacts). The fastpath smoke asserts a
# conservative >=1.2x speedup floor (REPRO_FASTPATH_MIN_SPEEDUP) so
# shared runners don't flake; the serving smoke asserts bit-identity of
# the served path and records latency percentiles without a floor; the
# monitoring smoke asserts the hot-swap zero-blocked-requests contract;
# the chaos smoke asserts the fault-tolerance SLOs (zero hung futures,
# zero silent drops, typed failures, bounded recovery) under a seeded
# FaultPlan plus telemetry-vs-stats() reconciliation; the telemetry
# smoke asserts the <5% sampling-overhead budget, histogram quantile
# accuracy, and registry/stats()/span agreement — all correctness
# properties, not timings.
bench-smoke:
	REPRO_SCALE=0.25 $(PYTHON) benchmarks/bench_parallel_scaling.py
	REPRO_SCALE=0.25 $(PYTHON) benchmarks/bench_streaming_memory.py
	REPRO_SCALE=0.25 $(PYTHON) benchmarks/bench_fastpath.py
	REPRO_SCALE=0.25 $(PYTHON) benchmarks/bench_serving.py
	REPRO_SCALE=0.25 $(PYTHON) benchmarks/bench_monitoring.py
	REPRO_SCALE=0.25 $(PYTHON) benchmarks/bench_chaos.py
	REPRO_SCALE=0.25 $(PYTHON) benchmarks/bench_telemetry.py
	$(PYTHON) tools/bench_report.py

# Smoke tests of the repository's benchmark (perfbench/, BENCHMARK.json)
# at a tiny scale: every metric reported with its unit, the traced layer
# breakdown reconciles through the layer hooks it wraps by name, and each
# correctness gate fires on a substituted model. Properties, not timings.
perfbench-smoke:
	$(PYTHON) -m pytest -q perfbench/smoke.py

# Byte-identity gate of a fit-path change: one SHA-256 per model over its
# fitted trees, its predict_proba on its own table, its saved state tree
# and the mmap-loaded artifact's predict_proba (tools/fit_digest.py), for
# SPE at the serve_drift and fit_credit shapes and for the forest,
# EasyEnsemble, GBDT, AdaBoost, RUSBoost, SMOTEBoost, Bagging,
# UnderBagging, SMOTEBagging, BalanceCascade and streaming SPE, seeds 1-3,
# plus ResampleEnsemble's trees and predict_proba (it is not persistable).
# Run it with PYTHONPATH at the parent's src and at the change's on the
# same host: equal lines mean byte-identical models and artifacts.
fit-digest:
	@for seed in 1 2 3; do \
	  for args in "--rows 20000 --ir 20" "--rows 150000 --ir 200" \
	              "--estimator forest" "--estimator easy_ensemble" "--estimator gbdt" \
	              "--estimator adaboost" "--estimator rus_boost" "--estimator smote_boost" \
	              "--estimator bagging" "--estimator under_bagging" "--estimator smote_bagging" \
	              "--estimator balance_cascade" "--estimator streaming_spe" \
	              "--estimator streaming_spe --mode reservoir"; do \
	    echo "$$($(PYTHON) tools/fit_digest.py $$args --seed $$seed --predict --persist)  $$args --seed $$seed"; \
	  done; \
	  echo "$$($(PYTHON) tools/fit_digest.py --estimator resample_ensemble --seed $$seed --predict)  --estimator resample_ensemble --seed $$seed --predict"; \
	done

# Public top-level functions and classes of src/repro that nothing outside
# tests/ reads, with their line counts (tools/reach_audit.py). A report of
# deletion candidates, not a gate: it always exits 0.
reach-audit:
	$(PYTHON) tools/reach_audit.py

# Full-scale fastpath speedup benchmark (predict_proba, per-tree vs packed
# paths, bit-identity asserted on every pair).
bench-fastpath:
	$(PYTHON) benchmarks/bench_fastpath.py

# Full-scale serving benchmark: cold artifact load + warm micro-batch
# latency (p50/p99 at request sizes 1/64/512) for the packed-forest
# serving path, then the multi-process fleet phases — the
# 1/2/4-worker throughput curve, per-worker private-memory deltas vs the
# mmap'd artifact (zero-copy claim), admission-control overflow, and a
# fleet-wide hot swap under load with zero dropped requests asserted.
bench-serving:
	$(PYTHON) benchmarks/bench_serving.py

# Full-scale monitoring benchmark: drift-check overhead per 10k monitored
# rows plus hot-swap latency and the zero-blocked-requests assertion under
# concurrent traffic.
bench-monitoring:
	$(PYTHON) benchmarks/bench_monitoring.py

# Full-scale chaos harness: replay a PaySim burst through the serve()
# fleet while a seeded FaultPlan kills one worker mid-burst and another
# mid-swap; asserts the SLOs (zero hung futures, zero silent drops, every
# failure typed, recovery within the respawn-backoff bound, fleet
# converged onto the swapped version) and writes BENCH_chaos.json.
bench-chaos:
	$(PYTHON) benchmarks/bench_chaos.py

# Full-scale telemetry-plane benchmark: sampling-overhead bound (<5% on
# a production-shaped serving workload, interleaved on/off trials),
# histogram p50/p99 accuracy against exact percentiles of a seeded
# sample, and the registry/stats()/span reconciliation; writes
# BENCH_telemetry.json.
bench-telemetry:
	$(PYTHON) benchmarks/bench_telemetry.py

# No third-party linters in the toolchain: byte-compile everything so
# syntax/undefined-future errors fail fast, then run repro-lint — the
# repo's own AST-based static-analysis suite (tools/repro_lint.py). It
# enforces the concurrency, determinism, exception-contract, resource-
# lifecycle, and API-surface rules (see DESIGN.md) and folds in the
# classifier-registry audit, so this is the single lint gate with one
# exit code. Writes LINT_report.json (uploaded as a CI artifact).
lint:
	$(PYTHON) -m compileall -q src tests benchmarks examples tools
	$(PYTHON) tools/repro_lint.py src tests benchmarks tools --format=json --out LINT_report.json

# Deliberate act only: regenerate the grandfathered-findings baseline
# (tools/analysis/baseline.json) from the current findings. The shipped
# baseline is empty for src/repro — keep it that way; fix findings
# instead of baselining them whenever possible.
lint-fix-baseline:
	$(PYTHON) tools/repro_lint.py src tests benchmarks tools --write-baseline
