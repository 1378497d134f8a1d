"""The unified telemetry plane: metrics core, tracing, exposition, and
the serving/monitoring/fit instrumentation built on top of it.

Pins the telemetry issue's acceptance criteria: the primitives are
correct and thread-safe under concurrent increments; registration is
idempotent and mismatches are typed errors; the Prometheus text format
matches a golden rendering byte for byte; the JSON snapshot follows its
documented schema; ``stats()`` on ``ModelServer``/``WorkerPool``/
``AsyncGateway`` keeps its legacy key sets while reading from the
registry; spans stitch across the fork into a pool worker; smaps
unavailability degrades to a ``nan`` gauge plus a counter instead of an
exception; and the sampling switch disables spans and latency timing
while counters keep counting.
"""

import asyncio
import math
import threading
from concurrent.futures import Future

import numpy as np
import pytest

from repro import telemetry
from repro.exceptions import (
    CircuitOpenError,
    DeadlineExceededError,
    ServerOverloadedError,
)
from repro.monitoring import DriftMonitor, ReferenceSketch
from repro.registry import get_classifier, toy_imbalanced_split
from repro.persistence import save_model
from repro.serving import AsyncGateway, ModelServer, WorkerPool
from repro.telemetry import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Span,
    metric_value,
    render_prometheus,
    snapshot,
)


@pytest.fixture(autouse=True)
def sampling_on():
    """Every test here runs with sampling on unless it flips it itself."""
    previous = telemetry.set_sampling(True)
    yield
    telemetry.set_sampling(previous)


@pytest.fixture(scope="module")
def toy():
    return toy_imbalanced_split()


@pytest.fixture(scope="module")
def champion(toy):
    X, y = toy
    return get_classifier(
        "spe", base="tree", n_estimators=5, random_state=0
    ).fit(X, y)


@pytest.fixture(scope="module")
def artifact(tmp_path_factory, champion):
    path = str(tmp_path_factory.mktemp("artifacts") / "champion.npz")
    save_model(champion, path)
    return path


# --------------------------------------------------------------------- #
# primitives
# --------------------------------------------------------------------- #
class TestPrimitives:
    def test_counter_monotone(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_set_inc_dec_and_nan(self):
        g = Gauge()
        g.set(4.0)
        g.inc()
        g.dec(2.0)
        assert g.value == 3.0
        g.set(float("nan"))
        assert math.isnan(g.value)

    def test_histogram_bucketing_and_totals(self):
        h = Histogram(buckets=(1.0, 10.0))
        for v in (0.5, 5.0, 50.0):
            h.observe(v)
        assert h.count == 3
        assert h.sum == 55.5
        assert h.cumulative() == [(1.0, 1), (10.0, 2), (math.inf, 3)]

    def test_histogram_quantile_interpolates(self):
        h = Histogram(buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 1.5, 3.0):
            h.observe(v)
        # rank 2 of 4: halfway through the (1, 2] bucket's two samples
        assert h.quantile(0.5) == pytest.approx(1.5)
        assert h.quantile(0.0) == pytest.approx(0.0)
        # +Inf clamps to the last finite bound
        h.observe(100.0)
        assert h.quantile(1.0) == 4.0

    def test_histogram_empty_and_bad_inputs(self):
        h = Histogram()
        assert math.isnan(h.quantile(0.5))
        with pytest.raises(ValueError):
            h.quantile(1.5)
        with pytest.raises(ValueError):
            Histogram(buckets=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram(buckets=())

    def test_default_buckets_are_ascending_latency_ladder(self):
        assert DEFAULT_LATENCY_BUCKETS[0] == 1e-05
        assert DEFAULT_LATENCY_BUCKETS[-1] == 60.0
        assert all(
            a < b
            for a, b in zip(DEFAULT_LATENCY_BUCKETS, DEFAULT_LATENCY_BUCKETS[1:])
        )


# --------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------- #
class TestRegistry:
    def test_registration_is_idempotent(self):
        reg = MetricsRegistry("t")
        a = reg.counter("x_total", "X.")
        b = reg.counter("x_total", "X.")
        assert a is b

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry("t")
        reg.counter("x_total", "X.")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("x_total", "X.")

    def test_label_mismatch_raises(self):
        reg = MetricsRegistry("t")
        reg.counter("x_total", "X.", labels=("a",))
        with pytest.raises(ValueError, match="already registered"):
            reg.counter("x_total", "X.", labels=("a", "b"))

    def test_labeled_family_children(self):
        reg = MetricsRegistry("t")
        family = reg.counter("x_total", "X.", labels=("tenant",))
        family.labels("a").inc()
        family.labels("a").inc()
        family.labels("b").inc(5)
        assert family.labels("a").value == 2
        assert [values for values, _ in family.children()] == [("a",), ("b",)]
        with pytest.raises(ValueError, match="expects labels"):
            family.labels("a", "extra")

    def test_process_registry_is_shared_by_name(self):
        assert telemetry.get_registry() is telemetry.get_registry()
        assert telemetry.get_registry("other") is not telemetry.get_registry()

    def test_instance_labels_are_unique(self):
        labels = {telemetry.instance_label("test-kind") for _ in range(10)}
        assert len(labels) == 10

    def test_metric_scope_binds_instance_and_reads_stat_keys(self):
        a, b = (telemetry.MetricScope("scopetest") for _ in range(2))
        assert a.label != b.label

        def declare(scope):
            return (
                scope.counter("test_scope_requests_total", "R.",
                              stat="n_requests"),
                scope.counter("test_scope_opens_total", "O.",
                              stat="breaker.n_opens"),
                scope.counter("test_scope_served_total", "S.",
                              labels=("tenant",), stat="served"),
                scope.gauge("test_scope_depth", "D."),
            )

        requests, opens, served, depth = declare(a)
        declare(b)
        requests.inc(3)
        opens.inc()
        served.labels("acme").inc(2)
        depth.set(5)
        assert a.counts() == {"n_requests": 3, "breaker": {"n_opens": 1}}
        assert a.counts("acme") == {"served": 2}
        assert b.counts() == {"n_requests": 0, "breaker": {"n_opens": 0}}
        own = {"scopetest": a.label}
        assert metric_value("test_scope_requests_total", own) == 3.0
        assert metric_value("test_scope_depth", own) == 5.0
        assert metric_value(
            "test_scope_served_total", {**own, "tenant": "acme"}
        ) == 2.0
        family = telemetry.get_registry().get("test_scope_served_total")
        assert family.label_names == ("scopetest", "tenant")

    def test_facade_reexported_from_repro(self):
        import repro

        assert repro.get_registry is telemetry.get_registry
        assert repro.telemetry is telemetry


# --------------------------------------------------------------------- #
# exposition
# --------------------------------------------------------------------- #
def _golden_registry() -> MetricsRegistry:
    reg = MetricsRegistry("golden")
    reg.gauge("app_depth", "Depth.").set(2)
    h = reg.histogram("app_latency_seconds", "Latency.", buckets=(0.1, 1.0))
    for v in (0.05, 0.5, 5.0):
        h.observe(v)
    reg.counter("app_requests_total", "Requests.", labels=("tenant",)).labels(
        "acme"
    ).inc(3)
    return reg


GOLDEN_TEXT = """\
# HELP app_depth Depth.
# TYPE app_depth gauge
app_depth 2
# HELP app_latency_seconds Latency.
# TYPE app_latency_seconds histogram
app_latency_seconds_bucket{le="0.1"} 1
app_latency_seconds_bucket{le="1"} 2
app_latency_seconds_bucket{le="+Inf"} 3
app_latency_seconds_sum 5.55
app_latency_seconds_count 3
# HELP app_requests_total Requests.
# TYPE app_requests_total counter
app_requests_total{tenant="acme"} 3
"""


class TestExposition:
    def test_prometheus_text_matches_golden(self):
        assert render_prometheus(_golden_registry()) == GOLDEN_TEXT

    def test_nan_gauge_renders_as_nan(self):
        reg = MetricsRegistry("t")
        reg.gauge("g", "G.").set(float("nan"))
        assert "g NaN" in render_prometheus(reg)

    def test_label_values_are_escaped(self):
        reg = MetricsRegistry("t")
        reg.counter("c_total", "C.", labels=("k",)).labels('a"b\n\\c').inc()
        text = render_prometheus(reg)
        assert r'c_total{k="a\"b\n\\c"} 1' in text

    def test_snapshot_schema(self):
        snap = snapshot(_golden_registry())
        assert snap["registry"] == "golden"
        assert set(snap["metrics"]) == {
            "app_depth", "app_latency_seconds", "app_requests_total",
        }
        hist = snap["metrics"]["app_latency_seconds"]
        assert hist["kind"] == "histogram"
        (sample,) = hist["samples"]
        assert set(sample) == {"labels", "count", "sum", "p50", "p99", "buckets"}
        assert sample["count"] == 3
        assert sample["buckets"] == {"0.1": 1, "1": 2, "+Inf": 3}
        counter = snap["metrics"]["app_requests_total"]
        assert counter["samples"] == [
            {"labels": {"tenant": "acme"}, "value": 3.0}
        ]

    def test_metric_value_reads_one_child(self):
        reg = _golden_registry()
        assert metric_value("app_depth", registry=reg) == 2.0
        assert (
            metric_value("app_requests_total", {"tenant": "acme"}, registry=reg)
            == 3.0
        )
        assert metric_value("app_requests_total", registry=reg) is None
        assert metric_value("absent", registry=reg) is None
        hist = metric_value("app_latency_seconds", registry=reg)
        assert hist["count"] == 3 and hist["sum"] == pytest.approx(5.55)


# --------------------------------------------------------------------- #
# thread-safety
# --------------------------------------------------------------------- #
class TestConcurrentIncrements:
    def test_counter_and_histogram_race(self):
        reg = MetricsRegistry("race")
        counter = reg.counter("hits_total", "Hits.")
        hist = reg.histogram("lat_seconds", "Lat.")
        n_threads, n_iter = 8, 5000

        def hammer():
            for _ in range(n_iter):
                counter.inc()
                hist.observe(0.001)

        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == n_threads * n_iter
        assert hist.count == n_threads * n_iter
        assert hist.cumulative()[-1][1] == n_threads * n_iter


# --------------------------------------------------------------------- #
# tracing
# --------------------------------------------------------------------- #
class TestTracing:
    def test_nested_spans_share_trace_and_parent_link(self):
        with telemetry.trace("outer", tenant="t") as outer:
            with telemetry.trace("inner") as inner:
                assert telemetry.current_span() is inner
            assert inner.trace_id == outer.trace_id
            assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert outer.duration_s is not None and outer.tags == {"tenant": "t"}
        spans = telemetry.drain_trace(outer.trace_id)
        assert [s.name for s in spans] == ["inner", "outer"]
        assert telemetry.current_context() is None

    def test_record_span_requires_context(self):
        assert telemetry.record_span("x", 0.1, None) is None
        with telemetry.trace("outer") as outer:
            ctx = telemetry.current_context()
        recorded = telemetry.record_span("queue", 0.25, ctx, rows=4)
        assert recorded.parent_id == outer.span_id
        assert recorded.duration_s == 0.25
        telemetry.drain_trace(outer.trace_id)

    def test_resume_trace_anchors_without_recording(self):
        with telemetry.resume_trace(12345, 67890):
            with telemetry.trace("child") as child:
                pass
        assert child.trace_id == 12345 and child.parent_id == 67890
        spans = telemetry.drain_trace(12345)
        assert [s.name for s in spans] == ["child"]  # no "(anchor)" span

    def test_span_wire_roundtrip(self):
        span = Span("x", 1, 2, parent_id=3, start=4.0, duration_s=0.5,
                    tags={"worker": 0})
        assert Span.from_wire(span.to_wire()) == span

    def test_sink_is_bounded(self):
        sink = telemetry.TraceSink(capacity=2)
        for i in range(5):
            sink.record(Span("s", trace_id=9, span_id=i))
        assert len(sink) == 2
        assert [s.span_id for s in sink.spans(9)] == [3, 4]
        with pytest.raises(ValueError):
            telemetry.TraceSink(capacity=0)


# --------------------------------------------------------------------- #
# the sampling switch
# --------------------------------------------------------------------- #
class TestSamplingSwitch:
    def test_set_sampling_returns_previous(self):
        assert telemetry.set_sampling(False) is True
        assert telemetry.set_sampling(True) is False
        assert telemetry.sampling_enabled()

    def test_off_disables_spans_and_timing(self):
        telemetry.set_sampling(False)
        with telemetry.trace("x") as span:
            assert span is None
            assert telemetry.current_context() is None
        reg = MetricsRegistry("t")
        hist = reg.histogram("h_seconds", "H.")
        sw = telemetry.stopwatch()
        assert sw.observe(hist) == 0.0
        assert hist.count == 0
        with telemetry.timer(hist):
            pass
        assert hist.count == 0

    def test_off_keeps_counters_counting(self, champion, toy):
        X, _ = toy
        telemetry.set_sampling(False)
        with ModelServer(champion) as server:
            label = {"server": server.telemetry_label_}
            server.predict_proba(X[:8])
            server.predict_proba(X[:8])
            stats = server.stats()
            assert stats["n_requests"] == 2
            assert metric_value("repro_server_requests_total", label) == 2.0
            wait = metric_value("repro_server_queue_wait_seconds", label)
            assert wait["count"] == 0  # latency timing is off

    def test_on_times_latencies(self, champion, toy):
        X, _ = toy
        with ModelServer(champion) as server:
            label = {"server": server.telemetry_label_}
            for _ in range(3):
                server.predict_proba(X[:8])
            wait = metric_value("repro_server_queue_wait_seconds", label)
            kernel = metric_value("repro_server_kernel_eval_seconds", label)
        assert wait["count"] == 3
        assert kernel["count"] == server.stats()["n_batches"]
        assert kernel["sum"] > 0


# --------------------------------------------------------------------- #
# stats() stays a thin view with its legacy keys
# --------------------------------------------------------------------- #
class _FakeBackend:
    def submit(self, rows):
        future = Future()
        future.set_result(np.zeros((len(rows), 2)))
        return future


class _PushBackOnce(_FakeBackend):
    """Pushes back on the first submit, then answers like its parent."""

    def __init__(self):
        self.pushed = False

    def submit(self, rows):
        if not self.pushed:
            self.pushed = True
            raise ServerOverloadedError("backend queue full")
        return super().submit(rows)


class TestStatsCompat:
    SERVER_KEYS = {
        "model_version", "packed", "threshold",
        "n_requests", "n_batches", "n_rows", "n_overflows",
        "n_deadline_expired", "n_swaps", "queue_depth",
        "batch_size_distribution", "requests_by_version",
    }
    POOL_KEYS = {
        "n_workers", "threshold", "n_requests", "n_overflows", "n_swaps",
        "n_crashes", "n_respawns", "n_deadline_expired", "n_late_replies",
        "n_pending", "model_versions", "worker_states", "worker_crashes",
        "worker_generations", "requests_by_version",
    }
    GATEWAY_KEYS = {
        "tenants", "n_backpressure_waits", "n_deadline_expired",
        "inflight", "breaker",
    }

    def test_server_stats_keys_and_registry_agreement(self, champion, toy):
        X, _ = toy
        with ModelServer(champion) as server:
            for _ in range(4):
                server.predict_proba(X[:8])
            with pytest.raises(DeadlineExceededError):
                server.submit(X[:8], deadline=0)
            server.swap_model(champion, version="v1")
            stats = server.stats()
            label = {"server": server.telemetry_label_}
            assert set(stats) == self.SERVER_KEYS
            assert stats["n_requests"] == 4
            assert stats["n_deadline_expired"] == stats["n_swaps"] == 1
            counters = {
                "n_requests": "repro_server_requests_total",
                "n_batches": "repro_server_batches_total",
                "n_rows": "repro_server_rows_total",
                "n_overflows": "repro_server_overflows_total",
                "n_deadline_expired": "repro_server_deadline_expired_total",
                "n_swaps": "repro_server_swaps_total",
            }
            assert {k for k in stats if k.startswith("n_")} == set(counters)
            for key, metric in counters.items():
                assert stats[key] == int(metric_value(metric, label)), key

    def test_pool_stats_keys_and_registry_agreement(self, artifact, toy):
        X, _ = toy
        with WorkerPool(artifact, n_workers=1) as pool:
            for _ in range(3):
                pool.predict_proba(X[:8])
            with pytest.raises(DeadlineExceededError):
                pool.submit(X[:8], deadline=0)
            stats = pool.stats()
            label = {"pool": pool.telemetry_label_}
            assert set(stats) == self.POOL_KEYS
            assert stats["n_requests"] == 3
            assert stats["n_deadline_expired"] == 1
            counters = {
                "n_requests": "repro_pool_requests_total",
                "n_overflows": "repro_pool_overflows_total",
                "n_swaps": "repro_pool_swaps_total",
                "n_crashes": "repro_pool_crashes_total",
                "n_respawns": "repro_pool_respawns_total",
                "n_deadline_expired": "repro_pool_deadline_expired_total",
                "n_late_replies": "repro_pool_late_replies_total",
            }
            not_counters = {"n_workers", "n_pending"}
            assert {k for k in stats if k.startswith("n_")} == (
                set(counters) | not_counters
            )
            for key, metric in counters.items():
                assert stats[key] == int(metric_value(metric, label)), key
            roundtrip = metric_value("repro_pool_roundtrip_seconds", label)
            assert roundtrip["count"] == 3

    def test_gateway_stats_keys_and_registry_agreement(self):
        rows = np.zeros((2, 3))

        async def run():
            async with AsyncGateway(
                _PushBackOnce(),
                breaker_threshold=1,
                retry_interval=0.05,
                max_retry_interval=0.05,
            ) as gateway:
                # The first forward is pushed back (one backpressure
                # wait) and trips the breaker; a submission while it is
                # open is shed; the retry is served and closes it.
                first = asyncio.ensure_future(
                    gateway.submit(rows, tenant="acme")
                )
                for _ in range(1000):
                    if gateway.stats()["breaker"]["state"] == "open":
                        break
                    await asyncio.sleep(0.001)
                with pytest.raises(CircuitOpenError):
                    await gateway.submit(rows, tenant="acme")
                with pytest.raises(DeadlineExceededError):
                    await gateway.submit(rows, tenant="acme", deadline=0)
                await first
                return gateway, gateway.stats()

        gateway, stats = asyncio.run(run())
        assert set(stats) == self.GATEWAY_KEYS
        assert set(stats["breaker"]) == {
            "state", "failure_streak", "n_opens", "n_shed",
        }
        assert set(stats["tenants"]["acme"]) == {
            "submitted", "served", "rejected", "queued",
        }
        assert stats["tenants"]["acme"]["submitted"] == 1
        assert stats["tenants"]["acme"]["served"] == 1
        assert stats["breaker"]["state"] == "closed"
        label = {"gateway": gateway.telemetry_label_, "tenant": "acme"}
        for key in ("submitted", "served", "rejected"):
            metric = f"repro_gateway_{key}_total"
            assert stats["tenants"]["acme"][key] == int(
                metric_value(metric, label)
            ), key
        own = {"gateway": gateway.telemetry_label_}
        for section, counters in (
            (stats, {
                "n_backpressure_waits": "repro_gateway_backpressure_waits_total",
                "n_deadline_expired": "repro_gateway_deadline_expired_total",
            }),
            (stats["breaker"], {
                "n_opens": "repro_gateway_breaker_opens_total",
                "n_shed": "repro_gateway_shed_total",
            }),
        ):
            assert {k for k in section if k.startswith("n_")} == set(counters)
            for key, metric in counters.items():
                assert section[key] == 1, key
                assert section[key] == int(metric_value(metric, own)), key
        request = metric_value(
            "repro_gateway_request_seconds",
            {"gateway": gateway.telemetry_label_},
        )
        assert request["count"] == 1


# --------------------------------------------------------------------- #
# every component's registry footprint is pinned
# --------------------------------------------------------------------- #
def _footprint(kind, label):
    """``(family name, kind, label names)`` of every snapshot family with
    a sample labeled ``kind=label`` — what one instance registered."""
    return {
        (name, family["kind"], tuple(sample["labels"]))
        for name, family in snapshot()["metrics"].items()
        for sample in family["samples"]
        if sample["labels"].get(kind) == label
    }


class TestRegisteredFamilies:
    """No metric family, kind or label name is lost (or gained) when a
    component's instrumentation is rewritten: each of the five
    instrumented components is exercised until every child it can
    create exists, and its snapshot footprint is pinned."""

    SERVER = {
        ("repro_server_requests_total", "counter", ("server",)),
        ("repro_server_batches_total", "counter", ("server",)),
        ("repro_server_rows_total", "counter", ("server",)),
        ("repro_server_deadline_expired_total", "counter", ("server",)),
        ("repro_server_swaps_total", "counter", ("server",)),
        ("repro_server_overflows_total", "counter", ("server",)),
        ("repro_server_queue_depth", "gauge", ("server",)),
        ("repro_server_queue_wait_seconds", "histogram", ("server",)),
        ("repro_server_kernel_eval_seconds", "histogram", ("server",)),
        ("repro_server_swap_seconds", "histogram", ("server",)),
    }
    POOL = {
        ("repro_pool_requests_total", "counter", ("pool",)),
        ("repro_pool_overflows_total", "counter", ("pool",)),
        ("repro_pool_swaps_total", "counter", ("pool",)),
        ("repro_pool_crashes_total", "counter", ("pool",)),
        ("repro_pool_respawns_total", "counter", ("pool",)),
        ("repro_pool_deadline_expired_total", "counter", ("pool",)),
        ("repro_pool_late_replies_total", "counter", ("pool",)),
        ("repro_pool_smaps_unavailable_total", "counter", ("pool",)),
        ("repro_pool_pending_requests", "gauge", ("pool",)),
        ("repro_pool_roundtrip_seconds", "histogram", ("pool",)),
        ("repro_pool_swap_seconds", "histogram", ("pool",)),
        ("repro_pool_worker_private_kb", "gauge", ("pool", "worker")),
    }
    GATEWAY = {
        ("repro_gateway_submitted_total", "counter", ("gateway", "tenant")),
        ("repro_gateway_served_total", "counter", ("gateway", "tenant")),
        ("repro_gateway_rejected_total", "counter", ("gateway", "tenant")),
        ("repro_gateway_queue_depth", "gauge", ("gateway", "tenant")),
        ("repro_gateway_backpressure_waits_total", "counter", ("gateway",)),
        ("repro_gateway_deadline_expired_total", "counter", ("gateway",)),
        ("repro_gateway_shed_total", "counter", ("gateway",)),
        ("repro_gateway_breaker_opens_total", "counter", ("gateway",)),
        ("repro_gateway_breaker_state", "gauge", ("gateway",)),
        ("repro_gateway_inflight_requests", "gauge", ("gateway",)),
        ("repro_gateway_queue_wait_seconds", "histogram", ("gateway",)),
        ("repro_gateway_request_seconds", "histogram", ("gateway",)),
    }
    MONITOR = {
        ("repro_monitor_rows_total", "counter", ("monitor",)),
        ("repro_monitor_checks_total", "counter", ("monitor",)),
        ("repro_monitor_check_seconds", "histogram", ("monitor",)),
        ("repro_monitor_drift_level", "gauge", ("monitor", "detector")),
    }
    CONTROLLER = {
        ("repro_lifecycle_events_total", "counter", ("controller", "action")),
        ("repro_lifecycle_promotions_total", "counter", ("controller",)),
        ("repro_lifecycle_swap_retries_total", "counter", ("controller",)),
        ("repro_lifecycle_promotion_lag_seconds", "histogram", ("controller",)),
        ("repro_lifecycle_swap_seconds", "histogram", ("controller",)),
    }

    def test_server_families(self, champion, toy):
        X, _ = toy
        with ModelServer(champion) as server:
            server.predict_proba(X[:8])
            server.stats()
            assert _footprint("server", server.telemetry_label_) == self.SERVER

    def test_pool_families(self, artifact, toy):
        X, _ = toy
        with WorkerPool(artifact, n_workers=1) as pool:
            pool.predict_proba(X[:8])
            pool.worker_stats(timeout=30)  # the per-worker footprint gauge
            pool.stats()
            assert _footprint("pool", pool.telemetry_label_) == self.POOL

    def test_gateway_families(self):
        async def run():
            async with AsyncGateway(_FakeBackend()) as gateway:
                await gateway.submit(np.zeros((2, 3)), tenant="acme")
                gateway.stats()
                return gateway

        gateway = asyncio.run(run())
        assert _footprint("gateway", gateway.telemetry_label_) == self.GATEWAY

    def test_monitor_and_controller_families(self, champion, toy, tmp_path):
        from repro.lifecycle import ArtifactRegistry, LifecycleController

        X, y = toy
        monitor = DriftMonitor(
            ReferenceSketch(n_bins=8).fit(X, y),
            window_size=1000,
            min_window=500,
        )
        with ModelServer(champion) as server:
            controller = LifecycleController(
                server,
                ArtifactRegistry(tmp_path / "reg"),
                monitor,
                train_fn=lambda source: champion,
            )
            controller.process(X[:50], y[:50])  # one check, one event
        assert _footprint("monitor", monitor.telemetry_label_) == self.MONITOR
        assert (
            _footprint("controller", controller.telemetry_label_)
            == self.CONTROLLER
        )


# --------------------------------------------------------------------- #
# cross-process span stitching and smaps degradation
# --------------------------------------------------------------------- #
class TestPoolTelemetry:
    def test_spans_stitch_across_forked_worker(self, artifact, toy):
        X, _ = toy
        with WorkerPool(artifact, n_workers=1) as pool:
            with telemetry.trace("request") as root:
                pool.submit_scored(X[:8]).result(timeout=30)
        spans = telemetry.drain_trace(root.trace_id)
        by_name = {s.name: s for s in spans}
        assert {"request", "pool.roundtrip", "server.queue_wait",
                "server.kernel_eval"} <= set(by_name)
        for name in ("pool.roundtrip", "server.queue_wait",
                     "server.kernel_eval"):
            assert by_name[name].trace_id == root.trace_id, name
            assert by_name[name].parent_id == root.span_id, name
        # worker-side spans carry the worker slot they ran on
        assert by_name["server.kernel_eval"].tags.get("worker") == 0
        assert by_name["pool.roundtrip"].duration_s >= (
            by_name["server.kernel_eval"].duration_s
        )

    def test_smaps_unavailable_degrades_to_nan_gauge(
        self, monkeypatch, artifact, toy
    ):
        import repro.serving.pool as pool_mod

        X, _ = toy
        # Patch BEFORE construction: the forked worker inherits the patch.
        monkeypatch.setattr(pool_mod, "process_private_kb", lambda: None)
        with WorkerPool(artifact, n_workers=1) as pool:
            pool.predict_proba(X[:4])
            per_worker = pool.worker_stats(timeout=30)
            label = {"pool": pool.telemetry_label_}
            assert per_worker[0]["private_kb"] is None  # no raise
            gauge = metric_value(
                "repro_pool_worker_private_kb",
                {"pool": pool.telemetry_label_, "worker": "0"},
            )
            assert math.isnan(gauge)
            assert metric_value("repro_pool_smaps_unavailable_total", label) >= 1


# --------------------------------------------------------------------- #
# fit-path stage timers and drift-level gauges
# --------------------------------------------------------------------- #
def _stage_count(stage):
    reading = metric_value("repro_fit_stage_seconds", {"stage": stage})
    return reading["count"] if reading else 0


class TestPipelineInstrumentation:
    def test_fit_stage_timers_advance(self, toy):
        X, y = toy
        before = {
            s: _stage_count(s)
            for s in ("member_fit", "self_paced_sampling", "ensemble_score")
        }
        get_classifier("spe", base="tree", n_estimators=3, random_state=0).fit(
            X, y
        )
        for stage, count in before.items():
            assert _stage_count(stage) > count, stage

    @pytest.mark.parametrize("trainer", ["memory", "exact", "reservoir"])
    def test_every_spe_trainer_records_one_loop(self, toy, trainer, npy_source):
        """SPE's trainers run one Algorithm-1 loop: in memory, exact over a
        non-array source (the block-walking seam) and reservoir. Each makes
        n−1 bin records and self-paced draws, n eval points and member fits."""
        from repro.core import SelfPacedEnsembleClassifier

        X, y = toy
        n = 4
        model = SelfPacedEnsembleClassifier(
            n_estimators=n,
            record_bins=True,
            mode="reservoir" if trainer == "reservoir" else "exact",
            random_state=0,
        )
        stages = ("member_fit", "self_paced_sampling")
        before = {s: _stage_count(s) for s in stages}
        if trainer == "exact":
            model.fit_source(npy_source(X, y, block_size=32), eval_set=(X, y))
        else:
            model.fit(X, y, eval_set=(X, y))
        assert len(model.bin_history_) == n - 1
        assert len(model.train_curve_) == n
        assert _stage_count("member_fit") - before["member_fit"] == n
        assert (
            _stage_count("self_paced_sampling") - before["self_paced_sampling"]
            == n - 1
        )

    def test_fastpath_predict_histogram(self, champion, toy):
        X, _ = toy
        before = metric_value("repro_fastpath_predict_seconds", {"path": "packed"})
        before_count = before["count"] if before else 0
        champion.predict_proba(X[:32])
        after = metric_value("repro_fastpath_predict_seconds", {"path": "packed"})
        assert after["count"] > before_count

    def test_drift_levels_exposed_as_gauges(self):
        rng = np.random.RandomState(0)
        X = rng.normal(size=(600, 3))
        y = (rng.uniform(size=600) < 0.2).astype(int)
        sketch = ReferenceSketch(n_bins=8).fit(X, y)
        monitor = DriftMonitor(sketch, window_size=1000, min_window=500)
        monitor.observe(X[:100], np.zeros(100), y[:100])
        monitor.check()
        label = {
            "monitor": monitor.telemetry_label_,
            "detector": "insufficient_window",
        }
        assert metric_value("repro_monitor_drift_level", label) == 0.0
        assert metric_value(
            "repro_monitor_rows_total", {"monitor": monitor.telemetry_label_}
        ) == 100.0
