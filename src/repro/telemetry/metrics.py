"""Dependency-free metrics core: counters, gauges, histograms, registry.

The primitives follow the Prometheus data model (the serving plane's
operational surface renders straight to the v0 text format, see
:mod:`repro.telemetry.export`) but depend on nothing beyond the stdlib:

* :class:`Counter` — monotonically increasing float (requests, crashes).
* :class:`Gauge` — settable float (queue depth, drift level); ``nan`` is
  a legal reading ("unknown", e.g. memory introspection unavailable).
* :class:`Histogram` — fixed-bucket distribution with cumulative-bucket
  exposition and bucket-interpolated quantile estimates. The default
  bucket ladder (:data:`DEFAULT_LATENCY_BUCKETS`) is log-scaled from
  10 µs to 60 s — serving latencies land mid-ladder with ~2.5× bucket
  resolution.
* :class:`MetricsRegistry` — a named collection of metric families.
  Registration is idempotent (re-registering the same name with the same
  kind and label names returns the existing family) and thread-safe;
  a mismatched re-registration raises ``ValueError`` instead of silently
  aliasing two meanings onto one name.
* :class:`MetricScope` — one component instance's slice of a registry:
  it takes the instance label, declares every metric the component
  keeps (each once, with its ``stats()`` key if it has one) and reads
  that instance's counters back.

Every mutation (``inc``/``set``/``observe``) takes a per-metric lock:
``x += 1`` is *not* atomic across threads (the read and the write are
separate bytecodes), and the serving plane increments from the submit
path, the batching worker, and the supervisor concurrently.

Process-wide named registries come from :func:`get_registry`; tests
inject a fresh ``MetricsRegistry()`` instance instead and pass it to the
exposition writers explicitly.
"""

from __future__ import annotations

import itertools
import math
import threading
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricScope",
    "MetricsRegistry",
    "get_registry",
    "instance_label",
]

#: Log-scaled latency buckets (seconds), a 1–2.5–5 ladder from 10 µs to
#: 60 s. Upper bounds of the finite buckets; every histogram also carries
#: an implicit +Inf bucket.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    1e-05, 2.5e-05, 5e-05,
    1e-04, 2.5e-04, 5e-04,
    1e-03, 2.5e-03, 5e-03,
    1e-02, 2.5e-02, 5e-02,
    1e-01, 2.5e-01, 5e-01,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)


class Counter:
    """A monotonically increasing value; one labeled child of a family."""

    kind = "counter"

    def __init__(self, label_values: Tuple[str, ...] = ()):
        self.label_values = label_values
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counters only go up; got inc({amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """Current counter value."""
        return self._value


class Gauge:
    """A settable value; ``nan`` encodes "currently unknowable"."""

    kind = "gauge"

    def __init__(self, label_values: Tuple[str, ...] = ()):
        self.label_values = label_values
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        """Set the gauge to ``value`` (``nan`` allowed)."""
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` to the gauge (negative allowed)."""
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Subtract ``amount`` from the gauge."""
        self.inc(-amount)

    @property
    def value(self) -> float:
        """Current gauge value."""
        return self._value


class Histogram:
    """Fixed-bucket distribution with quantile estimates.

    ``buckets`` are the *upper bounds* of the finite buckets in ascending
    order (default :data:`DEFAULT_LATENCY_BUCKETS`); observations above
    the last bound land in the implicit +Inf bucket. Quantiles are
    estimated by linear interpolation inside the bucket containing the
    target rank — accurate to one bucket step, which the log ladder keeps
    at ~2.5× (asserted in ``benchmarks/bench_telemetry.py``).
    """

    kind = "histogram"

    def __init__(
        self,
        label_values: Tuple[str, ...] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ):
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b <= a for a, b in zip(bounds, bounds[1:])):
            raise ValueError("buckets must be non-empty and ascending")
        self.label_values = label_values
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)  # +1: the +Inf bucket
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        idx = _bucket_index(self.bounds, value)
        with self._lock:
            self._counts[idx] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        """Number of observations."""
        return self._count

    @property
    def sum(self) -> float:
        """Sum of all observed values."""
        return self._sum

    def cumulative(self) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, +Inf last."""
        with self._lock:
            counts = list(self._counts)
        total = 0
        out: List[Tuple[float, int]] = []
        for bound, n in zip(self.bounds + (math.inf,), counts):
            total += n
            out.append((bound, total))
        return out

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (``nan`` on an empty histogram).

        Linear interpolation inside the bucket holding rank ``q*count``;
        the +Inf bucket clamps to the last finite bound.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        cum = self.cumulative()
        total = cum[-1][1]
        if total == 0:
            return float("nan")
        rank = q * total
        lower = 0.0
        prev_cum = 0
        for bound, cum_count in cum:
            if cum_count >= rank:
                if math.isinf(bound):
                    return self.bounds[-1]
                in_bucket = cum_count - prev_cum
                if in_bucket == 0:
                    return bound
                frac = (rank - prev_cum) / in_bucket
                return lower + frac * (bound - lower)
            prev_cum = cum_count
            lower = bound
        return self.bounds[-1]


def _bucket_index(bounds: Tuple[float, ...], value: float) -> int:
    """First bucket whose upper bound contains ``value`` (+Inf last)."""
    lo, hi = 0, len(bounds)
    while lo < hi:
        mid = (lo + hi) // 2
        if value <= bounds[mid]:
            hi = mid
        else:
            lo = mid + 1
    return lo


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """One named metric and its labeled children.

    Unlabeled metrics (``label_names == ()``) have exactly one child,
    which the registry hands back directly; labeled metrics create one
    child per distinct label-value tuple through :meth:`labels`.
    """

    def __init__(
        self,
        name: str,
        kind: str,
        help: str,
        label_names: Tuple[str, ...],
        **child_kwargs,
    ):
        self.name = name
        self.kind = kind
        self.help = help
        self.label_names = label_names
        self._child_kwargs = child_kwargs
        self._children: Dict[Tuple[str, ...], object] = {}
        self._lock = threading.Lock()

    def labels(self, *values) -> object:
        """The child for one label-value tuple (created on first use)."""
        key = tuple(str(v) for v in values)
        if len(key) != len(self.label_names):
            raise ValueError(
                f"{self.name} expects labels {self.label_names}, "
                f"got {len(key)} value(s)"
            )
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    child = _KINDS[self.kind](key, **self._child_kwargs)
                    self._children[key] = child
        return child

    def children(self) -> List[Tuple[Tuple[str, ...], object]]:
        """``(label_values, child)`` pairs, sorted by label values."""
        with self._lock:
            return sorted(self._children.items())


class MetricsRegistry:
    """A named, thread-safe collection of metric families.

    ``counter``/``gauge``/``histogram`` register-or-fetch a family;
    for unlabeled metrics the single child is returned directly, so
    ``registry.counter("x").inc()`` works without a ``labels()`` hop.
    """

    def __init__(self, name: str = "default"):
        self.name = name
        self._families: Dict[str, MetricFamily] = {}
        self._lock = threading.Lock()

    def _register(
        self,
        name: str,
        kind: str,
        help: str,
        labels: Sequence[str],
        **child_kwargs,
    ):
        label_names = tuple(str(n) for n in labels)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = MetricFamily(
                    name, kind, help, label_names, **child_kwargs
                )
                self._families[name] = family
            elif family.kind != kind or family.label_names != label_names:
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{family.kind}{family.label_names}; cannot re-register "
                    f"as {kind}{label_names}"
                )
        if not label_names:
            return family.labels()
        return family

    def counter(self, name: str, help: str = "", labels: Sequence[str] = ()):
        """Register-or-fetch a counter (family when ``labels`` given)."""
        return self._register(name, "counter", help, labels)

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = ()):
        """Register-or-fetch a gauge (family when ``labels`` given)."""
        return self._register(name, "gauge", help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ):
        """Register-or-fetch a histogram (family when ``labels`` given)."""
        return self._register(name, "histogram", help, labels, buckets=buckets)

    def families(self) -> List[MetricFamily]:
        """Registered families, sorted by metric name."""
        with self._lock:
            return [self._families[k] for k in sorted(self._families)]

    def get(self, name: str) -> Optional[MetricFamily]:
        """The family registered under ``name``, or ``None``."""
        with self._lock:
            return self._families.get(name)

    def samples(self, name: str) -> Iterator[Tuple[Dict[str, str], object]]:
        """``(labels_dict, child)`` pairs of one family (empty if absent)."""
        family = self.get(name)
        if family is None:
            return
        for values, child in family.children():
            yield dict(zip(family.label_names, values)), child


# --------------------------------------------------------------------- #
# process-wide named registries
# --------------------------------------------------------------------- #
_REGISTRIES: Dict[str, MetricsRegistry] = {}
_REGISTRIES_LOCK = threading.Lock()


def get_registry(name: str = "default") -> MetricsRegistry:
    """The process-wide registry ``name`` (created on first use).

    Components instrument themselves against the ``"default"`` registry;
    tests wanting isolation construct a private :class:`MetricsRegistry`
    and pass it to the exposition writers explicitly.
    """
    registry = _REGISTRIES.get(name)
    if registry is None:
        with _REGISTRIES_LOCK:
            registry = _REGISTRIES.get(name)
            if registry is None:
                registry = MetricsRegistry(name)
                _REGISTRIES[name] = registry
    return registry


# --------------------------------------------------------------------- #
# per-component instance labels
# --------------------------------------------------------------------- #
_INSTANCE_COUNTERS: Dict[str, "itertools.count"] = {}
_INSTANCE_LOCK = threading.Lock()


def instance_label(prefix: str) -> str:
    """Next process-unique label value for one component kind.

    Every ``ModelServer``/``WorkerPool``/``AsyncGateway``/... instance
    takes a label like ``server="2"`` (through its :class:`MetricScope`)
    so concurrent instances never fold their counters together in the
    shared registry.
    """
    with _INSTANCE_LOCK:
        counter = _INSTANCE_COUNTERS.get(prefix)
        if counter is None:
            counter = itertools.count()
            _INSTANCE_COUNTERS[prefix] = counter
        return str(next(counter))


class _InstanceFamily:
    """A labeled family with its first label bound to one instance."""

    def __init__(self, family: MetricFamily, label: str):
        self._family, self._label = family, label

    def labels(self, *values) -> object:
        """This instance's child for ``values`` of the remaining labels."""
        return self._family.labels(self._label, *values)


class MetricScope:
    """Every metric of one component instance, each declared once.

    ``MetricScope("server")`` takes the next ``server`` label value
    (:attr:`label`) and registers each family in the process registry with
    ``server`` as its first label name. A metric without extra ``labels``
    comes back as this instance's child; one with extra labels (``tenant``,
    ``worker``, ...) as a family whose ``.labels(...)`` takes just those.
    A counter's ``stat`` names its key in the component's ``stats()``,
    which :meth:`counts` reads back.
    """

    def __init__(self, kind: str):
        self.kind = kind
        self.label = instance_label(kind)
        #: (stats key, child or instance family, number of extra labels)
        self._stats: List[Tuple[str, object, int]] = []

    def _declare(self, kind: str, name: str, help: str, labels: Sequence[str]):
        family = getattr(get_registry(), kind)(
            name, help, labels=(self.kind, *labels)
        )
        if labels:
            return _InstanceFamily(family, self.label)
        return family.labels(self.label)

    def counter(self, name: str, help: str, *, labels: Sequence[str] = (),
                stat: Optional[str] = None):
        """Declare a counter; ``stat`` is its ``stats()`` key, if any."""
        metric = self._declare("counter", name, help, labels)
        if stat is not None:
            self._stats.append((stat, metric, len(labels)))
        return metric

    def gauge(self, name: str, help: str, *, labels: Sequence[str] = ()):
        """Declare a gauge."""
        return self._declare("gauge", name, help, labels)

    def histogram(self, name: str, help: str, *, labels: Sequence[str] = ()):
        """Declare a histogram with the default latency buckets."""
        return self._declare("histogram", name, help, labels)

    def counts(self, *values) -> Dict[str, object]:
        """This instance's counters by ``stats()`` key: those without extra
        labels or, given ``values``, those read at these extra-label values
        (one tenant's, say). A dotted key (``"breaker.n_opens"``) nests."""
        out: Dict[str, object] = {}
        for key, metric, n_extra in self._stats:
            if n_extra == len(values):
                group, _, leaf = key.rpartition(".")
                node = out.setdefault(group, {}) if group else out
                child = metric.labels(*values) if values else metric
                node[leaf] = int(child.value)
        return out
