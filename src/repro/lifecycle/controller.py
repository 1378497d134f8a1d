"""The closed loop: serve → monitor → decide → retrain → shadow → swap.

:class:`LifecycleController` owns one deployed model's whole
post-training life. Per labeled batch it:

1. scores the rows through the :class:`~repro.serving.ModelServer`
   (production path — micro-batched, version-stamped),
2. feeds features / scores / labels to the
   :class:`~repro.monitoring.DriftMonitor`,
3. asks the :class:`~repro.lifecycle.RetrainPolicy` what the drift
   reports justify,
4. on ``WARM_CHALLENGER`` / ``RETRAIN_NOW``: retrains a challenger from
   the monitor's window (handed over as a
   :class:`~repro.streaming.ArraySource`, so the trainer is the same
   out-of-core ``fit_source`` path used at bootstrap),
5. shadow-scores the challenger against the champion on that same window
   and — only on a metric win — registers it in the
   :class:`~repro.lifecycle.ArtifactRegistry`, blesses it champion, and
   hot-swaps it into the server with zero dropped requests.

Every step is observable: :meth:`process` returns a
:class:`LifecycleEvent` with the reports, the action, the shadow scores,
and the promoted version (if any).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from .. import telemetry
from ..exceptions import WorkerCrashedError
from ..monitoring.drift import DriftReport
from ..monitoring.monitor import DriftMonitor
from ..serving import ModelServer
from ..streaming import ArraySource
from .challenger import ShadowResult, shadow_evaluate
from .policy import Action, RetrainPolicy
from .registry import ArtifactRegistry

__all__ = ["LifecycleController", "LifecycleEvent", "resolve_train_fn"]


def resolve_train_fn(spec) -> Callable:
    """Normalise a retraining recipe to ``callable(DataSource) -> model``.

    Accepts the historical form (a callable taking the training
    :class:`~repro.streaming.DataSource`) unchanged, and two registry-era
    conveniences: a registered classifier *name* (``"spe"``,
    ``"logistic"``, ...) or an unfitted estimator *instance* used as the
    template. Template retrains clone the template per cycle (hyper-
    parameters are the recipe; fitted state never leaks between cycles)
    and fit out-of-core via ``fit_source`` when the model supports it,
    else materialise the window's blocks and call plain ``fit`` — which is
    what lets any registered model, tree-backed or not, serve as the
    challenger recipe.
    """
    if callable(spec) and not hasattr(spec, "get_params"):
        return spec

    from ..base import clone
    from ..registry import resolve_estimator

    template = resolve_estimator(spec)
    if template is None:
        raise TypeError(
            "train_fn must be a callable(source) -> fitted model, a "
            "registered classifier name, or an estimator instance; got None"
        )

    def train(source):
        model = clone(template)
        fit_source = getattr(model, "fit_source", None)
        if fit_source is not None:
            return fit_source(source)
        blocks = list(source.iter_blocks())
        X = np.vstack([b[0] for b in blocks])
        y = np.concatenate([b[1] for b in blocks])
        return model.fit(X, y)

    return train


@dataclass(frozen=True)
class LifecycleEvent:
    """What one :meth:`LifecycleController.process` call did."""

    n_rows: int
    model_version: str  #: version that served this batch
    reports: List[DriftReport] = field(default_factory=list)
    action: Action = Action.NONE
    shadow: Optional[ShadowResult] = None
    promoted: bool = False
    promoted_version: Optional[str] = None
    swap_retried: bool = False  #: first fleet swap attempt failed transiently
    swap_error: Optional[str] = None  #: the transient error, if any


class LifecycleController:
    """Drive one served model through monitor → retrain → promote cycles.

    Parameters
    ----------
    server : :class:`~repro.serving.ModelServer`
        The live endpoint; its champion is swapped in place on promotion.
    registry : :class:`~repro.lifecycle.ArtifactRegistry`
        Where promoted challengers are persisted (and champion-flagged)
        *before* the swap — a restart after promotion reloads the same
        model the swap installed.
    monitor : :class:`~repro.monitoring.DriftMonitor`
    train_fn : callable, registered name, or estimator instance
        The retraining recipe, normalised through :func:`resolve_train_fn`:
        a ``callable(DataSource) -> fitted model`` (e.g. ``lambda src:
        SelfPacedEnsembleClassifier(n_estimators=10,
        random_state=0).fit_source(src)``), a registered classifier name
        (``"spe"``, ``"logistic"``, ...), or an unfitted estimator used as
        a per-cycle clone template. Any registered model works — models
        without an out-of-core ``fit_source`` train on the materialised
        window.
    policy : :class:`~repro.lifecycle.RetrainPolicy`, optional
    metric : {"auprc", "f1", "minority_recall"}, default "auprc"
        Shadow-comparison metric.
    min_lift : float, default 0.0
        Required challenger margin over the champion.
    holdout_fraction : float in [0, 1), default 0.3
        The newest fraction of the monitor window is *withheld* from the
        challenger's training source and used as the shadow-comparison
        window, so the challenger never gets the in-sample advantage of
        being scored on rows it trained on. Falls back to the full window
        for both (documented in-sample comparison) when the split would
        leave the training slice single-class.
    """

    def __init__(
        self,
        server: ModelServer,
        registry: ArtifactRegistry,
        monitor: DriftMonitor,
        train_fn: Callable,
        *,
        policy: Optional[RetrainPolicy] = None,
        metric: str = "auprc",
        min_lift: float = 0.0,
        holdout_fraction: float = 0.3,
    ):
        if not 0.0 <= holdout_fraction < 1.0:
            raise ValueError("holdout_fraction must be in [0, 1)")
        self.server = server
        self.registry = registry
        self.monitor = monitor
        self.train_fn = resolve_train_fn(train_fn)
        self.policy = policy if policy is not None else RetrainPolicy()
        self.metric = metric
        self.min_lift = float(min_lift)
        self.holdout_fraction = float(holdout_fraction)
        self.events: List[LifecycleEvent] = []
        self._init_metrics()

    def _init_metrics(self) -> None:
        """Declare this controller's metrics on its own scope."""
        m = telemetry.MetricScope("controller")
        self.telemetry_label_ = m.label
        self._m_events = m.counter(
            "repro_lifecycle_events_total",
            "Lifecycle decisions taken, by policy action.", labels=("action",))
        self._m_promotions = m.counter(
            "repro_lifecycle_promotions_total",
            "Challengers promoted to champion (registered + swapped).")
        self._m_swap_retries = m.counter(
            "repro_lifecycle_swap_retries_total",
            "Fleet swaps retried after a transient failure.")
        self._h_promotion_lag = m.histogram(
            "repro_lifecycle_promotion_lag_seconds",
            "Decision-to-swap lag: retrain + shadow + register + swap.")
        self._h_swap = m.histogram(
            "repro_lifecycle_swap_seconds",
            "Server/fleet swap duration as seen by the controller "
            "(including the wait-healthy retry path).")

    # ------------------------------------------------------------------ #
    def process(self, X_batch, y_true=None) -> LifecycleEvent:
        """Serve one batch, monitor it, and act on the evidence.

        Pass ``y_true=None`` for rows whose labels lag; deliver them later
        through :meth:`deliver_labels`. Drift checks (and therefore
        retrains) only happen on calls that add labeled rows — unlabeled
        traffic can't move the error or prior statistics.
        """
        X_batch = np.atleast_2d(np.asarray(X_batch, dtype=np.float64))
        scored = self.server.score(X_batch)
        scores = scored.proba[:, self.server.positive_index]
        self.monitor.observe(X_batch, scores, y_true)
        if y_true is None:
            return self._record_event(
                LifecycleEvent(
                    n_rows=len(X_batch), model_version=scored.model_version
                )
            )
        return self._decide_and_act(len(X_batch), scored.model_version)

    def deliver_labels(self, y_true) -> LifecycleEvent:
        """Deliver delayed labels (oldest rows first) and run the loop."""
        y_true = np.atleast_1d(np.asarray(y_true))
        self.monitor.observe_labels(y_true)
        return self._decide_and_act(0, self.server.model_version)

    def _record_event(self, event: LifecycleEvent) -> LifecycleEvent:
        """Append the event and mirror it into the telemetry registry."""
        self._m_events.labels(event.action.name).inc()
        if event.promoted:
            self._m_promotions.inc()
        if event.swap_retried:
            self._m_swap_retries.inc()
        self.events.append(event)
        return event

    # ------------------------------------------------------------------ #
    def _decide_and_act(self, n_rows: int, serving_version: str) -> LifecycleEvent:
        reports = self.monitor.check()
        action = self.policy.decide(reports)
        shadow = None
        promoted = False
        promoted_version = None
        swap_retried = False
        swap_error = None
        if action is not Action.NONE:
            # Promotion lag starts at the decision: everything between "the
            # policy said act" and "the new champion is serving" counts.
            lag_watch = telemetry.stopwatch()
            X, y, _ = self.monitor.window()
            if np.unique(y).size < 2:
                # A single-class window cannot train a challenger; keep the
                # decision on record (the drift evidence is real) but skip
                # the retrain until minority rows land.
                return self._record_event(
                    LifecycleEvent(
                        n_rows=n_rows,
                        model_version=serving_version,
                        reports=list(reports),
                        action=action,
                    )
                )
            (X_fit, y_fit), (X_shadow, y_shadow) = self._split_window(X, y)
            challenger = self.train_fn(ArraySource(X_fit, y_fit))
            shadow = shadow_evaluate(
                self.server.model,
                challenger,
                X_shadow,
                y_shadow,
                metric=self.metric,
                threshold=self.monitor.threshold,
                min_lift=self.min_lift,
                positive_label=self.monitor.positive_label,
            )
            if shadow.promote:
                promoted_version = self.registry.register(
                    challenger,
                    metrics={
                        "shadow_metric": self.metric,
                        "shadow_champion": shadow.champion_score,
                        "shadow_challenger": shadow.challenger_score,
                    },
                    tags={
                        "action": action.name,
                        "replaced": serving_version,
                    },
                )
                self.registry.set_champion(promoted_version)
                if getattr(self.server, "swaps_by_path", False):
                    # Fleet backend (WorkerPool): broadcast the *registered
                    # artifact's path* so every worker re-loads one shared
                    # (mmap'd) copy — the registry write above is exactly
                    # the persisted artifact the fleet converges on. A
                    # transient failure (a worker crashing mid-broadcast,
                    # a convergence timeout) gets exactly one retry after
                    # the fleet reports healthy: the registry is already
                    # consistent (champion set), so the retry republishes
                    # the same artifact — idempotent by construction.
                    target = self.registry.path(promoted_version)
                    swap_watch = telemetry.stopwatch()
                    try:
                        self.server.swap_model(target, version=promoted_version)
                    except (TimeoutError, WorkerCrashedError) as exc:
                        swap_retried = True
                        swap_error = f"{type(exc).__name__}: {exc}"
                        wait_healthy = getattr(self.server, "wait_healthy", None)
                        if wait_healthy is not None:
                            wait_healthy()
                        self.server.swap_model(target, version=promoted_version)
                    swap_watch.observe(self._h_swap)
                else:
                    swap_watch = telemetry.stopwatch()
                    self.server.swap_model(challenger, version=promoted_version)
                    swap_watch.observe(self._h_swap)
                # The promoted model learned the drifted distribution —
                # rebase the monitor on its training window so the "new
                # normal" stops alarming, and reset the error baseline.
                self.monitor.rebase_reference(X_fit, y_fit)
                self.monitor.reset_after_swap()
                promoted = True
                lag_watch.observe(self._h_promotion_lag)
        event = LifecycleEvent(
            n_rows=n_rows,
            model_version=serving_version,
            reports=list(reports),
            action=action,
            shadow=shadow,
            promoted=promoted,
            promoted_version=promoted_version,
            swap_retried=swap_retried,
            swap_error=swap_error,
        )
        return self._record_event(event)

    def _split_window(self, X: np.ndarray, y: np.ndarray):
        """Oldest rows train the challenger, newest shadow-compare it.

        Returns ``((X_fit, y_fit), (X_shadow, y_shadow))``. Falls back to
        full-window/full-window when ``holdout_fraction`` is 0 or the
        training slice would lose a class (a challenger must see both).
        """
        n_holdout = int(round(len(y) * self.holdout_fraction))
        n_fit = len(y) - n_holdout
        if n_holdout < 1 or np.unique(y[:n_fit]).size < 2:
            return (X, y), (X, y)
        return (X[:n_fit], y[:n_fit]), (X[n_fit:], y[n_fit:])
