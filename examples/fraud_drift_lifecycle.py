"""Fraud stream with drift: detect → retrain → shadow → hot-swap, live.

The missing half of the fraud scenario: ``credit_fraud_detection.py``
stops at a fitted model, but real fraud traffic *moves* — fraudsters
change modus operandi (covariate drift) and attack waves triple the fraud
rate overnight (prior drift). This script runs the full post-deployment
loop on the credit-fraud surrogate:

1. train an SPE through ``fit_source`` on "day 0" traffic, register it in an
   :class:`~repro.lifecycle.ArtifactRegistry`, and serve it through a
   :class:`~repro.serving.ModelServer`;
2. replay a drift-free control phase — the
   :class:`~repro.monitoring.DriftMonitor` stays quiet and no retrain is
   spent;
3. inject covariate drift (fraud clusters shift along the leading PCA
   components) plus prior drift (an attack wave raises the fraud rate) —
   the detectors escalate to ALARM, the
   :class:`~repro.lifecycle.LifecycleController` retrains a challenger
   from the monitor's live window via ``fit_source``, shadow-scores it
   against the champion on that same window, and promotes it through
   :meth:`~repro.serving.ModelServer.swap_model` — with the server
   taking traffic the whole time;
4. print the timeline: drift reports, shadow scores, the registry
   manifest, and the server's per-version request counters.

Run:  python examples/fraud_drift_lifecycle.py [n_samples]
"""

import sys

import numpy as np

from repro.core import SelfPacedEnsembleClassifier
from repro.datasets import make_credit_fraud
from repro.lifecycle import ArtifactRegistry, LifecycleController, RetrainPolicy
from repro.monitoring import ReferenceSketch, DriftMonitor
from repro.serving import ServerConfig, serve
from repro.streaming import ArraySource
from repro.tree import DecisionTreeClassifier


def make_stream(n_samples: int, *, drifted: bool, seed: int):
    """Credit-fraud traffic; drifted phases shift features + fraud rate."""
    X, y = make_credit_fraud(
        n_samples=n_samples,
        imbalance_ratio=40.0 if drifted else 120.0,  # attack wave: 3x prior
        fraud_shift=1.5 if drifted else 3.5,  # new MOs sit closer to genuine
        random_state=seed,
    )
    if drifted:
        # fraudsters move along the leading components; genuine traffic
        # drifts too (new merchant mix shifts the PCA marginals).
        X = X.copy()
        X[:, :6] += 2.0
    order = np.random.RandomState(seed).permutation(len(y))
    return X[order], y[order]


def main(n_samples: int = 30_000, n_estimators: int = 10, registry_dir=None) -> dict:
    import tempfile

    if registry_dir is None:
        registry_dir = tempfile.mkdtemp(prefix="fraud-registry-")

    # -- day 0: train, register, serve ---------------------------------
    X0, y0 = make_stream(n_samples, drifted=False, seed=7)
    champion = SelfPacedEnsembleClassifier(
        DecisionTreeClassifier(max_depth=8, random_state=0),
        n_estimators=n_estimators,
        random_state=0,
    ).fit_source(ArraySource(X0, y0))

    registry = ArtifactRegistry(registry_dir)
    v1 = registry.register(champion, tags={"phase": "bootstrap"})
    registry.set_champion(v1)
    server = serve(registry.load(v1), ServerConfig(model_version=v1))
    print(f"champion {v1} serving (packed={server.packed_})")

    sketch = ReferenceSketch(n_bins=16).fit(X0, y0)
    monitor = DriftMonitor(
        sketch, window_size=max(2000, n_samples // 10), min_window=500
    )
    controller = LifecycleController(
        server,
        registry,
        monitor,
        train_fn=lambda source: SelfPacedEnsembleClassifier(
            DecisionTreeClassifier(max_depth=8, random_state=0),
            n_estimators=n_estimators,
            random_state=1,
        ).fit_source(source),
        policy=RetrainPolicy(warn_quorum=2, cooldown=2),
    )

    def replay(X, y, label: str, batch: int = 500) -> None:
        print(f"\n== {label}: {len(y)} rows, fraud rate {y.mean():.4f} ==")
        for lo in range(0, len(y), batch):
            event = controller.process(X[lo : lo + batch], y[lo : lo + batch])
            if event.action.name != "NONE" or event.promoted:
                worst = event.reports[0] if event.reports else None
                print(f"  row {lo + event.n_rows}: action={event.action.name}"
                      + (f"  worst={worst}" if worst else ""))
            if event.shadow is not None:
                s = event.shadow
                print(
                    f"    shadow[{s.metric}]: champion={s.champion_score:.3f} "
                    f"challenger={s.challenger_score:.3f} -> "
                    f"{'PROMOTE' if s.promote else 'keep champion'}"
                )
            if event.promoted:
                print(f"    hot-swapped to {event.promoted_version} "
                      f"(zero requests dropped); traffic continues")

    # -- phase 1: stable traffic — must stay quiet ----------------------
    Xc, yc = make_stream(n_samples // 2, drifted=False, seed=11)
    replay(Xc, yc, "control phase (no drift)")
    promoted_in_control = any(e.promoted for e in controller.events)
    print(f"retrains during control: "
          f"{sum(e.action.name != 'NONE' for e in controller.events)}")

    # -- phase 2: attack wave — detect, retrain, promote ----------------
    Xd, yd = make_stream(n_samples // 2, drifted=True, seed=13)
    replay(Xd, yd, "drift phase (new MOs + attack wave)")

    stats = server.stats()
    print("\n== outcome ==")
    print(f"registry versions: {registry.versions()} champion={registry.champion}")
    print(f"server: {stats['n_requests']} requests / {stats['n_batches']} batches, "
          f"{stats['n_overflows']} overflows, {stats['n_swaps']} swap(s)")
    print(f"requests by version: {stats['requests_by_version']}")
    metrics = monitor.metrics()
    print(f"live window: auprc={metrics['auprc']:.3f} "
          f"recall={metrics['minority_recall']:.3f} "
          f"prevalence={metrics['prevalence']:.4f}")
    server.close()
    return {
        "promoted_in_control": promoted_in_control,
        "promoted_in_drift": any(e.promoted for e in controller.events),
        "champion": registry.champion,
        "versions": registry.versions(),
        "stats": stats,
    }


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 30_000)
