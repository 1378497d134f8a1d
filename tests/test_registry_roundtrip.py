"""The registry round-trip matrix (satellite of the registry issue):
every persistable registered classifier must fit → save_model →
load_model → predict_proba identically, and serve identically through a
warm ModelServer load and a hot swap_model.

Bit-identity is asserted for every class except the kernel SVC, which
round-trips within 1 ULP: its RBF Gram matrix goes through BLAS GEMM,
whose results depend on the buffer placement of bit-identical inputs
(see DESIGN.md → "Model persistence").
"""

import numpy as np
import pytest

from repro.base import ClassifierMixin
from repro.persistence import load_model, save_model
from repro.registry import (
    classifier_spec,
    get_classifier,
    list_classifiers,
    make_classifier,
    toy_imbalanced_split,
)
from repro.serving import ModelServer

PERSISTABLE = [n for n in list_classifiers() if classifier_spec(n).persistable]
#: Classifiers whose serving hook names the pair predict_proba packs.
SERVED = [
    n for n in list_classifiers()
    if getattr(classifier_spec(n).cls, "__serving_ensemble__", None) is not None
]

#: BLAS-backed decision functions reproduce within 1 ULP, not bit-exactly.
ULP_TOLERANT = {"svm"}


def assert_matches(name, expected, actual):
    if name in ULP_TOLERANT:
        np.testing.assert_allclose(actual, expected, rtol=0, atol=1e-12)
    else:
        assert np.array_equal(actual, expected)


@pytest.fixture(scope="module")
def toy():
    return toy_imbalanced_split()


def fitted(name, toy, **params):
    X, y = toy
    clf = make_classifier(name, **{**classifier_spec(name).smoke_params, **params})
    if hasattr(clf, "random_state"):
        clf.random_state = 0
    return clf.fit(X, y)


class TestRoundTripMatrix:
    @pytest.mark.parametrize("name", PERSISTABLE)
    def test_save_load_predict_proba_identical(self, name, toy, tmp_path):
        X, _ = toy
        clf = fitted(name, toy)
        expected = clf.predict_proba(X)
        path = tmp_path / f"{name}.npz"
        save_model(clf, path)
        assert_matches(name, expected, load_model(path).predict_proba(X))

    @pytest.mark.parametrize("name", PERSISTABLE)
    def test_warm_server_load_identical(self, name, toy, tmp_path):
        """ModelServer(path) — artifact straight into the serving path,
        tree-backed models through the warm kernel, everything else
        through plain predict_proba — must score identically."""
        X, _ = toy
        clf = fitted(name, toy)
        expected = clf.predict_proba(X)
        path = tmp_path / f"{name}.npz"
        save_model(clf, path)
        server = ModelServer(path)
        try:
            assert_matches(name, expected, server.predict_proba(X))
        finally:
            server.close()

    @pytest.mark.parametrize("name", PERSISTABLE)
    def test_hot_swap_identical(self, name, toy, tmp_path):
        """swap_model accepts any registered model (tree-backed or not)
        and the swapped-in champion scores exactly like the original."""
        X, _ = toy
        clf = fitted(name, toy)
        expected = clf.predict_proba(X)
        baseline = fitted("tree", toy)
        server = ModelServer(baseline, model_version="v1")
        try:
            server.swap_model(clf, version="v2")
            assert server.model_version == "v2"
            assert_matches(name, expected, server.predict_proba(X))
        finally:
            server.close()


class TestSharedSurface:
    @pytest.mark.parametrize("name", SERVED)
    def test_predict_proba_packs_the_serving_pair(self, name, toy, monkeypatch):
        """The (estimators, classes) pair predict_proba hands the packed
        kernel is the pair __serving_ensemble__ warms: the same members by
        identity, in order, and the same class vector. SPE fits without
        its cold-start member in the vote, so its voters differ from its
        members."""
        from repro.parallel import inference

        X, _ = toy
        params = {}
        if "include_cold_start" in classifier_spec(name).cls._get_param_names():
            params["include_cold_start"] = False
        clf = fitted(name, toy, **params)
        seen = []
        original = inference.cached_packed_ensemble

        def spy(estimators, classes):
            seen.append((list(estimators), np.asarray(classes)))
            return original(estimators, classes)

        monkeypatch.setattr(inference, "cached_packed_ensemble", spy)
        clf.predict_proba(X)
        estimators, classes = clf.__serving_ensemble__()
        assert len(seen) == 1
        packed, packed_classes = seen[0]
        assert len(packed) == len(estimators)
        assert all(a is b for a, b in zip(packed, estimators))
        assert np.array_equal(packed_classes, classes)
        if params:
            assert len(estimators) == len(clf.estimators_) - 1

    def test_only_vote_and_sign_classifiers_override_predict(self):
        """Every registered classifier predicts through
        ClassifierMixin.predict (the argmax of predict_proba) except the
        three whose labels come from raw votes or a decision sign, which
        can disagree with the argmax of normalised probabilities."""
        overriding = {
            classifier_spec(n).cls.__name__
            for n in list_classifiers()
            if classifier_spec(n).cls.predict is not ClassifierMixin.predict
        }
        assert overriding == {"AdaBoostClassifier", "SVC", "LinearSVC"}


class TestFacadeAcceptance:
    """The issue's acceptance path: get_classifier("spe", base=...) for
    non-tree bases fits, persists, reloads, and serves through
    ModelServer.swap_model with bit-identical predict_proba."""

    @pytest.mark.parametrize(
        "base", ["logistic", "mlp", "knn", "gbdt", "linear_svm"]
    )
    def test_spe_with_any_base_full_loop(self, base, toy, tmp_path):
        X, _ = toy
        clf = get_classifier(
            "spe", base=base, n_estimators=3, k_bins=5, random_state=0
        ).fit(*toy)
        expected = clf.predict_proba(X)

        path = tmp_path / f"spe_{base}.npz"
        save_model(clf, path)
        loaded = load_model(path)
        assert loaded.get_params()["estimator"] == base
        assert np.array_equal(expected, loaded.predict_proba(X))

        server = ModelServer(path)
        try:
            assert np.array_equal(expected, server.predict_proba(X))
            challenger = get_classifier(
                "under_bagging", base=base, n_estimators=3, random_state=1
            ).fit(*toy)
            version = server.swap_model(challenger, version="challenger")
            assert version == "challenger"
            assert np.array_equal(
                challenger.predict_proba(X), server.predict_proba(X)
            )
        finally:
            server.close()

    def test_tree_backed_fastpath_still_bit_identical(self, toy, tmp_path):
        """Tree-backed configs keep the packed kernel exactly: a reloaded
        artifact served warm equals the live model bit for bit."""
        X, _ = toy
        clf = get_classifier("spe", preset="fast", random_state=0).fit(*toy)
        expected = clf.predict_proba(X)
        path = tmp_path / "spe_tree.npz"
        save_model(clf, path)
        server = ModelServer(path)
        try:
            assert np.array_equal(expected, server.predict_proba(X))
        finally:
            server.close()


class TestLifecycleAnyModel:
    def test_lifecycle_promotes_non_tree_challenger(self, tmp_path, toy):
        """The closed loop with a registered *name* as the retraining
        recipe: drift triggers a logistic challenger that is trained,
        shadow-scored, persisted, and hot-swapped into the server."""
        from repro.lifecycle import (
            ArtifactRegistry,
            LifecycleController,
            RetrainPolicy,
        )
        from repro.monitoring import DriftMonitor, ReferenceSketch

        from repro.datasets import make_checkerboard

        X, y = make_checkerboard(
            n_minority=150, n_majority=1500, random_state=0
        )
        rng = np.random.RandomState(3)

        champion = fitted("tree", (X, y))
        registry = ArtifactRegistry(tmp_path / "artifacts")
        server = ModelServer(champion, model_version="v1")
        monitor = DriftMonitor(
            ReferenceSketch().fit(X, y), window_size=800, min_window=200
        )
        controller = LifecycleController(
            server,
            registry,
            monitor,
            "logistic",  # registered name as the retraining recipe
            policy=RetrainPolicy(cooldown=0),
            min_lift=-np.inf,  # promote regardless of shadow margin
        )
        try:
            for _ in range(4):  # clean warm-up traffic
                idx = rng.choice(len(y), 200)
                controller.process(X[idx], y[idx])
            promoted = None
            for _ in range(20):  # covariate shift + tripled minority prior
                idx = rng.choice(len(y), 200)
                Xb, yb = X[idx] + 3.0, y[idx].copy()
                yb[rng.uniform(size=len(yb)) < 0.2] = 1
                event = controller.process(Xb, yb)
                if event.promoted:
                    promoted = event
                    break
            assert promoted is not None, "drift never promoted a challenger"
            assert server.model_version == promoted.promoted_version
            loaded = registry.load(promoted.promoted_version)
            assert type(loaded).__name__ == "LogisticRegression"
        finally:
            server.close()
