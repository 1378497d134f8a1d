"""Tests for every dataset generator/simulator."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.datasets import (
    DATASETS,
    PAYSIM_FEATURE_NAMES,
    PAYSIM_TYPE_NAMES,
    RL_FEATURE_NAMES,
    PaymentSimulator,
    checkerboard_grid,
    dataset_statistics,
    dice_bigram_similarity,
    generate_person_records,
    inject_missing_values,
    load_dataset,
    make_checkerboard,
    make_credit_fraud,
    make_disjoint_gaussians,
    make_kddcup,
    make_overlapping_gaussians,
    make_payment_simulation,
    make_record_linkage,
)
from repro.utils import imbalance_ratio


def _credit_digests(n, seed, **kwargs):
    """sha256 (32 hex digits) of ``X``, ``y`` and the passed RNG's end state.

    Every column of ``X`` but ``Amount`` is hashed at full float64 width.
    ``Amount`` is ``np.log1p`` of a log-normal draw, and numpy dispatches
    ``log1p`` to SIMD kernels that differ in the last bit between CPUs
    (AVX-512 against AVX2), so that column is hashed at float32 width.
    """
    rng = np.random.RandomState(seed)
    X, y = make_credit_fraud(n, random_state=rng, **kwargs)
    _, key, pos, has_gauss, gauss = rng.get_state()
    parts = (
        X[:, :-1].tobytes() + X[:, -1].astype(np.float32).tobytes(),
        y.tobytes(),
        key.tobytes() + repr((pos, has_gauss, gauss)).encode(),
    )
    return tuple(hashlib.sha256(b).hexdigest()[:32] for b in parts)


#: ``(n_samples, seed, kwargs, digests)`` recorded from the vstack-based
#: generator that preceded the one-buffer writer, with
#: ``PYTHONPATH=src python record.py``, where ``record.py`` holds
#: :func:`_credit_digests`, this list's first three fields as ``CASES`` and
#:
#:     for n, seed, kwargs in CASES:
#:         print(n, seed, kwargs, _credit_digests(n, seed, **kwargs))
#:
#: The generator draws the genuine components in 16,384-row chunks: 16,411
#: to 16,413 rows put 16,383 to 16,385 genuine rows on either side of one
#: chunk boundary, 32,826 rows cross two, and 32,770 rows at IR 1 and
#: overlap 1 cross one inside the 16,385 overlap rows.
_CREDIT_DIGESTS = [
    (10, 0, {},
     ('b3a7c7a1dcfb45ae613482170d253a55',
      'b8d9ddb81841a2bddd38993ed339ef3e',
      'fb31faba37de4ee93b77f3be4bc50df6')),
    (11, 0, {},
     ('629d47e760e49242e43759e6d04de19b',
      'e0e92d4bf0a4fdbd961077bb5537abe9',
      'a43f908e052c3ca90e6cbd46c14a6dc9')),
    (10, 0, {'overlap_fraction': 1.0},
     ('f72f0215d800e3b95e5861afc44f245f',
      '172ed120f701161d511073cb093bbf61',
      '901a48b294761197d8466a3f542f30c8')),
    (11, 0, {'overlap_fraction': 1.0},
     ('e73212964ba1a4af1391a6fb82e4a432',
      '73fb20e5884837206017b0b05c03d743',
      '879ee9f5a04561c055a5aec5b898b0c8')),
    (16_411, 1, {},
     ('d858d5d9ff633708458c7b7fd12138e8',
      '21c2d4161d2d7773830d1db7767d9f79',
      '6a0f004c7910fbe2c23a895552d1f590')),
    (16_412, 1, {},
     ('224976ce346ce95ef72a4f2eb5167701',
      '18359582cd07bb5e0737bc6483d5088c',
      '82aa1b2806f1d0ffaf159555c449a7ea')),
    (16_413, 1, {},
     ('5e3391ab1d52cf501c818472a0766d1a',
      '995990f1aaa9985618195ff0b811a88f',
      '93cc1b5706895c60772d2b9f542a674d')),
    (32_826, 2, {},
     ('e6afa86d38ad7dacd236829ba15f22ae',
      '3781989a849152695897793a7e4cdcbf',
      'efa57f7f7549ed1a3bd0dac76693be02')),
    (2_000, 3, {'imbalance_ratio': 1.0, 'overlap_fraction': 0.0, 'n_pca_components': 5},
     ('1aa4a3d751069e64bcfb69311f22c0e9',
      'a9966aa1e362f7f0e699ceb776397747',
      '1caee3f15c4bbd81fb2595df578a5e1b')),
    (32_770, 4, {'imbalance_ratio': 1.0, 'overlap_fraction': 1.0},
     ('c38b44749a3ffee4b87ad8763cdce226',
      '16d40ea1dabb9bafa7a511d3ebc2564b',
      '1eb7d1967e7649ae88241ebf5505e750')),
    (5_000, 5, {'imbalance_ratio': 20.0, 'fraud_shift': 1.5},
     ('bd954a7f2594e69db1d9fb4b68ef6eb4',
      'fef1a38c5f245082776d04056f5fa807',
      '10e689959a62e6324f7489759ce9cedc')),
]


class TestCheckerboard:
    def test_sizes_and_labels(self):
        X, y = make_checkerboard(n_minority=100, n_majority=1000, random_state=0)
        assert X.shape == (1100, 2)
        assert (y == 1).sum() == 100 and (y == 0).sum() == 1000

    def test_grid_component_counts(self):
        mino, maj = checkerboard_grid(4)
        assert len(mino) == 8 and len(maj) == 8

    def test_components_alternate(self):
        mino, maj = checkerboard_grid(4)
        mino_set = {tuple(c) for c in mino}
        # Adjacent cells never share a class.
        for cx, cy in mino_set:
            assert (cx + 1, cy) not in mino_set

    def test_cov_scale_controls_spread(self):
        X_tight, _ = make_checkerboard(100, 100, cov_scale=0.01, random_state=0)
        X_wide, _ = make_checkerboard(100, 100, cov_scale=0.5, random_state=0)
        assert X_wide.std() > X_tight.std()

    def test_deterministic(self):
        a, _ = make_checkerboard(50, 50, random_state=5)
        b, _ = make_checkerboard(50, 50, random_state=5)
        assert np.allclose(a, b)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            make_checkerboard(0, 10)
        with pytest.raises(ValueError):
            make_checkerboard(10, 10, cov_scale=0)


class TestOverlapGenerators:
    def test_disjoint_ir(self):
        _, y = make_disjoint_gaussians(n_minority=50, imbalance_ratio=10, random_state=0)
        assert imbalance_ratio(y) == pytest.approx(10, rel=0.05)

    def test_overlapping_ir(self):
        _, y = make_overlapping_gaussians(
            n_minority=50, imbalance_ratio=20, random_state=0
        )
        assert imbalance_ratio(y) == pytest.approx(20, rel=0.05)

    def test_disjoint_is_separable(self):
        from repro.tree import DecisionTreeClassifier

        X, y = make_disjoint_gaussians(100, imbalance_ratio=5, random_state=0)
        assert DecisionTreeClassifier(max_depth=4).fit(X, y).score(X, y) > 0.97

    def test_overlapped_is_harder(self):
        from repro.tree import DecisionTreeClassifier
        from repro.metrics import evaluate_classifier

        X_e, y_e = make_disjoint_gaussians(200, imbalance_ratio=10, random_state=0)
        X_h, y_h = make_overlapping_gaussians(200, imbalance_ratio=10, random_state=0)
        clf_e = DecisionTreeClassifier(max_depth=4).fit(X_e, y_e)
        clf_h = DecisionTreeClassifier(max_depth=4).fit(X_h, y_h)
        assert (
            evaluate_classifier(clf_h, X_h, y_h)["AUCPRC"]
            < evaluate_classifier(clf_e, X_e, y_e)["AUCPRC"]
        )

    def test_invalid_ir(self):
        with pytest.raises(ValueError):
            make_disjoint_gaussians(10, imbalance_ratio=0.5)


class TestCreditFraud:
    def test_shape(self):
        X, y = make_credit_fraud(n_samples=5000, random_state=0)
        assert X.shape == (5000, 30)  # 28 PCA + Time + Amount

    def test_imbalance_ratio(self):
        _, y = make_credit_fraud(
            n_samples=20000, imbalance_ratio=99.0, random_state=0
        )
        assert imbalance_ratio(y) == pytest.approx(99.0, rel=0.1)

    def test_amount_positive(self):
        X, _ = make_credit_fraud(n_samples=2000, random_state=0)
        assert (X[:, -1] > 0).all()

    def test_time_within_two_days(self):
        X, _ = make_credit_fraud(n_samples=2000, random_state=0)
        assert 0 <= X[:, -2].min() and X[:, -2].max() < 48.0

    def test_features_commensurate_for_knn(self):
        """No column should dwarf the others (paper: distance methods get
        their 'maximum potential' on this dataset)."""
        X, _ = make_credit_fraud(n_samples=3000, random_state=0)
        stds = X.std(axis=0)
        assert stds.max() / stds.min() < 100

    def test_frauds_partially_separable(self):
        """Clustered frauds should be learnable, overlap fraction not."""
        from repro.metrics import evaluate_classifier
        from repro.tree import DecisionTreeClassifier

        X, y = make_credit_fraud(
            n_samples=20000, imbalance_ratio=50, random_state=0
        )
        clf = DecisionTreeClassifier(max_depth=8, random_state=0).fit(X, y)
        aucprc = evaluate_classifier(clf, X, y)["AUCPRC"]
        assert 0.3 < aucprc  # far better than the 0.02 prevalence

    def test_overlap_fraction_bounds(self):
        with pytest.raises(ValueError):
            make_credit_fraud(n_samples=1000, overlap_fraction=1.5)

    @pytest.mark.parametrize("n, seed, kwargs, expected", _CREDIT_DIGESTS)
    def test_output_and_draws_pinned(self, n, seed, kwargs, expected):
        """The same ``X``, ``y`` and RNG end state as the recorded
        generator, on both sides of a draw-chunk boundary."""
        from repro.datasets import credit_fraud

        assert credit_fraud._CHUNK_ROWS == 16_384  # the sizes above assume it
        assert _credit_digests(n, seed, **kwargs) == expected

    @pytest.mark.parametrize(
        "kwargs", [{}, {"imbalance_ratio": 1.0, "overlap_fraction": 1.0}]
    )
    def test_peak_allocation_near_output(self, kwargs):
        """The generator writes one output buffer and then gathers it once
        through the row permutation: its traced peak stays near 2x the
        output, not the ~3.1x of stacking and permuting copies."""
        make_credit_fraud(n_samples=100, random_state=0, **kwargs)  # warm-up
        tracemalloc.start()
        try:
            X, _ = make_credit_fraud(n_samples=200_000, random_state=0, **kwargs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.3 * X.nbytes


class TestPaySim:
    def test_schema(self):
        X, y = make_payment_simulation(n_samples=3000, random_state=0)
        assert X.shape == (3000, len(PAYSIM_FEATURE_NAMES))

    def test_type_codes_valid(self):
        X, _ = make_payment_simulation(n_samples=2000, random_state=0)
        codes = np.unique(X[:, 1])
        assert set(codes.astype(int)) <= set(range(len(PAYSIM_TYPE_NAMES)))

    def test_fraud_rate_tracks_ir(self):
        _, y = make_payment_simulation(
            n_samples=30000, imbalance_ratio=100, random_state=0
        )
        ir = imbalance_ratio(y)
        assert 60 < ir < 170  # stochastic, but near the requested ratio

    def test_frauds_are_transfer_or_cashout(self):
        X, y = make_payment_simulation(n_samples=20000, random_state=0)
        fraud_types = set(X[y == 1, 1].astype(int))
        allowed = {PAYSIM_TYPE_NAMES.index("TRANSFER"), PAYSIM_TYPE_NAMES.index("CASH_OUT")}
        assert fraud_types <= allowed

    def test_balance_consistency_when_funded(self):
        """Funded genuine rows respect oldbalanceOrg - amount = newbalanceOrig.

        Rows with an empty origin account keep their requested amount (the
        famous PaySim errorBalance artefact), so only funded accounts are
        required to balance exactly.
        """
        X, y = make_payment_simulation(n_samples=5000, random_state=0)
        cash_in = PAYSIM_TYPE_NAMES.index("CASH_IN")
        genuine = (y == 0) & (X[:, 1] != cash_in) & (X[:, 3] > 0)
        error = X[genuine, 7]  # errorBalanceOrig column
        assert np.abs(error).max() < 1e-6

    def test_empty_account_rows_exhibit_error_balance(self):
        """A share of rows reproduces PaySim's insufficient-funds artefact."""
        X, y = make_payment_simulation(n_samples=20000, random_state=0)
        assert (np.abs(X[:, 7]) > 1e-6).any()

    def test_amounts_positive(self):
        X, _ = make_payment_simulation(n_samples=2000, random_state=0)
        assert (X[:, 2] > 0).all()

    def test_simulator_object_api(self):
        sim = PaymentSimulator(n_customers=100, random_state=0)
        X, y = sim.simulate(500)
        assert len(y) == 500

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            PaymentSimulator().simulate(0)


class TestRecordLinkage:
    def test_schema(self):
        X, y = make_record_linkage(n_samples=2000, random_state=0)
        assert X.shape == (2000, len(RL_FEATURE_NAMES))

    def test_similarities_in_unit_range(self):
        X, _ = make_record_linkage(n_samples=1000, random_state=0)
        assert (X >= 0).all() and (X <= 1).all()

    def test_matches_have_higher_name_similarity(self):
        X, y = make_record_linkage(n_samples=4000, random_state=0)
        assert X[y == 1, 0].mean() > X[y == 0, 0].mean() + 0.3

    def test_dice_similarity_properties(self):
        assert dice_bigram_similarity("maria", "maria") == 1.0
        assert dice_bigram_similarity("abc", "xyz") == 0.0
        assert 0 < dice_bigram_similarity("maria", "marla") < 1

    def test_dice_symmetry(self):
        assert dice_bigram_similarity("anna", "anne") == dice_bigram_similarity(
            "anne", "anna"
        )

    def test_person_records_fields(self):
        registry = generate_person_records(50, random_state=0)
        assert len(registry["first"]) == 50
        assert set(registry) == {
            "first", "last", "sex", "birth_day", "birth_month", "birth_year",
        }

    def test_task_is_learnable(self):
        from repro.metrics import evaluate_classifier
        from repro.tree import DecisionTreeClassifier

        X, y = make_record_linkage(n_samples=6000, imbalance_ratio=30, random_state=0)
        clf = DecisionTreeClassifier(max_depth=6, random_state=0).fit(X, y)
        assert evaluate_classifier(clf, X, y)["AUCPRC"] > 0.7


class TestKddcup:
    def test_both_tasks(self):
        for task in ("dos_vs_prb", "dos_vs_r2l"):
            X, y = make_kddcup(task, n_samples=5000, random_state=0)
            assert len(y) == 5000 and set(np.unique(y)) == {0, 1}

    def test_paper_ir_defaults(self):
        _, y = make_kddcup("dos_vs_prb", n_samples=20000, random_state=0)
        assert imbalance_ratio(y) == pytest.approx(94.48, rel=0.1)

    def test_unknown_task(self):
        with pytest.raises(ValueError):
            make_kddcup("dos_vs_normal")

    def test_dos_floods_have_high_count(self):
        X, y = make_kddcup("dos_vs_prb", n_samples=5000, random_state=0)
        count_col = 12
        assert X[y == 0, count_col].mean() > X[y == 1, count_col].mean()

    def test_prb_touches_many_services(self):
        X, y = make_kddcup("dos_vs_prb", n_samples=8000, random_state=0)
        service_col = 2
        assert len(np.unique(X[y == 1, service_col])) > len(
            np.unique(X[y == 0, service_col])
        )

    def test_r2l_sessions_longer(self):
        X, y = make_kddcup("dos_vs_r2l", n_samples=20000, random_state=0)
        assert X[y == 1, 0].mean() > X[y == 0, 0].mean()


class TestMissingInjection:
    def test_ratio_respected(self, rng):
        X = rng.randn(100, 10)
        X_miss = inject_missing_values(X, 0.25, random_state=0)
        assert (X_miss == 0).mean() == pytest.approx(0.25, abs=0.03)

    def test_zero_ratio_identity(self, rng):
        X = rng.randn(20, 3)
        assert np.allclose(inject_missing_values(X, 0.0), X)

    def test_nan_mode(self, rng):
        X = rng.randn(50, 4)
        X_miss = inject_missing_values(X, 0.5, fill_value=None, random_state=0)
        assert np.isnan(X_miss).mean() == pytest.approx(0.5, abs=0.05)

    def test_original_untouched(self, rng):
        X = rng.randn(10, 2)
        X_copy = X.copy()
        inject_missing_values(X, 0.9, random_state=0)
        assert np.allclose(X, X_copy)

    def test_invalid_ratio(self, rng):
        with pytest.raises(ValueError):
            inject_missing_values(rng.randn(5, 2), 1.5)


class TestRegistry:
    def test_all_datasets_load(self):
        for name in DATASETS:
            ds = load_dataset(name, scale=0.05, random_state=0)
            assert ds.n_samples >= 200
            assert set(np.unique(ds.y)) == {0, 1}

    def test_scale_changes_size(self):
        small = load_dataset("credit_fraud", scale=0.05, random_state=0)
        large = load_dataset("credit_fraud", scale=0.1, random_state=0)
        assert large.n_samples > small.n_samples

    def test_statistics_rows(self):
        ds = load_dataset("credit_fraud", scale=0.05, random_state=0)
        stats = dataset_statistics(ds)
        assert stats["Paper #Sample"] == 284807
        assert stats["Paper IR"] == 578.88

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            load_dataset("bogus")

    def test_ir_override(self):
        ds = load_dataset("credit_fraud", scale=0.1, imbalance_ratio=20, random_state=0)
        assert ds.imbalance_ratio == pytest.approx(20, rel=0.15)
