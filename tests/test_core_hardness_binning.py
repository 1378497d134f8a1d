"""Tests for hardness functions and the self-paced binning machinery."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import (
    HARDNESS_FUNCTIONS,
    HardnessBins,
    absolute_error,
    allocate_bin_samples,
    cross_entropy,
    cut_hardness_bins,
    resolve_hardness,
    self_paced_bin_weights,
    squared_error,
)


class TestHardnessFunctions:
    def test_absolute_error_majority(self):
        """For majority (y=0) samples AE equals the predicted P(y=1)."""
        proba = np.array([0.1, 0.5, 0.9])
        assert np.allclose(absolute_error(np.zeros(3), proba), proba)

    def test_absolute_error_minority(self):
        proba = np.array([0.1, 0.9])
        assert np.allclose(absolute_error(np.ones(2), proba), [0.9, 0.1])

    def test_squared_is_square_of_absolute(self):
        y = np.array([0.0, 1.0, 0.0])
        proba = np.array([0.3, 0.6, 0.9])
        assert np.allclose(
            squared_error(y, proba), absolute_error(y, proba) ** 2
        )

    def test_cross_entropy_confident_wrong_is_large(self):
        assert cross_entropy(np.ones(1), np.array([0.001]))[0] > 6.0

    def test_cross_entropy_finite_at_extremes(self):
        out = cross_entropy(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert np.isfinite(out).all()

    def test_all_nonnegative(self):
        y = np.array([0.0, 1.0, 0.0, 1.0])
        proba = np.array([0.2, 0.8, 0.9, 0.1])
        for fn in (absolute_error, squared_error, cross_entropy):
            assert (fn(y, proba) >= 0).all()

    def test_registry_aliases(self):
        assert HARDNESS_FUNCTIONS["AE"] is absolute_error
        assert HARDNESS_FUNCTIONS["SE"] is squared_error
        assert HARDNESS_FUNCTIONS["CE"] is cross_entropy

    def test_resolve_by_name_and_callable(self):
        assert resolve_hardness("absolute") is absolute_error
        custom = lambda y, p: np.abs(p - y) * 2  # noqa: E731
        assert resolve_hardness(custom) is custom

    def test_resolve_unknown(self):
        with pytest.raises(ValueError, match="Unknown hardness"):
            resolve_hardness("bogus")

    @settings(max_examples=30)
    @given(
        arrays(
            np.float64,
            10,
            elements=st.floats(min_value=0.001, max_value=0.999),
        )
    )
    def test_decomposability_order(self, proba):
        """SE <= AE on [0,1] errors (x^2 <= x for x in [0,1])."""
        y = np.zeros(10)
        assert (squared_error(y, proba) <= absolute_error(y, proba) + 1e-12).all()


class TestCutHardnessBins:
    def test_populations_sum(self, rng):
        h = rng.uniform(size=500)
        bins = cut_hardness_bins(h, 20)
        assert bins.populations.sum() == 500

    def test_assignment_within_edges(self, rng):
        h = rng.uniform(size=200)
        bins = cut_hardness_bins(h, 10)
        for i, value in enumerate(h):
            b = bins.assignments[i]
            assert bins.edges[b] - 1e-9 <= value <= bins.edges[b + 1] + 1e-9

    def test_avg_times_population_is_contribution(self, rng):
        h = rng.uniform(size=300)
        bins = cut_hardness_bins(h, 15)
        assert np.allclose(
            bins.avg_hardness * bins.populations, bins.total_contribution
        )

    def test_degenerate_constant_hardness(self):
        bins = cut_hardness_bins(np.full(10, 0.5), 5)
        assert bins.degenerate
        assert bins.populations[0] == 10

    def test_max_value_in_last_bin(self):
        h = np.array([0.0, 0.5, 1.0])
        bins = cut_hardness_bins(h, 4)
        assert bins.assignments[2] == 3

    def test_single_bin(self, rng):
        bins = cut_hardness_bins(rng.uniform(size=50), 1)
        assert bins.populations[0] == 50

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            cut_hardness_bins(np.ones(3), 0)

    def test_empty_hardness_rejected(self):
        with pytest.raises(ValueError):
            cut_hardness_bins(np.array([]), 5)

    @pytest.mark.parametrize(
        "hardness",
        [[0.1, np.nan, 0.7], [np.nan, np.nan], [0.1, np.inf], [-np.inf, 0.2]],
        ids=["nan", "all_nan", "inf", "neg_inf"],
    )
    def test_non_finite_hardness_rejected(self, hardness):
        """NaN used to land every row in bin 0 under NaN edges, and inf
        failed inside ``bincount``; both now raise a named error."""
        with pytest.raises(ValueError, match="hardness must be finite"):
            cut_hardness_bins(np.array(hardness), 5)

    @settings(max_examples=30)
    @given(
        arrays(
            np.float64,
            st.integers(min_value=1, max_value=100),
            elements=st.floats(min_value=0, max_value=10, allow_nan=False),
        ),
        st.integers(min_value=1, max_value=30),
    )
    def test_population_conservation_property(self, h, k):
        bins = cut_hardness_bins(h, k)
        assert bins.populations.sum() == len(h)
        assert np.isclose(bins.total_contribution.sum(), h.sum())


class TestSelfPacedWeights:
    def test_alpha_zero_is_inverse_hardness(self):
        bins = cut_hardness_bins(np.array([0.1, 0.1, 0.9, 0.9]), 2)
        w = self_paced_bin_weights(bins, 0.0)
        assert np.allclose(w, 1.0 / bins.avg_hardness)

    def test_large_alpha_flattens(self):
        bins = cut_hardness_bins(np.array([0.1, 0.1, 0.9, 0.9]), 2)
        w = self_paced_bin_weights(bins, 1e12)
        assert w[0] == pytest.approx(w[1], rel=1e-6)

    def test_empty_bins_zero_weight(self):
        h = np.array([0.0, 0.01, 0.99, 1.0])  # middle bins empty with k=4
        bins = cut_hardness_bins(h, 4)
        w = self_paced_bin_weights(bins, 0.1)
        assert (w[bins.populations == 0] == 0).all()

    def test_negative_alpha_rejected(self):
        bins = cut_hardness_bins(np.array([0.1, 0.9]), 2)
        with pytest.raises(ValueError):
            self_paced_bin_weights(bins, -0.5)

    def test_zero_hardness_bins_fallback(self):
        """All-zero hardness with alpha=0: uniform weights, not inf."""
        bins = cut_hardness_bins(np.zeros(10), 3)
        w = self_paced_bin_weights(bins, 0.0)
        assert np.isfinite(w).all() and w.sum() > 0

    @settings(max_examples=200, deadline=None)
    @given(
        avg=st.lists(
            st.one_of(
                st.just(0.0),
                st.floats(5e-324, 2.2250738585072014e-308),  # subnormal
                st.floats(2.2250738585072014e-308, 1.0),
            ),
            min_size=1,
            max_size=12,
        ),
        pops=st.lists(st.integers(0, 50), min_size=12, max_size=12),
        alpha=st.sampled_from([0.0, 5e-324, 1e16]),
        n_total=st.integers(0, 300),
    )
    def test_tiny_hardness_is_warning_free(self, avg, pops, alpha, n_total):
        """Zero and subnormal average hardness overflow ``1 / (h + α)``:
        the weight saturates at the 1e18 sentinel without a RuntimeWarning,
        and the allocator spends the budget on the populated bins."""
        avg = np.asarray(avg)
        populations = np.asarray(pops[: len(avg)])
        avg[populations == 0] = 0.0  # what cut_hardness_bins reports
        bins = HardnessBins(
            assignments=np.repeat(np.arange(len(avg)), populations),
            populations=populations,
            avg_hardness=avg,
            total_contribution=avg * populations,
            edges=np.linspace(0.0, 1.0, len(avg) + 1),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = self_paced_bin_weights(bins, alpha)
            counts = allocate_bin_samples(w, populations, n_total)
        assert np.isfinite(w).all() and (w <= 1e18).all()
        assert (w[populations == 0] == 0).all()
        assert (w[populations > 0] > 0).all()
        assert counts.sum() == min(n_total, int(populations.sum()))


class TestAllocateBinSamples:
    def test_exact_total(self):
        counts = allocate_bin_samples(
            np.array([1.0, 1.0, 1.0]), np.array([100, 100, 100]), 30
        )
        assert counts.sum() == 30

    def test_caps_at_population(self):
        counts = allocate_bin_samples(
            np.array([1000.0, 1.0]), np.array([3, 100]), 50
        )
        assert counts[0] <= 3
        assert counts.sum() == 50

    def test_zero_weight_gets_nothing(self):
        counts = allocate_bin_samples(np.array([0.0, 1.0]), np.array([50, 50]), 20)
        assert counts[0] == 0 and counts[1] == 20

    def test_total_exceeds_population(self):
        counts = allocate_bin_samples(np.array([1.0, 1.0]), np.array([5, 5]), 100)
        assert counts.sum() == 10

    def test_proportionality(self):
        counts = allocate_bin_samples(
            np.array([3.0, 1.0]), np.array([1000, 1000]), 400
        )
        assert counts[0] == pytest.approx(300, abs=2)
        assert counts[1] == pytest.approx(100, abs=2)

    def test_negative_total_rejected(self):
        with pytest.raises(ValueError):
            allocate_bin_samples(np.ones(2), np.ones(2, dtype=int), -1)

    @settings(max_examples=40)
    @given(
        st.lists(st.floats(min_value=0, max_value=10), min_size=1, max_size=20),
        st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=20),
        st.integers(min_value=0, max_value=200),
    )
    def test_allocation_invariants(self, weights, populations, n_total):
        k = min(len(weights), len(populations))
        weights = np.asarray(weights[:k])
        populations = np.asarray(populations[:k])
        counts = allocate_bin_samples(weights, populations, n_total)
        assert (counts <= populations).all()
        assert (counts >= 0).all()
        # Bins with zero weight never receive samples, so the reachable
        # budget is capped by the population carrying positive weight.
        usable = int(populations[weights > 0].sum())
        assert counts.sum() == min(n_total, usable)
