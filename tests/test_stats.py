"""Tests for histograms, probability estimates, entropy and divergences."""

import math

import numpy as np
import pytest

from wpdenoise.stats import (
    Histogram,
    ProbabilityVector,
    bin_count,
    entropy,
    kl_divergence,
    ratio_profile,
    row_histograms,
    shared_edges,
    symmetric_divergence,
    to_probability,
)


def _pv(probs, edges=(-1.0, 0.0, 1.0), eps=1e-12):
    return ProbabilityVector(np.asarray(probs, float), np.asarray(edges, float), eps)


class TestBinRule:
    @pytest.mark.parametrize("n,expected", [(4, 1), (100, 5), (1024, 16),
                                            (10**5, 158)])
    def test_known_values(self, n, expected):
        assert bin_count(n) == expected

    def test_matches_float_formula_on_grid(self):
        for n in (1, 2, 3, 5, 10, 99, 101, 4095, 4096, 65536, 10**6):
            assert bin_count(n) == max(1, math.floor(math.sqrt(n) / 2))

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            bin_count(0)


class TestBuildHistogram:
    def test_counts_partition_the_sample(self):
        rng = np.random.default_rng(0)
        for n in (1, 4, 100, 1000):
            h = row_histograms(rng.normal(size=n))
            assert h.total == n
            assert h.n_bins == bin_count(n)

    def test_degenerate_span_is_widened(self):
        h = row_histograms(np.zeros(100))
        assert h.total == 100
        assert h.bin_edges[0] < 0 < h.bin_edges[-1]

    def test_supplied_edges_clamp_outliers(self):
        edges = np.array([-1.0, 0.0, 1.0])
        h = row_histograms(np.array([-5.0, -0.5, 0.5, 7.0]), edges=edges)
        np.testing.assert_array_equal(h.counts, [2, 2])

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            row_histograms(np.zeros(0))

    def test_bad_edges_rejected(self):
        with pytest.raises(ValueError):
            row_histograms(np.ones(4), edges=np.array([0.0, 0.0, 1.0]))


class TestNonFiniteValues:
    EDGES = np.array([0.0, 0.5, 1.0])

    def test_nan_rejected_with_edges(self):
        with pytest.raises(ValueError, match="NaN"):
            row_histograms([0.1, math.nan, 0.5], edges=self.EDGES)
        with pytest.raises(ValueError, match="NaN"):
            row_histograms(np.array([[0.1, 0.2], [0.3, math.nan]]), edges=self.EDGES)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected_without_edges(self, bad):
        with pytest.raises(ValueError, match="NaN|infinite"):
            row_histograms([0.1, bad, 0.5])
        with pytest.raises(ValueError, match="NaN|infinite"):
            row_histograms(np.array([[0.1, 0.2], [bad, 0.3]]))
        with pytest.raises(ValueError, match="infinite"):
            shared_edges([0.1, bad], [0.2, 0.3])

    def test_infinities_clamped_with_edges(self):
        h = row_histograms([-math.inf, 0.2, 0.7, math.inf], edges=self.EDGES)
        np.testing.assert_array_equal(h.counts, [2, 2])
        # edges whose span overflows to inf: the guess scale is 0
        wide = row_histograms([-math.inf, -1.0, 0.0, 1e308, math.inf],
                               edges=np.array([-1e308, 0.0, 1e308]))
        np.testing.assert_array_equal(wide.counts, [2, 3])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_edges_rejected(self, bad):
        edges = np.array([0.0, 0.5, bad])
        with pytest.raises(ValueError, match="finite"):
            row_histograms([0.1, 0.5], edges=edges)
        with pytest.raises(ValueError, match="finite"):
            Histogram(np.array([0.0, bad, 1.0]), np.array([3, 1]))


class TestDegenerateSpan:
    @pytest.mark.parametrize("value", [1e6, -3e7])
    def test_constant_sample_at_large_magnitude(self, value):
        # +-1e-9 is below the float spacing there; the edges still rise
        values = np.full(10000, value)
        h = row_histograms(values)
        assert h.total == 10000 and h.n_bins == bin_count(10000)
        assert np.all(np.diff(h.bin_edges) > 0)
        assert h.bin_edges[0] < value < h.bin_edges[-1]
        rows = row_histograms(np.stack([values, values]))
        np.testing.assert_array_equal(rows.bin_edges, [h.bin_edges] * 2)
        np.testing.assert_array_equal(rows.counts, [h.counts] * 2)
        np.testing.assert_array_equal(shared_edges(values, values), h.bin_edges)

    def test_span_of_one_ulp_is_widened(self):
        values = np.tile([1.0, math.nextafter(1.0, 2.0)], 5000)
        h = row_histograms(values)
        assert h.total == 10000 and np.all(np.diff(h.bin_edges) > 0)
        assert h.bin_edges[0] < 1.0 and h.bin_edges[-1] > values[1]

    @pytest.mark.parametrize("value", [0.0, 0.5, -7.25, 1000.0])
    def test_widened_by_1e9_where_that_suffices(self, value):
        values = np.full(10000, value)
        want = np.linspace(value - 1e-9, value + 1e-9, bin_count(10000) + 1)
        np.testing.assert_array_equal(row_histograms(values).bin_edges, want)
        np.testing.assert_array_equal(shared_edges(values, values), want)


class TestToProbability:
    def test_even_counts(self):
        pv = to_probability(Histogram(np.array([0.0, 1.0, 2.0]),
                                      np.array([5, 5])), 1e-12)
        np.testing.assert_array_equal(pv.probs, [0.5, 0.5])

    def test_empty_bin_floored_and_sum_exact(self):
        pv = to_probability(Histogram(np.array([0.0, 1.0, 2.0]),
                                      np.array([10, 0])), 1e-12)
        assert pv.probs[1] == 1e-12
        assert pv.probs[0] == 1.0 - 1e-12
        assert float(np.sum(pv.probs)) == 1.0

    def test_feeds_divergence_without_blowup(self):
        rng = np.random.default_rng(1)
        edges = np.linspace(-4, 4, 12)
        p = to_probability(row_histograms(rng.normal(size=50), edges=edges), 1e-12)
        q = to_probability(row_histograms(rng.uniform(-4, 4, 50), edges=edges), 1e-12)
        assert math.isfinite(kl_divergence(p, q))

    def test_epsilon_range_enforced(self):
        h = Histogram(np.array([0.0, 1.0, 2.0]), np.array([1, 1]))
        with pytest.raises(ValueError):
            to_probability(h, 0.0)
        with pytest.raises(ValueError):
            to_probability(h, 0.6)  # >= 1/B for B = 2

    def test_epsilon_error_names_the_bin_count(self):
        h = Histogram(np.array([0.0, 1.0, 2.0]), np.array([1, 1]))
        with pytest.raises(ValueError, match=r"epsilon=0\.6 must be in \(0, 1/2\)"):
            to_probability(h, 0.6)


class TestKlDivergence:
    def test_identical_is_zero(self):
        p = _pv([0.5, 0.5])
        assert kl_divergence(p, p) == 0.0

    def test_hand_computed_value(self):
        # 0.75 ln 3 + 0.25 ln(1/3) = 0.5 ln 3
        v = kl_divergence(_pv([0.75, 0.25]), _pv([0.25, 0.75]))
        assert abs(v - 0.5 * math.log(3)) < 1e-12

    def test_near_delta_against_even(self):
        pv = to_probability(Histogram(np.array([0.0, 1.0, 2.0]),
                                      np.array([10, 0])), 1e-12)
        even = _pv([0.5, 0.5], edges=(0.0, 1.0, 2.0))
        assert abs(kl_divergence(pv, even) - math.log(2)) < 1e-9

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(2)
        edges = np.linspace(-1, 1, 9)
        for _ in range(200):
            a = rng.dirichlet(np.ones(8))
            b = rng.dirichlet(np.ones(8))
            p = to_probability(Histogram(edges, np.rint(a * 1e6).astype(int)), 1e-12)
            q = to_probability(Histogram(edges, np.rint(b * 1e6).astype(int)), 1e-12)
            assert kl_divergence(p, q) >= -1e-12

    def test_mismatched_support_rejected(self):
        with pytest.raises(ValueError):
            kl_divergence(_pv([0.5, 0.5]), _pv([0.5, 0.5], edges=(-2.0, 0.0, 2.0)))


class TestSymmetricDivergence:
    def test_identical_is_zero(self):
        p = _pv([0.3, 0.7])
        assert symmetric_divergence(p, p) == 0.0

    def test_hand_computed_value(self):
        v = symmetric_divergence(_pv([0.75, 0.25]), _pv([0.25, 0.75]))
        assert abs(v - math.log(3)) < 1e-12

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(3)
        edges = np.linspace(-1, 1, 7)
        for _ in range(50):
            p = to_probability(
                Histogram(edges, rng.integers(0, 100, 6) + 1), 1e-12)
            q = to_probability(
                Histogram(edges, rng.integers(0, 100, 6) + 1), 1e-12)
            assert symmetric_divergence(p, q) == symmetric_divergence(q, p)

    def test_per_bin_identity(self):
        # sum_i z_i (p_i - q_i) with z_i = ln(p_i/q_i) equals the
        # symmetric divergence
        rng = np.random.default_rng(4)
        edges = np.linspace(-2, 2, 11)
        for _ in range(100):
            p = to_probability(
                Histogram(edges, rng.integers(0, 1000, 10) + 1), 1e-12)
            q = to_probability(
                Histogram(edges, rng.integers(0, 1000, 10) + 1), 1e-12)
            z = np.log(p.probs / q.probs)
            lhs = float(np.sum(z * (p.probs - q.probs)))
            assert abs(lhs - symmetric_divergence(p, q)) < 1e-12


class TestEntropy:
    def test_near_delta_is_near_zero(self):
        pv = to_probability(Histogram(np.array([0.0, 1.0, 2.0]),
                                      np.array([1000, 0])), 1e-12)
        assert 0 <= entropy(pv) < 1e-9

    def test_uniform_is_log_b(self):
        pv = _pv([0.25] * 4, edges=np.linspace(-1, 1, 5))
        assert abs(entropy(pv) - math.log(4)) < 1e-12

    def test_even_pair(self):
        assert abs(entropy(_pv([0.5, 0.5])) - math.log(2)) < 1e-12

    def test_bounds(self):
        rng = np.random.default_rng(5)
        edges = np.linspace(-1, 1, 9)
        for _ in range(100):
            pv = to_probability(
                Histogram(edges, rng.integers(0, 50, 8) + 1), 1e-12)
            assert -1e-12 <= entropy(pv) <= math.log(8) + 1e-12


class TestRatioProfile:
    def test_equal_distributions_all_ones(self):
        p = _pv([0.2, 0.5, 0.3], edges=(-1.5, -0.5, 0.5, 1.5))
        for _, ratio in ratio_profile(p, p):
            assert ratio == 1.0

    def test_ordering_by_absolute_center(self):
        p = _pv([0.2, 0.5, 0.3], edges=(-1.5, -0.5, 0.5, 1.5))
        q = _pv([0.3, 0.4, 0.3], edges=(-1.5, -0.5, 0.5, 1.5))
        profile = ratio_profile(p, q)
        centers = [abs(c) for c, _ in profile]
        assert centers == sorted(centers)
        assert profile[0][0] == 0.0  # the zero-centred bin comes first

    def test_support_must_cover_zero(self):
        p = _pv([0.5, 0.5], edges=(1.0, 2.0, 3.0))
        with pytest.raises(ValueError):
            ratio_profile(p, p)

    def test_two_noise_draws_agree_near_zero(self):
        # independent draws of the same distribution: the zero bin ratio
        # should be 1 within 10% at 1e5 samples
        rng = np.random.default_rng(6)
        a = rng.normal(size=10**5)
        b = rng.normal(size=10**5)
        edges = shared_edges(a, b)
        p = to_probability(row_histograms(a, edges=edges), 1e-12)
        q = to_probability(row_histograms(b, edges=edges), 1e-12)
        _, ratio = ratio_profile(p, q)[0]
        assert abs(ratio - 1.0) < 0.1
        assert symmetric_divergence(p, q) <= 0.05


class TestSharedEdges:
    def test_spans_pooled_range(self):
        a = np.array([-3.0, 0.0, 1.0])
        b = np.array([-1.0, 5.0, 2.0])
        edges = shared_edges(a, b)
        assert edges[0] == -3.0 and edges[-1] == 5.0
        assert len(edges) == bin_count(3) + 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            shared_edges(np.zeros(0), np.ones(3))


class TestBinCenters:
    def test_per_row_edges_give_one_center_per_bin_and_row(self):
        edges = np.array([[0.0, 1.0, 2.0, 4.0], [-3.0, -1.0, 0.0, 1.0]])
        p = to_probability(Histogram(edges, [[1, 2, 3], [3, 2, 1]]), 1e-12)
        np.testing.assert_array_equal(
            p.bin_centers, [[0.5, 1.5, 3.0], [-2.0, -0.5, 0.5]]
        )


class TestProbabilityVectorValidation:
    def test_rejects_sum_off_by_more_than_tolerance(self):
        with pytest.raises(ValueError):
            _pv([0.5, 0.6])

    def test_rejects_below_epsilon(self):
        with pytest.raises(ValueError):
            ProbabilityVector(np.array([1.0 - 1e-16, 1e-16]),
                              np.array([-1.0, 0.0, 1.0]), 1e-12)
