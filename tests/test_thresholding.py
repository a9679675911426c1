"""Tests for threshold estimation, shrinkage rules and band selection."""

import math

import numpy as np
import pytest

from wpdenoise.stats import row_histograms, shared_edges, to_probability, zero_bin_index
from wpdenoise.thresholding import (
    band_hard_threshold,
    estimate_sigma,
    hard_threshold,
    select_band,
    semisoft_threshold,
    soft_threshold,
    universal_threshold,
)


class TestEstimateSigma:
    def test_hand_computed_median(self):
        assert abs(estimate_sigma([1.0, -1.0, 1.0, -1.0]) - 1.0 / 0.6745) < 1e-12

    def test_all_zeros(self):
        assert estimate_sigma(np.zeros(100)) == 0.0

    def test_gaussian_monte_carlo(self):
        draws = np.random.default_rng(9).normal(size=10**5)
        assert abs(estimate_sigma(draws) - 1.0) < 0.02

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            estimate_sigma(np.zeros(0))


class TestUniversalThreshold:
    def test_known_value(self):
        assert abs(universal_threshold(1.0, 1024)
                   - math.sqrt(2 * math.log(1024))) < 1e-12
        assert abs(universal_threshold(1.0, 1024) - 3.7233) < 1e-3

    def test_zero_sigma(self):
        assert universal_threshold(0.0, 4096) == 0.0

    def test_single_sample(self):
        assert universal_threshold(2.0, 1) == 0.0

    def test_rejects_zero_count(self):
        with pytest.raises(ValueError):
            universal_threshold(1.0, 0)


class TestHardThreshold:
    def test_table(self):
        np.testing.assert_array_equal(
            hard_threshold([0.5, -2.0, 1.0], 1.0), [0.0, -2.0, 1.0]
        )

    def test_boundary_kept(self):
        # |w| exactly at the threshold stays (the >= branch)
        np.testing.assert_array_equal(hard_threshold([1.0, -1.0], 1.0),
                                      [1.0, -1.0])

    def test_zero_threshold_is_identity(self):
        x = np.array([0.0, -0.3, 2.0])
        np.testing.assert_array_equal(hard_threshold(x, 0.0), x)

    def test_all_below_threshold(self):
        assert np.all(hard_threshold([0.1, -0.4, 0.9], 1.0) == 0.0)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            hard_threshold([1.0], -0.1)

    def test_idempotent(self):
        x = np.random.default_rng(0).normal(size=256)
        once = hard_threshold(x, 0.7)
        np.testing.assert_array_equal(hard_threshold(once, 0.7), once)

    def test_keep_or_kill(self):
        x = np.random.default_rng(1).normal(size=256)
        out = hard_threshold(x, 0.7)
        assert np.all((out == 0.0) | (out == x))


class TestSoftThreshold:
    def test_values(self):
        assert soft_threshold([2.0], 1.0)[0] == 1.0
        assert soft_threshold([-0.5], 1.0)[0] == 0.0

    def test_zero_threshold_is_identity(self):
        x = np.array([0.5, -2.0])
        np.testing.assert_array_equal(soft_threshold(x, 0.0), x)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            soft_threshold([1.0], -1.0)

    def test_never_grows_magnitude(self):
        x = np.random.default_rng(2).normal(size=512)
        out = soft_threshold(x, 0.3)
        assert np.all(np.abs(out) <= np.abs(x) + 1e-15)

    def test_composition_adds_thresholds(self):
        # soft(soft(., t), t) == soft(., 2t): the rule keeps shrinking,
        # it is not a projection
        x = np.random.default_rng(3).normal(size=512)
        lhs = soft_threshold(soft_threshold(x, 0.4), 0.4)
        np.testing.assert_allclose(lhs, soft_threshold(x, 0.8), atol=1e-15)


class TestSemisoftThreshold:
    def test_below_between_above(self):
        assert semisoft_threshold([0.5], 1.0, 2.0)[0] == 0.0
        assert semisoft_threshold([3.0], 1.0, 2.0)[0] == 3.0
        assert abs(semisoft_threshold([1.5], 1.0, 2.0)[0] - 1.0) < 1e-15

    def test_odd_symmetry(self):
        x = np.linspace(0.0, 3.0, 301)
        pos = semisoft_threshold(x, 1.0, 2.0)
        neg = semisoft_threshold(-x, 1.0, 2.0)
        np.testing.assert_allclose(neg, -pos, atol=1e-15)

    def test_continuous_at_knees(self):
        for knee in (1.0, 2.0):
            grid = knee + np.linspace(-1e-6, 1e-6, 2001)
            out = semisoft_threshold(grid, 1.0, 2.0)
            assert np.max(np.abs(np.diff(out))) < 1e-5  # ~Lipschitz * step

    def test_rejects_bad_knees(self):
        with pytest.raises(ValueError):
            semisoft_threshold([1.0], 2.0, 2.0)
        with pytest.raises(ValueError):
            semisoft_threshold([1.0], -1.0, 2.0)


class TestBandHardThreshold:
    def test_table(self):
        np.testing.assert_array_equal(
            band_hard_threshold([-0.5, 0.2, 3.0], -1.0, 1.0), [0.0, 0.0, 3.0]
        )

    def test_degenerate_band_removes_exact_zeros_only(self):
        np.testing.assert_array_equal(
            band_hard_threshold([0.0, 1e-300, -1e-300], 0.0, 0.0),
            [0.0, 1e-300, -1e-300],
        )

    def test_inclusive_boundaries(self):
        np.testing.assert_array_equal(
            band_hard_threshold([-1.0, 1.0], -1.0, 1.0), [0.0, 0.0]
        )

    def test_agrees_with_hard_off_the_boundary(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=1000)
        t = 0.6
        off_boundary = np.abs(np.abs(x) - t) > 1e-12
        banded = band_hard_threshold(x, -t, t)
        harded = hard_threshold(x, t)
        np.testing.assert_array_equal(banded[off_boundary], harded[off_boundary])

    def test_idempotent(self):
        x = np.random.default_rng(5).normal(size=256)
        once = band_hard_threshold(x, -0.4, 0.9)
        np.testing.assert_array_equal(band_hard_threshold(once, -0.4, 0.9), once)

    def test_asymmetric_band_idempotent(self):
        # a band not containing zero still leaves its own output fixed
        x = np.array([0.0, 0.5, 1.5, 2.5])
        once = band_hard_threshold(x, 1.0, 2.0)
        np.testing.assert_array_equal(band_hard_threshold(once, 1.0, 2.0), once)

    def test_rejects_inverted_band(self):
        with pytest.raises(ValueError):
            band_hard_threshold([1.0], 1.0, -1.0)


class TestSelectBand:
    def _dists(self, a, b):
        edges = shared_edges(a, b)
        p = to_probability(row_histograms(a, edges=edges), 1e-12)
        q = to_probability(row_histograms(b, edges=edges), 1e-12)
        return p, q

    def test_identical_distributions_span_everything(self):
        rng = np.random.default_rng(7)
        draws = rng.normal(size=10**4)
        edges = shared_edges(draws, draws)
        p = to_probability(row_histograms(draws, edges=edges), 1e-12)
        t1, t2 = select_band(p, p, 1e-3)
        assert t1 == p.bin_edges[0] and t2 == p.bin_edges[-1]

    def test_zero_tolerance_keeps_only_zero_bin(self):
        edges = np.linspace(-2, 2, 5)
        p = to_probability(row_histograms(
            np.array([-1.8] * 10 + [-0.5] * 20 + [0.5] * 30 + [1.8] * 40),
            edges=edges), 1e-12)
        q = to_probability(row_histograms(
            np.array([-1.8] * 40 + [-0.5] * 30 + [0.5] * 20 + [1.8] * 10),
            edges=edges), 1e-12)
        t1, t2 = select_band(p, q, 0.0)
        zero_bin = zero_bin_index(p.bin_edges)
        assert (t1, t2) == (edges[zero_bin], edges[zero_bin + 1])

    def test_monotone_in_tolerance(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=2000)
        b = np.concatenate([rng.normal(size=1500), rng.uniform(-4, 4, 500)])
        p, q = self._dists(a, b)
        widths = []
        for tol in (1e-6, 1e-4, 1e-2, 1.0):
            t1, t2 = select_band(p, q, tol)
            widths.append(t2 - t1)
        assert widths == sorted(widths)

    def test_tail_contamination_scanned_bin_by_bin(self):
        # noise: standard Gaussian; noisy speech: Gaussian plus strong
        # symmetric tails. Brute-force scan of the per-bin contributions
        # is the oracle for where expansion has to stop.
        rng = np.random.default_rng(9)
        noise = rng.normal(size=10**5)
        tails = np.concatenate([rng.normal(4.0, 0.5, 25000),
                                rng.normal(-4.0, 0.5, 25000)])
        noisy = np.concatenate([rng.normal(size=50000), tails])
        edges = shared_edges(noisy, noise)
        p = to_probability(row_histograms(noisy, edges=edges), 1e-12)
        q = to_probability(row_histograms(noise, edges=edges), 1e-12)

        tol = 1e-3
        contributions = np.abs((p.probs - q.probs) * np.log(p.probs / q.probs))
        zero_bin = zero_bin_index(edges)
        left = zero_bin
        while left > 0 and contributions[left - 1] <= tol:
            left -= 1
        right = zero_bin
        while right + 1 < len(contributions) and contributions[right + 1] <= tol:
            right += 1

        t1, t2 = select_band(p, q, tol)
        assert (t1, t2) == (edges[left], edges[right + 1])
        # the contaminated tails must be excluded
        assert edges[0] < t1 < t2 < edges[-1]

    def test_support_must_cover_zero(self):
        edges = np.array([1.0, 2.0, 3.0])
        p = to_probability(row_histograms(np.array([1.5] * 10), edges=edges), 1e-12)
        with pytest.raises(ValueError):
            select_band(p, p, 1e-3)


class TestArrayThresholds:
    """One threshold per row, broadcast over the coefficients of that row."""

    RULES = {
        "hard": (hard_threshold, lambda t: (t,)),
        "soft": (soft_threshold, lambda t: (t,)),
        "semisoft": (semisoft_threshold, lambda t: (t, 2.0 * t + 0.1)),
        "band_hard": (band_hard_threshold, lambda t: (-t, 0.5 * t)),
    }

    @pytest.mark.parametrize("rule", list(RULES))
    def test_row_thresholds_equal_scalar_calls(self, rule):
        fn, params = self.RULES[rule]
        rng = np.random.default_rng(31)
        x = rng.normal(size=(3, 4, 32))
        t = rng.uniform(0.0, 1.5, size=(3, 4, 1))
        out = fn(x, *params(t))
        for idx in np.ndindex(3, 4):
            scalar = fn(x[idx], *params(float(t[idx][0])))
            np.testing.assert_array_equal(out[idx], scalar)

    @pytest.mark.parametrize("rule", list(RULES))
    def test_one_bad_row_rejects_the_call(self, rule):
        fn, _ = self.RULES[rule]
        x = np.zeros((2, 8))
        if rule in ("hard", "soft"):
            args = (np.array([[0.5], [-0.1]]),)
        elif rule == "semisoft":
            args = (np.array([[0.5], [1.0]]), np.array([[1.0], [1.0]]))
        else:
            args = (np.array([[0.5], [1.0]]), np.array([[1.0], [0.5]]))
        with pytest.raises(ValueError):
            fn(x, *args)
