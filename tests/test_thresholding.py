"""Tests for threshold estimation, shrinkage rules and band selection."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_oracle
from conftest import LAYOUTS, examples, in_layout
from wpdenoise import thresholding
from wpdenoise.pipeline import _zero_counts
from wpdenoise.stats import (
    ProbabilityVector, row_histograms, shared_edges, to_probability, zero_bin_index,
)
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

    def test_one_level_per_row_and_input_untouched(self):
        x = np.random.default_rng(3).normal(size=(3, 101))
        before = x.copy()
        want = [np.median(np.abs(row)) / 0.6745 for row in x]
        np.testing.assert_array_equal(estimate_sigma(x), want)
        np.testing.assert_array_equal(x, before)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            estimate_sigma(np.zeros(0))

    @pytest.mark.parametrize("value", [3.0, np.float64(3.0), np.array(3.0)],
                             ids=["float", "numpy-scalar", "0-d-array"])
    def test_0d_rejected_naming_the_shape(self, value):
        with pytest.raises(ValueError, match=r"shape \(\)"):
            estimate_sigma(value)

    @pytest.mark.parametrize("x, largest", [
        ([1.7e308, 1.7e308], "1.7e+308"),  # the sum of the two middles overflows
        ([1.5e308], "1.5e+308"),  # the median / 0.6745 overflows
        ([[1.0, 2.0], [-1.5e308, 1.0e308]], "1.5e+308"),  # one row of a batch
    ])
    def test_level_beyond_float_range_rejected_naming_the_magnitudes(self, x, largest):
        # a numpy warning here would fail the suite (warnings are errors)
        with pytest.raises(ValueError, match=f"magnitudes up to {re.escape(largest)}:"):
            estimate_sigma(x)

    def test_largest_finite_level_still_computed(self):
        assert estimate_sigma([1.2e308]) == 1.2e308 / 0.6745
        assert estimate_sigma([np.inf, np.inf]) == np.inf


# Magnitudes the selection must order as np.median does: zeros of both
# signs, the smallest subnormal and normal, ties, the largest finite
# value (whose median / 0.6745 overflows), infinities and NaN.
_SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -1.0, 1.5,
            1.7976931348623157e308, np.inf, -np.inf, np.nan)


@st.composite
def sigma_inputs(draw):
    """A 1-D row or a batch of rows drawn from a small pool of values."""
    n = draw(st.sampled_from((1, 2)) | st.integers(1, 40))
    batch = draw(st.sampled_from(((), (1,), (3,), (2, 2))))
    pool = draw(st.lists(st.floats() | st.sampled_from(_SPECIAL), min_size=1, max_size=6))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=64))
    return np.array(pool)[np.resize(picks, batch + (n,))]


def _bits(a):
    """The bit pattern of each value, every NaN made the same NaN."""
    return np.where(np.isnan(a), np.nan, a).view(np.int64)


@settings(max_examples=examples(300), deadline=None)
@given(sigma_inputs())
def test_estimate_sigma_is_np_median_bit_for_bit(x):
    """Bit-equal to np.median / 0.6745, or a ValueError where that overflows."""
    before = x.copy()
    try:
        with np.errstate(over="raise"):
            want = np.median(np.abs(x), axis=-1) / 0.6745
    except FloatingPointError:  # finite magnitudes near the float max
        with pytest.raises(ValueError, match="magnitudes up to"):
            estimate_sigma(x)
    else:
        got = estimate_sigma(x)
        assert type(got) is type(want)
        assert np.shape(got) == np.shape(want) == x.shape[:-1]
        assert np.array_equal(_bits(got), _bits(want))
    assert x.tobytes() == before.tobytes()


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

    def test_any_integer_count_and_the_largest_finite_threshold(self):
        assert universal_threshold(1.0, np.int64(1024)) == universal_threshold(1.0, 1024)
        assert universal_threshold(0.5, 10**5000) == 0.5 * math.sqrt(2 * math.log(10**5000))
        assert math.isfinite(universal_threshold(1e308, 2))  # sqrt(2 ln 2) < 1.2


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

    @pytest.mark.parametrize("t", [0.0, -0.0, 0.3, 2.0, 1e300, "per-value", "per-row",
                                   "broader"])
    def test_is_the_formula_to_the_sign_bit(self, t):
        # sign(w) * max(|w| - t, 0): +0.0 at w = -0.0, where copysign
        # would give -0.0; signed zeros, infinities and drawn values
        rng = np.random.default_rng(11)
        w = np.concatenate([
            [0.0, -0.0, np.inf, -np.inf, 0.3, -0.3, 2.0, -2.0, 5e-324, -5e-324],
            rng.normal(size=500), 1e300 * rng.normal(size=100),
            1e-310 * rng.normal(size=100),
        ]).reshape(2, -1)
        if t == "per-value":
            t = np.abs(rng.normal(size=w.shape))
        elif t == "per-row":
            t = np.array([[0.0], [0.5]])
        elif t == "broader":  # broadcasts the coefficients, as the formula does
            t = np.array([0.0, 0.5, 3.0]).reshape(3, 1, 1)
        expected = np.sign(w) * np.maximum(np.abs(w) - t, 0.0)
        out = soft_threshold(w, t)
        assert np.array_equal(out, expected)
        assert np.array_equal(np.signbit(out), np.signbit(expected))


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

    def test_knees_near_the_float_max(self):
        # t2 * (|w| - t1) overflowed for t2 above 1.3e154: 1e199 gave inf
        out = semisoft_threshold([1e199, -1e308, 5e199], 0.0, 1e200)
        np.testing.assert_allclose(out, [1e199, -1e308, 5e199], rtol=1e-15)

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

    IN_PLACE = {"hard": thresholding._hard, "soft": thresholding._soft,
                "band_hard": thresholding._band_hard}

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("rule", list(RULES))
    def test_input_untouched_and_in_place_body_equal(self, rule, layout):
        # the public rules write over a new array; the pipeline's
        # in-place bodies give the same bits in the array they are handed
        fn, params = self.RULES[rule]
        rng = np.random.default_rng(32)
        x = rng.normal(size=(5, 4, 32))
        x[0, 0, :3] = 0.0, -0.0, 1.5  # signed zeros, a value at a threshold
        t = rng.uniform(0.0, 1.5, size=(5, 4, 1))
        t[0, 0] = 1.5
        coeffs, thresholds = in_layout(x, layout), [in_layout(p, layout) for p in params(t)]
        out = fn(coeffs, *thresholds)
        np.testing.assert_array_equal(coeffs, x)
        assert not np.shares_memory(out, coeffs)
        _assert_same_bits(out, fn(x, *params(t)))
        if rule in self.IN_PLACE:
            own = x.copy()
            in_place = self.IN_PLACE[rule](own, *params(t))
            assert in_place is own
            _assert_same_bits(in_place, out)

    @pytest.mark.parametrize("rule", ["hard", "soft", "band_hard"])
    def test_broadcast_thresholds_widen_the_output(self, rule):
        # one coefficient row against a column of thresholds: the output
        # has their broadcast shape and the input stays as it was
        fn, params = self.RULES[rule]
        x = np.linspace(-2.0, 2.0, 9)
        t = np.array([[0.0], [0.5], [1.5]])
        out = fn(x, *params(t))
        assert out.shape == (3, 9)
        np.testing.assert_array_equal(x, np.linspace(-2.0, 2.0, 9))
        for row, level in zip(out, t[:, 0]):
            np.testing.assert_array_equal(row, fn(x, *params(level)))

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


def _assert_same_bits(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a.view(np.int64), b.view(np.int64))


# Values each body must keep or zero bit for bit: zeros of both signs,
# NaNs of both signs, with a payload and signaling, infinities, the
# smallest subnormal and normal, and values a drawn threshold may equal.
_RULE_SPECIAL = tuple(np.array(
    [0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000123, 0x7FF0000000000001],
    dtype=np.uint64).view(np.float64)) + (
    0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -1.0, 0.5)


@st.composite
def rule_inputs(draw):
    """(coefficients in a layout, their values, a threshold, a band).

    The coefficients are 0-d or hold rows; the threshold is one level or
    one per row, and the band's bounds are drawn apart, so that many
    bands exclude 0."""
    shape = draw(st.sampled_from(((), (1,), (9,), (3, 8), (2, 3, 5))))
    pool = draw(st.lists(st.floats() | st.sampled_from(_RULE_SPECIAL), min_size=1, max_size=8))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=64))
    x = np.asarray(np.array(pool)[np.resize(picks, shape)])
    layout = draw(st.sampled_from(LAYOUTS)) if x.ndim else "C"
    finite = [abs(v) for v in pool if np.isfinite(v)]
    levels = st.sampled_from([0.0, 5e-324, 0.5, *finite]) | st.floats(0.0, 1e308)
    if x.ndim and draw(st.booleans()):  # one threshold per row
        t = np.resize(draw(st.lists(levels, min_size=1, max_size=8)), x.shape[:-1] + (1,))
    else:
        t = draw(levels)
    bounds = st.sampled_from([0.0, -0.0, *(v for v in pool if np.isfinite(v))]) | st.floats(
        -1e308, 1e308)
    t1, t2 = sorted((draw(bounds), draw(bounds)))
    return in_layout(x, layout), x, t, (t1, t2)


@pytest.mark.parametrize("rule", ["hard", "soft", "band_hard"])
@settings(max_examples=examples(300), deadline=None)
@given(drawn=rule_inputs())
def test_in_place_bodies_equal_the_masked_writes_bit_for_bit(rule, drawn):
    """The arithmetic bodies give the masked-write references' bits,
    NaN payloads and signed zeros included, in the array they are handed."""
    coeffs, x, t, band = drawn
    body, reference, args = {
        "hard": (thresholding._hard, scalar_oracle.hard_masked, (t,)),
        "soft": (thresholding._soft, scalar_oracle.soft_masked, (t,)),
        "band_hard": (thresholding._band_hard, scalar_oracle.band_hard_masked, band),
    }[rule]
    want = in_layout(x, "C")
    # a signaling NaN warns in soft's subtraction on both sides alike
    with np.errstate(invalid="ignore"):
        reference(want, *args)
        got = body(coeffs, *args)
    assert got is coeffs
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("n_coeff", [2, 4, 32, 4096])
def test_zero_counts_equal_count_nonzero(n_coeff):
    # several blocks of rows, holding zeros of both signs among values
    # that are not zero
    rng = np.random.default_rng(n_coeff)
    shape = (3 * (2**16 // n_coeff) + 1, 2, n_coeff)
    leaves = rng.choice([0.0, -0.0, 5e-324, -1.0, np.nan, np.inf], size=shape)
    counts = _zero_counts(leaves)
    assert counts.dtype == np.int64
    np.testing.assert_array_equal(counts, np.count_nonzero(leaves == 0.0, axis=-1))


_EVEN = ProbabilityVector([0.5, 0.5], [-1.0, 0.0, 1.0], 1e-12)


_NAN = float("nan")


@pytest.mark.parametrize("call, message", [
    (lambda: universal_threshold(-1e-3, 64), "sigma must be non-negative"),
    (lambda: universal_threshold(np.array([0.5, -0.5]), 64), "sigma must be non-negative"),
    (lambda: select_band(_EVEN, _EVEN, -1e-3), "tolerance must be non-negative"),
    # each of these raised TypeError or OverflowError, or passed
    (lambda: hard_threshold([1 + 1j], 0.5), "coeffs must be real numbers, got dtype complex128"),
    (lambda: estimate_sigma([1 + 1j]),
     "detail_coeffs must be real numbers, got dtype complex128"),
    (lambda: soft_threshold([10**400], 0.5), "coeffs must be real numbers within float range"),
    (lambda: hard_threshold([1.0], 10**400), "threshold must be real numbers within float range"),
    (lambda: select_band(_EVEN, _EVEN, None), "tolerance must be real numbers, got None"),
    (lambda: select_band(_EVEN, _EVEN, _NAN), "tolerance must be finite (not NaN or inf)"),
    (lambda: hard_threshold([1.0], _NAN), "threshold must be finite (not NaN or inf)"),
    (lambda: soft_threshold([np.inf], np.inf), "threshold must be finite (not NaN or inf)"),
    (lambda: semisoft_threshold([1.0], 0.5, np.inf), "t2 must be finite (not NaN or inf)"),
    (lambda: band_hard_threshold([1.0], _NAN, 1.0), "need t1 <= t2"),
    (lambda: band_hard_threshold([1.0], -1.0, "1"), "t2 must be real numbers, got dtype <U1"),
    (lambda: universal_threshold(1e308, 10**6),
     "sigma * sqrt(2 ln n) leaves the float range at n = 1000000"),
    (lambda: universal_threshold(1.0, None), "n must be an integer, got None"),
    (lambda: universal_threshold(1.0, 64.0), "n must be an integer, got 64.0"),
], ids=["negative-sigma", "one-negative-sigma-row", "negative-tolerance",
        "complex-coeffs", "complex-detail", "coeff-beyond-float", "threshold-beyond-float",
        "none-tolerance", "nan-tolerance", "nan-threshold", "inf-threshold", "inf-t2",
        "nan-band-bound", "string-band-bound", "threshold-beyond-float-range", "none-n",
        "float-n"])
def test_each_rejection_raises_its_error(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
        call()
    assert info.type is ValueError
