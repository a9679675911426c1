"""Tests for histograms, probability estimates, entropy and divergences."""

import math
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import examples

import scalar_oracle as oracle
from test_batched import _np_counts
from wpdenoise import stats
from wpdenoise.stats import (
    Histogram,
    ProbabilityVector,
    _uniform_edges,
    bin_count,
    entropy,
    kl_divergence,
    ratio_profile,
    row_histograms,
    shared_edges,
    symmetric_divergence,
    to_probability,
    zero_bin_index,
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

    def test_takes_integers_only(self):
        # a float was truncated (2.5 counted as 2) and None raised TypeError
        assert bin_count(np.int64(100)) == 5
        for bad in (2.5, None, "9"):
            with pytest.raises(ValueError, match=r"^n_samples must be an integer, got "):
                bin_count(bad)


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


class TestBlockedBinning:
    def test_temporaries_stay_bounded(self):
        # binning all 2^20 values at once peaked at 2.4x the input; blocks
        # of stats._BLOCK_VALUES values keep every temporary small
        x = np.random.default_rng(0).standard_normal(1 << 20)
        cases = {
            "many rows on shared edges": (x.reshape(1024, 1024), np.linspace(-4, 4, 33)),
            "one long row": (x, None),
            "each row's own edges": (x.reshape(2048, 512), None),
        }
        for name, (values, edges) in cases.items():
            tracemalloc.start()
            try:
                row_histograms(values, edges=edges)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 0.25 * x.nbytes, name


def _on_and_around(edges):
    """Every edge, one ulp to either side of it, the bin middles and +-inf."""
    infinities = np.broadcast_to([-np.inf, np.inf], edges.shape[:-1] + (2,))
    return np.concatenate([
        edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
        0.5 * edges[..., :-1] + 0.5 * edges[..., 1:], infinities,
    ], axis=-1)


class TestBinIndex:
    """The proven guess and its stepping fallback against binary search."""

    @pytest.mark.parametrize("edges", [
        np.linspace(-3.0, 3.0, 246),  # the noise edges' shape
        np.linspace(1e12, 1e12 + 7 * np.spacing(1e12) * 5, 6),  # a few ulps a bin
        np.geomspace(1e-3, 1e3, 20),  # non-uniform: every value steps
        np.array([-1e308, 0.0, 1e308]),  # the span overflows: the scale is 0
        _uniform_edges(-2.4e-322, 2.4e-322, 63),  # a subnormal span
        _uniform_edges(5e-324, 5e-324, 4),  # widened: bins of 4 ulps
        np.array([2.0, 3.0]),  # B = 1
        np.array([-1.0, 0.0, 1.0]),
    ])
    def test_values_on_and_next_to_every_edge(self, edges):
        u = np.random.default_rng(0).uniform(size=200)
        x = np.concatenate([_on_and_around(edges), edges[0] * (1 - u) + edges[-1] * u])
        np.testing.assert_array_equal(stats._bin_index(x, edges), oracle.bin_index(x, edges))
        np.testing.assert_array_equal(
            row_histograms(x, edges=edges).counts, _np_counts(x, edges)
        )

    def test_per_row_edges_broadcast_over_the_leading_axes(self):
        # (S, B + 1) edges over (F, S, n) values: a geometric row and a row
        # whose span overflows among them
        edges = np.stack([np.linspace(-3.0, 3.0, 9), np.linspace(1e6, 1e6 + 8e-9, 9),
                          np.geomspace(1.0, 1e4, 9), 1e308 * np.linspace(-1.0, 1.0, 9)])
        values = np.stack([_on_and_around(row) for row in edges])
        values = np.stack([values, values[:, ::-1], -values])
        np.testing.assert_array_equal(
            stats._bin_index(values, edges), oracle.bin_index(values, edges)
        )

    def test_column_slices_of_a_longer_row(self):
        # row_histograms passes a block of columns: a strided view
        edges = np.linspace(-1.0, 1.0, 12)
        x = np.tile(_on_and_around(edges), (3, 2))[:, 5:40]
        assert not x.flags.c_contiguous
        np.testing.assert_array_equal(stats._bin_index(x, edges), oracle.bin_index(x, edges))


@st.composite
def _edges_and_values(draw):
    """Library-built uniform edges per row, and values on, next to and
    between their edge lines, far outside them and infinite."""
    n_bins = draw(st.integers(min_value=1, max_value=300))
    n_rows = draw(st.integers(min_value=1, max_value=3))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    offset = draw(st.sampled_from([0.0, -2.5, 1e6, -3e7, 1e12, 1e-300, 5e-324]))
    span = draw(st.sampled_from([1e-320, 1e-12, 1e-3, 1.0, 50.0, 1e290]))
    lo = offset + span * rng.uniform(-1.0, 0.0, n_rows)
    hi = lo + span * rng.uniform(0.0, 2.0, n_rows)
    edges = _uniform_edges(lo, hi, n_bins)
    step = (edges[:, -1:] - edges[:, :1]) / n_bins
    lines = edges[:, :1] + step * (np.arange(n_bins + 1) + rng.uniform(-1e-9, 1e-9, 1))
    pool = np.concatenate([_on_and_around(edges), lines, np.nextafter(lines, np.inf),
                           edges[:, :1] - span, edges[:, -1:] + span,
                           rng.uniform(edges[:, :1], edges[:, -1:], (n_rows, 20))],
                          axis=-1)
    n_values = draw(st.integers(min_value=1, max_value=60))
    values = np.stack([rng.choice(row, n_values) for row in pool])
    return edges, values


@settings(max_examples=examples(80), deadline=None)
@given(_edges_and_values())
def test_bin_index_equals_np_histogram(case):
    # under the suite's warnings-as-errors: no overflow or invalid cast
    edges, values = case
    np.testing.assert_array_equal(
        stats._bin_index(values, edges), oracle.bin_index(values, edges)
    )
    counts = row_histograms(values, edges=edges).counts
    for row, row_edges, row_counts in zip(values, edges, counts):
        np.testing.assert_array_equal(row_counts, _np_counts(row, row_edges))


class TestNonFiniteValues:
    EDGES = np.array([0.0, 0.5, 1.0])

    def test_nan_rejected_with_edges(self):
        with pytest.raises(ValueError, match="NaN"):
            row_histograms([0.1, math.nan, 0.5], edges=self.EDGES)
        with pytest.raises(ValueError, match="NaN"):
            row_histograms(np.array([[0.1, 0.2], [0.3, math.nan]]), edges=self.EDGES)

    def test_nan_in_the_last_block_rejected_before_any_counting(self, monkeypatch):
        binned = []
        monkeypatch.setattr(stats, "_bin_index", lambda x, edges: binned.append(x))
        long_row = np.zeros(3 * stats._BLOCK_VALUES + 5)
        short_rows = np.zeros((2 * stats._BLOCK_VALUES // 100 + 3, 100))
        for values in (long_row, short_rows):
            values.reshape(-1)[-1] = math.nan
            for edges in (None, self.EDGES):
                with pytest.raises(ValueError, match="NaN"):
                    row_histograms(values, edges=edges)
        assert binned == []

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected_without_edges(self, bad):
        with pytest.raises(ValueError, match="NaN|infinite"):
            row_histograms([0.1, bad, 0.5])
        with pytest.raises(ValueError, match="NaN|infinite"):
            row_histograms(np.array([[0.1, 0.2], [bad, 0.3]]))
        with pytest.raises(ValueError, match="infinite"):
            shared_edges([0.1, bad], [0.2, 0.3])
        # NaN is found from the row minima the edges are chosen from: in
        # one row of many, and before any infinity
        rows = np.zeros((40, 8))
        rows[17, 3] = bad
        message = "cannot histogram NaN" if math.isnan(bad) else "cannot choose bin edges"
        with pytest.raises(ValueError, match=message):
            row_histograms(rows)
        for beside_inf in ([[0.1, bad, math.nan], [0.2, 0.3, 0.4]],
                           [[0.1, math.inf, 0.2], [bad, 0.3, math.nan]]):
            with pytest.raises(ValueError, match="^cannot histogram NaN values$"):
                row_histograms(beside_inf)

    def test_infinities_clamped_with_edges(self):
        h = row_histograms([-math.inf, 0.2, 0.7, math.inf], edges=self.EDGES)
        np.testing.assert_array_equal(h.counts, [2, 2])
        # edges whose span overflows to inf: the guess scale is 0
        wide = row_histograms([-math.inf, -1.0, 0.0, 1e308, math.inf],
                               edges=np.array([-1e308, 0.0, 1e308]))
        np.testing.assert_array_equal(wide.counts, [2, 3])

    def test_range_wider_than_the_float_range_rejected(self):
        # hi - lo overflows to inf: a ValueError naming the range, before
        # any numpy overflow warning (an error in this suite)
        wide = [-1e308, 0.0, 1e308]
        batch = np.stack([np.linspace(-1.0, 1.0, 3), wide, np.arange(3.0)])
        for call in (lambda: row_histograms(np.array(wide)),
                     lambda: row_histograms(batch),
                     lambda: shared_edges([-1e308], [1e308])):
            with pytest.raises(ValueError, match=r"over \[-1e\+308, 1e\+308\]"):
                call()

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


# Magnitudes from the smallest subnormal up: a few subnormals, the
# subnormal/normal boundary, and normal values up to 1e300.
_MAGNITUDES = [0.0, 5e-324, 1e-323, 2.4e-322, 1e-321, 1e-318, 1e-310,
               2.2250738585072014e-308, 1e-300, 1e-9, 1.0, 1e6, 1e300]
# Every (lo, hi) pair of them, with both signs.
_PAIRS = sorted({tuple(sorted((sa * a, sb * b)))
                 for a in _MAGNITUDES for b in _MAGNITUDES
                 for sa, sb in ((-1, 1), (1, 1), (-1, -1))})


class TestUniformEdges:
    @pytest.mark.parametrize("n_bins", [1, 2, 7, 63, 64, 255, 400])
    def test_strictly_increasing_and_covering(self, n_bins):
        lo, hi = np.array(_PAIRS).T
        rows = _uniform_edges(lo, hi, n_bins)
        for row, (a, b) in zip(rows, _PAIRS):
            for edges in (row, _uniform_edges(a, b, n_bins)):
                assert np.all(np.diff(edges) > 0), (a, b)
                assert edges[0] <= a and edges[-1] >= b, (a, b)

    @pytest.mark.parametrize("n_bins", [1, 2, 7, 63, 64, 255, 400])
    def test_each_row_as_if_alone(self, n_bins):
        # a row whose step is 0 used to switch every row of the batch to
        # another np.linspace path
        lo, hi = np.array(_PAIRS).T
        rows = _uniform_edges(lo, hi, n_bins)
        for row, (a, b) in zip(rows, _PAIRS):
            np.testing.assert_array_equal(row, _uniform_edges(a, b, n_bins))

    def test_histogram_edges_of_a_row_do_not_depend_on_the_others(self):
        ramp = np.linspace(-2.4e-322, 2.4e-322, 16384)
        alone = row_histograms(ramp).bin_edges
        stacked = row_histograms(np.stack([ramp, np.resize([0.0, 5e-324], 16384)]))
        np.testing.assert_array_equal(stacked.bin_edges[0], alone)

    def test_normal_ranges_are_np_linspace(self):
        rng = np.random.default_rng(8)
        for n_bins in (1, 2, 7, 63, 400):
            ends = np.sort(rng.normal(0.0, 10.0 ** rng.uniform(-300, 300, (50, 1)),
                                      (50, 2)), axis=1)
            rows = _uniform_edges(ends[:, 0], ends[:, 1], n_bins)
            for row, (a, b) in zip(rows, ends):
                np.testing.assert_array_equal(row, np.linspace(a, b, n_bins + 1))

    def test_span_of_a_few_subnormals(self):
        # np.linspace rounds this step to 10 subnormals and overshoots its
        # pinned last edge; the bins are whole multiples of 5e-324 instead
        edges = _uniform_edges(-2.4e-322, 2.4e-322, 63)
        assert np.all(np.diff(edges) > 0)
        steps = np.diff(edges) / np.spacing(0.0)
        np.testing.assert_array_equal(steps, np.round(steps))


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

    def test_subnormal_epsilon_rejected(self):
        # a divergence divides by probabilities of epsilon: 1/5e-324
        # overflowed in kl_divergence ("overflow encountered in divide")
        h = Histogram(np.array([0.0, 1.0, 2.0]), np.array([2, 0]))
        with pytest.raises(ValueError, match=r"epsilon=5e-324 .* at least 2\.2e-308"):
            to_probability(h, 5e-324)
        p = to_probability(h, sys.float_info.min)
        q = to_probability(Histogram(h.bin_edges, np.array([0, 2])), sys.float_info.min)
        assert math.isfinite(symmetric_divergence(p, q))

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


class TestOneRulePerInput:
    """Every record checks its edges with one rule, its epsilon with
    check_epsilon, its counts as integers and its values as real numbers;
    each bad input raises ValueError naming it, with no numpy warning (an
    error in this suite)."""

    def test_edges_spanning_more_than_the_float_range(self):
        # np.diff of the edges overflowed ("overflow encountered in subtract")
        h = row_histograms([0.0], edges=[-1.7e308, 1.7e308])
        np.testing.assert_array_equal(h.counts, [1])
        assert zero_bin_index([-1.7e308, 1.7e308]) == 0

    @pytest.mark.parametrize("call", [
        lambda: row_histograms([0.0, 1.0], edges=np.array(1.0)),  # IndexError before
        lambda: Histogram(np.array(1.0), [1]),
        lambda: zero_bin_index(np.array(0.0)),
    ])
    def test_0d_edges_rejected(self, call):
        with pytest.raises(ValueError, match=r"^edges of shape \(\) are not rows"):
            call()

    def test_record_edge_rows_broadcast_over_the_leading_axes(self):
        # the rule row_histograms applies to its value rows: one shared
        # row, or one row per leading index (size-1 axes broadcast)
        counts = [[1, 2], [3, 4]]
        for edges in ([0.0, 1.0, 2.0], [[0.0, 1.0, 2.0]], [[0.0, 1.0, 2.0], [-2.0, 0.0, 1.0]]):
            p = to_probability(Histogram(edges, counts), 1e-12)
            assert p.bin_centers.shape[-1] == 2 and p.probs.shape == (2, 2)
        with pytest.raises(ValueError, match=r"^edges of shape \(1, 2, 3\) are not rows"):
            Histogram(np.zeros((1, 2, 3)) + [0.0, 1.0, 2.0], counts)

    def test_probability_vector_with_decreasing_edges_rejected(self):
        with pytest.raises(ValueError, match="^edges must be finite and strictly increasing$"):
            _pv([0.5, 0.5], edges=(1.0, 0.0, -1.0))

    def test_probability_vector_epsilon_is_check_epsilon(self):
        # accepted before: the floor was only checked to be above 0
        with pytest.raises(ValueError, match=r"^epsilon=1e-320 must be in \(0, 1/2\)"):
            _pv([0.5, 0.5], eps=1e-320)
        with pytest.raises(ValueError, match=r"^epsilon=0\.6 must be in \(0, 1/2\)"):
            _pv([0.5, 0.5], eps=0.6)
        for eps in (10**400, 1, True, None, "1e-12", np.array([1e-12])):
            with pytest.raises(ValueError, match=r"^epsilon=.* must be in \(0, 1/2\) = "
                                                 r"\(0, 0\.5\), a float of at least 2\.2e-308"):
                _pv([0.5, 0.5], eps=eps)

    @pytest.mark.parametrize("probs", [[math.nan, 1.0], [1e308, 1e308], [1.5, -0.5]])
    def test_probabilities_outside_epsilon_to_one_rejected(self, probs):
        # NaN passed both checks; 1e308 + 1e308 overflowed in the sum
        with pytest.raises(ValueError, match=r"^all probabilities must be in \[epsilon, 1\]$"):
            _pv(probs)

    @pytest.mark.parametrize("counts", [[0.5, 1], [1.0, 1.0], [10**30, 1], [1 + 1j, 1], ["1", "1"]])
    def test_counts_that_are_not_integers_rejected(self, counts):
        # 0.5 became 0, 10**30 raised OverflowError
        with pytest.raises(ValueError, match=r"^counts must be integers, got dtype "):
            Histogram([0, 1, 2], counts)

    def test_totals_do_not_wrap(self):
        # the int64 total of 2**62 + 2**62 wrapped to -2**63: "divide by zero"
        h = Histogram([0, 1, 2], [2**62, 2**62])
        assert h.total == 2.0**63
        np.testing.assert_array_equal(to_probability(h, 1e-12).probs, [0.5, 0.5])

    @pytest.mark.parametrize("values, message", [
        ([10**400, 1], "^values must be real numbers within float range$"),  # OverflowError
        ([1 + 1j], r"^values must be real numbers, got dtype complex128$"),  # TypeError
        (["a", "b"], r"^values must be real numbers, got dtype <U1$"),
        ([None], r"^values must be real numbers, got None$"),  # NaN before
        ([10**20, None], r"^values must be real numbers, got None$"),
    ])
    def test_values_that_are_not_real_numbers_rejected(self, values, message):
        with pytest.raises(ValueError, match=message):
            row_histograms(values)
        with pytest.raises(ValueError, match=message.replace("values", "values_a", 1)):
            shared_edges(values, [0.0, 1.0])

    def test_edges_that_are_not_real_numbers_rejected(self):
        with pytest.raises(ValueError, match="^edges must be real numbers"):
            row_histograms([0.0], edges=[-(10**400), 0, 10**400])


@pytest.mark.parametrize("call, message", [
    (lambda: to_probability(Histogram([0.0, 1.0, 2.0], [0, 0]), 1e-12),
     "histogram has zero total count"),
    (lambda: to_probability(Histogram([0.0, 1.0, 2.0], [[1, 2], [0, 0]]), 1e-12),
     "histogram has zero total count"),
    (lambda: row_histograms(np.zeros((1, 4)), edges=np.tile([0.0, 1.0, 2.0], (3, 1))),
     "edge rows (3,) do not broadcast over value rows (1,)"),
    (lambda: row_histograms(np.zeros(4), edges=[[0.0, 1.0], [1.0, 2.0]]),
     "edge rows (2,) do not broadcast over value rows ()"),
    (lambda: Histogram([0.0, 1.0, 2.0], [3, -1]),
     "counts must be non-negative and below 2**63"),
    (lambda: Histogram([0.0, 1.0, 2.0], np.array([2**63, 1], dtype=np.uint64)),
     "counts must be non-negative and below 2**63"),
    (lambda: Histogram([0.0, 1.0, 2.0, 3.0], [3, 1]),
     "edges of shape (4,) are not rows of B + 1 >= 2 values for bins of shape (2,)"),
    (lambda: Histogram([0.0, 1.0], [[3, 1]]),
     "edges of shape (2,) are not rows of B + 1 >= 2 values for bins of shape (1, 2)"),
    (lambda: ProbabilityVector([0.5, 0.5], [0.0, 1.0], 1e-12),
     "edges of shape (2,) are not rows of B + 1 >= 2 values for bins of shape (2,)"),
    (lambda: ProbabilityVector([1.0], [[0.0, 1.0, 2.0]], 1e-12),
     "edges of shape (1, 3) are not rows of B + 1 >= 2 values for bins of shape (1,)"),
    # three edge rows for two count rows were accepted, and gave
    # bin_centers of shape (3, 2)
    (lambda: to_probability(Histogram(np.tile([0., 1., 2.], (3, 1)), [[1, 1], [1, 1]]), 1e-12),
     "edges of shape (3, 3) are not rows of B + 1 >= 2 values for bins of shape (2, 2)"),
    (lambda: ProbabilityVector(np.full((2, 2), 0.5), np.tile([0., 1., 2.], (3, 1)), 1e-12),
     "edges of shape (3, 3) are not rows of B + 1 >= 2 values for bins of shape (2, 2)"),
    (lambda: Histogram(np.tile([0., 1., 2.], (2, 1)), [1, 1]),
     "edges of shape (2, 3) are not rows of B + 1 >= 2 values for bins of shape (2,)"),
], ids=["zero-total", "zero-total-row", "edge-rows-over-one-row", "edge-rows-over-1d",
        "negative-count", "uint64-count-beyond-int64", "histogram-edges-one-too-many",
        "histogram-edges-one-too-few", "probability-edges-one-too-few",
        "probability-edges-one-too-many", "histogram-edge-rows-over-count-rows",
        "probability-edge-rows-over-probability-rows", "histogram-edge-rows-over-1d"])
def test_each_rejection_raises_its_error(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
        call()
    assert info.type is ValueError
