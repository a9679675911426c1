"""Tests for the wavelet-packet transform: filters, splits, packet arrays.

TestAnalysisStep and TestSynthesisStep keep the names of the one-level
split functions they once covered, and TestWpDecompose,
TestWpReconstruct and TestCoefficientTree those of the per-frame tree
API; they check the same properties through wp_analysis and
wp_synthesis on the batched (frames, subbands, coeffs) array.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import scalar_oracle as oracle
from conftest import LAYOUTS, in_layout
from wpdenoise import wavelet
from wpdenoise.wavelet import FILTERS, FilterBank, filter_bank, wp_analysis, wp_synthesis

SQRT2 = np.sqrt(2.0)


class TestFilterBank:
    @pytest.mark.parametrize("name", ["haar", "db4"])
    def test_orthonormal(self, name):
        fb = filter_bank(name)
        assert abs(np.sum(fb.lowpass**2) - 1.0) < 1e-14
        assert abs(np.sum(fb.highpass**2) - 1.0) < 1e-14
        assert abs(np.sum(fb.lowpass) - SQRT2) < 1e-14

    @pytest.mark.parametrize("name", ["haar", "db4"])
    def test_mirror_relation(self, name):
        fb = filter_bank(name)
        L = len(fb)
        for k in range(L):
            assert fb.highpass[k] == (-1.0) ** k * fb.lowpass[L - 1 - k]

    @pytest.mark.parametrize("name", ["haar", "db4"])
    def test_double_shift_orthogonality(self, name):
        # sum_k h[k] h[k+2l] = delta_l, the condition behind exact
        # reconstruction of the decimated filter bank
        h = filter_bank(name).lowpass
        for lag in range(2, len(h), 2):
            assert abs(np.dot(h[:-lag], h[lag:])) < 1e-14

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            filter_bank("sym8")

    def test_built_from_its_lowpass(self):
        fb = FilterBank("haar-again", filter_bank("haar").lowpass)
        np.testing.assert_array_equal(fb.highpass, filter_bank("haar").highpass)
        assert FILTERS == ("haar", "db4")
        with pytest.raises(ValueError, match="not orthonormal"):
            FilterBank("x", [1.0, 1.0])
        with pytest.raises(ValueError, match="even length"):
            FilterBank("x", [1.0])
        # NaN taps passed the energy check, and the bank was not equal to itself
        with pytest.raises(ValueError, match="not orthonormal"):
            FilterBank("x", [np.nan, np.nan])

    def test_is_frozen_with_read_only_taps(self):
        # a mutable bank let `fb.lowpass = db4` leave len(fb) and the
        # derived taps out of step, and the transform then failed in numpy
        fb = filter_bank("haar")
        with pytest.raises(dataclasses.FrozenInstanceError):
            fb.lowpass = filter_bank("db4").lowpass
        with pytest.raises(dataclasses.FrozenInstanceError):
            fb.highpass = fb.lowpass
        for taps in (fb.lowpass, fb.highpass):
            with pytest.raises(ValueError, match="read-only"):
                taps[0] = 0.0
        # the bank holds a copy, so the caller's array stays writable and apart
        lowpass = np.array(filter_bank("haar").lowpass)
        own = FilterBank("haar-copy", lowpass)
        lowpass[0] = 0.0
        assert own.lowpass[0] == fb.lowpass[0]

    def test_equal_and_hashed_by_name_and_lowpass(self):
        # the generated __eq__ compared the tap arrays inside a tuple and
        # raised numpy's "truth value is ambiguous"; hash() raised too
        db4 = filter_bank("db4")
        assert db4 == filter_bank("db4") and hash(db4) == hash(filter_bank("db4"))
        assert db4 == FilterBank("db4", list(db4.lowpass))
        assert db4 != FilterBank("db4-again", db4.lowpass)
        assert db4 != filter_bank("haar") and db4 != "db4"
        assert len({db4, filter_bank("db4"), filter_bank("haar")}) == 2


def _split(x, fb):
    """(approx, detail) of one level-1 split of a single frame."""
    return wp_analysis(np.asarray(x, dtype=float)[None], fb, 1)[0]


def _merge(approx, detail, fb):
    """The single frame rebuilt from its level-1 (approx, detail) pair."""
    return wp_synthesis(np.array([[approx, detail]], dtype=float), fb)[0]


class TestAnalysisStep:
    def test_haar_constant_pair(self):
        approx, detail = _split([1.0, 1.0, 1.0, 1.0], filter_bank("haar"))
        np.testing.assert_allclose(approx, [SQRT2, SQRT2], atol=1e-15)
        np.testing.assert_allclose(detail, [0.0, 0.0], atol=1e-15)

    def test_haar_alternating_pair(self):
        approx, detail = _split([1.0, -1.0, 1.0, -1.0], filter_bank("haar"))
        np.testing.assert_allclose(approx, [0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(detail, [SQRT2, SQRT2], atol=1e-15)

    def test_zeros_in_zeros_out(self):
        approx, detail = _split(np.zeros(32), filter_bank("db4"))
        assert np.all(approx == 0.0) and np.all(detail == 0.0)

    def test_output_lengths(self):
        approx, detail = _split(np.arange(64.0), filter_bank("db4"))
        assert len(approx) == len(detail) == 32

    def test_linear(self):
        fb = filter_bank("db4")
        rng = np.random.default_rng(8)
        x, y = rng.normal(size=64), rng.normal(size=64)
        ax, dx = _split(x, fb)
        ay, dy = _split(y, fb)
        a, d = _split(2.0 * x - 3.0 * y, fb)
        np.testing.assert_allclose(a, 2.0 * ax - 3.0 * ay, atol=1e-12)
        np.testing.assert_allclose(d, 2.0 * dx - 3.0 * dy, atol=1e-12)

    def test_rejects_odd_or_short_input(self):
        with pytest.raises(ValueError, match="power of two"):
            _split(np.zeros(33), filter_bank("haar"))
        with pytest.raises(ValueError, match="8-tap 'db4' filter"):
            _split(np.zeros(4), filter_bank("db4"))


class TestSynthesisStep:
    @pytest.mark.parametrize("name", ["haar", "db4"])
    def test_inverts_analysis(self, name):
        fb = filter_bank(name)
        x = np.random.default_rng(0).normal(size=64)
        np.testing.assert_allclose(_merge(*_split(x, fb), fb), x, atol=1e-10)

    def test_haar_inverse_hand_case(self):
        out = _merge([SQRT2, SQRT2], [0.0, 0.0], filter_bank("haar"))
        np.testing.assert_allclose(out, [1.0, 1.0, 1.0, 1.0], atol=1e-15)

    def test_zeros_in_zeros_out(self):
        out = _merge(np.zeros(16), np.zeros(16), filter_bank("db4"))
        assert np.all(out == 0.0)

    def test_rejects_length_mismatch(self):
        # a ragged (approx, detail) pair is no (frames, subbands, coeffs) array
        with pytest.raises(ValueError):
            wp_synthesis([[np.zeros(8), np.zeros(9)]], filter_bank("haar"))

    def test_inverts_analysis_along_last_axis(self):
        fb = filter_bank("db4")
        x = np.random.default_rng(10).normal(size=(4, 32))
        np.testing.assert_allclose(wp_synthesis(wp_analysis(x, fb, 1), fb), x,
                                   atol=1e-12)


def _leaves(x, name, depth):
    """Leaves of a single frame: (2**depth, n >> depth)."""
    return wp_analysis(np.asarray(x)[None, :], filter_bank(name), depth)[0]


def _frame(leaves, name):
    """The single frame rebuilt from its (2**depth, width) leaves."""
    return wp_synthesis(np.asarray(leaves)[None], filter_bank(name))[0]


class TestWpDecompose:
    def test_depth_one_equals_single_split(self):
        fb = filter_bank("db4")
        x = np.random.default_rng(1).normal(size=128)
        leaves = _leaves(x, "db4", 1)
        approx, detail = oracle.analysis_step(x, fb)
        np.testing.assert_allclose(leaves[0], approx, atol=1e-12)
        np.testing.assert_allclose(leaves[1], detail, atol=1e-12)

    def test_leaf_shape(self):
        x = np.random.default_rng(2).normal(size=(5, 64))
        assert wp_analysis(x, filter_bank("haar"), 3).shape == (5, 8, 8)

    @pytest.mark.parametrize("name", ["haar", "db4"])
    def test_parseval(self, name):
        x = np.random.default_rng(3).normal(size=512)
        leaves = _leaves(x, name, 4)
        leaf_energy = float(np.sum(leaves**2))
        assert abs(leaf_energy / float(np.sum(x**2)) - 1.0) < 1e-9

    def test_any_memory_layout(self):
        # strided and Fortran-ordered frames give the leaves of their copy
        fb = filter_bank("db4")
        x = np.random.default_rng(9).normal(size=(6, 256))
        expected = wp_analysis(x[::2].copy(), fb, 5)
        np.testing.assert_array_equal(wp_analysis(x[::2], fb, 5), expected)
        np.testing.assert_array_equal(wp_analysis(np.asfortranarray(x[::2]), fb, 5),
                                      expected)
        leaves = np.asfortranarray(expected)
        np.testing.assert_array_equal(wp_synthesis(leaves, fb),
                                      wp_synthesis(expected, fb))

    def test_rejects_insufficient_length(self):
        with pytest.raises(ValueError):
            _leaves(np.zeros(64), "db4", 4)  # leaf 4 < 8 taps
        with pytest.raises(ValueError):
            _leaves(np.zeros(60), "haar", 2)  # not power of two
        with pytest.raises(ValueError):
            wp_analysis(np.zeros(64), filter_bank("haar"), 2)  # not (frames, N)


class TestWpReconstruct:
    def test_roundtrip_512_db4_depth4(self):
        x = np.random.default_rng(4).normal(size=512)
        np.testing.assert_allclose(_frame(_leaves(x, "db4", 4), "db4"), x, atol=1e-10)

    def test_zero_leaves_give_zero_frame(self):
        leaves = _leaves(np.random.default_rng(5).normal(size=256), "db4", 3)
        assert np.all(_frame(np.zeros_like(leaves), "db4") == 0.0)

    def test_scaling_leaves_scales_output(self):
        x = np.random.default_rng(6).normal(size=256)
        scaled = 2.5 * _leaves(x, "haar", 3)
        np.testing.assert_allclose(_frame(scaled, "haar"), 2.5 * x, atol=1e-10)

    @pytest.mark.parametrize("name", ["haar", "db4"])
    @pytest.mark.parametrize("depth", [1, 2, 3, 4, 5])
    def test_roundtrip_grid(self, name, depth):
        fb = filter_bank(name)
        rng = np.random.default_rng(depth)
        for n in (64, 256, 1024):
            if n >> depth < len(fb):
                continue
            x = rng.normal(size=(3, n))
            np.testing.assert_allclose(
                wp_synthesis(wp_analysis(x, fb, depth), fb), x, atol=1e-10
            )


class TestCoefficientTree:
    def test_with_leaves_rebuilds_consistent_ancestors(self):
        # Rebuilding from modified leaves goes through every internal
        # node: one level of synthesis gives back the level above.
        fb = filter_bank("db4")
        x = np.random.default_rng(7).normal(size=128)
        leaves = 0.5 * _leaves(x, "db4", 2)
        level1 = wp_synthesis(leaves.reshape(2, 2, -1), fb)
        np.testing.assert_allclose(level1, 0.5 * _leaves(x, "db4", 1), atol=1e-12)
        root = _merge(level1[0], level1[1], fb)
        np.testing.assert_allclose(root, _frame(leaves, "db4"), atol=1e-12)
        np.testing.assert_allclose(root, 0.5 * x, atol=1e-12)

    def test_with_leaves_validates_shape(self):
        fb = filter_bank("haar")
        with pytest.raises(ValueError):
            wp_synthesis(np.zeros((1, 3, 16)), fb)  # not a power of two
        with pytest.raises(ValueError):
            wp_synthesis(np.zeros((1, 1, 64)), fb)  # no split to undo

    def test_malformed_tree_rejected(self):
        fb = filter_bank("haar")
        with pytest.raises(ValueError):
            wp_synthesis(np.zeros((4, 16)), fb)  # frame axis missing
        with pytest.raises(ValueError):
            wp_synthesis(np.zeros((1, 4, 2)), filter_bank("db4"))  # leaves < taps

    def test_takes_only_shapes_analysis_gives(self):
        # check_packet's rule, as in wp_analysis: one split of an 8-sample
        # frame leaves 4 < 8 db4 taps, and 2 * 12 samples is no power of two
        with pytest.raises(ValueError, match="8-tap 'db4' filter"):
            wp_synthesis(np.zeros((1, 2, 4)), filter_bank("db4"))
        with pytest.raises(ValueError, match="frame length 24 must be a power of two"):
            wp_synthesis(np.zeros((1, 2, 12)), filter_bank("haar"))


@pytest.mark.parametrize("name", ["haar", "db4"])
@pytest.mark.parametrize("n", [64, 1024])
def test_every_depth_matches_the_scalar_oracle(name, n):
    # The transform runs in stages of at most four levels, so depths 4 -> 5
    # and 8 -> 9 cross a stage boundary; haar at 1024 samples reaches both.
    fb = filter_bank(name)
    rng = np.random.default_rng(n)
    x = rng.normal(size=(2, n))
    depth = 1
    while n >> depth >= len(fb):  # every depth check_packet allows
        leaves = wp_analysis(x, fb, depth)
        assert leaves.shape == (2, 1 << depth, n >> depth)
        assert leaves.dtype == np.float64 and leaves.flags.c_contiguous
        expected = np.stack([oracle.wp_decompose(f, fb, depth).leaves for f in x])
        np.testing.assert_allclose(leaves, expected, rtol=0,
                                   atol=1e-12 * np.abs(expected).max())

        frames = wp_synthesis(leaves, fb)
        assert frames.shape == (2, n)
        assert frames.dtype == np.float64 and frames.flags.c_contiguous
        np.testing.assert_allclose(frames, x, rtol=0, atol=1e-12 * np.abs(x).max())
        # leaves that no frame produced: the inverse is the oracle's too
        other = rng.normal(size=leaves.shape)
        expected = np.stack([oracle.wp_reconstruct(list(f), fb) for f in other])
        np.testing.assert_allclose(wp_synthesis(other, fb), expected, rtol=0,
                                   atol=1e-12 * np.abs(expected).max())
        depth += 1


def test_stage_kernels_are_built_once_and_shared_read_only():
    # every transform call takes its kernels from one cache, so no call
    # may change them: a write raises
    kernel = wavelet._stage_kernel(filter_bank("db4"), 4)
    assert wavelet._stage_kernel(filter_bank("db4"), 4) is kernel
    assert kernel.shape == (112, 16)  # 15 * 7 + 1 taps in 7 blocks of 16
    assert not kernel.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        kernel[0, 0] = 1.0
    assert wavelet._stage_kernel(filter_bank("haar"), 4) is not kernel


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("depth", range(1, 10))
@pytest.mark.parametrize("name", FILTERS)
def test_public_transforms_leave_their_input_untouched(name, depth, layout):
    # the stages write over their input, so the public functions run
    # them on a copy; the pipeline's in-place calls give the same bits
    # in the memory they were handed
    fb = filter_bank(name)
    frames = np.random.default_rng(depth).normal(size=(3, 4096))
    x = in_layout(frames, layout)
    leaves = wp_analysis(x, fb, depth)
    np.testing.assert_array_equal(x, frames)
    assert not np.shares_memory(leaves, x)
    own = frames.copy()
    in_place = wavelet._analysis(own, fb, depth)
    assert np.shares_memory(in_place, own)
    np.testing.assert_array_equal(in_place, leaves)

    x = in_layout(leaves, layout)
    rebuilt = wp_synthesis(x, fb)
    np.testing.assert_array_equal(x, leaves)
    assert not np.shares_memory(rebuilt, x)
    own = leaves.copy()
    in_place = wavelet._synthesis(own, fb)
    assert np.shares_memory(in_place, own)
    np.testing.assert_array_equal(in_place, rebuilt)


def _peak(call) -> tuple:
    """(result, tracemalloc peak in bytes) of one call."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("direction", ["analysis", "synthesis"])
def test_a_converted_input_is_the_private_copy(direction):
    # real_floats' float64 conversion of float32 frames is memory no
    # caller holds, so the transform runs on it: a float32 call peaks
    # where a float64 call does (4.7 MB), not one frames-sized copy above
    fb = filter_bank("db4")
    single = np.random.default_rng(4).normal(size=(937, 512)).astype(np.float32)
    if direction == "synthesis":  # as the (frames, subbands, coeffs) leaves
        single = single.reshape(937, 16, 32)
    double = single.astype(np.float64)
    transforms = {"analysis": lambda x: wp_analysis(x, fb, 4),
                  "synthesis": lambda x: wp_synthesis(x, fb)}
    want, peak_double = _peak(lambda: transforms[direction](double))
    got, peak_single = _peak(lambda: transforms[direction](single))
    np.testing.assert_array_equal(got, want)
    assert peak_single <= peak_double + double.nbytes // 8
