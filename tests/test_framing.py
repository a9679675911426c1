"""Tests for overlapping framing and weighted overlap-add."""

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

import scalar_oracle as oracle
from conftest import LAYOUTS, in_layout
from test_batched import _speech_like

from wpdenoise import framing
from wpdenoise.framing import (
    ColaError,
    FrameSet,
    frame_count,
    make_frames,
    overlap_add,
    window_values,
)
from wpdenoise.signal_io import SignalBuffer


def _signal(n, seed=0, rate=16000):
    return SignalBuffer(np.random.default_rng(seed).normal(size=n), rate)


class TestMakeFrames:
    def test_frame_count_formula(self):
        fs = make_frames(_signal(8), 4, 2, "rectangular")
        assert fs.n_frames == 3
        # tail shorter than a frame still yields one extra padded frame
        assert make_frames(_signal(9), 4, 2, "rectangular").n_frames == 4
        # signal shorter than one frame
        assert make_frames(_signal(3), 4, 2, "rectangular").n_frames == 1
        assert frame_count(0, 4, 2) == 1

    def test_rectangular_frames_are_raw_slices(self):
        sig = _signal(16)
        fs = make_frames(sig, 8, 4, "rectangular")
        np.testing.assert_array_equal(fs.frames[0], sig.samples[:8])
        np.testing.assert_array_equal(fs.frames[1], sig.samples[4:12])

    def test_hann_frame_of_ones_equals_window(self):
        sig = SignalBuffer(np.ones(512), 8000)
        fs = make_frames(sig, 512, 256, "hann")
        np.testing.assert_allclose(fs.frames[0], window_values("hann", 512),
                                   atol=1e-15)

    def test_tail_is_zero_padded(self):
        sig = SignalBuffer(np.ones(10), 8000)
        fs = make_frames(sig, 8, 4, "rectangular")
        # last frame starts at sample 4; samples 10..11 are padding
        assert np.all(fs.frames[-1][:6] == 1.0)
        assert np.all(fs.frames[-1][6:] == 0.0)

    @staticmethod
    def _padded_frames(x, frame_len, hop, window):
        """The reference: the whole signal copied into a zero-padded buffer."""
        padded = np.zeros((frame_count(len(x), frame_len, hop) - 1) * hop + frame_len)
        padded[: len(x)] = x
        frames = sliding_window_view(padded, frame_len)[::hop]
        return frames * window_values(window, frame_len)

    @pytest.mark.parametrize("window", ["hann", "rectangular"])
    @pytest.mark.parametrize("frame_len, hop", [(512, 256), (512, 512), (512, 128)])
    def test_frames_equal_the_padded_reference(self, frame_len, hop, window):
        for n in (1, frame_len - 1, frame_len, frame_len + 1,
                  frame_len + hop - 1, frame_len + hop, frame_len + hop + 1):
            x = _signal(n, seed=n).samples
            got = make_frames(SignalBuffer(x, 16000), frame_len, hop, window).frames
            assert np.array_equal(got, self._padded_frames(x, frame_len, hop, window)), n

    def test_frames_of_15_s_speech_like_input_equal_the_padded_reference(self):
        _, noisy = _speech_like(15.0, seed=5)
        got = make_frames(noisy, 512, 256, "hann").frames
        assert np.array_equal(got, self._padded_frames(noisy.samples, 512, 256, "hann"))

    def test_integers_of_any_index_type(self):
        sig = _signal(32)
        want = make_frames(sig, 8, 4, "hann")
        got = make_frames(sig, np.int64(8), np.int32(4), "hann")
        np.testing.assert_array_equal(got.frames, want.frames)
        assert (type(got.frame_len), type(got.hop)) == (int, int)
        with pytest.raises(ValueError, match=r"^hop must be an integer, got 4\.0$"):
            make_frames(sig, 8, 4.0, "hann")

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            make_frames(_signal(32), 12, 4, "rectangular")  # not a power of two
        with pytest.raises(ValueError):
            make_frames(_signal(32), 16, 5, "rectangular")  # hop does not divide
        with pytest.raises(ValueError):
            make_frames(_signal(32), 16, 8, "flat-top")


class TestOverlapAdd:
    @pytest.mark.parametrize("window", ["rectangular", "hann"])
    def test_roundtrip_identity_50_percent(self, window):
        sig = _signal(2000, seed=1)
        out = overlap_add(make_frames(sig, 256, 128, window))
        assert len(out) == len(sig)
        np.testing.assert_allclose(out.samples, sig.samples, atol=1e-10)

    def test_single_frame_rectangular_exact_copy(self):
        sig = _signal(64, seed=2)
        out = overlap_add(make_frames(sig, 64, 64, "rectangular"))
        np.testing.assert_array_equal(out.samples, sig.samples)

    def test_hann_cola_constant_signal(self):
        sig = SignalBuffer(np.ones(3000), 8000)
        out = overlap_add(make_frames(sig, 512, 256, "hann"))
        np.testing.assert_allclose(out.samples, 1.0, atol=1e-10)

    def test_linearity(self):
        a = make_frames(_signal(1000, seed=3), 128, 64, "hann")
        b = make_frames(_signal(1000, seed=4), 128, 64, "hann")
        combined = FrameSet(
            frames=2.0 * a.frames + 3.0 * b.frames,
            frame_len=128, hop=64, window="hann",
            original_len=1000, sample_rate_hz=16000,
        )
        lhs = overlap_add(combined).samples
        rhs = 2.0 * overlap_add(a).samples + 3.0 * overlap_add(b).samples
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_vanishing_normaliser_reported(self):
        # At 4096 samples the shifted-hann endpoint is so small that a
        # single non-overlapping frame drives the normaliser below 1e-12.
        sig = _signal(4096, seed=5)
        with pytest.raises(ColaError):
            make_frames(sig, 4096, 4096, "hann")

    def test_empty_signal(self):
        out = overlap_add(make_frames(_signal(0), 16, 8, "hann"))
        assert len(out) == 0

    # (frame_len, hop, signal length, frames), the frames fewer than,
    # equal to and many more than the frame_len / hop slabs of a frame
    @pytest.mark.parametrize("frame_len, hop, n, n_frames", [
        (16, 8, 13, 1), (16, 8, 21, 2), (16, 8, 341, 42),
        (16, 4, 18, 2), (16, 4, 23, 3), (16, 4, 27, 4), (16, 4, 257, 62),
        (512, 256, 16077, 62), (512, 128, 16077, 123),
    ])
    @pytest.mark.parametrize("window", ["rectangular", "hann"])
    def test_equals_the_whole_signal_normaliser(self, frame_len, hop, n, n_frames, window):
        # random frames, not a signal's, so the sums do not collapse to the input
        fs = make_frames(_signal(n, seed=n), frame_len, hop, window)
        assert fs.n_frames == n_frames and n % hop
        rng = np.random.default_rng(n_frames)
        fs = FrameSet(fs.frames * rng.normal(size=fs.frames.shape), frame_len, hop,
                      window, n, 16000)
        out = overlap_add(fs).samples
        assert len(out) == n
        assert np.array_equal(out, oracle.overlap_add(fs))

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("window", ["rectangular", "hann"])
    def test_leaves_the_frames_untouched(self, window, layout):
        # the sums are written over the frames, so the public function
        # sums a copy; the pipeline's in-place call gives the same bits
        fs = make_frames(_signal(16077, seed=3), 512, 128, window)
        frames = fs.frames * np.random.default_rng(4).normal(size=fs.frames.shape)
        x = in_layout(frames, layout)
        out = overlap_add(FrameSet(x, 512, 128, window, 16077, 16000)).samples
        np.testing.assert_array_equal(x, frames)
        assert not np.shares_memory(out, x)
        assert np.array_equal(out, oracle.overlap_add(FrameSet(frames, 512, 128, window,
                                                               16077, 16000)))
        own = frames.copy()
        in_place = framing._overlap_add(FrameSet(own, 512, 128, window, 16077, 16000), own)
        np.testing.assert_array_equal(in_place.samples, out)
        assert not np.array_equal(own, frames)  # consumed


class TestFrameSetValidation:
    def test_rejects_wrong_frame_count(self):
        with pytest.raises(ValueError):
            FrameSet(
                frames=np.zeros((2, 8)), frame_len=8, hop=4, window="hann",
                original_len=100, sample_rate_hz=8000,
            )

    def test_rejects_hop_not_dividing_frame_len(self):
        with pytest.raises(ValueError, match="divide"):
            FrameSet(
                frames=np.zeros((1, 8)), frame_len=8, hop=3, window="hann",
                original_len=8, sample_rate_hz=8000,
            )

    def test_rejects_bad_hop(self):
        with pytest.raises(ValueError):
            FrameSet(
                frames=np.zeros((1, 8)), frame_len=8, hop=9, window="hann",
                original_len=8, sample_rate_hz=8000,
            )
