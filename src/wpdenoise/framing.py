"""Overlapping windowed analysis frames and weighted overlap-add synthesis.

Reconstruction divides by the per-sample sum of squared window values
(the synthesis window equals the analysis window), so the analysis ->
synthesis round trip is an identity for any window whose squared
overlap sum stays above a small floor. The "hann" window here is the
half-sample-shifted variant sin^2(pi*(n+0.5)/N): its endpoints are small
but nonzero, which keeps the normalisation well-defined at the very
first and last samples of the signal, where only one frame contributes.

Each end has one path. make_frames windows every frame from one
zero-padded copy of the signal; overlap_add sums the windowed frames
and their squared windows over the whole signal, then divides once.
The sums are written over the frames, so overlap_add allocates only the
output: the public function sums a private copy (signal_io.private_copy),
and the pipeline hands over frames it owns.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .signal_io import SignalBuffer, integer, peak_magnitude, private_copy, real_floats, shown

WINDOWS = ("rectangular", "hann")

# A squared-window overlap sum below this counts as zero.
_NORMALIZATION_FLOOR = 1e-12

# The longest frame: 2^16 samples (512 kB of float64 per frame), so a
# config fails when built instead of when its frames are allocated.
MAX_FRAME_LEN = 1 << 16


class ColaError(ValueError):
    """Frame geometry whose overlap-add normaliser vanishes."""


def window_values(window: str, frame_len: int) -> np.ndarray:
    """Return the named analysis window as a float64 vector."""
    _check_window(window)
    if window == "rectangular":
        return np.ones(frame_len, dtype=np.float64)
    n = np.arange(frame_len, dtype=np.float64)
    return np.sin(np.pi * (n + 0.5) / frame_len) ** 2


def _check_window(window: str) -> None:
    if not isinstance(window, str) or window not in WINDOWS:
        raise ValueError(f"unknown window {shown(window)} (expected one of {WINDOWS})")


def edge_gain(window: str, frame_len: int) -> float:
    """1 / the window's smallest value: the overlap-add gain of a sample
    that one frame alone covers, such as the first.

    Closed form, so no window is built: 1 for rectangular, and
    1 / sin^2(pi / 2N) at the shifted hann's ends (1.06e5 for N = 512).
    """
    _check_window(window)
    return 1.0 if window == "rectangular" else math.sin(math.pi / (2 * frame_len)) ** -2


def max_peak(frame_len: int, window: str) -> float:
    """The largest |sample| a run takes: float max / (8 N^2 g).

    enhance, analyze and leaf_coefficients check it first, and that
    every sample is finite (check_peak). For frames
    of N samples and the window's edge gain g, that is about 8.1e296
    for the default 512-sample hann. A packet coefficient is at most the
    frame's norm, sqrt(N) times the peak, and a sum inside the transform
    N times it; an overlap-add sum is at most N^1.5 times it, and its
    quotient N g times it (g alone at the first sample); thresholds and
    histogram spans stay within 8 sqrt(N) times it. So no value of a run
    under the bound overflows.
    """
    return sys.float_info.max / (8 * frame_len**2 * edge_gain(window, frame_len))


def check_peak(frame_len: int, window: str, signal: SignalBuffer) -> None:
    """Raise ValueError unless every sample of `signal` is finite and at
    most max_peak in magnitude: naming the peak if it is above the bound.

    A SignalBuffer refuses non-finite samples when built, but its
    samples array is not copied, so a NaN or inf written into it later
    reaches here: the peak is then NaN or inf, and never <= the bound.
    """
    bound = max_peak(frame_len, window)
    peak = peak_magnitude(signal.samples)
    if not peak <= bound:
        if not math.isfinite(peak):
            raise ValueError("samples must be finite (no NaN/Inf)")
        raise ValueError(
            f"samples peak at {peak:.4g}, above the {bound:.4g} that frames of "
            f"{frame_len} samples and the {window} window can process"
        )


def frame_count(original_len: int, frame_len: int, hop: int) -> int:
    """ceil(max(original_len - frame_len, 0)/hop) + 1."""
    return -(-max(original_len - frame_len, 0) // hop) + 1


def check_geometry(frame_len, hop, window: str) -> tuple:
    """Check that frames of this geometry rebuild; return (frame_len, hop).

    frame_len and hop are integers (signal_io.integer): a power of two
    of at most MAX_FRAME_LEN = 2^16 and a divisor of it. The window
    must be known, and its squared values at least 1e-12: a sample that
    one frame alone covers, such as the first, has w[n]^2 as its
    overlap-add normaliser. Their minimum is 1 / edge_gain^2, a closed
    form, so no window is built. So hann frames hold at most 1024
    samples.
    """
    frame_len, hop = integer(frame_len, "frame_len"), integer(hop, "hop")
    if frame_len <= 0 or frame_len & (frame_len - 1):
        raise ValueError(f"frame_len must be a power of two, got {shown(frame_len)}")
    if frame_len > MAX_FRAME_LEN:
        raise ValueError(
            f"frame_len must be at most {MAX_FRAME_LEN}, got {shown(frame_len)}"
        )
    if hop <= 0 or frame_len % hop:
        raise ValueError(f"hop {shown(hop)} must divide frame_len {frame_len}")
    floor = edge_gain(window, frame_len) ** -2
    if floor < _NORMALIZATION_FLOOR:
        raise ColaError(
            f"window {window!r} of {frame_len} samples leaves the overlap-add "
            f"normaliser at {floor:.3e} (< 1e-12): reconstruction is ill-conditioned"
        )
    return frame_len, hop


@dataclass(frozen=True)
class FrameSet:
    """Windowed frames and the geometry that rebuilds them, checked when built."""

    frames: np.ndarray  # shape (n_frames, frame_len)
    frame_len: int
    hop: int
    window: str
    original_len: int
    sample_rate_hz: int

    def __post_init__(self):
        check_geometry(self.frame_len, self.hop, self.window)
        object.__setattr__(self, "frames", real_floats(self.frames, "frames"))
        n_frames = frame_count(self.original_len, self.frame_len, self.hop)
        if self.frames.shape != (n_frames, self.frame_len):
            raise ValueError(f"frames must have shape ({n_frames}, {self.frame_len}), "
                             f"got {self.frames.shape}")

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]


def make_frames(
    signal: SignalBuffer, frame_len: int, hop: int, window: str = "hann"
) -> FrameSet:
    """Split a signal into overlapping windowed frames.

    Frame k holds window[n] * signal[k*hop + n], zero-padded past the
    signal end. The geometry must pass check_geometry. Every frame is
    windowed from one zero-padded copy of the signal, through a strided
    view of it.
    """
    frame_len, hop = check_geometry(frame_len, hop, window)
    n_frames = frame_count(len(signal), frame_len, hop)
    padded = np.zeros((n_frames - 1) * hop + frame_len)
    padded[: len(signal)] = signal.samples
    frames = sliding_window_view(padded, frame_len)[::hop] * window_values(window, frame_len)
    return FrameSet(frames, frame_len, hop, window, len(signal), signal.sample_rate_hz)


def overlap_add(frames: FrameSet) -> SignalBuffer:
    """Weighted overlap-add with per-sample window-power normalisation.

    The numerator sums each frame's windowed samples and the normaliser
    each frame's squared window, over the whole signal; the numerator is
    then divided by it once. The FrameSet's geometry keeps the
    normaliser above 1e-12 everywhere. Output is truncated to
    original_len. The sums run on a private copy of the frames, which
    are left as they were.
    """
    return _overlap_add(frames, private_copy(frames.frames, frames.frames))


def _overlap_add(frames: FrameSet, values: np.ndarray) -> SignalBuffer:
    """overlap_add of `frames` from `values`, their samples in C-ordered
    float64 memory that it writes over: the numerator, which becomes
    the output, is all it allocates.
    """
    w = window_values(frames.window, frames.frame_len)
    hop, n_frames = frames.hop, frames.n_frames
    n_slabs = frames.frame_len // hop
    numerator = np.zeros((n_frames + n_slabs - 1) * hop)
    num_blocks = numerator.reshape(-1, hop)
    # Slab r (columns r*hop .. r*hop + hop) of frame k lands in block k + r.
    # Adding slabs in descending r sums each sample's terms in ascending
    # frame order, as a frame-by-frame loop does. Each slab is windowed
    # in place; then the normaliser is summed, in the same order, in the
    # frames' own memory: its (frames + slabs - 1, hop) blocks fit in
    # their (frames * slabs, hop).
    slabs = values.reshape(n_frames, n_slabs, hop)
    w_slabs = w.reshape(n_slabs, hop)
    for r in reversed(range(n_slabs)):
        num_blocks[r : r + n_frames] += np.multiply(slabs[:, r], w_slabs[r], out=slabs[:, r])
    norm = values.reshape(-1)[: numerator.size].reshape(-1, hop)
    norm.fill(0.0)
    w2 = w_slabs * w_slabs
    for r in reversed(range(n_slabs)):
        norm[r : r + n_frames] += w2[r]
    num_blocks /= norm
    return SignalBuffer(numerator[: frames.original_len], frames.sample_rate_hz)
