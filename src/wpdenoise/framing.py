"""Overlapping windowed analysis frames and weighted overlap-add synthesis.

Reconstruction divides by the per-sample sum of squared window values
(the synthesis window equals the analysis window), so the analysis ->
synthesis round trip is an identity for any window whose squared
overlap sum stays above a small floor. The "hann" window here is the
half-sample-shifted variant sin^2(pi*(n+0.5)/N): its endpoints are small
but nonzero, which keeps the normalisation well-defined at the very
first and last samples of the signal, where only one frame contributes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signal_io import SignalBuffer

WINDOWS = ("rectangular", "hann")

# Below this, the squared-window overlap sum is treated as zero and
# reconstruction refuses to divide.
_NORMALIZATION_FLOOR = 1e-12


class ColaError(ValueError):
    """Window/hop combination whose overlap-add normaliser vanishes."""


def window_values(window: str, frame_len: int) -> np.ndarray:
    """Return the named analysis window as a float64 vector."""
    if window == "rectangular":
        return np.ones(frame_len, dtype=np.float64)
    if window == "hann":
        n = np.arange(frame_len, dtype=np.float64)
        return np.sin(np.pi * (n + 0.5) / frame_len) ** 2
    raise ValueError(f"unknown window {window!r} (expected one of {WINDOWS})")


def frame_count(original_len: int, frame_len: int, hop: int) -> int:
    """ceil(max(original_len - frame_len, 0)/hop) + 1."""
    return -(-max(original_len - frame_len, 0) // hop) + 1


def _frame_index(n_frames: int, frame_len: int, hop: int) -> np.ndarray:
    """(n_frames, frame_len) array: frame k, sample n lies at hop*k + n."""
    return hop * np.arange(n_frames)[:, None] + np.arange(frame_len)[None, :]


@dataclass
class FrameSet:
    """Windowed frames plus the parameters needed to reassemble them."""

    frames: np.ndarray  # shape (n_frames, frame_len)
    frame_len: int
    hop: int
    window: str
    original_len: int
    sample_rate_hz: int

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float64)
        if self.frames.ndim != 2 or self.frames.shape[1] != self.frame_len:
            raise ValueError("frames must be (n_frames, frame_len)")
        if not 0 < self.hop <= self.frame_len or self.frame_len % self.hop:
            raise ValueError("hop must satisfy 0 < hop <= frame_len and divide it")
        expected = frame_count(self.original_len, self.frame_len, self.hop)
        if self.frames.shape[0] != expected:
            raise ValueError(
                f"frame count {self.frames.shape[0]} does not match "
                f"expected {expected} for original_len={self.original_len}"
            )
        if self.window not in WINDOWS:
            raise ValueError(f"unknown window {self.window!r}")

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]


def make_frames(
    signal: SignalBuffer, frame_len: int, hop: int, window: str = "hann"
) -> FrameSet:
    """Split a signal into overlapping windowed frames.

    Frame k holds window[n] * signal[k*hop + n], zero-padded past the
    signal end. frame_len must be a power of two (downstream transform
    requirement) and hop must divide frame_len.
    """
    if frame_len <= 0 or frame_len & (frame_len - 1):
        raise ValueError(f"frame_len must be a power of two, got {frame_len}")
    if hop <= 0 or frame_len % hop:
        raise ValueError(f"hop {hop} must divide frame_len {frame_len}")

    w = window_values(window, frame_len)
    original_len = len(signal)
    n_frames = frame_count(original_len, frame_len, hop)
    padded = np.zeros((n_frames - 1) * hop + frame_len, dtype=np.float64)
    padded[:original_len] = signal.samples

    return FrameSet(
        frames=padded[_frame_index(n_frames, frame_len, hop)] * w[None, :],
        frame_len=frame_len,
        hop=hop,
        window=window,
        original_len=original_len,
        sample_rate_hz=signal.sample_rate_hz,
    )


def overlap_add(frames: FrameSet) -> SignalBuffer:
    """Weighted overlap-add with per-sample window-power normalisation.

    Raises ColaError if the normaliser drops below 1e-12 anywhere inside
    the original signal span. Output is truncated to original_len.
    """
    w = window_values(frames.window, frames.frame_len)
    hop, n_frames = frames.hop, frames.n_frames
    n_slabs = frames.frame_len // hop
    numerator = np.zeros((n_frames + n_slabs - 1) * hop)
    denominator = np.zeros_like(numerator)
    # Slab r (columns r*hop .. r*hop + hop) of frame k lands in block k + r.
    # Adding slabs in descending r sums each sample's terms in ascending
    # frame order, as a frame-by-frame loop does. Windowing one slab at a
    # time keeps the temporaries at (frames, hop).
    slabs = frames.frames.reshape(n_frames, n_slabs, hop)
    w_slabs = w.reshape(n_slabs, hop)
    w2 = (w * w).reshape(n_slabs, hop)
    num_blocks, den_blocks = numerator.reshape(-1, hop), denominator.reshape(-1, hop)
    for r in reversed(range(n_slabs)):
        num_blocks[r : r + n_frames] += slabs[:, r] * w_slabs[r]
        den_blocks[r : r + n_frames] += w2[r]
    span = frames.original_len
    if span > 0:
        floor = float(np.min(denominator[:span]))
        if floor < _NORMALIZATION_FLOOR:
            raise ColaError(
                f"window {frames.window!r} with hop {frames.hop} leaves the "
                f"overlap-add normaliser at {floor:.3e} (< 1e-12); "
                "reconstruction would be ill-conditioned"
            )
    samples = numerator[:span] / denominator[:span] if span else np.zeros(0)
    return SignalBuffer(samples, frames.sample_rate_hz)
