"""Wavelet-packet decomposition and perfect reconstruction of frames.

Filtering is periodic (circular), so for an orthonormal filter pair the
frame transform is an orthogonal matrix: reconstruction is exact and
coefficient energy equals sample energy. Both the approximation and the
detail branch are split recursively down to the requested depth, giving
2^depth uniform subbands per frame.

The transform is two calls on a whole batch of frames: wp_analysis
turns a (frames, samples) array into one (frames, subbands, coeffs)
array of leaf coefficients, and wp_synthesis takes exactly such an
array back. Both run level by level over the last axis, applying the
split matrices that each FilterBank derives once from its lowpass; the
level-1 split alone is wp_analysis(frames, fb, 1).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

# The low-pass analysis taps of each named filter; the high-pass is
# their quadrature mirror. db4: Daubechies length-8 scaling coefficients
# (4 vanishing moments), sum sqrt(2), unit energy, rounded to float64
# from a 60-digit spectral factorization, so orthonormality holds to
# machine precision.
_LOWPASS = {
    "haar": (1 / math.sqrt(2.0),) * 2,
    "db4": (-0.010597401785069032, 0.0328830116668852, 0.030841381835560764,
            -0.18703481171909309, -0.027983769416859854, 0.6308807679298589,
            0.7148465705529157, 0.2303778133088965),
}

FILTERS = tuple(_LOWPASS)


@dataclass
class FilterBank:
    """Orthonormal two-channel analysis pair, built from its lowpass.

    The highpass is the quadrature mirror of the lowpass:
    highpass[k] = (-1)^k * lowpass[L-1-k]. Both split matrices are
    derived with it, in the form `_filter_pairs` applies: analysis_matrix
    is the (L, 2) matrix of the two filters, synthesis_matrix the same
    taps in polyphase order, which inverts the split.
    """

    name: str
    lowpass: np.ndarray
    highpass: np.ndarray = field(init=False)
    analysis_matrix: np.ndarray = field(init=False, repr=False)
    synthesis_matrix: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.lowpass = h = np.asarray(self.lowpass, dtype=np.float64)
        if h.ndim != 1 or len(h) % 2 or abs(float(np.sum(h**2)) - 1.0) > 1e-12:
            raise ValueError(f"filter {self.name!r} is not orthonormal: its lowpass "
                             "must be a vector of even length and unit energy")
        taps = len(h)
        self.highpass = (-1.0) ** np.arange(taps) * h[::-1]
        self.analysis_matrix = np.stack((h, self.highpass), axis=1)
        # out[2j + p] = sum_q lowpass[2q + p] a[j - q] + highpass[2q + p] d[j - q]:
        # window entry 2r + c is (a, d)[c][j - q] with q = taps/2 - 1 - r.
        bank = self.analysis_matrix.T.reshape(2, taps // 2, 2)
        self.synthesis_matrix = bank[:, ::-1, :].transpose(1, 0, 2).reshape(taps, 2)

    def __len__(self) -> int:
        return len(self.lowpass)


def filter_bank(name: str) -> FilterBank:
    """Build a named filter bank ("haar" or "db4")."""
    if name not in _LOWPASS:
        raise ValueError(f"unknown filter {name!r} (expected one of {FILTERS})")
    return FilterBank(name, _LOWPASS[name])


def _filter_pairs(x: np.ndarray, matrix: np.ndarray, lead: int) -> np.ndarray:
    """Two decimated circular filters along the last axis, as one matmul.

    Row m of the stride-2 window view holds x[(2m - lead + k) mod n] for
    k < taps; multiplying it by the (taps, 2) matrix gives output pair
    m. Returns shape (..., n/2, 2).
    """
    n = x.shape[-1]
    taps = len(matrix)
    ext = np.concatenate((x[..., n - lead :], x, x[..., : taps - 2 - lead]), axis=-1)
    windows = np.lib.stride_tricks.sliding_window_view(ext, taps, axis=-1)
    return windows[..., ::2, :] @ matrix


def check_packet(frame_len: int, depth, fb: FilterBank) -> int:
    """Check that frames of frame_len samples split to depth; return depth.

    frame_len must be a power of two, and depth an integer (anything
    operator.index takes) >= 1 whose leaves are at least len(fb) long.
    """
    try:
        depth = operator.index(depth)
    except TypeError:
        raise ValueError(f"depth must be an integer, got {depth!r}") from None
    if frame_len <= 0 or frame_len & (frame_len - 1):
        raise ValueError(f"frame length {frame_len} must be a power of two")
    if depth < 1 or frame_len >> depth < len(fb):
        raise ValueError(
            f"depth {depth} must be >= 1 and leave leaves of frame length {frame_len} "
            f"at least as long as the {len(fb)}-tap {fb.name!r} filter"
        )
    return depth


def wp_analysis(frames, fb: FilterBank, depth: int) -> np.ndarray:
    """Full packet expansion of every frame down to `depth` levels.

    frames has shape (F, N); the result has shape (F, 2**depth,
    N >> depth), leaf i of a frame being its i-th subband in natural
    order (node 2i is the approximation and 2i+1 the detail of node i).
    """
    x = np.asarray(frames, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"frames must be (n_frames, frame_len), got shape {x.shape}")
    n = x.shape[1]
    depth = check_packet(n, depth, fb)
    nodes = x[:, None, :]
    for level in range(depth):
        pairs = _filter_pairs(nodes, fb.analysis_matrix, 0)
        nodes = pairs.swapaxes(-1, -2).reshape(len(x), 2 << level, n >> level + 1)
    return nodes


def wp_synthesis(leaves, fb: FilterBank) -> np.ndarray:
    """Invert wp_analysis: (F, 2**depth, N >> depth) leaves -> (F, N) frames.

    The leaves must have a shape wp_analysis gives: check_packet holds
    for frames of n_subbands * coeffs samples at depth log2(n_subbands).
    """
    nodes = np.asarray(leaves, dtype=np.float64)
    if nodes.ndim != 3:
        raise ValueError(
            f"leaves must be (n_frames, n_subbands, coeffs), got shape {nodes.shape}"
        )
    n_frames, n_sub, width = nodes.shape
    depth = check_packet(n_sub * width, n_sub.bit_length() - 1, fb)
    for level in range(depth):
        # interleave each (approx, detail) pair: z[..., 2j + c] = pair[c][j]
        pairs = nodes.reshape(n_frames, n_sub >> level + 1, 2, width << level)
        z = pairs.swapaxes(-1, -2).reshape(n_frames, n_sub >> level + 1, width << level + 1)
        nodes = _filter_pairs(z, fb.synthesis_matrix, len(fb) - 2).reshape(z.shape)
    return nodes[:, 0]
