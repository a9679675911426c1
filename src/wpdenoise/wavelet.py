"""Wavelet-packet decomposition and perfect reconstruction of frames.

Filtering is periodic (circular), so for an orthonormal filter pair the
frame transform is an orthogonal matrix: reconstruction is exact and
coefficient energy equals sample energy. Both the approximation and the
detail branch are split recursively down to the requested depth, giving
2^depth uniform subbands per frame. Every function works on a whole
batch of frames at once: the transform runs level by level over the
last axis, so a (frames, samples) array becomes one
(frames, subbands, coeffs) array of leaf coefficients and back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Daubechies length-8 scaling coefficients (4 vanishing moments), sum
# sqrt(2), unit energy. Rounded to float64 from a 60-digit spectral
# factorization, so orthonormality holds to machine precision.
_DB4_LOWPASS = (
    -0.010597401785069032,
    0.0328830116668852,
    0.030841381835560764,
    -0.18703481171909309,
    -0.027983769416859854,
    0.6308807679298589,
    0.7148465705529157,
    0.2303778133088965,
)

FILTERS = ("haar", "db4")


@dataclass
class FilterBank:
    """Orthonormal two-channel analysis pair.

    The highpass is the quadrature mirror of the lowpass:
    highpass[k] = (-1)^k * lowpass[L-1-k].
    """

    name: str
    lowpass: np.ndarray
    highpass: np.ndarray

    def __post_init__(self):
        self.lowpass = np.asarray(self.lowpass, dtype=np.float64)
        self.highpass = np.asarray(self.highpass, dtype=np.float64)
        if self.lowpass.shape != self.highpass.shape or self.lowpass.ndim != 1:
            raise ValueError("lowpass/highpass must be equal-length vectors")
        for taps in (self.lowpass, self.highpass):
            if abs(float(np.sum(taps**2)) - 1.0) > 1e-12:
                raise ValueError(f"filter {self.name!r} is not orthonormal")
        signs = (-1.0) ** np.arange(len(self.lowpass))
        if not np.allclose(self.highpass, signs * self.lowpass[::-1], atol=1e-15):
            raise ValueError(f"filter {self.name!r} violates the mirror relation")

    def __len__(self) -> int:
        return len(self.lowpass)


def filter_bank(name: str) -> FilterBank:
    """Build a named filter bank ("haar" or "db4")."""
    if name == "haar":
        lowpass = np.array([1.0, 1.0]) / np.sqrt(2.0)
    elif name == "db4":
        lowpass = np.array(_DB4_LOWPASS)
    else:
        raise ValueError(f"unknown filter {name!r} (expected one of {FILTERS})")
    signs = (-1.0) ** np.arange(len(lowpass))
    return FilterBank(name=name, lowpass=lowpass, highpass=signs * lowpass[::-1])


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


def analysis_step(input_vec, fb: FilterBank):
    """One circular filter-and-decimate split along the last axis.

    approx[..., m] = sum_k lowpass[k] * x[..., (2m+k) mod n], likewise
    for detail with the highpass. Each output has half the input length.
    """
    x = np.asarray(input_vec, dtype=np.float64)
    n = x.shape[-1]
    if n % 2:
        raise ValueError(f"input length {n} must be even")
    if n < len(fb):
        raise ValueError(f"input length {n} shorter than filter length {len(fb)}")
    pairs = _filter_pairs(x, np.stack((fb.lowpass, fb.highpass), axis=1), 0)
    return pairs[..., 0], pairs[..., 1]


def synthesis_step(approx, detail, fb: FilterBank) -> np.ndarray:
    """Exact inverse of analysis_step (transpose of the orthogonal split)."""
    a = np.asarray(approx, dtype=np.float64)
    d = np.asarray(detail, dtype=np.float64)
    if a.shape != d.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {d.shape}")
    taps = len(fb)
    z = np.stack((a, d), axis=-1).reshape(a.shape[:-1] + (2 * a.shape[-1],))
    if z.shape[-1] < taps:
        raise ValueError(
            f"output length {z.shape[-1]} shorter than filter length {taps}"
        )
    # out[2j + p] = sum_q lowpass[2q + p] a[j - q] + highpass[2q + p] d[j - q]:
    # window entry 2r + c is (a, d)[c][j - q] with q = taps/2 - 1 - r.
    bank = np.stack((fb.lowpass, fb.highpass)).reshape(2, taps // 2, 2)
    matrix = bank[:, ::-1, :].transpose(1, 0, 2).reshape(taps, 2)
    return _filter_pairs(z, matrix, taps - 2).reshape(z.shape)


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
    if n <= 0 or n & (n - 1):
        raise ValueError(f"frame length {n} must be a power of two")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if n >> depth == 0 or n >> depth < len(fb):
        raise ValueError(
            f"frame length {n} too short for depth {depth} with "
            f"{len(fb)}-tap filter"
        )
    nodes = x[:, None, :]
    for level in range(depth):
        nodes = np.stack(analysis_step(nodes, fb), axis=-2)
        nodes = nodes.reshape(len(x), 2 << level, n >> level + 1)
    return nodes


def wp_synthesis(leaves, fb: FilterBank) -> np.ndarray:
    """Invert wp_analysis: (F, 2**depth, N >> depth) leaves -> (F, N) frames."""
    nodes = np.asarray(leaves, dtype=np.float64)
    if nodes.ndim != 3:
        raise ValueError(
            f"leaves must be (n_frames, n_subbands, coeffs), got shape {nodes.shape}"
        )
    n_sub = nodes.shape[1]
    if n_sub < 2 or n_sub & (n_sub - 1):
        raise ValueError(f"subband count {n_sub} must be a power of two >= 2")
    while nodes.shape[1] > 1:
        nodes = synthesis_step(nodes[:, 0::2], nodes[:, 1::2], fb)
    return nodes[:, 0]
