"""Wavelet-packet decomposition and perfect reconstruction of frames.

Filtering is periodic (circular), so for an orthonormal filter pair the
frame transform is an orthogonal matrix: reconstruction is exact and
coefficient energy equals sample energy. Both the approximation and the
detail branch are split recursively down to the requested depth, giving
2^depth uniform subbands per frame.

The transform is two calls on a whole batch of frames: wp_analysis
turns a (frames, samples) array into one C-contiguous (frames,
subbands, coeffs) array of leaf coefficients, and wp_synthesis takes
exactly such an array back. By the noble identities of multirate filter
banks, j circular split-and-decimate levels are one circular bank of
2^j combined filters decimated by 2^j; leaf i's filter convolves the
low- or high-pass taps, upsampled by 2^l, of each level l on its path.
So the depth goes in stages of at most four levels, and each stage is
one matrix product per chunk of rows: the circularly extended rows'
windows at stride 2^j, copied into one contiguous block, times the
stage's kernel of combined filters. Synthesis multiplies windows of the
circularly extended leaves by the transposed kernel, time-reversed in
blocks, and so writes each position's 2^j samples in turn. The level-1
split alone is wp_analysis(frames, fb, 1).

Every stage writes its product over its own input, so a transform needs
no memory beyond its input but one chunk's windows. The public
functions run the stages on a private copy of their input
(signal_io.private_copy); the pipeline calls _analysis and _synthesis
on arrays it owns, which they consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .signal_io import integer, private_copy, real_floats, shown

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

# Levels fused into one stage. A j-level stage of an L-tap filter costs
# about (L - 1) * 2**j multiply-adds per sample, so a deep transform goes
# in stages: 117 db4 frames of 4096 samples to depth 9 took 54 ms level
# by level, 797 ms as one stage and 23 ms in stages of 3 (one core of a
# 2-core Xeon, OPENBLAS_NUM_THREADS=1).
_STAGE_LEVELS = 4

# Values in one chunk's block of windows (512 kB), so that a chunk stays
# in L2 and a stage needs no batch-sized array beside its input.
_CHUNK_VALUES = 1 << 16


@dataclass(frozen=True)
class FilterBank:
    """Orthonormal two-channel analysis pair, built from its lowpass.

    The highpass is the quadrature mirror of the lowpass:
    highpass[k] = (-1)^k * lowpass[L-1-k]. The bank is immutable: both
    tap arrays are read-only copies, so the highpass can never go stale.
    Two banks are equal, and hash alike, when their names and lowpass
    taps are.
    """

    name: str
    lowpass: np.ndarray
    highpass: np.ndarray = field(init=False)

    def __post_init__(self):
        h = np.array(self.lowpass, dtype=np.float64)
        # written so that NaN taps, whose energy compares false, fail too
        if h.ndim != 1 or len(h) % 2 or not abs(float(np.sum(h**2)) - 1.0) <= 1e-12:
            raise ValueError(f"filter {shown(self.name)} is not orthonormal: its "
                             "lowpass must be a vector of even length and unit energy")
        g = (-1.0) ** np.arange(len(h)) * h[::-1]
        for name, taps in (("lowpass", h), ("highpass", g)):
            taps.flags.writeable = False
            object.__setattr__(self, name, taps)

    def __eq__(self, other):
        if not isinstance(other, FilterBank):
            return NotImplemented
        return self.name == other.name and np.array_equal(self.lowpass, other.lowpass)

    def __hash__(self) -> int:
        return hash((self.name, tuple(self.lowpass.tolist())))

    def __len__(self) -> int:
        return len(self.lowpass)


def filter_bank(name: str) -> FilterBank:
    """Build a named filter bank ("haar" or "db4")."""
    if not isinstance(name, str) or name not in _LOWPASS:
        raise ValueError(f"unknown wavelet filter {shown(name)} (expected one of {FILTERS})")
    return FilterBank(name, _LOWPASS[name])


def check_packet(frame_len: int, depth, fb: FilterBank) -> int:
    """Check that frames of frame_len samples split to depth; return depth.

    frame_len must be a power of two, and depth an integer
    (signal_io.integer) >= 1 whose leaves are at least len(fb) long.
    """
    depth = integer(depth, "depth")
    if frame_len <= 0 or frame_len & (frame_len - 1):
        raise ValueError(f"frame length {shown(frame_len)} must be a power of two")
    if depth < 1 or frame_len >> depth < len(fb):
        raise ValueError(
            f"depth {shown(depth)} must be >= 1 and leave leaves of frame length "
            f"{frame_len} at least as long as the {len(fb)}-tap {fb.name!r} filter"
        )
    return depth


def _stage_levels(depth: int) -> list:
    """Levels per stage: the fewest stages of at most _STAGE_LEVELS, even in size."""
    n_stages = -(-depth // _STAGE_LEVELS)
    return [depth // n_stages + (i < depth % n_stages) for i in range(n_stages)]


@lru_cache(maxsize=32)  # two named banks of at most four stage sizes each
def _stage_kernel(fb: FilterBank, levels: int) -> np.ndarray:
    """(Q * T, T) matrix, T = 2**levels: column i holds leaf i's combined filter.

    A node's filter is its parent's convolved with the low- or high-pass
    taps upsampled by 2**level, so leaf i of a `levels`-level split has
    (T - 1)(L - 1) + 1 taps, zero-padded to Q blocks of T. Built once
    per bank and size and shared read-only: a 4-level db4 kernel takes
    0.19 ms to build (2-core Xeon), and every transform call needs one.
    """
    filters = np.ones((1, 1))
    for level in range(levels):
        up = np.zeros((2, (len(fb) - 1 << level) + 1))
        up[:, :: 1 << level] = fb.lowpass, fb.highpass
        filters = np.array([np.convolve(f, u) for f in filters for u in up])
    block = 1 << levels
    kernel = np.zeros((-(-filters.shape[1] // block) * block, block))
    kernel[: filters.shape[1]] = filters.T
    kernel.flags.writeable = False
    return kernel


def _analysis_windows(rows: np.ndarray, lag: int, block: int) -> np.ndarray:
    """(R, (lag + 1) * T, M) view: column m of row r holds its samples from m * T on.

    Each row is extended circularly by its first `lag` blocks of T.
    """
    ext = np.concatenate((rows, rows[:, : lag * block]), axis=1)
    row, step = ext.strides  # concatenate keeps a Fortran-ordered input's order
    return as_strided(ext, (len(ext), (lag + 1) * block, rows.shape[1] // block),
                      (row, step, block * step), writeable=False)


def _synthesis_windows(leaves: np.ndarray, lag: int, block: int) -> np.ndarray:
    """(R, lag + 1, T, M) view: [r, p, i, b] is leaf i's coefficient b + p - lag.

    Each of the T leaves of a row is extended circularly at its head by
    its last `lag` coefficients.
    """
    n_rows, _, width = leaves.shape
    ext = np.empty((n_rows, block, lag + width))
    ext[:, :, lag:] = leaves
    ext[:, :, :lag] = leaves[:, :, width - lag :]
    rows, nodes, step = ext.strides
    return as_strided(ext, (n_rows, lag + 1, block, width), (rows, step, nodes, step),
                      writeable=False)


def _apply_stage(rows: np.ndarray, kernel: np.ndarray, windows_of, out) -> None:
    """out[r, m] = window m of row r times the (Q * T, T) kernel, chunk by chunk.

    windows_of(chunk, Q - 1, T) is a strided view of each row's Q * T
    window values at each of its M positions; it is copied into one
    contiguous (R, Q * T, M) block, positions innermost (long runs copy
    fast even for T = 2), so that the product into out's (R, M, T) chunk
    is one matmul, a BLAS call per row.
    """
    window, block = kernel.shape
    step = max(1, _CHUNK_VALUES // (out.shape[1] * window))
    for start in range(0, len(rows), step):
        view = windows_of(rows[start : start + step], window // block - 1, block)
        windows = np.ascontiguousarray(view).reshape(len(view), window, -1)
        np.matmul(windows.swapaxes(1, 2), kernel, out=out[start : start + step])


def wp_analysis(frames, fb: FilterBank, depth: int) -> np.ndarray:
    """Full packet expansion of every frame down to `depth` levels.

    frames has shape (F, N); the result is a C-contiguous float64 array
    of shape (F, 2**depth, N >> depth), leaf i of a frame being its
    i-th subband in natural order (node 2i is the approximation and
    2i+1 the detail of node i). The transform runs on a private copy:
    `frames` is left as it was.
    """
    x = real_floats(frames, "frames")
    if x.ndim != 2:
        raise ValueError(f"frames must be (n_frames, frame_len), got shape {x.shape}")
    depth = check_packet(x.shape[1], depth, fb)
    return _analysis(private_copy(x, frames), fb, depth)


def _analysis(x: np.ndarray, fb: FilterBank, depth: int) -> np.ndarray:
    """wp_analysis of C-contiguous float64 frames whose depth is checked,
    written over them: the leaves are a view of `x`'s memory.

    Each stage's product lands in its own input rows. That is safe
    because _analysis_windows copies a chunk's rows into its extension
    before _apply_stage writes the chunk's product over them.
    """
    n_frames, n = x.shape
    for levels in _stage_levels(depth):
        rows = x.reshape(-1, x.shape[-1])
        x = rows.reshape(len(rows), 1 << levels, -1)
        _apply_stage(rows, _stage_kernel(fb, levels), _analysis_windows, x.swapaxes(1, 2))
    return x.reshape(n_frames, 1 << depth, n >> depth)


def wp_synthesis(leaves, fb: FilterBank) -> np.ndarray:
    """Invert wp_analysis: (F, 2**depth, N >> depth) leaves -> (F, N) frames.

    The leaves must have a shape wp_analysis gives: check_packet holds
    for frames of n_subbands * coeffs samples at depth log2(n_subbands).
    The frames come back as a C-contiguous float64 array, built in a
    private copy: `leaves` is left as it was.
    """
    x = real_floats(leaves, "leaves")
    if x.ndim != 3:
        raise ValueError(
            f"leaves must be (n_frames, n_subbands, coeffs), got shape {x.shape}"
        )
    n_sub = x.shape[1]
    check_packet(n_sub * x.shape[2], n_sub.bit_length() - 1, fb)
    return _synthesis(private_copy(x, leaves), fb)


def _synthesis(x: np.ndarray, fb: FilterBank) -> np.ndarray:
    """wp_synthesis of C-contiguous float64 leaves whose shape is checked,
    written over them: the frames are a view of `x`'s memory.

    As in _analysis, each stage's product lands in its own input rows,
    which _synthesis_windows has copied into its extension first.
    """
    n_frames, n_sub, width = x.shape
    for levels in reversed(_stage_levels(n_sub.bit_length() - 1)):
        block = 1 << levels
        # The transpose of analysis: sample s of block b sums leaf i's
        # coefficient b - q times kernel[q*T + s, i] over q and i. Window
        # row p*T + i holds coefficient b + p - (Q - 1) of leaf i, so the
        # kernel's blocks run backwards, each one transposed.
        kernel = _stage_kernel(fb, levels).reshape(-1, block, block)
        kernel = kernel[::-1].swapaxes(1, 2).reshape(-1, block)
        rows = x.reshape(-1, block, x.shape[-1])
        x = rows.reshape(len(rows), -1)
        _apply_stage(rows, kernel, _synthesis_windows,
                     x.reshape(len(rows), rows.shape[2], block))
    return x.reshape(n_frames, n_sub * width)
