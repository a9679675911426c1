"""Coefficient histograms, probability estimates, entropy and divergences.

Bin count follows the square-root rule B = max(1, floor(sqrt(N)/2)).
Divergences use natural logs; probability vectors carry a smoothing
floor so log-ratios stay finite even for empty bins. Distributions are
only comparable bin-by-bin, so cross-distribution operations insist on
shared bin edges; build histograms with an explicit `edges` argument
(out-of-range values are clamped into the end bins) to put two samples
on common support.

Histograms and probability vectors hold a batch: counts and probs of
shape (..., B) over edges of shape (B + 1,) shared by every row or
(..., B + 1) per row. `row_histograms` bins every row of an array in
one call; `to_probability`, `entropy`, the divergences and
`zero_bin_index` then reduce over the last axis, row by row. A single
row is a batch of one, and its reductions are numpy scalars.

Every histogram finds each value's bin in O(1) (`_bin_index`): a guess
from the first and last edge, moved one bin at a time until the edges
on either side hold it. That is exact for any strictly increasing
edges, and one corrected pass on the uniform edges built here. NaN
has no bin and is rejected; so are infinite values where the edges
are chosen from the values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Half-width used to un-degenerate a single-valued sample range.
_DEGENERATE_HALF_SPAN = 1e-9


def bin_count(n_samples: int) -> int:
    """max(1, floor(sqrt(n)/2)) via exact integer arithmetic."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    return max(1, math.isqrt(int(n_samples)) // 2)


@dataclass
class Histogram:
    """Binned counts over strictly increasing edges.

    Bins are right-open, except the last bin which also includes its
    right edge; counts always sum to the number of values binned. A
    batch holds counts (..., B) over edges (B + 1,) or (..., B + 1).
    """

    bin_edges: np.ndarray  # (..., B + 1)
    counts: np.ndarray  # (..., B), non-negative ints

    def __post_init__(self):
        self.bin_edges = np.asarray(self.bin_edges, dtype=np.float64)
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.bin_edges.shape[-1:] != (self.counts.shape[-1] + 1,):
            raise ValueError("need exactly len(counts) + 1 edges")
        if not (
            np.all(np.isfinite(self.bin_edges)) and np.all(np.diff(self.bin_edges) > 0)
        ):
            raise ValueError("bin_edges must be finite and strictly increasing")
        if np.any(self.counts < 0):
            raise ValueError("counts must be non-negative")

    @property
    def total(self):
        """Values binned, one per row."""
        return np.sum(self.counts, axis=-1)

    @property
    def n_bins(self) -> int:
        return self.counts.shape[-1]


def _uniform_edges(lo, hi, n_bins: int) -> np.ndarray:
    """np.linspace edges over [lo, hi], one (n_bins + 1) row per (lo, hi).

    A range too narrow to hold n_bins + 1 strictly increasing floats is
    widened on both sides: a single value by +-1e-9, and wherever the
    edges still collapse (at large magnitudes, or a span of a few ulps)
    by 4 * n_bins ulps of the range's magnitude, so every bin is several
    ulps wide.
    """
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise ValueError(
            "cannot choose bin edges for NaN or infinite values; explicit edges "
            "clamp infinities into the end bins"
        )
    half = np.where(lo == hi, _DEGENERATE_HALF_SPAN, 0.0)
    edges = np.linspace(lo - half, hi + half, n_bins + 1, axis=-1)
    tight = np.any(np.diff(edges, axis=-1) <= 0, axis=-1)
    if np.any(tight):
        ulps = 4 * n_bins * np.spacing(np.maximum(np.abs(lo), np.abs(hi)))
        half = np.where(tight, np.maximum(half, ulps), half)
        edges = np.linspace(lo - half, hi + half, n_bins + 1, axis=-1)
    return edges


def _bin_index(x: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Bin of every value of `x` against `edges`, in O(1) per value.

    The rule is np.histogram's (right-open bins, last bin closed), with
    values below the first edge or above the last clamped into the end
    bins. Edges are (B + 1,) shared by every row of `x`, or (..., B + 1)
    per row, broadcast over the leading axes of `x`.

    The guess floor((x - e0) * B / (eB - e0)), clipped to [0, B - 1], is
    the bin itself for exactly uniform edges. Each value then steps one
    bin down where x < edges[i] (i > 0) or one bin up where
    x >= edges[i + 1] (i < B - 1), and the values that moved are checked
    again until none moves. A value stops only inside its own bin, so
    the result is exact for any strictly increasing edges; for the
    np.linspace edges the library builds, the guess is off by at most
    one bin and the loop ends after one corrected pass.
    """
    n_bins = edges.shape[-1] - 1
    lo = edges[..., :1]
    # Edges spanning more than the float range give a scale of 0, and
    # inf * 0 = NaN, which fmax/fmin map into range like any off guess.
    with np.errstate(over="ignore", invalid="ignore"):
        guess = x - lo
        guess *= n_bins / (edges[..., -1:] - lo)
    np.fmin(np.fmax(guess, 0, out=guess), n_bins - 1, out=guess)
    idx = guess.astype(np.intp)
    # The edges below and above each bin, one row of B per edge row; NaN
    # (never compared true) where the end bins reach out to infinity.
    rows = edges.reshape(-1, n_bins + 1)
    below = rows[:, :-1].copy()
    below[:, 0] = np.nan
    above = rows[:, 1:].copy()
    above[:, -1] = np.nan
    base = n_bins * np.arange(len(rows)).reshape(edges.shape[:-1] + (1,))
    idx += base
    # the guess's memory holds the edges looked up: indices are in range
    flat_x, flat_idx, edge = x.reshape(-1), idx.reshape(-1), guess.reshape(-1)
    at = slice(None)  # every value, then only the ones that moved
    while True:
        xs, sub = flat_x[at], flat_idx[at]
        lookup = edge[: sub.size]
        down = xs < below.take(sub, out=lookup, mode="clip")
        up = xs >= above.take(sub, out=lookup, mode="clip")
        sub += up
        sub -= down
        flat_idx[at] = sub
        moved = np.flatnonzero(up | down)
        if not moved.size:
            break
        at = moved if isinstance(at, slice) else at[moved]
    idx -= base
    return idx


def row_histograms(values, edges=None) -> Histogram:
    """One histogram per row (last axis) of `values`, in one pass.

    Without `edges`, each row gets the square-root-rule bins over its
    own [min, max] (np.linspace, widened when degenerate, see
    `_uniform_edges`). With `edges`, either one (B + 1,) support shared
    by every row or one (..., B + 1) support per row, broadcast over the
    leading axes of `values`; out-of-range values, infinities included,
    are clamped into the end bins. Row r's counts equal np.histogram's
    for that row clamped into [edges[0], edges[-1]], exactly.

    NaN has no bin and raises ValueError, as do infinite values when the
    edges are chosen from the values.
    """
    x = np.asarray(values, dtype=np.float64)
    if x.ndim == 0 or x.shape[-1] == 0:
        raise ValueError("cannot histogram an empty sample")
    if np.isnan(np.min(x)):  # np.min propagates NaN
        raise ValueError("cannot histogram NaN values")
    if edges is None:
        edges = _uniform_edges(
            np.min(x, axis=-1), np.max(x, axis=-1), bin_count(x.shape[-1])
        )
    else:
        edges = np.asarray(edges, dtype=np.float64)
        if (
            edges.shape[-1] < 2
            or not np.all(np.isfinite(edges))
            or not np.all(np.diff(edges) > 0)
        ):
            raise ValueError("edges must be finite and strictly increasing, length >= 2")
        if np.broadcast_shapes(edges.shape[:-1], x.shape[:-1]) != x.shape[:-1]:
            raise ValueError(
                f"edge rows {edges.shape[:-1]} do not broadcast over value rows "
                f"{x.shape[:-1]}"
            )
    n_bins = edges.shape[-1] - 1
    idx = _bin_index(x, edges)
    rows = idx.reshape(-1, x.shape[-1])
    rows += n_bins * np.arange(len(rows))[:, None]
    counts = np.bincount(rows.ravel(), minlength=len(rows) * n_bins)
    return Histogram(bin_edges=edges, counts=counts.reshape(x.shape[:-1] + (n_bins,)))


@dataclass
class ProbabilityVector:
    """Normalised distribution estimate with an epsilon floor.

    Every entry is >= epsilon > 0 and the entries sum to 1 (within
    1e-12), so log-ratios against another vector on the same edges are
    always finite. A batch holds probs (..., B), each row a distribution,
    over edges (B + 1,) or (..., B + 1).
    """

    probs: np.ndarray
    bin_edges: np.ndarray
    epsilon: float

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=np.float64)
        self.bin_edges = np.asarray(self.bin_edges, dtype=np.float64)
        if self.bin_edges.shape[-1:] != (self.probs.shape[-1] + 1,):
            raise ValueError("need exactly len(probs) + 1 edges")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if np.any(self.probs < self.epsilon):
            raise ValueError("all probabilities must be >= epsilon")
        if np.any(np.abs(np.sum(self.probs, axis=-1) - 1.0) > 1e-12):
            raise ValueError("probabilities must sum to 1")

    @property
    def n_bins(self) -> int:
        return self.probs.shape[-1]

    @property
    def bin_centers(self) -> np.ndarray:
        return 0.5 * (self.bin_edges[..., :-1] + self.bin_edges[..., 1:])


def check_epsilon(epsilon: float, n_bins: int) -> None:
    """Reject an epsilon floor that an n_bins histogram cannot take.

    to_probability needs 0 < epsilon < 1/B; a run checks the largest B
    it will build up front, so it fails before any transform.
    """
    if not 0 < epsilon < 1.0 / n_bins:
        raise ValueError(
            f"epsilon={epsilon:g} must be in (0, 1/{n_bins}) = "
            f"(0, {1.0 / n_bins:.6g}): this run builds {n_bins}-bin histograms"
        )


def to_probability(h: Histogram, epsilon: float) -> ProbabilityVector:
    """Estimate bin probabilities with an epsilon floor.

    Raw frequencies are floored at epsilon and the above-floor mass is
    rescaled so the result sums to exactly 1; requires
    0 < epsilon < 1/B. A batch of histograms gives a batch of vectors.
    """
    b = h.n_bins
    check_epsilon(epsilon, b)
    total = np.sum(h.counts, axis=-1, keepdims=True)
    if np.any(total == 0):
        raise ValueError("histogram has zero total count")
    raw = h.counts / total
    floored = np.maximum(raw, epsilon)
    above = floored - epsilon
    scale = (1.0 - b * epsilon) / np.sum(above, axis=-1, keepdims=True)
    probs = epsilon + above * scale
    return ProbabilityVector(probs=probs, bin_edges=h.bin_edges, epsilon=epsilon)


def check_shared_edges(p: ProbabilityVector, q: ProbabilityVector) -> None:
    """Reject two distributions that are not binned on identical edges."""
    if p.n_bins != q.n_bins or not np.array_equal(p.bin_edges, q.bin_edges):
        raise ValueError("distributions must share identical bin edges")


def kl_divergence(p: ProbabilityVector, q: ProbabilityVector):
    """sum_i p_i * ln(p_i / q_i) in nats; >= 0, 0 iff p == q."""
    check_shared_edges(p, q)
    return np.sum(p.probs * np.log(p.probs / q.probs), axis=-1)


def symmetric_divergence(p_ns: ProbabilityVector, p_n: ProbabilityVector):
    """Two-way divergence D(p||q) + D(q||p); symmetric in its arguments."""
    return kl_divergence(p_ns, p_n) + kl_divergence(p_n, p_ns)


def entropy(p: ProbabilityVector):
    """-sum_i p_i * ln(p_i), in [0, ln B]."""
    return -np.sum(p.probs * np.log(p.probs), axis=-1)


def zero_bin_index(edges: np.ndarray):
    """Index of the bin containing 0 in each edge row; raises if a row misses 0."""
    edges = np.asarray(edges, dtype=np.float64)
    if np.any(edges[..., 0] > 0) or np.any(edges[..., -1] < 0):
        raise ValueError("bin support does not cover 0")
    return np.minimum(np.sum(edges <= 0.0, axis=-1) - 1, edges.shape[-1] - 2)


def ratio_profile(p_ns: ProbabilityVector, p_n: ProbabilityVector) -> list:
    """Per-bin probability ratios, nearest-to-zero bins first.

    Returns (bin_center, p_ns_i / p_n_i) pairs sorted by |bin_center|
    ascending, so the first entries show how the two distributions agree
    around zero. The edges must straddle 0.
    """
    check_shared_edges(p_ns, p_n)
    zero_bin_index(p_ns.bin_edges)  # validates the support
    centers = p_ns.bin_centers
    ratios = p_ns.probs / p_n.probs
    order = np.argsort(np.abs(centers), kind="stable")
    return [(float(centers[i]), float(ratios[i])) for i in order]


def shared_edges(values_a, values_b) -> np.ndarray:
    """Common uniform edges spanning the pooled range of two samples.

    The bin count follows the square-root rule applied to the smaller
    sample, so both histograms populate the shared bins. Rows (last
    axis) pair up: samples (..., n_a) and (..., n_b) give one (B + 1)
    support per row pair, with B = bin_count(min(n_a, n_b)).
    """
    a = np.atleast_1d(np.asarray(values_a, dtype=np.float64))
    b = np.atleast_1d(np.asarray(values_b, dtype=np.float64))
    if a.size == 0 or b.size == 0:
        raise ValueError("cannot derive edges from an empty sample")
    return _uniform_edges(
        np.minimum(np.min(a, axis=-1), np.min(b, axis=-1)),
        np.maximum(np.max(a, axis=-1), np.max(b, axis=-1)),
        bin_count(min(a.shape[-1], b.shape[-1])),
    )
