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

Every histogram finds each value's bin in O(1) (`_bin_index`) from the
first and last edge alone: the guess f(x) = (x - e0) * B / (eB - e0)
never decreases as x grows, so a guess farther from every whole number
than the edge row's largest |f(e_k) - k| lies strictly inside bin
floor(f(x)). Only the values within that slack of an edge line, few on
the uniform edges built here, look up the edges on either side and move
one bin at a time until those hold them; so the rule is exact for any
strictly increasing edges. The guess is clamped into range by one
np.clip, and when every edge row of a call has a proven slack, one
bound, the largest of them, picks the values to look up: a superset of
each row's, compared with a scalar. Values are binned and counted in
blocks of `_BLOCK_VALUES` (whole rows, or column slices of a longer
row), each block's bins added into the counts in place with np.add.at
(`_count`), so that every temporary stays the size of a block, not of
the input; the pipeline cuts its sweeps over the leaves by the same
budget and counts its blocks of frames with `_count` too. NaN has no
bin and is rejected; so are infinite values where the edges are chosen
from the values.

Each input has one rule, and breaking it raises ValueError naming the
input: values, edges and probabilities are real numbers
(`signal_io.real_floats`); edges are rows of B + 1 >= 2 finite values,
each above the one before it (`_edge_rows`, which compares and never
subtracts, so a span beyond the float range is no overflow); counts are
integers in [0, 2**63), totalled as float64; epsilon passes
`check_epsilon`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .signal_io import integer, real_floats, shown

# Half-width used to un-degenerate a single-valued sample range.
_DEGENERATE_HALF_SPAN = 1e-9

# The one block budget of every histogram and threshold sweep (256 kB
# of float64). row_histograms bins this many values at a time: whole
# rows, or column slices of a row longer than this, so `_bin_index`'s
# temporaries (a float guess, an index and a mask per value) stay in L2.
# The pipeline's sweeps over the leaves take their frames per block from
# it too: a block's largest array, its leaves or band selection's dense
# (frames, subbands, bins) counts, holds this many values. No temporary
# grows with the input. Twice this budget peaks
# above a leaf array + the signal + 1.5 MB on a 3 s universal-hard call.
_BLOCK_VALUES = 1 << 15


def bin_count(n_samples: int) -> int:
    """max(1, floor(sqrt(n)/2)) via exact integer arithmetic."""
    if integer(n_samples, "n_samples") < 1:
        raise ValueError("n_samples must be >= 1")
    return max(1, math.isqrt(n_samples) // 2)


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
        counts = np.asarray(self.counts)
        # an int beyond int64 makes an object array, and a float is no count
        if counts.dtype.kind not in "biu":
            raise ValueError(f"counts must be integers, got dtype {counts.dtype}")
        self.counts = counts.astype(np.int64, copy=False)
        self.bin_edges = _edge_rows(self.bin_edges, self.counts)
        if np.any(self.counts < 0):  # uint64 beyond int64 wraps below 0
            raise ValueError("counts must be non-negative and below 2**63")

    @property
    def total(self):
        """Values binned, one per row, summed as float64: that sum cannot
        wrap, and below 2**53 it is the exact integer."""
        return np.sum(self.counts, axis=-1, dtype=np.float64)

    @property
    def n_bins(self) -> int:
        return self.counts.shape[-1]


def _edge_rows(edges, per_bin=None, values=None) -> np.ndarray:
    """`edges` as float64 rows (last axis) of B + 1 finite, strictly
    increasing values, B >= 1, for the rows of `per_bin` (counts or
    probabilities, B their last axis) or of `values` when either is
    given: the edge rows then broadcast over theirs. Each edge is
    compared with the one before it, never subtracted, so no span
    overflows. Anything else raises ValueError.
    """
    e = real_floats(edges, "edges")
    width, lead = e.shape[-1:], e.shape[:-1]  # width () for a 0-d array
    batch = per_bin if values is None else values
    rows = lead if batch is None else batch.shape[:-1]
    over = len(lead) <= len(rows) and all(
        n in (1, m) for n, m in zip(lead[::-1], rows[::-1]))
    if width < (2,) or per_bin is not None and (
            per_bin.shape[-1:] != (width[0] - 1,) or not over):
        bins = "" if per_bin is None else f" for bins of shape {per_bin.shape}"
        raise ValueError(f"edges of shape {e.shape} are not rows of B + 1 >= 2 values{bins}")
    if not over:
        raise ValueError(f"edge rows {lead} do not broadcast over value rows {rows}")
    if not (np.all(np.isfinite(e)) and np.all(e[..., 1:] > e[..., :-1])):
        raise ValueError("edges must be finite and strictly increasing")
    return e


def _uniform_edges(lo, hi, n_bins: int) -> np.ndarray:
    """Uniform edges over [lo, hi], one (n_bins + 1) row per (lo, hi).

    Each row is lo + k * step with its last edge pinned to hi, which is
    np.linspace of that row alone wherever its step is not 0, so a row's
    edges never depend on the other rows. A single value is widened by
    +-1e-9 first. A row whose edges still do not strictly increase (a
    span of a few ulps or subnormals) gets bins of max(step, 4 ulps of
    its magnitude), centred on its range. A range too wide for float
    arithmetic (its span or its edges would overflow) raises ValueError.
    """
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise ValueError(
            "cannot choose bin edges for NaN or infinite values; explicit edges "
            "clamp infinities into the end bins"
        )
    half = np.where(lo == hi, _DEGENERATE_HALF_SPAN, 0.0)
    lo, hi = (lo - half)[..., None], (hi + half)[..., None]
    k = np.arange(n_bins + 1)
    try:
        with np.errstate(over="raise"):
            step = (hi - lo) / n_bins
            edges = lo + k * step
            edges[..., -1:] = hi
            bad = np.any(np.diff(edges, axis=-1) <= 0, axis=-1, keepdims=True)
            width = np.maximum(step, 4 * np.spacing(np.maximum(np.abs(lo), np.abs(hi))))
            return np.where(bad, (lo / 2 + hi / 2 - width * (n_bins / 2)) + k * width, edges)
    except FloatingPointError:
        raise ValueError(f"cannot choose bin edges over [{np.min(lo)}, {np.max(hi)}]: "
                         "the range reaches beyond the largest float") from None


def _bin_index(x: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Bin of every value of `x` against `edges`, in O(1) per value.

    The rule is np.histogram's (right-open bins, last bin closed), with
    values below the first edge or above the last clamped into the end
    bins. Edges are (B + 1,) shared by every row of `x`, or (..., B + 1)
    per row, broadcast over the leading axes of `x`.

    The guess is f(x) = (x - e0) * (B / (eB - e0)), clipped to
    [0.5, B - 0.5] by one np.clip. Under IEEE rounding f never decreases
    as x grows, so f(x) < f(e_k) means x < e_k and f(x) > f(e_k) means
    x > e_k. With slack = max_k |f(e_k) - k| for the edge row, a guess
    more than slack from every whole number lies strictly inside bin
    floor(f(x)), and that is its bin. Only the other values are looked
    up: each steps one bin down where x < edges[i] (i > 0) or one bin up
    where x >= edges[i + 1] (i < B - 1), until none moves. When every
    row's slack is proven (below 0.5), they are the values within the
    largest slack of the call of an edge line: one scalar bound, which
    marks a superset of each row's. Otherwise each row keeps its own
    slack, and every value of a row whose scale is 0, inf or NaN (its
    slack is NaN, and a guess of its may be NaN, set to 0.5 first) is
    looked up; values are not NaN, so no proven row has a NaN guess. A
    value stops only inside its own bin, so the result is exact for any
    strictly increasing edges; non-uniform edges have a large slack and
    take the steps throughout.
    """
    n_bins = edges.shape[-1] - 1
    lo = edges[..., :1]
    # Edges spanning more than the float range give a scale of 0 (a
    # subnormal span one of inf), so f is NaN at an edge and so is slack.
    with np.errstate(over="ignore", invalid="ignore"):
        scale = n_bins / (edges[..., -1:] - lo)
        slack = np.max(
            np.abs((edges - lo) * scale - np.arange(n_bins + 1)), axis=-1, keepdims=True
        )
        guess = x - lo
        guess *= scale
    proven = slack < 0.5
    if np.all(proven):  # one bound for the block: the rows' largest slack
        bound = slack.max()
    else:  # an unproven row's guesses may be NaN, and each of its values steps
        np.fmax(guess, 0.5, out=guess)
        slack[~proven] = np.inf
        bound = slack
    np.clip(guess, 0.5, n_bins - 0.5, out=guess)
    idx = guess.astype(np.intp)
    # |f - round(f)| is exact for f in [0.5, B - 0.5]
    off = np.rint(guess)
    np.subtract(guess, off, out=off)
    unsure = np.flatnonzero(np.abs(off, out=off) <= bound)
    if not unsure.size:
        return idx
    # The edges below and above each bin, one row of B per edge row; NaN
    # (never compared true) where the end bins reach out to infinity.
    rows = edges.reshape(-1, n_bins + 1)
    below = rows[:, :-1].copy()
    below[:, 0] = np.nan
    above = rows[:, 1:].copy()
    above[:, -1] = np.nan
    at = np.unravel_index(unsure, x.shape)
    row_of = np.arange(len(rows)).reshape(edges.shape[:-1] + (1,))
    base = n_bins * np.broadcast_to(row_of, x.shape)[at]
    xs, sub = x[at], idx[at] + base
    moving = slice(None)  # every unsure value, then only the ones that moved
    while True:
        xm, sm = xs[moving], sub[moving]
        down = xm < below.take(sm, mode="clip")
        up = xm >= above.take(sm, mode="clip")
        sm += up
        sm -= down
        sub[moving] = sm
        moved = np.flatnonzero(up | down)
        if not moved.size:
            break
        moving = moved if isinstance(moving, slice) else moving[moved]
    idx[at] = sub - base
    return idx


def row_histograms(values, edges=None) -> Histogram:
    """One histogram per row (last axis) of `values`, in blocks of values.

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
    x = real_floats(values, "values")
    if x.ndim == 0 or x.size == 0:
        raise ValueError("cannot histogram an empty sample")
    if edges is None:
        lo = np.min(x, axis=-1)
        _check_no_nan(lo)  # a row's min is NaN where the row holds one
        edges = _uniform_edges(lo, np.max(x, axis=-1), bin_count(x.shape[-1]))
    else:
        _check_no_nan(x)
        edges = _edge_rows(edges, values=x)
    n_bins = edges.shape[-1] - 1
    width = x.shape[-1]
    rows = x.reshape(-1, width)
    if edges.ndim > 1:  # one edge row per value row, as large as the counts
        edge_rows = np.broadcast_to(edges, x.shape[:-1] + (n_bins + 1,))
        edge_rows = edge_rows.reshape(-1, n_bins + 1)
    counts = np.zeros((len(rows), n_bins), dtype=np.int64)
    step = max(1, _BLOCK_VALUES // width)  # rows per block
    cols = min(width, _BLOCK_VALUES)  # values per block row
    for r in range(0, len(rows), step):
        block_edges = edges if edges.ndim == 1 else edge_rows[r : r + step]
        for c in range(0, width, cols):
            # a slice of whole rows of counts is C-ordered: _count adds into it
            _count(counts[r : r + step], rows[r : r + step, c : c + cols], block_edges)
    return Histogram(bin_edges=edges, counts=counts.reshape(x.shape[:-1] + (n_bins,)))


def _check_no_nan(x: np.ndarray) -> None:
    """Refuse values to bin that hold a NaN, which has no bin."""
    if np.isnan(np.min(x)):  # np.min propagates NaN
        raise ValueError("cannot histogram NaN values")


def _count(counts: np.ndarray, x: np.ndarray, edges: np.ndarray) -> None:
    """Add the bins of `x` (..., R..., n) into `counts` (R..., B), in place.

    `counts` is C-ordered int64, so that its flat reshape is a view; row r
    of it takes the values x[..., r, :], binned (`_bin_index`) on
    `edges`, (B + 1,) or one (R..., B + 1) row per count row. The bins
    are offset by B times the row and added with np.add.at.
    """
    n_bins = counts.shape[-1]
    idx = _bin_index(x, edges)
    if counts.size > n_bins:
        idx += n_bins * np.arange(counts.size // n_bins).reshape(counts.shape[:-1] + (1,))
    np.add.at(counts.reshape(-1), idx.reshape(-1), 1)


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
        self.probs = real_floats(self.probs, "probs")
        self.bin_edges = _edge_rows(self.bin_edges, self.probs)
        check_epsilon(self.epsilon, self.n_bins)
        # no entry of a row summing to 1 is above 1 + 1e-12; nor is NaN
        if not np.all((self.probs >= self.epsilon) & (self.probs <= 1.0 + 1e-12)):
            raise ValueError("all probabilities must be in [epsilon, 1]")
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

    to_probability needs epsilon < 1/B, and the divergences divide by
    probabilities of at least epsilon, so epsilon must also be at least
    the smallest normal float (2.2e-308), where 1/epsilon is finite. No
    int, bool or array is such a float, so none is taken. A run checks
    the largest B it will build up front, so it fails before any
    transform.
    """
    is_float = isinstance(epsilon, (float, np.floating))
    if not (is_float and sys.float_info.min <= epsilon < 1.0 / n_bins):
        raise ValueError(
            f"epsilon={shown(epsilon)} must be in (0, 1/{n_bins}) = (0, {1.0 / n_bins:.6g}), "
            f"a float of at least 2.2e-308: this run builds {n_bins}-bin histograms"
        )


def to_probability(h: Histogram, epsilon: float) -> ProbabilityVector:
    """Estimate bin probabilities with an epsilon floor.

    Raw frequencies are floored at epsilon and the above-floor mass is
    rescaled so the result sums to exactly 1; requires
    0 < epsilon < 1/B. A batch of histograms gives a batch of vectors.
    """
    b = h.n_bins
    check_epsilon(epsilon, b)
    total = h.total[..., None]
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
    edges = _edge_rows(edges)
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
    a = np.atleast_1d(real_floats(values_a, "values_a"))
    b = np.atleast_1d(real_floats(values_b, "values_b"))
    if a.size == 0 or b.size == 0:
        raise ValueError("cannot derive edges from an empty sample")
    return _uniform_edges(
        np.minimum(np.min(a, axis=-1), np.min(b, axis=-1)),
        np.maximum(np.max(a, axis=-1), np.max(b, axis=-1)),
        bin_count(min(a.shape[-1], b.shape[-1])),
    )
