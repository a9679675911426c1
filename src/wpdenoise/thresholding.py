"""Threshold estimation and shrinkage rules for subband coefficients.

Four rules are provided:

- hard: zero below the magnitude threshold, keep (boundary included)
  otherwise;
- soft: shrink magnitudes toward zero by the threshold;
- semisoft: hard below t1, identity above t2, linear ramp between;
- band_hard: zero every coefficient whose *signed* value falls inside
  the closed interval [t1, t2], keep everything else unchanged.

The band interval is selected by comparing the noisy-coefficient
distribution with an estimated-noise distribution: bins are accepted
outward from the zero bin while their contribution to the symmetric
divergence stays within a tolerance.

The hard, soft and band_hard rules each have one body that writes its
output over a float64 array (_hard, _soft, _band_hard). The public
functions hand it signal_io.private_copy's new array of the
coefficients broadcast against the thresholds, so their input is left
as it was; the pipeline hands it its own leaves, block by block. The
bodies select by arithmetic, with no branch per value: a masked write
(np.copyto with where=) branches on each one, so its cost follows the
fraction zeroed, 0.57 ms at 2%, 2.30 ms at 50% and 2.09 ms at 74% over
the 480k leaves of a 15 s input on one CPU, where multiplying the int64
bits by NOT the drop mask takes 0.6 ms at every fraction.

Thresholds may be arrays that broadcast against the coefficients, e.g.
one threshold per (frame, subband) of a (frames, subbands, coeffs)
array with a trailing axis of length 1. The estimates reduce the last
axis: estimate_sigma gives one level per row of coefficients, and
select_band one band per row of a batch of distributions.

Every argument has one rule, and breaking it raises ValueError naming
it: coefficients are real numbers (signal_io.real_floats); thresholds,
sigma and the tolerance are levels, finite and >= 0 (signal_io.level);
band_hard's signed bounds are real with t1 <= t2; n is an integer
(signal_io.integer) >= 1.
"""

from __future__ import annotations

import math

import numpy as np

from .signal_io import integer, level, private_copy, real_floats, shown
from .stats import ProbabilityVector, check_shared_edges, zero_bin_index

# MAD-to-sigma factor for Gaussian data: median(|X|) = 0.6745 sigma.
_MAD_SCALE = 0.6745


def estimate_sigma(detail_coeffs):
    """Robust noise level of each row: median(|coeffs|) / 0.6745.

    The median is bit-equal to np.median's, from one selection instead
    of its two adjacent ones (see _mad_sigma). A 1-D input gives a numpy
    scalar, a batch one level per row; the input is never modified.
    """
    x = real_floats(detail_coeffs, "detail_coeffs")
    if x.ndim == 0:
        raise ValueError(f"cannot estimate sigma from an input of shape {x.shape}: "
                         "it needs a row of coefficients")
    if x.size == 0:
        raise ValueError("cannot estimate sigma from an empty vector")
    return _mad_sigma(np.abs(x))


def _mad_sigma(magnitudes: np.ndarray):
    """Median of each row of `magnitudes` / 0.6745; reorders the rows in place.

    np.median partitions around both middles of an even row (and its
    end, to find NaN), and that selection costs about six times one:
    3.3 ms against 0.53 ms for this function on a 240k-value row
    (2-core Xeon). One partition around n // 2 puts the upper middle
    there and every value at or below it before it, so the lower middle
    is the largest of those and the median their mean, (lo + hi) / 2,
    as np.median computes it. NaN sorts last, so a row holding one has
    it in its upper half; like np.median, such a row gives NaN.

    Where np.median's sum of the middles, or the division by 0.6745,
    would overflow (finite magnitudes near the float max), this raises
    ValueError naming the largest magnitude instead.
    """
    n = magnitudes.shape[-1]
    magnitudes.partition(n // 2, axis=-1)
    hi = magnitudes[..., n // 2]
    top = np.max(magnitudes[..., n // 2 :], axis=-1)
    try:
        with np.errstate(over="raise"):
            if n % 2:
                median = hi
            else:
                median = (np.max(magnitudes[..., : n // 2], axis=-1) + hi) / 2.0
            return np.where(np.isnan(top), top, median) / _MAD_SCALE
    except FloatingPointError:
        largest = float(np.max(magnitudes, where=np.isfinite(magnitudes), initial=0.0))
        raise ValueError(f"cannot estimate sigma from magnitudes up to {largest!r}: "
                         f"median(|x|) / {_MAD_SCALE} leaves the float range") from None


def universal_threshold(sigma, n: int):
    """sigma * sqrt(2 ln n), the classical shrinkage threshold.

    A threshold beyond the float range raises ValueError, as inf is no
    threshold.
    """
    sigma = level(sigma, "sigma")
    if integer(n, "n") < 1:
        raise ValueError("n must be >= 1")
    with np.errstate(over="ignore"):  # refused below
        t = sigma * math.sqrt(2.0 * math.log(n))
    if not np.all(np.isfinite(t)):
        raise ValueError(f"sigma * sqrt(2 ln n) leaves the float range at n = {shown(n)}")
    return t


def hard_threshold(coeffs, t) -> np.ndarray:
    """Zero entries with |w| < t; keep the rest (|w| = t is kept).

    Idempotent: applying the rule again changes nothing.
    """
    t = level(t, "threshold")
    w = real_floats(coeffs, "coeffs")
    return _hard(private_copy(w, coeffs, t), t)


def _hard(w: np.ndarray, t) -> np.ndarray:
    """hard_threshold written over `w`, a checked, writable float64 array."""
    return _drop(w, np.abs(w) < t)


def _drop(w: np.ndarray, drop) -> np.ndarray:
    """`w` with +0.0 written where `drop` holds, in place, by arithmetic:
    its int64 view times NOT drop. So a kept value keeps its bits, and
    NaN, for which every comparison is False, is kept."""
    bits = w.view(np.int64)
    bits *= ~drop
    return w


def soft_threshold(coeffs, t) -> np.ndarray:
    """sign(w) * max(|w| - t, 0).

    Not idempotent: it shrinks again on each pass, and applying it twice
    with t equals applying it once with 2t.
    """
    t = level(t, "threshold")
    w = real_floats(coeffs, "coeffs")
    return _soft(private_copy(w, coeffs, t), t)


def _soft(w: np.ndarray, t) -> np.ndarray:
    """soft_threshold written over `w`, a checked, writable float64 array.

    max(|w| - t, 0) negated where w < 0 is sign(w) times it exactly,
    +0.0 at w = -0.0 (copysign gives -0.0). The negation is a multiply
    by -1.0 where w < 0 and 1.0 elsewhere, which is exact: every value
    of max(|w| - t, 0) is >= 0 or a NaN, and no NaN is < 0. A masked
    negation branches on every value, and half the leaves are negative,
    the worst case for it: the body took 5.3 ms over a 15 s input's
    leaves with it and 1.2 ms with the multiply (one CPU).
    """
    sign = (w < 0) * -2.0
    sign += 1.0
    np.abs(w, out=w)
    w -= t
    np.maximum(w, 0.0, out=w)
    w *= sign
    return w


def semisoft_threshold(coeffs, t1, t2) -> np.ndarray:
    """Two-knee rule: 0 below t1, identity above t2, linear ramp between.

    Continuous in w; requires 0 <= t1 < t2. Not idempotent: the ramp
    re-maps its own output, and applying the rule twice equals applying
    it once with t1 replaced by t2 - (t2 - t1)**2 / t2 (t2 unchanged).
    """
    t1, t2 = level(t1, "t1"), level(t2, "t2")
    if not np.all(t1 < t2):
        raise ValueError("need 0 <= t1 < t2")
    w = real_floats(coeffs, "coeffs")
    mag = np.abs(w)
    # (|w| - t1) / (t2 - t1) of |w| held to [t1, t2] lies in [0, 1], so
    # no ramp value overflows, however large t2 is
    ramp = np.sign(w) * t2 * ((np.clip(mag, t1, t2) - t1) / (t2 - t1))
    return np.where(mag <= t1, 0.0, np.where(mag >= t2, w, ramp))


def band_hard_threshold(coeffs, t1, t2) -> np.ndarray:
    """Zero entries with t1 <= w <= t2 (signed, inclusive); keep the rest.

    Idempotent: applying the rule again changes nothing.
    """
    t1, t2 = real_floats(t1, "t1"), real_floats(t2, "t2")
    if not np.all(t1 <= t2):  # NaN fails
        raise ValueError("need t1 <= t2")
    w = real_floats(coeffs, "coeffs")
    return _band_hard(private_copy(w, coeffs, t1, t2), t1, t2)


def _band_hard(w: np.ndarray, t1, t2) -> np.ndarray:
    """band_hard_threshold written over `w`, a checked, writable float64 array."""
    return _drop(w, (w >= t1) & (w <= t2))


def select_band(
    p_ns: ProbabilityVector, p_n: ProbabilityVector, tolerance: float
) -> tuple:
    """Pick the noise band [t1, t2] around zero from two distributions.

    Starting from the bin containing 0, bins are accepted outward while
    their symmetric-divergence contribution
    |(p_ns_i - p_n_i) * ln(p_ns_i / p_n_i)| stays <= tolerance. The zero
    bin is always accepted. Returns the outer coefficient-value edges of
    the accepted run, (t1, t2), each with one value per row of p_ns and
    p_n (their rows broadcast).
    """
    check_shared_edges(p_ns, p_n)
    tolerance = level(tolerance, "tolerance")
    edges = p_ns.bin_edges
    contribution = np.abs(
        (p_ns.probs - p_n.probs) * np.log(p_ns.probs / p_n.probs)
    )
    center = zero_bin_index(edges)[..., None]
    bins = np.arange(contribution.shape[-1])
    rejected = ~(contribution <= tolerance)
    # The run stops just inside the nearest rejected bin on either side.
    left = np.max(np.where(rejected & (bins < center), bins, -1), axis=-1) + 1
    right = np.min(np.where(rejected & (bins > center), bins, len(bins)), axis=-1)
    edges = np.broadcast_to(edges, contribution.shape[:-1] + edges.shape[-1:])
    t1 = np.take_along_axis(edges, left[..., None], axis=-1)[..., 0]
    t2 = np.take_along_axis(edges, right[..., None], axis=-1)[..., 0]
    return t1, t2
