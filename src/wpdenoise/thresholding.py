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

Thresholds may be arrays that broadcast against the coefficients, e.g.
one threshold per (frame, subband) of a (frames, subbands, coeffs)
array with a trailing axis of length 1. The estimates reduce the last
axis: estimate_sigma gives one level per row of coefficients, and
select_band one band per row of a batch of distributions.
"""

from __future__ import annotations

import math

import numpy as np

from .stats import ProbabilityVector, check_shared_edges, zero_bin_index

# MAD-to-sigma factor for Gaussian data: median(|X|) = 0.6745 sigma.
_MAD_SCALE = 0.6745


def estimate_sigma(detail_coeffs):
    """Robust noise level of each row: median(|coeffs|) / 0.6745."""
    x = np.asarray(detail_coeffs, dtype=np.float64)
    if x.size == 0:
        raise ValueError("cannot estimate sigma from an empty vector")
    return np.median(np.abs(x), axis=-1) / _MAD_SCALE


def universal_threshold(sigma, n: int):
    """sigma * sqrt(2 ln n), the classical shrinkage threshold."""
    if np.any(np.asarray(sigma) < 0):
        raise ValueError("sigma must be non-negative")
    if n < 1:
        raise ValueError("n must be >= 1")
    return sigma * math.sqrt(2.0 * math.log(n))


def hard_threshold(coeffs, t) -> np.ndarray:
    """Zero entries with |w| < t; keep the rest (|w| = t is kept).

    Idempotent: applying the rule again changes nothing.
    """
    if np.any(np.asarray(t) < 0):
        raise ValueError("threshold must be non-negative")
    w = np.asarray(coeffs, dtype=np.float64)
    return np.where(np.abs(w) < t, 0.0, w)


def soft_threshold(coeffs, t) -> np.ndarray:
    """sign(w) * max(|w| - t, 0).

    Not idempotent: it shrinks again on each pass, and applying it twice
    with t equals applying it once with 2t.
    """
    if np.any(np.asarray(t) < 0):
        raise ValueError("threshold must be non-negative")
    w = np.asarray(coeffs, dtype=np.float64)
    return np.sign(w) * np.maximum(np.abs(w) - t, 0.0)


def semisoft_threshold(coeffs, t1, t2) -> np.ndarray:
    """Two-knee rule: 0 below t1, identity above t2, linear ramp between.

    Continuous in w; requires 0 <= t1 < t2. Not idempotent: the ramp
    re-maps its own output, and applying the rule twice equals applying
    it once with t1 replaced by t2 - (t2 - t1)**2 / t2 (t2 unchanged).
    """
    t1, t2 = np.asarray(t1), np.asarray(t2)
    if not np.all((0 <= t1) & (t1 < t2)):
        raise ValueError("need 0 <= t1 < t2")
    w = np.asarray(coeffs, dtype=np.float64)
    mag = np.abs(w)
    ramp = np.sign(w) * t2 * (mag - t1) / (t2 - t1)
    return np.where(mag <= t1, 0.0, np.where(mag >= t2, w, ramp))


def band_hard_threshold(coeffs, t1, t2) -> np.ndarray:
    """Zero entries with t1 <= w <= t2 (signed, inclusive); keep the rest.

    Idempotent: applying the rule again changes nothing.
    """
    if np.any(np.asarray(t1) > np.asarray(t2)):
        raise ValueError("need t1 <= t2")
    w = np.asarray(coeffs, dtype=np.float64)
    return np.where((w >= t1) & (w <= t2), 0.0, w)


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
    if tolerance < 0:
        raise ValueError("tolerance must be non-negative")
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
