"""Scalar reference for the batched packet core.

This is the per-frame implementation the library used before its core
became one (frames, subbands, coeffs) array: a dict-of-nodes packet tree
per frame, per-frame, per-subband loops for VUV classification,
band selection, thresholding and the report records, overlap-add
one frame at a time, the report writer that builds the whole
schema-v1 dict and hands it to json.dumps, and the histogram bin
index by binary search. The tests compare the library against it; it
is not part of the package.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from wpdenoise.framing import FrameSet, make_frames, window_values
from wpdenoise.signal_io import SignalBuffer
from wpdenoise.stats import (
    ProbabilityVector,
    bin_count,
    entropy,
    row_histograms,
    to_probability,
    zero_bin_index,
)
from wpdenoise.thresholding import (
    band_hard_threshold,
    estimate_sigma,
    hard_threshold,
    soft_threshold,
    universal_threshold,
)
from wpdenoise.wavelet import FilterBank, filter_bank


def _gather_indices(n: int, taps: int) -> np.ndarray:
    """Row k holds the circular sample positions (2m + k) mod n."""
    starts = 2 * np.arange(n // 2)
    return np.stack([(starts + k) % n for k in range(taps)])


def analysis_step(input_vec, fb: FilterBank):
    """One circular filter-and-decimate split of a single vector."""
    x = np.asarray(input_vec, dtype=np.float64)
    n = len(x)
    if n % 2:
        raise ValueError(f"input length {n} must be even")
    if n < len(fb):
        raise ValueError(f"input length {n} shorter than filter length {len(fb)}")
    seg = x[_gather_indices(n, len(fb))]  # (taps, n//2)
    return fb.lowpass @ seg, fb.highpass @ seg


def synthesis_step(approx, detail, fb: FilterBank) -> np.ndarray:
    """Exact inverse of analysis_step for a single vector pair."""
    a = np.asarray(approx, dtype=np.float64)
    d = np.asarray(detail, dtype=np.float64)
    if a.shape != d.shape:
        raise ValueError(f"length mismatch: {len(a)} vs {len(d)}")
    n = 2 * len(a)
    idx = _gather_indices(n, len(fb))
    out = np.zeros(n)
    for k in range(len(fb)):
        out[idx[k]] += fb.lowpass[k] * a + fb.highpass[k] * d
    return out


def bin_index(x, edges) -> np.ndarray:
    """Bin of every value: the number of inner edges at or below it.

    That is np.histogram's rule (right-open bins, last bin closed), with
    values below the first edge or above the last clamped into the end
    bins. Shared edges use one binary search; per-row edges count their
    inner edges one at a time.
    """
    inner = edges[..., 1:-1]
    if inner.ndim == 1:
        return np.searchsorted(inner, x, side="right")
    idx = np.zeros(np.shape(x), dtype=np.intp)
    for j in range(inner.shape[-1]):
        idx += x >= inner[..., j, None]
    return idx


@dataclass
class CoefficientTree:
    """Complete packet tree for one frame: node (level, index) -> vector."""

    depth: int
    frame_len: int
    filter: FilterBank
    nodes: dict

    @property
    def leaves(self) -> list:
        return [self.nodes[(self.depth, i)] for i in range(1 << self.depth)]

    def node(self, level: int, index: int) -> np.ndarray:
        return self.nodes[(level, index)]


def wp_decompose(frame, fb: FilterBank, depth: int) -> CoefficientTree:
    """Full packet expansion of one frame down to `depth` levels."""
    x = np.asarray(frame, dtype=np.float64)
    nodes = {(0, 0): x.copy()}
    for level in range(depth):
        for i in range(1 << level):
            approx, detail = analysis_step(nodes[(level, i)], fb)
            nodes[(level + 1, 2 * i)] = approx
            nodes[(level + 1, 2 * i + 1)] = detail
    return CoefficientTree(depth=depth, frame_len=len(x), filter=fb, nodes=nodes)


def wp_reconstruct(leaves, fb: FilterBank) -> np.ndarray:
    """Rebuild one frame from its list of leaf vectors."""
    current = [np.asarray(leaf, dtype=np.float64) for leaf in leaves]
    while len(current) > 1:
        current = [
            synthesis_step(current[2 * i], current[2 * i + 1], fb)
            for i in range(len(current) // 2)
        ]
    return current[0]


def select_band(p_ns: ProbabilityVector, p_n: ProbabilityVector, tolerance: float):
    """Outward run from the zero bin while contributions stay <= tolerance."""
    edges = p_ns.bin_edges
    contribution = np.abs((p_ns.probs - p_n.probs) * np.log(p_ns.probs / p_n.probs))
    center = zero_bin_index(edges)
    left = center
    while left > 0 and contribution[left - 1] <= tolerance:
        left -= 1
    right = center
    while right < len(contribution) - 1 and contribution[right + 1] <= tolerance:
        right += 1
    return float(edges[left]), float(edges[right + 1])


def classify_vuv(leaves, entropy_threshold: float, epsilon: float) -> str:
    """Entropy of one frame's pooled leaves; below the threshold is unvoiced."""
    p = to_probability(row_histograms(np.concatenate(leaves)), epsilon)
    return "unvoiced" if entropy(p) < entropy_threshold else "voiced"


def _noise_distribution(coeffs, epsilon):
    b = bin_count(len(coeffs))
    if b % 2 == 0:
        b += 1
    span = float(np.max(np.abs(coeffs)))
    if span == 0.0:
        span = 1e-9
    edges = np.linspace(-span, span, b + 1)
    return to_probability(row_histograms(coeffs, edges=edges), epsilon)


def noise_profile(signal: SignalBuffer, config) -> list:
    """Per-subband (sigma, distribution) pairs, frame by frame."""
    fb = filter_bank(config.wavelet)
    n_sub = 1 << config.depth
    if config.noise_estimation == "leading_silence":
        span = int(round(config.silence_ms / 1000.0 * signal.sample_rate_hz))
        lead = SignalBuffer(signal.samples[:span].copy(), signal.sample_rate_hz)
        frames = make_frames(lead, config.frame_len, config.hop, config.window)
        n_full = (span - config.frame_len) // config.hop + 1
        per_leaf = [[] for _ in range(n_sub)]
        for frame in frames.frames[:n_full]:
            for i, leaf in enumerate(wp_decompose(frame, fb, config.depth).leaves):
                per_leaf[i].append(leaf)
        pools = [np.concatenate(chunks) for chunks in per_leaf]
        return [
            (estimate_sigma(c), _noise_distribution(c, config.epsilon)) for c in pools
        ]
    frames = make_frames(signal, config.frame_len, config.hop, config.window)
    details = [wp_decompose(f, fb, config.depth).node(1, 1) for f in frames.frames]
    pooled = np.concatenate(details)
    entry = (estimate_sigma(pooled), _noise_distribution(pooled, config.epsilon))
    return [entry] * n_sub


def overlap_add(frames: FrameSet) -> np.ndarray:
    """Weighted overlap-add samples, accumulated one frame at a time."""
    w = window_values(frames.window, frames.frame_len)
    padded_len = (frames.n_frames - 1) * frames.hop + frames.frame_len
    numerator = np.zeros(padded_len)
    denominator = np.zeros(padded_len)
    for k, frame in enumerate(frames.frames):
        start = k * frames.hop
        numerator[start : start + frames.frame_len] += w * frame
        denominator[start : start + frames.frame_len] += w * w
    span = frames.original_len
    return numerator[:span] / denominator[:span]


def enhance(noisy: SignalBuffer, config):
    """Per-frame pipeline; returns (enhanced samples, per-frame records).

    Each record is (vuv, [(sigma, threshold, band, n_zero_pre,
    n_zero_post) per subband]), the fields of report schema v1.
    """
    fb = filter_bank(config.wavelet)
    profile = noise_profile(noisy, config)
    frames = make_frames(noisy, config.frame_len, config.hop, config.window)
    if config.entropy_threshold is not None:
        entropy_threshold = config.entropy_threshold
    else:
        entropy_threshold = math.log(bin_count(config.frame_len)) / 2.0
    n_coeff = config.frame_len >> config.depth
    records = []
    out_frames = np.empty_like(frames.frames)
    for f_idx, frame in enumerate(frames.frames):
        leaves = wp_decompose(frame, fb, config.depth).leaves
        vuv = (
            classify_vuv(leaves, entropy_threshold, config.epsilon)
            if config.vuv_enabled
            else None
        )
        new_leaves, subs = [], []
        for s_idx, leaf in enumerate(leaves):
            sigma, dist = profile[s_idx]
            if config.method == "band":
                p_ns = to_probability(
                    row_histograms(leaf, edges=dist.bin_edges), config.epsilon
                )
                t1, t2 = select_band(p_ns, dist, config.band_tolerance)
                out = band_hard_threshold(leaf, t1, t2)
                threshold, band = None, (t1, t2)
            else:
                t = universal_threshold(sigma, n_coeff)
                if vuv == "unvoiced":
                    t *= config.unvoiced_scale
                rule = hard_threshold if config.method == "universal-hard" else soft_threshold
                out = rule(leaf, t)
                threshold, band = t, None
            new_leaves.append(out)
            subs.append((
                sigma, threshold, band,
                int(np.count_nonzero(leaf == 0.0)), int(np.count_nonzero(out == 0.0)),
            ))
        out_frames[f_idx] = wp_reconstruct(new_leaves, fb)
        records.append((vuv, subs))
    enhanced = overlap_add(
        FrameSet(out_frames, frames.frame_len, frames.hop, frames.window,
                 frames.original_len, frames.sample_rate_hz)
    )
    return enhanced, records


def v1_json(report) -> str:
    """The report text: the whole schema-v1 dict through json.dumps."""
    sigma = np.asarray(report.sigma).tolist()
    pre = np.asarray(report.n_zero_pre).tolist()
    post = np.asarray(report.n_zero_post).tolist()
    unset = [[None] * len(sigma)] * len(pre)
    threshold, band = (
        unset if a is None else np.asarray(a).tolist()
        for a in (report.threshold, report.band)
    )
    frames = [
        {
            "frame": f,
            "vuv": vuv,
            "subbands": [
                {
                    "subband": s,
                    "sigma": sigma[s],
                    "threshold": thr[s],
                    "band": bnd[s],
                    "n_zero_pre": n_pre[s],
                    "n_zero_post": n_post[s],
                }
                for s in range(len(sigma))
            ],
        }
        for f, (vuv, thr, bnd, n_pre, n_post) in enumerate(
            zip(report.vuv, threshold, band, pre, post)
        )
    ]
    d = {
        "schema_version": 1,
        "tool_version": report.tool_version,
        "mode": report.mode,
        "config": report.config,
        "seed": report.seed,
        "frames": frames,
        "subband_divergence": list(report.subband_divergence),
        "near_zero_ratios": [
            {"center": c, "ratio": r} for c, r in report.near_zero_ratios
        ],
    }
    if report.input_snr_db is not None:
        d["input_snr_db"] = report.input_snr_db
    if report.output_snr_db is not None:
        d["output_snr_db"] = report.output_snr_db
    if report.histograms is not None:
        d["histograms"] = [
            {
                "subband": s,
                "divergence": div,
                "noisy": {"edges": ns.bin_edges.tolist(), "counts": ns.counts.tolist()},
                "noise": {"edges": n.bin_edges.tolist(), "counts": n.counts.tolist()},
            }
            for s, (div, ns, n) in enumerate(report.histograms)
        ]
    return json.dumps(d, indent=2, sort_keys=True, allow_nan=False) + "\n"
