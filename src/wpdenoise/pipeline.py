"""The five-step enhancement pipeline.

A noisy signal is windowed into overlapping frames and every frame goes
through the wavelet-packet transform at once, giving one
(frames, subbands, coeffs) array of leaf coefficients. The statistics
and thresholds are computed over that whole array, the frames are
rebuilt from it by packet synthesis and the output is reassembled by
normalised overlap-add.

Three thresholding strategies are supported:

- "universal-hard" / "universal-soft": per-subband scalar threshold
  sigma * sqrt(2 ln n) from a noise profile, optionally scaled down in
  frames whose coefficient-histogram entropy marks them as unvoiced;
- "band": per-subband comparison of the frame's coefficient
  distribution with the noise profile's distribution selects a signed
  interval around zero, and every coefficient inside it is removed.

The noise profile comes either from a leading noise-only span of the
input or from a MAD estimate over the finest detail coefficients.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from ._version import __version__
from .framing import FrameSet, WINDOWS, frame_count, make_frames, overlap_add
from .signal_io import SignalBuffer, snr_db
from .stats import (
    Histogram,
    ProbabilityVector,
    bin_count,
    check_epsilon,
    entropy,
    ratio_profile,
    row_histograms,
    shared_edges,
    symmetric_divergence,
    to_probability,
)
from .thresholding import (
    band_hard_threshold,
    estimate_sigma,
    hard_threshold,
    select_band,
    soft_threshold,
    universal_threshold,
)
from .wavelet import FILTERS, analysis_step, filter_bank, wp_analysis, wp_synthesis
from .report import Report

METHODS = ("universal-hard", "universal-soft", "band")
NOISE_MODES = ("leading_silence", "mad")

VOICED = "voiced"
UNVOICED = "unvoiced"

# Band selection holds dense (frames, subbands, bins) probabilities. In
# mad mode the bin count grows with the input, so frames go in blocks of
# at most this many values (2 MB per float array): a 15 s band/mad call
# peaks 28 MB lower than with 8 MB blocks, at the same speed.
_BAND_BLOCK_VALUES = 1 << 18


@dataclass
class EnhanceConfig:
    """Every knob of the pipeline, with the documented defaults."""

    frame_len: int = 512
    hop: int = 256
    window: str = "hann"
    wavelet: str = "db4"
    depth: int = 4
    method: str = "universal-hard"
    vuv_enabled: bool = True
    entropy_threshold: float | None = None  # None -> ln(B)/2 per frame
    unvoiced_scale: float = 0.5
    noise_estimation: str = "leading_silence"
    silence_ms: float = 100.0
    band_tolerance: float = 1e-3
    epsilon: float = 1e-12
    seed: int | None = None

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if self.frame_len <= 0 or self.frame_len & (self.frame_len - 1):
            raise ValueError("frame_len must be a power of two")
        if self.hop <= 0 or self.frame_len % self.hop:
            raise ValueError("hop must divide frame_len")
        if self.window not in WINDOWS:
            raise ValueError(f"window must be one of {WINDOWS}")
        if self.wavelet not in FILTERS:
            raise ValueError(f"wavelet must be one of {FILTERS}")
        if self.depth < 1 or self.frame_len >> self.depth < len(
            filter_bank(self.wavelet)
        ):
            raise ValueError(
                f"depth {self.depth} too deep for frame_len {self.frame_len} "
                f"and wavelet {self.wavelet!r}"
            )
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        if not 0 < self.unvoiced_scale <= 1:
            raise ValueError("unvoiced_scale must be in (0, 1]")
        if self.noise_estimation not in NOISE_MODES:
            raise ValueError(f"noise_estimation must be one of {NOISE_MODES}")
        if self.silence_ms <= 0:
            raise ValueError("silence_ms must be positive")
        if self.band_tolerance < 0:
            raise ValueError("band_tolerance must be non-negative")
        check_epsilon(self.epsilon, bin_count(self.frame_len))

    @property
    def n_subbands(self) -> int:
        return 1 << self.depth

    @property
    def coeffs_per_subband(self) -> int:
        return self.frame_len >> self.depth


@dataclass
class NoiseProfile:
    """Noise level and coefficient distribution of each leaf subband.

    sigma holds one level per subband and distribution one row per
    subband; in mad mode every subband shares one estimate, a single
    level and distribution that broadcast over the subbands. pooled is
    the distribution of all subbands' coefficients together.
    """

    sigma: float | np.ndarray
    distribution: ProbabilityVector
    pooled: ProbabilityVector


def leaf_coefficients(signal: SignalBuffer, config: EnhanceConfig) -> np.ndarray:
    """Packet leaves of every frame of `signal`: (frames, subbands, coeffs)."""
    frames = make_frames(signal, config.frame_len, config.hop, config.window)
    return wp_analysis(frames.frames, filter_bank(config.wavelet), config.depth)


def _noise_bins(n_values: int) -> int:
    """Square-root bin count bumped to the next odd value."""
    return bin_count(n_values) | 1


def _noise_distribution(coeffs: np.ndarray, epsilon: float) -> ProbabilityVector:
    """Histogram noise samples (each row of `coeffs`) on zero-symmetric edges.

    The square-root bin count is bumped to the next odd value so the
    middle bin is centred on zero; band selection then removes
    coefficients symmetrically instead of inheriting whatever offset the
    sample extremes would give, which would bias tonal subbands.
    """
    span = np.max(np.abs(coeffs), axis=-1)
    span = np.where(span == 0.0, 1e-9, span)
    edges = np.linspace(-span, span, _noise_bins(coeffs.shape[-1]) + 1, axis=-1)
    return to_probability(row_histograms(coeffs, edges=edges), epsilon)


def estimate_noise_profile(signal: SignalBuffer, config: EnhanceConfig) -> NoiseProfile:
    """Estimate per-subband noise sigma and coefficient distribution.

    leading_silence: decompose the frames of the first silence_ms of the
    input (assumed noise-only) and pool their leaf coefficients.
    mad: estimate a single sigma from the finest detail coefficients of
    the whole signal and reuse its histogram for every subband.

    The largest histogram of the run is sized from the frame count, and
    epsilon is checked against it before any transform.
    """
    config.validate()

    if config.noise_estimation == "leading_silence":
        span = int(round(config.silence_ms / 1000.0 * signal.sample_rate_hz))
        if span < config.frame_len:
            raise ValueError(
                f"silence span of {span} samples is shorter than one frame "
                f"({config.frame_len})"
            )
        if len(signal) < span:
            raise ValueError("signal shorter than the leading-silence span")
        n_full = (span - config.frame_len) // config.hop + 1
        check_epsilon(config.epsilon, _noise_bins(n_full * config.frame_len))
        # the frames that lie entirely inside the span
        lead = signal.samples[: (n_full - 1) * config.hop + config.frame_len]
        leaves = leaf_coefficients(SignalBuffer(lead, signal.sample_rate_hz), config)
        per_subband = leaves.swapaxes(0, 1).reshape(config.n_subbands, -1)
        return NoiseProfile(
            sigma=estimate_sigma(per_subband),
            distribution=_noise_distribution(per_subband, config.epsilon),
            pooled=_noise_distribution(leaves.ravel(), config.epsilon),
        )

    # mad mode: one estimate from the level-1 detail of every frame.
    n_frames = frame_count(len(signal), config.frame_len, config.hop)
    check_epsilon(config.epsilon, _noise_bins(n_frames * config.frame_len // 2))
    frames = make_frames(signal, config.frame_len, config.hop, config.window)
    _, detail = analysis_step(frames.frames, filter_bank(config.wavelet))
    detail = detail.ravel()
    distribution = _noise_distribution(detail, config.epsilon)
    return NoiseProfile(estimate_sigma(detail), distribution, pooled=distribution)


def classify_vuv(leaves, entropy_threshold: float, epsilon: float) -> list:
    """Entropy-based class of each frame of a (frames, subbands, coeffs) array.

    A frame's leaf coefficients are pooled, histogrammed with the
    square-root bin rule and reduced to their entropy; below the
    threshold means unvoiced, and a tie goes to voiced.
    """
    leaves = np.asarray(leaves, dtype=np.float64)
    pooled = leaves.reshape(len(leaves), -1)
    h = entropy(to_probability(row_histograms(pooled), epsilon))
    return np.where(h < entropy_threshold, UNVOICED, VOICED).tolist()


def _select_bands(leaves: np.ndarray, dist: ProbabilityVector, config: EnhanceConfig):
    """(t1, t2) arrays: the band of every (frame, subband) of `leaves`."""
    step = max(1, _BAND_BLOCK_VALUES // (leaves.shape[1] * dist.n_bins))
    blocks = [
        select_band(
            to_probability(row_histograms(block, edges=dist.bin_edges), config.epsilon),
            dist,
            config.band_tolerance,
        )
        for block in np.split(leaves, range(step, len(leaves), step))
    ]
    return tuple(np.concatenate(side) for side in zip(*blocks))


def _frame_entropy_threshold(config: EnhanceConfig) -> float:
    if config.entropy_threshold is not None:
        return config.entropy_threshold
    return math.log(bin_count(config.frame_len)) / 2.0


def enhance(
    noisy: SignalBuffer,
    config: EnhanceConfig,
    reference: SignalBuffer | None = None,
) -> tuple:
    """Run the five-step pipeline; returns (enhanced, Report).

    When `reference` is given, the report carries the SNR of the input
    and the output against it.
    """
    config.validate()
    if len(noisy) == 0:
        raise ValueError("cannot enhance an empty signal")

    profile = estimate_noise_profile(noisy, config)
    leaves = leaf_coefficients(noisy, config)
    n_frames, n_sub, n_coeff = leaves.shape
    if config.vuv_enabled:
        vuv = classify_vuv(leaves, _frame_entropy_threshold(config), config.epsilon)
    else:
        vuv = [None] * n_frames

    # Global distribution statistics against the noise profile.
    per_subband = leaves.swapaxes(0, 1).reshape(n_sub, -1)
    h_sub = row_histograms(per_subband, edges=profile.distribution.bin_edges)
    del per_subband
    divergences = symmetric_divergence(
        to_probability(h_sub, config.epsilon), profile.distribution
    )
    pooled = profile.pooled
    if pooled is profile.distribution:
        # mad mode: every subband was binned on the pooled edges already
        h_all = Histogram(pooled.bin_edges, np.sum(h_sub.counts, axis=0))
    else:
        h_all = row_histograms(leaves.ravel(), edges=pooled.bin_edges)
    ratios = ratio_profile(to_probability(h_all, config.epsilon), pooled)

    # One threshold or band per (frame, subband), broadcast over the coeffs.
    n_zero_pre = np.count_nonzero(leaves == 0.0, axis=-1)
    threshold = band = None
    if config.method == "band":
        t1, t2 = _select_bands(leaves, profile.distribution, config)
        out = band_hard_threshold(leaves, t1[..., None], t2[..., None])
        band = np.stack((t1, t2), axis=-1)
    else:
        scale = np.where(np.asarray(vuv) == UNVOICED, config.unvoiced_scale, 1.0)
        threshold = universal_threshold(profile.sigma, n_coeff) * scale[:, None]
        threshold = np.broadcast_to(threshold, (n_frames, n_sub))
        rule = hard_threshold if config.method == "universal-hard" else soft_threshold
        out = rule(leaves, threshold[..., None])
    del leaves  # at most two leaf-sized arrays alive at once bounds peak memory
    n_zero_post = np.count_nonzero(out == 0.0, axis=-1)
    enhanced_frames = wp_synthesis(out, filter_bank(config.wavelet))
    del out

    enhanced = overlap_add(
        FrameSet(
            frames=enhanced_frames,
            frame_len=config.frame_len,
            hop=config.hop,
            window=config.window,
            original_len=len(noisy),
            sample_rate_hz=noisy.sample_rate_hz,
        )
    )

    report = Report(
        tool_version=__version__,
        mode="denoise",
        config=asdict(config),
        seed=config.seed,
        vuv=vuv,
        sigma=np.broadcast_to(profile.sigma, (n_sub,)),
        threshold=threshold,
        band=band,
        n_zero_pre=n_zero_pre,
        n_zero_post=n_zero_post,
        subband_divergence=divergences.tolist(),
        near_zero_ratios=ratios,
    )
    if reference is not None:
        report.input_snr_db = snr_db(reference, noisy)
        report.output_snr_db = snr_db(reference, enhanced)
    return enhanced, report


def analyze(noisy: SignalBuffer, noise: SignalBuffer, config: EnhanceConfig) -> Report:
    """Compare the leaf coefficients of noisy speech with those of noise.

    Per subband, both signals are binned on common uniform edges over
    their joint range (square-root rule on the smaller sample) and
    compared by symmetric divergence. All leaves pooled, binned the same
    way, give the near-zero ratio profile. The report has no frames; its
    histograms hold (divergence, noisy Histogram, noise Histogram) per
    subband.
    """
    config.validate()
    if noisy.sample_rate_hz != noise.sample_rate_hz:
        raise ValueError("noisy and noise files must share a sample rate")
    # The pooled histograms are the largest: the smaller signal's frames
    # times the frame length, binned by the square-root rule.
    fewer_frames = min(
        frame_count(len(s), config.frame_len, config.hop) for s in (noisy, noise)
    )
    check_epsilon(config.epsilon, bin_count(fewer_frames * config.frame_len))
    leaves = [leaf_coefficients(s, config) for s in (noisy, noise)]

    rows = [side.swapaxes(0, 1).reshape(config.n_subbands, -1) for side in leaves]
    edges = shared_edges(*rows)
    h_ns, h_n = (row_histograms(side, edges=edges) for side in rows)
    del rows
    divergences = symmetric_divergence(
        to_probability(h_ns, config.epsilon), to_probability(h_n, config.epsilon)
    ).tolist()

    pooled = [side.ravel() for side in leaves]
    edges = shared_edges(*pooled)
    p_ns, p_n = (
        to_probability(row_histograms(side, edges=edges), config.epsilon)
        for side in pooled
    )
    return Report(
        tool_version=__version__,
        mode="analyze",
        config=asdict(config),
        seed=config.seed,
        subband_divergence=divergences,
        near_zero_ratios=ratio_profile(p_ns, p_n),
        histograms=[
            (div, Histogram(e, a), Histogram(e, b))
            for div, e, a, b in zip(divergences, h_ns.bin_edges, h_ns.counts, h_n.counts)
        ],
    )
