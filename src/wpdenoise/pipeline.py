"""The five-step enhancement pipeline.

A noisy signal is windowed into overlapping frames and every frame goes
through the wavelet-packet transform at once, giving one
(frames, subbands, coeffs) array of leaf coefficients. The statistics
and thresholds are computed over that whole array, the frames are
rebuilt from it by packet synthesis and the output is reassembled by
normalised overlap-add.

Every leaf-sized stage writes into the one buffer make_frames filled:
the packet transform, the thresholds, the synthesis and the overlap-add
normaliser. After VUV, `enhance` touches each coefficient in one walk
over blocks of frames (`_sweep`): a block's zeros are counted, it is
binned onto h_all (for a profile of leaves) and onto h_sub, the rule
is applied in place and its zeros are counted again. Universal h_sub
is binned pooled over the frames; band bins each (frame, subband)
alone, picks its band from that histogram and sums the counts over the
frames into h_sub; for a profile of one pool, h_all is h_sub summed.
The noise profile and both sides of `analyze`, per subband and pooled,
are binned through
`_pooled_counts`, in place, block by block of frames, with no copy;
`analyze`'s report holds the per-subband pair as the batch histograms
it binned. One front end (`_transform`) checks the samples, finite and
under framing.max_peak, before any transform, so every leaf of a run is
finite and no later stage checks its values again.
Every block of frames is cut by one rule: a block's largest array
holds at most stats._BLOCK_VALUES values, which is its leaves, or
band's dense (frames, subbands, bins) counts where those are larger.
So a call holds its leaves and, beside them, one signal-sized array
at a time: make_frames' padded copy of the input, the mad profile's
|detail| (half the leaves) or the output.

Three thresholding strategies are supported:

- "universal-hard" / "universal-soft": per-subband scalar threshold
  sigma * sqrt(2 ln n) from a noise profile, optionally scaled down in
  frames whose coefficient-histogram entropy marks them as unvoiced
  (a low entropy means a peaky leaf histogram: a sparse, tonal frame
  is "unvoiced" and broadband noise "voiced", see classify_vuv);
- "band": per-subband comparison of the frame's coefficient
  distribution with the noise profile's distribution selects a signed
  interval around zero, and every coefficient inside it is removed.
  Those histograms, summed over the frames, are also each subband's
  histogram for the global statistics: no leaf is binned twice on the
  profile's edges.

The noise profile comes either from a leading noise-only span of the
input or from a MAD estimate over the finest detail coefficients.
Either way `enhance` frames the input and transforms it once, and the
profile is computed from coefficients the run already has: the leaves
of the frames that lie inside the leading span, or the detail of the
level-1 split, whose 2F rows then split depth - 1 levels further into
the leaves, as any rows split (none at depth 1). Only
`_analyse` reads the noise mode: it picks those coefficients, and the
profile's shape follows theirs, a level and histogram per subband from
leaves, one shared level and histogram from a single pool.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from ._version import __version__
from .framing import (
    FrameSet, _overlap_add, check_geometry, check_peak, frame_count, make_frames,
)
from .signal_io import (
    SignalBuffer, _check_aligned, check_seed, finite_real, level, real_floats, shown, snr_dbs,
)
from .stats import (
    Histogram,
    ProbabilityVector,
    _BLOCK_VALUES,
    _count,
    _uniform_edges,
    bin_count,
    check_epsilon,
    entropy,
    ratio_profile,
    row_histograms,
    symmetric_divergence,
    to_probability,
)
from .thresholding import (
    _band_hard,
    _hard,
    _mad_sigma,
    _soft,
    select_band,
    universal_threshold,
)
from .wavelet import _analysis, _synthesis, check_packet, filter_bank
from .report import Report

METHODS = ("universal-hard", "universal-soft", "band")
NOISE_MODES = ("leading_silence", "mad")

_REAL_FIELDS = (
    "entropy_threshold", "unvoiced_scale", "silence_ms", "band_tolerance", "epsilon"
)

VOICED = "voiced"
UNVOICED = "unvoiced"


@dataclass(frozen=True)
class EnhanceConfig:
    """Every knob of the pipeline, with the documented defaults.

    Checked when built and immutable: dataclasses.replace derives a new,
    checked config. A bad value raises ValueError naming its field.
    frame_len is a power of two of at most 2^16 (1024 with hann).
    frame_len, hop and depth are integers (signal_io.integer), and seed
    is None or a seed (signal_io.check_seed: an integer >= 0 that the
    report can write); each is stored as an int. The real fields are
    finite Python ints and floats (not bools) or numpy scalars, stored
    as the Python number (signal_io.finite_real); vuv_enabled takes a
    bool or numpy bool, stored as a bool. So every field is one the
    report can write.
    """

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

    def __post_init__(self):
        frame_len, hop = check_geometry(self.frame_len, self.hop, self.window)
        depth = check_packet(frame_len, self.depth, filter_bank(self.wavelet))
        seed = None if self.seed is None else check_seed(self.seed)
        ints = {"frame_len": frame_len, "hop": hop, "depth": depth, "seed": seed}
        for name, value in ints.items():
            object.__setattr__(self, name, value)
        for name in _REAL_FIELDS:
            value = getattr(self, name)
            if value is not None or name != "entropy_threshold":
                object.__setattr__(self, name, finite_real(value, name))
        if not isinstance(self.vuv_enabled, (bool, np.bool_)):
            raise ValueError(
                f"vuv_enabled must be a bool, got {shown(self.vuv_enabled)}"
            )
        object.__setattr__(self, "vuv_enabled", bool(self.vuv_enabled))
        for name, choices in (("method", METHODS), ("noise_estimation", NOISE_MODES)):
            value = getattr(self, name)
            if not isinstance(value, str) or value not in choices:
                raise ValueError(f"{name} must be one of {choices}")
        if not 0 < self.unvoiced_scale <= 1:
            raise ValueError("unvoiced_scale must be in (0, 1]")
        if self.silence_ms <= 0:
            raise ValueError("silence_ms must be positive")
        level(self.band_tolerance, "band_tolerance")
        check_epsilon(self.epsilon, bin_count(self.frame_len))

    @property
    def n_subbands(self) -> int:
        return 1 << self.depth


@dataclass
class NoiseProfile:
    """Noise level and coefficient distribution of each leaf subband.

    From leaves (estimate_noise_profile), sigma holds one level per
    subband, distribution one row per subband and pooled is a separate
    distribution of all subbands' coefficients together. From one pool
    (mad mode's level-1 detail), every subband shares one estimate, a
    single level and distribution that broadcast over the subbands, and
    pooled is that same distribution object.
    """

    sigma: float | np.ndarray
    distribution: ProbabilityVector
    pooled: ProbabilityVector


def leaf_coefficients(signal: SignalBuffer, config: EnhanceConfig) -> np.ndarray:
    """Packet leaves of every frame of `signal`: (frames, subbands, coeffs).

    An empty signal, and samples that are not finite or lie above
    framing.max_peak, raise ValueError before any transform, as in
    enhance.
    """
    _check_arguments(signal=signal, config=config)
    if len(signal) == 0:
        raise ValueError("cannot transform an empty signal: signal holds no samples")
    return _transform(signal, config, config.depth)


def _check_arguments(**arguments) -> None:
    """Raise ValueError naming the first argument that is not of its type:
    `config` an EnhanceConfig, any other a SignalBuffer."""
    for name, value in arguments.items():
        kind, what = ((EnhanceConfig, "an EnhanceConfig") if name == "config"
                      else (SignalBuffer, "a SignalBuffer"))
        if not isinstance(value, kind):
            raise ValueError(f"{name} must be {what}, got {type(value).__name__}")


def _transform(signal: SignalBuffer, config: EnhanceConfig, depth: int) -> np.ndarray:
    """Every frame of `signal` split to `depth`: (frames, 2**depth, coeffs).

    The one checked front end of a run: the samples are checked first,
    finite and under framing.max_peak (check_peak), so that every value
    of the transform and of the rest of the run is finite, and no later
    stage checks its values again. The transform is written over the
    frames make_frames just made.
    """
    check_peak(config.frame_len, config.window, signal)
    frames = make_frames(signal, config.frame_len, config.hop, config.window)
    return _analysis(frames.frames, filter_bank(config.wavelet), depth)


def _noise_bins(n_values: int) -> int:
    """Square-root bin count bumped to the next odd value."""
    return bin_count(n_values) | 1


def _noise_distribution(values: np.ndarray, epsilon: float) -> ProbabilityVector:
    """Histogram noise samples, (frames, ..., coeffs) pooled over the frames
    and coeffs (`_pooled_counts`), on zero-symmetric edges.

    The square-root bin count is bumped to the next odd value so the
    middle bin is centred on zero; band selection then removes
    coefficients symmetrically instead of inheriting whatever offset the
    sample extremes would give, which would bias tonal subbands.
    """
    span = np.maximum(np.max(values, axis=(0, -1)), -np.min(values, axis=(0, -1)))
    edges = _uniform_edges(-span, span, _noise_bins(values.shape[0] * values.shape[-1]))
    return to_probability(Histogram(edges, _pooled_counts(values, edges)), epsilon)


def _per_subband(values: np.ndarray) -> np.ndarray:
    """(frames, ..., coeffs) as rows pooled over the frames: (..., frames * coeffs)."""
    return np.moveaxis(values, 0, -2).reshape(values.shape[1:-1] + (-1,))


def _pooled_counts(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Counts of `values` (frames, ..., coeffs) pooled over the frames and
    coeffs on `edges` (B + 1,) or (..., B + 1): (..., B).

    Binned where they lie, block by block of frames, with no copy: each
    row's bins are offset by its index, which broadcasts over the frames
    (stats._count). Nothing is checked again: the values are leaves of
    samples the front end found finite (`_transform`), and the edges
    were built by the run from those values, a finite, increasing row
    per subband or one row for all.
    """
    counts = np.zeros(values.shape[1:-1] + (edges.shape[-1] - 1,), dtype=np.int64)
    step = max(1, _BLOCK_VALUES // values[0].size)
    for start in range(0, len(values), step):
        _count(counts, values[start : start + step], edges)
    return counts


def _zero_counts(leaves: np.ndarray) -> np.ndarray:
    """np.count_nonzero(leaves == 0.0, axis=-1) of (..., coeffs) leaves, int64.

    A reduction along each row of 32 coefficients pays a loop set-up per
    row; here the zero mask, as float32, times a ones vector is one
    matrix-vector product. Its sums of 0s and 1s stay below 2**24 (a row
    holds at most 2**16 coefficients), so they are exact in any order.
    The walk hands it one block of frames at a time, which keeps the
    mask small and the product below the size BLAS would spread over
    threads.
    """
    zero = np.equal(leaves, 0.0, out=np.empty(leaves.shape, np.float32), casting="unsafe")
    counts = zero.reshape(-1, leaves.shape[-1]) @ np.ones(leaves.shape[-1], np.float32)
    return counts.astype(np.int64).reshape(leaves.shape[:-1])


def estimate_noise_profile(noise: np.ndarray, config: EnhanceConfig) -> NoiseProfile:
    """Estimate per-subband noise sigma and coefficient distribution.

    `noise` holds noise-only coefficients, and the profile follows its
    shape, whatever the noise mode. Leaves (frames, subbands, coeffs),
    as those of the frames inside the leading silence: each subband's
    are pooled into its own sigma and histogram, and pooled is a second
    histogram of all the values. One pool (frames, coeffs), as mad
    mode's level-1 detail: a single sigma and histogram serve every
    subband, and pooled is that histogram. The values are binned where
    they lie and copied once, as magnitudes, for the median (leaves
    twice, their subbands gathered into rows). Any other shape, or an
    array with no values, raises ValueError naming the shape before any
    histogram.
    """
    if noise.ndim not in (2, 3) or noise.size == 0:
        raise ValueError("noise must be a non-empty (frames, coeffs) pool or (frames, "
                         f"subbands, coeffs) leaves, got shape {noise.shape}")
    distribution = _noise_distribution(noise, config.epsilon)
    pooled = distribution if noise.ndim == 2 else _noise_distribution(
        noise.reshape(len(noise), -1), config.epsilon)
    return NoiseProfile(_mad_sigma(_per_subband(np.abs(noise))), distribution, pooled)


def _analyse(signal: SignalBuffer, config: EnhanceConfig) -> tuple:
    """(leaves, NoiseProfile) of `signal`, from one framing and one transform.

    Branches on the noise mode once; each branch checks its own inputs
    first (leading_silence the span, then both epsilon, against the
    noise histogram, the largest the run builds), then runs the front
    end that checks the samples, frames the signal and transforms it,
    then its profile. mad: the frames split to level 1; the detail gives
    the profile, and the 2F level-1 rows split depth - 1 more levels,
    written over them, give the leaves: in natural order a frame's
    approximation leaves come first, then its detail's, so its two rows
    of leaves are its leaves in order (at depth 1 the split is none).
    leading_silence: the profile pools the leaves of the frames that lie
    entirely inside the span.
    """
    if config.noise_estimation == "mad":  # the level-1 detail of every frame
        n_frames = frame_count(len(signal), config.frame_len, config.hop)
        check_epsilon(config.epsilon, _noise_bins(n_frames * config.frame_len // 2))
        level1 = _transform(signal, config, 1)
        profile = estimate_noise_profile(level1[:, 1], config)
        leaves = _analysis(level1.reshape(-1, level1.shape[-1]),
                           filter_bank(config.wavelet), config.depth - 1)
        return leaves.reshape(len(level1), config.n_subbands, -1), profile
    # rounded as a float first: a span beyond the float range is inf
    span = round(config.silence_ms / 1000.0 * signal.sample_rate_hz, 0)
    if span < config.frame_len:
        raise ValueError(f"silence span of {int(span)} samples is shorter than "
                         f"one frame ({config.frame_len})")
    if len(signal) < span:
        raise ValueError("signal shorter than the leading-silence span")
    n_lead = (int(span) - config.frame_len) // config.hop + 1  # inside the span
    check_epsilon(config.epsilon, _noise_bins(n_lead * config.frame_len))
    leaves = _transform(signal, config, config.depth)
    return leaves, estimate_noise_profile(leaves[:n_lead], config)


def classify_vuv(leaves, entropy_threshold: float, epsilon: float) -> list:
    """Entropy-based class of each frame of a (frames, subbands, coeffs) array.

    A frame's leaf coefficients are pooled, histogrammed with the
    square-root bin rule and reduced to their entropy; below the
    threshold means unvoiced, and a tie goes to voiced. The leaves are
    real numbers, and the threshold one finite real number (finite_real).

    The entropy measures how peaky the frame's leaf histogram is, not
    voicing: a sparse frame (a few large harmonic coefficients, most
    near zero) has a low entropy and broadband noise a high one. On the
    15 s speech-like input of bench/workloads.py (seed 37), in both
    noise modes, all 186 noise-only frames are "voiced" and 71.6% of the
    591 frames inside speech "unvoiced".
    """
    leaves = real_floats(leaves, "leaves")
    if leaves.ndim != 3:
        raise ValueError(f"leaves must be (frames, subbands, coeffs), not {leaves.shape}")
    if leaves.size == 0:
        raise ValueError(f"leaves must hold values, got shape {leaves.shape}")
    threshold = finite_real(entropy_threshold, "entropy_threshold")
    pooled = leaves.reshape(len(leaves), -1)
    h = entropy(to_probability(row_histograms(pooled), epsilon))
    return np.where(h < threshold, UNVOICED, VOICED).tolist()


def _sweep(leaves: np.ndarray, profile: NoiseProfile, vuv: list,
           config: EnhanceConfig) -> tuple:
    """The one walk over `leaves`, thresholding them in place: (threshold,
    band, h_sub, h_all, n_zero_pre, n_zero_post).

    Each block of frames has its zeros counted; where the profile's
    pooled distribution is its own (a profile of leaves) the block is
    binned onto h_all, every leaf on the pooled edges; it is binned
    onto h_sub on the profile's edges (universal: pooled over the
    frames; band: per (frame, subband), whose band is picked from that
    histogram and whose counts summed over the frames are h_sub); then
    the rule is applied and its zeros are counted again. Where pooled
    is the distribution (a profile of one pool) every subband was
    binned on the pooled edges, so h_all is h_sub summed: the profile's
    shape decides, not the noise mode. A block's largest array, its
    leaves or band's dense (frames, subbands, bins) counts, holds at
    most _BLOCK_VALUES values. No block is checked for NaN, nor are the
    edges checked again: the leaves come from samples the front end
    found finite (`_transform`), and the profile's edges were built by
    the run from its own coefficients. One of threshold (frames, subbands) and
    band (frames, subbands, 2) is None.
    """
    n_frames, n_sub, n_coeff = leaves.shape
    dist = profile.distribution
    counts = np.zeros((n_sub, dist.n_bins), dtype=np.int64)
    apart = profile.pooled is not profile.distribution  # h_all on its own edges
    all_counts = np.zeros(profile.pooled.n_bins, dtype=np.int64)
    band = np.empty((n_frames, n_sub, 2)) if config.method == "band" else None
    scale = np.where(np.asarray(vuv) == UNVOICED, config.unvoiced_scale, 1.0)[:, None]
    threshold = None if band is not None else np.broadcast_to(
        universal_threshold(profile.sigma, n_coeff) * scale, (n_frames, n_sub))
    rule = _soft if config.method == "universal-soft" else _hard
    zeros = np.empty((2, n_frames, n_sub), dtype=np.int64)  # before and after the rule
    width = n_coeff if band is None else max(n_coeff, dist.n_bins)
    step = max(1, _BLOCK_VALUES // (n_sub * width))
    for start in range(0, n_frames, step):
        at = slice(start, start + step)
        block = leaves[at]
        zeros[0, at] = _zero_counts(block)
        if apart:
            _count(all_counts, block, profile.pooled.bin_edges)
        if band is None:
            _count(counts, block, dist.bin_edges)
            rule(block, threshold[at, :, None])
        else:
            dense = np.zeros((len(block), n_sub, dist.n_bins), dtype=np.int64)
            _count(dense, block, dist.bin_edges)
            counts += np.sum(dense, axis=0)
            p_block = to_probability(Histogram(dist.bin_edges, dense), config.epsilon)
            t1, t2 = select_band(p_block, dist, config.band_tolerance)
            band[at, :, 0], band[at, :, 1] = t1, t2
            _band_hard(block, t1[..., None], t2[..., None])
        zeros[1, at] = _zero_counts(block)
    all_counts = all_counts if apart else np.sum(counts, axis=0)
    return (threshold, band, Histogram(dist.bin_edges, counts),
            Histogram(profile.pooled.bin_edges, all_counts), *zeros)


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

    When `reference` is given (checked first: the length and sample rate
    of `noisy`), the report carries the input and output SNR against it.
    """
    _check_arguments(noisy=noisy, config=config)
    if reference is not None:
        _check_arguments(reference=reference)
        _check_aligned(reference, noisy)
    if len(noisy) == 0:
        raise ValueError("cannot enhance an empty signal")

    leaves, profile = _analyse(noisy, config)
    n_frames, n_sub, _ = leaves.shape
    vuv = (classify_vuv(leaves, _frame_entropy_threshold(config), config.epsilon)
           if config.vuv_enabled else [None] * n_frames)

    # One threshold or band per (frame, subband), broadcast over the
    # coeffs. The leaves are the one leaf-sized array of the call:
    # counted, binned and thresholded in place by the one walk, rebuilt
    # into frames in place, and then the overlap-add's normaliser; its
    # output is the one signal-sized array.
    threshold, band, h_sub, h_all, n_zero_pre, n_zero_post = _sweep(
        leaves, profile, vuv, config)

    # Global distribution statistics against the noise profile.
    divergences = symmetric_divergence(to_probability(h_sub, config.epsilon),
                                       profile.distribution)
    ratios = ratio_profile(to_probability(h_all, config.epsilon), profile.pooled)
    rebuilt = FrameSet(_synthesis(leaves, filter_bank(config.wavelet)), config.frame_len,
                       config.hop, config.window, len(noisy), noisy.sample_rate_hz)
    enhanced = _overlap_add(rebuilt, rebuilt.frames)

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
        report.input_snr_db, report.output_snr_db = snr_dbs(reference, noisy, enhanced)
    return enhanced, report


def analyze(noisy: SignalBuffer, noise: SignalBuffer, config: EnhanceConfig) -> Report:
    """Compare the leaf coefficients of noisy speech with those of noise.

    Per subband, both signals are binned on common uniform edges over
    their joint range (square-root rule on the smaller sample) and
    compared by symmetric divergence. All leaves pooled, binned the same
    way, give the near-zero ratio profile. The report has no frames; its
    histograms are the (noisy, noise) pair of batch Histograms, one row
    of counts per subband on that subband's shared edges. An empty
    `noisy` or `noise` raises ValueError naming it.
    """
    _check_arguments(noisy=noisy, noise=noise, config=config)
    for name, side in (("noisy", noisy), ("noise", noise)):
        if len(side) == 0:
            raise ValueError(f"cannot analyze an empty signal: {name} holds no samples")
    if noisy.sample_rate_hz != noise.sample_rate_hz:
        raise ValueError("noisy and noise files must share a sample rate")
    # The pooled histograms are the largest: the smaller signal's frames
    # times the frame length, its leaf count, binned by the square-root
    # rule; each subband's pair bins that count / n_subbands.
    n_fewer = config.frame_len * min(
        frame_count(len(s), config.frame_len, config.hop) for s in (noisy, noise)
    )
    check_epsilon(config.epsilon, bin_count(n_fewer))
    leaves = [_transform(s, config, config.depth) for s in (noisy, noise)]

    # each subband's shared edges, as shared_edges gives for its rows;
    # the pooled edges, as it gives for all leaves, from the same extremes
    lo = np.minimum(*(np.min(side, axis=(0, 2)) for side in leaves))
    hi = np.maximum(*(np.max(side, axis=(0, 2)) for side in leaves))
    edges = _uniform_edges(lo, hi, bin_count(n_fewer // config.n_subbands))
    h_ns, h_n = (Histogram(edges, _pooled_counts(side, edges)) for side in leaves)

    edges = _uniform_edges(lo.min(), hi.max(), bin_count(n_fewer))
    p_ns, p_n = (to_probability(Histogram(edges, _pooled_counts(
        side.reshape(len(side), -1), edges)), config.epsilon) for side in leaves)
    return Report(
        tool_version=__version__,
        mode="analyze",
        config=asdict(config),
        seed=config.seed,
        subband_divergence=symmetric_divergence(
            to_probability(h_ns, config.epsilon), to_probability(h_n, config.epsilon)
        ).tolist(),
        near_zero_ratios=ratio_profile(p_ns, p_n),
        histograms=(h_ns, h_n),
    )
