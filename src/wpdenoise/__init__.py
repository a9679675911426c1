"""Wavelet-packet speech denoising.

Overlap-add framing, a batched wavelet-packet transform of all frames,
shrinkage and band thresholding driven by coefficient-histogram
statistics (KL divergence, entropy), plus WAV I/O, synthetic signals
and SNR metrics.
"""

from ._version import __version__
from .framing import ColaError, FrameSet, make_frames, overlap_add, window_values
from .pipeline import (
    EnhanceConfig,
    NoiseProfile,
    SubbandNoise,
    classify_vuv,
    enhance,
    estimate_noise_profile,
    leaf_coefficients,
)
from .report import Report, report_schema, validate_report_dict
from .signal_io import (
    SignalBuffer,
    WavFormatError,
    WavTruncatedError,
    mix_at_snr,
    read_wav,
    sine_wave,
    snr_db,
    white_noise,
    write_wav,
)
from .stats import (
    Histogram,
    ProbabilityVector,
    bin_count,
    build_histogram,
    entropy,
    kl_divergence,
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
    semisoft_threshold,
    soft_threshold,
    universal_threshold,
)
from .wavelet import (
    FilterBank,
    analysis_step,
    filter_bank,
    synthesis_step,
    wp_analysis,
    wp_synthesis,
)

__all__ = [
    "__version__",
    "ColaError",
    "FrameSet",
    "make_frames",
    "overlap_add",
    "window_values",
    "EnhanceConfig",
    "NoiseProfile",
    "SubbandNoise",
    "classify_vuv",
    "enhance",
    "estimate_noise_profile",
    "leaf_coefficients",
    "Report",
    "report_schema",
    "validate_report_dict",
    "SignalBuffer",
    "WavFormatError",
    "WavTruncatedError",
    "mix_at_snr",
    "read_wav",
    "sine_wave",
    "snr_db",
    "white_noise",
    "write_wav",
    "Histogram",
    "ProbabilityVector",
    "bin_count",
    "build_histogram",
    "entropy",
    "kl_divergence",
    "ratio_profile",
    "row_histograms",
    "shared_edges",
    "symmetric_divergence",
    "to_probability",
    "band_hard_threshold",
    "estimate_sigma",
    "hard_threshold",
    "select_band",
    "semisoft_threshold",
    "soft_threshold",
    "universal_threshold",
    "FilterBank",
    "analysis_step",
    "filter_bank",
    "synthesis_step",
    "wp_analysis",
    "wp_synthesis",
]
