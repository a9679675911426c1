"""Wavelet-packet speech denoising.

Overlap-add framing, a batched wavelet-packet transform of all frames,
shrinkage and band thresholding driven by coefficient-histogram
statistics (KL divergence, entropy), plus WAV I/O, synthetic signals
and SNR metrics.

The names below are the documented library surface (README, "Library
use"); everything else is imported from its submodule
(`wpdenoise.stats`, `wpdenoise.thresholding`, `wpdenoise.framing`, ...).
"""

from ._version import __version__
from .pipeline import EnhanceConfig, analyze, enhance, leaf_coefficients
from .report import Report, validate_report_dict
from .signal_io import SignalBuffer, read_wav, snr_db, write_wav
from .wavelet import filter_bank, wp_analysis, wp_synthesis

__all__ = [
    "__version__",
    "EnhanceConfig",
    "enhance",
    "analyze",
    "leaf_coefficients",
    "Report",
    "validate_report_dict",
    "SignalBuffer",
    "read_wav",
    "snr_db",
    "write_wav",
    "filter_bank",
    "wp_analysis",
    "wp_synthesis",
]
