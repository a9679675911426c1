"""Reproducible synthetic experiments.

The "sine-0db" preset mixes a 440 Hz tone (silent for the first quarter
second so the default leading-silence noise estimation sees noise-only
material) with seeded white noise at 0 dB overall SNR, 16 kHz, 5 s.
The noise is drawn from the seed of the run's config, the seed its
report records, so a run is reproduced from its report. The tone does
not depend on the seed, so it is built once per process and every call
shares its samples as one read-only array; the seeded noise and the mix
are built on each call.
"""

from __future__ import annotations

from dataclasses import replace
from functools import cache

import numpy as np

from .pipeline import EnhanceConfig, enhance
from .signal_io import SignalBuffer, mix_at_snr, sine_wave, white_noise

PRESETS = ("sine-0db",)

_RATE = 16000
_DURATION_S = 5.0
_LEAD_SILENCE_S = 0.25
_FREQ_HZ = 440.0
_AMPLITUDE = 0.5
_TARGET_SNR_DB = 0.0


@cache
def _sine_0db_clean() -> np.ndarray:
    """The sine-0db tone with its lead-in zeroed, read-only."""
    samples = sine_wave(_FREQ_HZ, _AMPLITUDE, _DURATION_S, _RATE).samples
    samples[: int(_LEAD_SILENCE_S * _RATE)] = 0.0
    samples.flags.writeable = False
    return samples


def sine_0db_material(seed: int) -> tuple:
    """Build (clean, noisy) for the sine-0db preset.

    The clean samples are the same read-only array on every call.
    """
    clean = SignalBuffer(_sine_0db_clean(), _RATE)
    noise = white_noise(1.0, _DURATION_S, _RATE, seed)
    noisy = mix_at_snr(clean, noise, _TARGET_SNR_DB)
    return clean, noisy


def run_preset(
    name: str,
    method: str | None = None,
    seed: int | None = None,
    config: EnhanceConfig | None = None,
) -> tuple:
    """Run a named preset; returns (clean, noisy, enhanced, report).

    The preset's noise is drawn from config.seed, which the report
    records. Pass either `method` (default "universal-hard") and `seed`
    (default 0), which build the config with every other setting at its
    default, or a full `config`, not both; a `seed` given beside a
    config must equal its seed. A config whose seed is None raises
    ValueError naming seed (white_noise's check_seed), as a preset needs
    one. The report's mode is "experiment" and carries input/output SNR
    against the clean signal.
    """
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r} (expected one of {PRESETS})")
    if config is None:
        config = EnhanceConfig(method=method or "universal-hard",
                               seed=0 if seed is None else seed)
    elif method is not None or seed not in (None, config.seed):
        raise ValueError("pass either method or config, not both; a seed beside a "
                         f"config must be its seed, {config.seed}")
    clean, noisy = sine_0db_material(config.seed)
    enhanced, report = enhance(noisy, config, reference=clean)
    report = replace(report, mode="experiment")
    return clean, noisy, enhanced, report
