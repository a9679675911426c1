"""Reports of random valid configurations: schema-valid, finite, sized, stable."""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from wpdenoise.framing import WINDOWS, frame_count
from wpdenoise.pipeline import METHODS, NOISE_MODES, EnhanceConfig, enhance
from wpdenoise.report import validate_report_dict
from wpdenoise.signal_io import SignalBuffer, mix_at_snr, sine_wave, white_noise
from wpdenoise.wavelet import FILTERS

RATE = 16000


@st.composite
def configs(draw):
    return EnhanceConfig(
        hop=draw(st.sampled_from((128, 256, 512))),
        window=draw(st.sampled_from(WINDOWS)),
        wavelet=draw(st.sampled_from(FILTERS)),
        depth=draw(st.integers(1, 5)),
        method=draw(st.sampled_from(METHODS)),
        noise_estimation=draw(st.sampled_from(NOISE_MODES)),
        vuv_enabled=draw(st.booleans()),
        seed=draw(st.integers(0, 1000)),
    )


def _noisy(seed: int) -> SignalBuffer:
    """0.3 s of tone after a 0.1 s noise-only lead-in, at 0 dB."""
    tone = sine_wave(440.0, 0.5, 0.3, RATE).samples.copy()
    tone[: RATE // 10] = 0.0
    clean = SignalBuffer(tone, RATE)
    return mix_at_snr(clean, white_noise(1.0, 0.3, RATE, seed), 0.0)


def _reject_constant(name):
    raise AssertionError(f"{name} in a report")


@settings(max_examples=20, deadline=None)
@given(configs())
def test_every_valid_config_gives_a_valid_stable_report(config):
    noisy = _noisy(config.seed)
    _, report = enhance(noisy, config)
    text = report.to_json()
    assert enhance(noisy, config)[1].to_json() == text

    d = json.loads(text, parse_constant=_reject_constant)  # no NaN/Infinity
    validate_report_dict(d)
    n_frames = frame_count(len(noisy), config.frame_len, config.hop)
    assert len(d["frames"]) == n_frames
    assert all(len(f["subbands"]) == config.n_subbands for f in d["frames"])
    assert np.all(np.isfinite(report.sigma))
    cut = report.band if config.method == "band" else report.threshold
    assert np.all(np.isfinite(cut))
