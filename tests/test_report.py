"""Reports: schema-valid, finite, sized, stable, and written as the v1 reference.

`Report.to_json` writes its frame records from the arrays; the reference
is `scalar_oracle.v1_json`, the whole v1 dict through json.dumps.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_oracle as oracle
from wpdenoise.framing import WINDOWS, frame_count
from wpdenoise.pipeline import METHODS, NOISE_MODES, EnhanceConfig, enhance
from wpdenoise.report import Report, validate_report_dict
from wpdenoise.signal_io import SignalBuffer, mix_at_snr, sine_wave, white_noise
from wpdenoise.stats import build_histogram, shared_edges
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
    assert text == oracle.v1_json(report)
    assert enhance(noisy, config)[1].to_json() == text

    d = json.loads(text, parse_constant=_reject_constant)  # no NaN/Infinity
    validate_report_dict(d)
    n_frames = frame_count(len(noisy), config.frame_len, config.hop)
    assert len(d["frames"]) == n_frames
    assert all(len(f["subbands"]) == config.n_subbands for f in d["frames"])
    assert np.all(np.isfinite(report.sigma))
    cut = report.band if config.method == "band" else report.threshold
    assert np.all(np.isfinite(cut))


def test_analyze_report_with_histograms_and_no_frames():
    rng = np.random.default_rng(3)
    histograms = []
    for s in range(4):
        noisy, noise = rng.normal(size=200), rng.normal(scale=0.5, size=150)
        edges = shared_edges(noisy, noise)
        pair = build_histogram(noisy, edges=edges), build_histogram(noise, edges=edges)
        histograms.append((0.1 * s, *pair))
    report = Report(
        tool_version="0", mode="analyze", config={"depth": 2}, seed=5,
        subband_divergence=[d for d, _, _ in histograms],
        near_zero_ratios=[(0.0, 1.5), (0.25, 0.75)],
        histograms=histograms,
    )
    text = report.to_json()
    assert text == oracle.v1_json(report)
    d = json.loads(text)
    validate_report_dict(d)
    assert d["frames"] == [] and len(d["histograms"]) == 4


def test_report_without_vuv_labels():
    noisy = _noisy(4)
    _, report = enhance(noisy, EnhanceConfig(vuv_enabled=False, seed=4))
    assert report.vuv and all(label is None for label in report.vuv)
    assert report.to_json() == oracle.v1_json(report)


def test_band_bounds_keep_negative_zero():
    noisy = _noisy(2)
    _, report = enhance(noisy, EnhanceConfig(method="band", seed=2))
    report.band[0, 0] = (-0.0, 0.0)
    report.band[-1, -1] = (-0.0, 1e-300)
    text = report.to_json()
    assert text == oracle.v1_json(report)
    assert json.loads(text)["frames"][0]["subbands"][0]["band"] == [-0.0, 0.0]
    assert "-0.0" in text


@pytest.mark.parametrize(
    "method, field, value",
    [
        ("universal-hard", "sigma", np.nan),
        ("universal-soft", "threshold", np.inf),
        ("band", "band", -np.inf),
    ],
)
def test_non_finite_detail_refused(method, field, value):
    _, report = enhance(_noisy(1), EnhanceConfig(method=method, seed=1))
    values = np.array(getattr(report, field))
    values.flat[-1] = value
    setattr(report, field, values)
    with pytest.raises(ValueError, match="not JSON compliant"):
        oracle.v1_json(report)  # the reference refuses it too
    with pytest.raises(ValueError, match="not JSON compliant"):
        report.to_json()
