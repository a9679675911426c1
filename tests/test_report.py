"""Reports: schema-valid, finite, sized, stable, and written as the v1 reference.

`Report.to_json` writes its frame records from the arrays; the reference
is `scalar_oracle.v1_json`, the whole v1 dict through json.dumps.
"""

import json
import os
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_oracle as oracle
from conftest import examples
from wpdenoise.framing import WINDOWS, frame_count
from wpdenoise.pipeline import METHODS, NOISE_MODES, EnhanceConfig, enhance
from wpdenoise.report import Report, validate_report_dict
from wpdenoise.signal_io import SignalBuffer, mix_at_snr, sine_wave, white_noise
from wpdenoise.stats import row_histograms, shared_edges
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


@settings(max_examples=examples(20), deadline=None)
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
    # the (noisy, noise) pair of batch histograms, a row per subband on
    # that subband's shared edges, written as one v1 record per subband
    rng = np.random.default_rng(3)
    noisy, noise = rng.normal(size=(4, 200)), rng.normal(scale=0.5, size=(4, 150))
    edges = np.stack([shared_edges(a, b) for a, b in zip(noisy, noise)])
    report = Report(
        tool_version="0", mode="analyze", config={"depth": 2}, seed=5,
        subband_divergence=[0.1 * s for s in range(4)],
        near_zero_ratios=[(0.0, 1.5), (0.25, 0.75)],
        histograms=(row_histograms(noisy, edges=edges), row_histograms(noise, edges=edges)),
    )
    text = report.to_json()
    assert text == oracle.v1_json(report)
    d = json.loads(text)
    validate_report_dict(d)
    assert d["frames"] == [] and len(d["histograms"]) == 4
    for s, record in enumerate(d["histograms"]):
        assert record["subband"] == s and record["divergence"] == 0.1 * s
        for side, values in (("noisy", noisy[s]), ("noise", noise[s])):
            assert record[side] == {
                "edges": edges[s].tolist(),
                "counts": row_histograms(values, edges=edges[s]).counts.tolist()}


def test_report_without_vuv_labels():
    noisy = _noisy(4)
    _, report = enhance(noisy, EnhanceConfig(vuv_enabled=False, seed=4))
    assert report.vuv and all(label is None for label in report.vuv)
    assert report.to_json() == oracle.v1_json(report)


def test_write_is_the_json_text_and_a_shorter_rewrite_leaves_no_tail(tmp_path):
    # written over from the start, then cut; a FIFO is written, not cut
    long, short = (enhance(_noisy(4), EnhanceConfig(method=method, seed=4))[1]
                   for method in ("band", "universal-hard"))
    assert len(long.to_json()) > len(short.to_json())
    path = tmp_path / "report.json"
    long.write(path)
    short.write(path)
    assert path.read_text(encoding="utf-8") == short.to_json()
    fifo = tmp_path / "pipe.json"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_text(encoding="utf-8")),
                              daemon=True)
    reader.start()
    short.write(fifo)
    reader.join(timeout=30)
    assert not reader.is_alive() and got == [short.to_json()]


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


# Floats whose text the writer must keep: signed zeros, the smallest
# subnormals and the largest finite values.
_EDGE_FLOATS = (-0.0, 0.0, 5e-324, -5e-324,
                1.7976931348623157e308, -1.7976931348623157e308)
_FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_EDGE_FLOATS)


@st.composite
def hand_built_reports(draw):
    """A Report of 1-40 frames and 1, 2 or 16 subbands, built by hand.

    Each array is drawn from a small pool of values, so values repeat;
    zero counts run up to 10**12. The band and the threshold are each
    set or None, both None included; the VUV labels are mixed or all None.
    """
    n_frames = draw(st.integers(1, 40))
    n_sub = draw(st.sampled_from((1, 2, 16)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def pooled(values, shape):
        pool = draw(st.lists(values, min_size=1, max_size=8))
        return np.array(pool)[rng.integers(0, len(pool), size=shape)]

    counts = st.integers(0, 10**12)
    has_band, has_threshold = draw(st.sampled_from(
        ((True, False), (False, True), (False, False), (True, True))
    ))
    all_none = draw(st.booleans())
    labels = st.none() if all_none else st.sampled_from(("voiced", "unvoiced", None))
    return Report(
        tool_version="0", mode="denoise", config={"depth": 4}, seed=None,
        vuv=draw(st.lists(labels, min_size=n_frames, max_size=n_frames)),
        sigma=pooled(_FINITE, n_sub),
        threshold=pooled(_FINITE, (n_frames, n_sub)) if has_threshold else None,
        band=pooled(_FINITE, (n_frames, n_sub, 2)) if has_band else None,
        n_zero_pre=pooled(counts, (n_frames, n_sub)),
        n_zero_post=pooled(counts, (n_frames, n_sub)),
    )


@settings(max_examples=examples(60), deadline=None)
@given(hand_built_reports())
def test_hand_built_report_is_written_as_the_v1_reference(report):
    assert report.to_json() == oracle.v1_json(report)


@settings(max_examples=examples(30), deadline=None)
@given(hand_built_reports(), st.sampled_from(("sigma", "threshold", "band")),
       st.sampled_from((np.nan, np.inf, -np.inf)), st.integers(0, 2**16))
def test_hand_built_non_finite_value_names_its_field(report, name, value, where):
    values = getattr(report, name)
    if values is None:  # an unset field gets values to spoil
        shape = (len(report.vuv), len(report.sigma)) + ((2,) if name == "band" else ())
        values = np.zeros(shape)
        setattr(report, name, values)
    values.flat[where % values.size] = value
    with pytest.raises(ValueError, match="not JSON compliant"):
        oracle.v1_json(report)
    with pytest.raises(ValueError,
                       match=f"^Out of range float values are not JSON compliant: {name}$"):
        report.to_json()


@pytest.mark.parametrize("has_threshold, has_band",
                         [(False, False), (True, False), (False, True), (True, True)])
def test_frames_without_subbands_are_written_as_the_v1_reference(has_threshold, has_band):
    # json.dumps writes an empty subband list as []
    report = Report(
        tool_version="0", mode="denoise", config={}, seed=None,
        vuv=["voiced", None, "unvoiced"], sigma=np.zeros(0),
        threshold=np.zeros((3, 0)) if has_threshold else None,
        band=np.zeros((3, 0, 2)) if has_band else None,
        n_zero_pre=np.zeros((3, 0), dtype=int), n_zero_post=np.zeros((3, 0), dtype=int),
    )
    text = report.to_json()
    assert text == oracle.v1_json(report)
    assert text.count('"subbands": [],') == 3


def test_counts_beyond_int64_are_written_exactly():
    report = Report(
        tool_version="0", mode="denoise", config={}, seed=None,
        vuv=["voiced", None], sigma=np.array([0.5]), threshold=np.array([[1.0], [2.0]]),
        n_zero_pre=np.array([[10**30], [3]], dtype=object), n_zero_post=[[2**70], [0]],
    )
    text = report.to_json()
    assert text == oracle.v1_json(report)
    assert json.loads(text)["frames"][0]["subbands"][0]["n_zero_pre"] == 10**30


@pytest.mark.parametrize("n_frames", [0, 2])
def test_frames_go_in_at_the_top_level_key_only(n_frames):
    # the key's text inside a string, or one level deeper, is not the key
    report = Report(
        tool_version='"frames": []', mode="denoise",
        config={"frames": [], "note": '\n  "frames": []'}, seed=None,
        vuv=["voiced"] * n_frames, sigma=np.array([0.5]),
        threshold=np.ones((n_frames, 1)),
        n_zero_pre=np.zeros((n_frames, 1), dtype=int),
        n_zero_post=np.ones((n_frames, 1), dtype=int),
    )
    text = report.to_json()
    assert text == oracle.v1_json(report)
    d = json.loads(text)
    assert d["tool_version"] == '"frames": []' and d["config"]["frames"] == []
    assert len(d["frames"]) == n_frames
