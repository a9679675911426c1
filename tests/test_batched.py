"""The batched packet core against the per-frame scalar oracle.

Property tests cover the transform, overlap-add, the row-wise histograms,
band selection and the rule that every statistic reduces the last axis
row by row; whole `enhance` runs are compared on the sine-0db preset and
on a speech-like input in mad mode.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import scalar_oracle as oracle
from wpdenoise.experiments import sine_0db_material
from wpdenoise import pipeline, stats
from wpdenoise.framing import WINDOWS, make_frames, overlap_add
from wpdenoise.pipeline import EnhanceConfig, enhance
from wpdenoise.signal_io import SignalBuffer, mix_at_snr, white_noise
from wpdenoise.stats import (
    Histogram,
    ProbabilityVector,
    bin_count,
    entropy,
    kl_divergence,
    row_histograms,
    symmetric_divergence,
    to_probability,
    zero_bin_index,
)
from wpdenoise.thresholding import estimate_sigma, select_band
from wpdenoise.wavelet import filter_bank, wp_analysis, wp_synthesis

PROPERTY = settings(max_examples=60, deadline=None)


@st.composite
def packet_cases(draw):
    """A valid (wavelet, depth, frame length, frame count) and frames."""
    name = draw(st.sampled_from(["haar", "db4"]))
    taps = len(filter_bank(name))
    log_n = draw(st.integers(min_value=taps.bit_length(), max_value=10))
    depth = draw(st.integers(min_value=1, max_value=log_n - (taps.bit_length() - 1)))
    n_frames = draw(st.integers(min_value=1, max_value=5))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    scale = draw(st.sampled_from([1e-3, 1.0, 30.0]))
    frames = scale * np.random.default_rng(seed).normal(size=(n_frames, 1 << log_n))
    return name, depth, frames


@PROPERTY
@given(packet_cases())
def test_batched_transform_equals_scalar_oracle(case):
    name, depth, frames = case
    fb = filter_bank(name)
    scale = max(1.0, float(np.max(np.abs(frames))))
    leaves = wp_analysis(frames, fb, depth)
    assert leaves.shape == (len(frames), 1 << depth, frames.shape[1] >> depth)
    for frame, frame_leaves in zip(frames, leaves):
        want = np.array(oracle.wp_decompose(frame, fb, depth).leaves)
        np.testing.assert_allclose(frame_leaves, want, rtol=0, atol=1e-12 * scale)
    rebuilt = wp_synthesis(leaves, fb)
    for frame_leaves, frame in zip(leaves, rebuilt):
        want = oracle.wp_reconstruct(list(frame_leaves), fb)
        np.testing.assert_allclose(frame, want, rtol=0, atol=1e-12 * scale)


@PROPERTY
@given(packet_cases())
def test_batched_round_trip(case):
    name, depth, frames = case
    fb = filter_bank(name)
    scale = max(1.0, float(np.max(np.abs(frames))))
    rebuilt = wp_synthesis(wp_analysis(frames, fb, depth), fb)
    np.testing.assert_allclose(rebuilt, frames, rtol=0, atol=1e-10 * scale)


@st.composite
def ola_cases(draw):
    """A signal, a valid (frame length, hop, window) and a seeded generator."""
    frame_len = 1 << draw(st.integers(min_value=0, max_value=9))
    shift = draw(st.integers(min_value=0, max_value=frame_len.bit_length() - 1))
    hop = frame_len >> shift
    n = draw(st.integers(min_value=0, max_value=4 * frame_len))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    signal = SignalBuffer(rng.normal(size=n), 16000)
    return signal, frame_len, hop, draw(st.sampled_from(WINDOWS)), rng


@PROPERTY
@given(ola_cases())
def test_overlap_add_identity_and_frame_loop(case):
    signal, frame_len, hop, window, rng = case
    frames = make_frames(signal, frame_len, hop, window)
    np.testing.assert_allclose(
        overlap_add(frames).samples, signal.samples, rtol=0, atol=1e-12
    )
    # frames that no signal framed: the same sums as the frame-by-frame loop
    frames.frames = frames.frames * rng.normal(size=frames.frames.shape)
    np.testing.assert_array_equal(
        overlap_add(frames).samples, oracle.overlap_add(frames)
    )


@st.composite
def binning_cases(draw):
    """Edges, and rows of values on, next to, between and outside them.

    Edges are either arbitrary increasing ones or np.linspace ones (the
    shape the library builds) at offsets up to 1e12, spanning from
    several units down to a few ulps per bin.
    """
    n_bins = draw(st.integers(min_value=1, max_value=12))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        edges = np.cumsum(rng.uniform(0.1, 2.0, n_bins + 1)) - draw(
            st.floats(min_value=-5.0, max_value=30.0)
        )
    else:
        offset = draw(st.sampled_from([0.0, -2.5, 1.0, 1e6, -3e7, 1e12]))
        ulp = np.spacing(max(abs(offset), 1.0))
        span = draw(st.sampled_from([1e-3, 1.0, 50.0, 2 * ulp, 3 * ulp, 7 * ulp]))
        edges = np.linspace(offset, offset + span * n_bins, n_bins + 1)
        assume(np.all(np.diff(edges) > 0))
    mids = 0.5 * (edges[:-1] + edges[1:])
    outside = np.array([edges[0] - 1.0, edges[-1] + 1.0, edges[0] - 1e-12,
                        -np.inf, np.inf])
    pool = np.concatenate([
        edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf), mids,
        outside, rng.uniform(edges[0], edges[-1], 8),
    ])
    n_rows = draw(st.integers(min_value=1, max_value=4))
    n_values = draw(st.integers(min_value=1, max_value=40))
    values = rng.choice(pool, size=(n_rows, n_values))
    return edges, values


def _np_counts(row, edges):
    """The specification: np.histogram of the row clamped into the edges."""
    return np.histogram(np.clip(row, edges[0], edges[-1]), bins=edges)[0]


def _own_edges(row):
    """Square-root-rule np.linspace edges over [min, max] of the row.

    A single value is widened by +-1e-9, and a range whose edges would
    still not strictly increase by 4 * B ulps of its magnitude.
    """
    lo, hi = float(np.min(row)), float(np.max(row))
    n_bins = bin_count(len(row))
    half = 1e-9 if lo == hi else 0.0
    edges = np.linspace(lo - half, hi + half, n_bins + 1)
    if np.any(np.diff(edges) <= 0):
        half = max(half, 4 * n_bins * float(np.spacing(max(abs(lo), abs(hi)))))
        edges = np.linspace(lo - half, hi + half, n_bins + 1)
    return edges


@PROPERTY
@given(binning_cases())
def test_row_histograms_equal_np_histogram(case):
    edges, values = case
    np.testing.assert_array_equal(
        stats._bin_index(values, edges), oracle.bin_index(values, edges)
    )
    shared = row_histograms(values, edges=edges)
    for i, row in enumerate(values):
        want = _np_counts(row, edges)
        np.testing.assert_array_equal(shared.counts[i], want)
        np.testing.assert_array_equal(row_histograms(row, edges=edges).counts, want)
    # per-row (S, B + 1) edges broadcast against (F, S, n) values
    per_row_edges = np.stack([edges if s % 2 == 0 else -edges[::-1]
                              for s in range(len(values))])
    blocks = np.stack([values, -values, values[::-1]])
    per_row = row_histograms(blocks, edges=per_row_edges)
    assert per_row.counts.shape == blocks.shape[:-1] + (len(edges) - 1,)
    np.testing.assert_array_equal(
        stats._bin_index(blocks, per_row_edges), oracle.bin_index(blocks, per_row_edges)
    )
    for f, s in np.ndindex(blocks.shape[:-1]):
        np.testing.assert_array_equal(
            per_row.counts[f, s], _np_counts(blocks[f, s], per_row_edges[s])
        )
    # each row's own edges, which need finite values
    finite = np.nan_to_num(values, posinf=edges[-1] + 1.0, neginf=edges[0] - 1.0)
    own = row_histograms(finite)
    for i, row in enumerate(finite):
        own_edges = _own_edges(row)
        np.testing.assert_array_equal(own.bin_edges[i], own_edges)
        np.testing.assert_array_equal(own.counts[i], _np_counts(row, own_edges))
        np.testing.assert_array_equal(row_histograms(row).counts, own.counts[i])
    # to_probability and entropy reduce row by row
    p = to_probability(shared, 1e-12)
    for i, row in enumerate(values):
        q = to_probability(row_histograms(row, edges=edges), 1e-12)
        np.testing.assert_allclose(p.probs[i], q.probs, rtol=0, atol=1e-15)
        assert abs(entropy(p)[i] - entropy(q)) <= 1e-12


@st.composite
def band_cases(draw):
    """Noise and noisy distributions on edges that straddle zero.

    Each noisy row scales every noise count by 1 or 2, so rows range
    from the noise distribution itself (all contributions 0) to ones
    far from it.
    """
    n_bins = draw(st.integers(min_value=1, max_value=15))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    edges = np.cumsum(rng.uniform(0.1, 1.0, n_bins + 1))
    edges -= rng.uniform(edges[0], edges[-1])  # zero lies inside the support
    n_rows = draw(st.integers(min_value=1, max_value=6))
    noise = rng.integers(1, 100, n_bins)
    noisy = noise * rng.integers(1, 3, size=(n_rows, n_bins))
    p_ns = to_probability(Histogram(edges, noisy), 1e-12)
    p_n = to_probability(Histogram(edges, noise), 1e-12)
    tolerance = draw(st.sampled_from([0.0, 1e-4, 1e-3, 1e-2, 0.1, 10.0]))
    return p_ns, p_n, tolerance


@PROPERTY
@given(band_cases())
def test_vectorised_select_band_equals_scalar(case):
    p_ns, p_n, tolerance = case
    t1, t2 = select_band(p_ns, p_n, tolerance)
    edges = p_n.bin_edges
    zero = zero_bin_index(edges)
    for i in range(len(p_ns.probs)):
        row = ProbabilityVector(p_ns.probs[i], edges, p_ns.epsilon)
        want = oracle.select_band(row, p_n, tolerance)
        assert (t1[i], t2[i]) == want
        assert select_band(row, p_n, tolerance) == want
        # the band always contains the zero bin
        assert t1[i] <= edges[zero] and t2[i] >= edges[zero + 1]


@PROPERTY
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=300),
)
def test_every_reduction_is_the_call_on_each_row(seed, n_frames, n_sub, n):
    """Row i of a batch call equals the call on row i alone, exactly."""
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(n_frames, n_sub, n))
    noise = rng.normal(size=(n_sub, n))
    n_bins = bin_count(n) | 1
    edges = np.linspace(-3.0, 3.0, n_bins + 1)
    row_edges = edges * rng.uniform(0.5, 2.0, size=(n_frames, n_sub, 1))
    own = row_histograms(values)
    h = row_histograms(values, edges=row_edges)
    p = to_probability(h, 1e-12)
    p_ns = to_probability(row_histograms(values, edges=edges), 1e-12)
    p_n = to_probability(row_histograms(noise, edges=edges), 1e-12)
    tolerance = rng.choice([0.0, 1e-3, 1e-1])
    t1, t2 = select_band(p_ns, p_n, tolerance)
    batch = {
        "kl": kl_divergence(p_ns, p_n),
        "sym": symmetric_divergence(p_ns, p_n),
        "entropy": entropy(p),
        "zero": zero_bin_index(row_edges),
        "sigma": estimate_sigma(values),
    }
    for f, s in np.ndindex(n_frames, n_sub):
        one = row_histograms(values[f, s])
        np.testing.assert_array_equal(one.bin_edges, own.bin_edges[f, s])
        np.testing.assert_array_equal(one.counts, own.counts[f, s])
        assert one.total == own.total[f, s] == n
        one = row_histograms(values[f, s], edges=row_edges[f, s])
        np.testing.assert_array_equal(one.counts, h.counts[f, s])
        q = to_probability(one, 1e-12)
        np.testing.assert_array_equal(q.probs, p.probs[f, s])
        q_ns = ProbabilityVector(p_ns.probs[f, s], edges, 1e-12)
        q_n = ProbabilityVector(p_n.probs[s], edges, 1e-12)
        row = {
            "kl": kl_divergence(q_ns, q_n),
            "sym": symmetric_divergence(q_ns, q_n),
            "entropy": entropy(q),
            "zero": zero_bin_index(row_edges[f, s]),
            "sigma": estimate_sigma(values[f, s]),
        }
        for name, got in row.items():
            assert np.ndim(got) == 0 and got == batch[name][f, s], name
        assert select_band(q_ns, q_n, tolerance) == (t1[f, s], t2[f, s])


def _speech_like(seconds: float, seed: int) -> tuple:
    """Harmonic bursts between noise-only gaps, with a 0.25 s noise lead-in."""
    rate = 16000
    rng = np.random.default_rng(seed)
    clean = np.zeros(int(seconds * rate))
    start = int(0.25 * rate)
    while start < len(clean):
        length = int(rng.uniform(0.15, 0.4) * rate)
        t = np.arange(min(length, len(clean) - start)) / rate
        f0 = rng.uniform(95.0, 250.0)
        burst = sum(np.sin(2 * np.pi * h * f0 * t) / h for h in range(1, 6))
        clean[start:start + len(t)] = 0.3 * burst * np.hanning(len(t))
        start += length + int(rng.uniform(0.05, 0.3) * rate)
    clean = SignalBuffer(clean, rate)
    noisy = mix_at_snr(clean, white_noise(1.0, seconds, rate, seed), 5.0)
    return clean, noisy


def _assert_matches_oracle(noisy, config):
    enhanced, report = enhance(noisy, config)
    samples, records = oracle.enhance(noisy, config)
    np.testing.assert_allclose(enhanced.samples, samples, rtol=0, atol=1e-12)
    assert list(report.vuv) == [vuv for vuv, _ in records]
    shape = (len(records), config.n_subbands)
    rows = [row for _, subbands in records for row in subbands]
    sigma, threshold, band, n_zero_pre, n_zero_post = zip(*rows)
    np.testing.assert_array_equal(report.n_zero_pre, np.reshape(n_zero_pre, shape))
    np.testing.assert_array_equal(report.n_zero_post, np.reshape(n_zero_post, shape))
    np.testing.assert_allclose(
        np.broadcast_to(report.sigma, shape), np.reshape(sigma, shape),
        rtol=0, atol=1e-12,
    )
    if config.method == "band":
        assert report.threshold is None and set(threshold) == {None}
        np.testing.assert_allclose(
            report.band, np.reshape(band, (*shape, 2)), rtol=0, atol=1e-12
        )
    else:
        assert report.band is None and set(band) == {None}
        np.testing.assert_allclose(
            report.threshold, np.reshape(threshold, shape), rtol=0, atol=1e-12
        )
    return report


@pytest.mark.parametrize("method", ["universal-hard", "universal-soft", "band"])
def test_enhance_matches_oracle_on_preset(method):
    _, noisy = sine_0db_material(seed=11)
    report = _assert_matches_oracle(noisy, EnhanceConfig(method=method, seed=11))
    assert set(report.vuv) == {"voiced", "unvoiced"}


@pytest.mark.parametrize("method", ["universal-hard", "band"])
def test_enhance_matches_oracle_on_speech_like_mad(method, monkeypatch):
    _, noisy = _speech_like(3.0, seed=12)
    config = EnhanceConfig(method=method, noise_estimation="mad", seed=12)
    # 187 frames x 16 subbands x 109 bins: blocks of 11 frames, the last
    # one shorter, check that band selection block by block changes nothing.
    monkeypatch.setattr(pipeline, "_BAND_BLOCK_VALUES", 11 * 16 * 109)
    _assert_matches_oracle(noisy, config)
