"""The batched packet core against the per-frame scalar oracle.

Property tests cover the transform, overlap-add, the row-wise histograms,
band selection and the rule that every statistic reduces the last axis
row by row; whole `enhance` runs are compared on the sine-0db preset and
on a speech-like input in mad mode.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import scalar_oracle as oracle
from conftest import examples
from wpdenoise.experiments import sine_0db_material
from wpdenoise import pipeline, stats
from wpdenoise.framing import WINDOWS, frame_count, make_frames, overlap_add, window_values
from wpdenoise.pipeline import METHODS, NOISE_MODES, EnhanceConfig, enhance
from wpdenoise.signal_io import SignalBuffer, mix_at_snr, sine_wave, white_noise
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
from wpdenoise.wavelet import FILTERS, filter_bank, wp_analysis, wp_synthesis

PROPERTY = settings(max_examples=examples(60), deadline=None)


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


@pytest.mark.parametrize("name", ["haar", "db4"])
@pytest.mark.parametrize("n", [64, 1024])
def test_level_1_split_further_equals_the_full_split(name, n):
    # mad-mode enhance splits its frames to level 1 once, for the noise
    # profile, and splits that level's 2F rows depth - 1 levels on for
    # the leaves (none at depth 1), written over the level-1 array: each
    # depth splits a copy of it
    fb = filter_bank(name)
    frames = 30.0 * np.random.default_rng(n).normal(size=(3, n))
    level1 = wp_analysis(frames, fb, 1)
    depth = 1
    while n >> depth >= len(fb):  # every depth check_packet allows
        rows = pipeline._analysis(level1.reshape(-1, n // 2).copy(), fb, depth - 1)
        leaves = rows.reshape(len(frames), 1 << depth, -1)
        want = wp_analysis(frames, fb, depth)
        assert leaves.shape == want.shape
        if depth == 1:
            np.testing.assert_array_equal(leaves, want)
        else:
            np.testing.assert_allclose(leaves, want, rtol=0,
                                       atol=1e-12 * np.abs(want).max())
        depth += 1
    assert depth > 2


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
    # frame k is w * signal[k*hop : k*hop + N], zero-padded
    w = window_values(window, frame_len)
    for k, frame in enumerate(frames.frames):
        chunk = signal.samples[k * hop : k * hop + frame_len]
        np.testing.assert_array_equal(
            frame, w * np.concatenate((chunk, np.zeros(frame_len - len(chunk))))
        )
    np.testing.assert_allclose(
        overlap_add(frames).samples, signal.samples, rtol=0, atol=1e-12
    )
    # frames that no signal framed: the same sums as the frame-by-frame loop
    frames = replace(frames, frames=frames.frames * rng.normal(size=frames.frames.shape))
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

    A single value is widened by +-1e-9 first. A range whose edges would
    still not strictly increase gets bins of max(step, 4 ulps of its
    magnitude), centred on the range.
    """
    lo, hi = float(np.min(row)), float(np.max(row))
    n_bins = bin_count(len(row))
    half = 1e-9 if lo == hi else 0.0
    lo, hi = lo - half, hi + half
    edges = np.linspace(lo, hi, n_bins + 1)
    if np.any(np.diff(edges) <= 0):
        width = max((hi - lo) / n_bins, 4 * float(np.spacing(max(abs(lo), abs(hi)))))
        edges = (lo / 2 + hi / 2 - width * (n_bins / 2)) + np.arange(n_bins + 1) * width
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


def test_bin_index_of_proven_and_unproven_rows_in_one_call():
    # proven rows alone share the block's largest slack as their bound
    # (0 for -3..3, 8e-10 for 1e6 + 0.1 k, whose f(e_4) is below 4); a
    # +-1e308 span has scale 0 and a subnormal span scale inf, so their
    # guesses of +-inf or an edge are NaN, set to 0.5 before every value
    # of such a row steps, and each row keeps its own slack
    k = np.arange(7) - 3.0
    edges = np.stack([k, 1e6 + 0.1 * k, k * (1e308 / 3), k * 5e-324])
    values = np.stack([
        np.concatenate([e, np.nextafter(e, -np.inf), np.nextafter(e, np.inf),
                        e[:-1] / 2 + e[1:] / 2, [-np.inf, np.inf, 0.0, 1e6]])
        for e in edges
    ])
    blocks = np.stack([values, np.random.default_rng(3).permuted(values, axis=-1)])
    for rows in (slice(2), slice(None)):  # the proven rows, then all
        # (rows, n), and (frames, rows, n) as the pooled counts bin them
        for x in (values[rows], blocks[:, rows]):
            np.testing.assert_array_equal(stats._bin_index(x, edges[rows]),
                                          oracle.bin_index(x, edges[rows]))


@pytest.mark.parametrize("block", [stats._BLOCK_VALUES, 48])
def test_blocked_row_histograms_equal_np_histogram(block, monkeypatch):
    # rows are binned in blocks of `block` values: whole rows, or column
    # slices of a longer row; infinities sit in each input's last block
    monkeypatch.setattr(stats, "_BLOCK_VALUES", block)
    rng = np.random.default_rng(13)
    edges = np.linspace(-3.0, 3.0, 24)
    # one row longer than a block and not a multiple of it
    long_row = rng.standard_normal(2 * block + block // 3)
    long_row[-2:] = -np.inf, np.inf
    np.testing.assert_array_equal(
        stats._bin_index(long_row, edges), oracle.bin_index(long_row, edges)
    )
    np.testing.assert_array_equal(
        row_histograms(long_row, edges=edges).counts, _np_counts(long_row, edges)
    )
    finite = long_row[:-2]
    own = row_histograms(finite)
    np.testing.assert_array_equal(own.bin_edges, _own_edges(finite))
    np.testing.assert_array_equal(own.counts, _np_counts(finite, _own_edges(finite)))
    # 16 rows, 6 to a block, and per-row (S, B + 1) edges over (F, S, n)
    width = block // 7 + 1
    values = rng.standard_normal((4, 4, width))
    values[-1, -1, :2] = np.inf, -np.inf
    per_row_edges = np.stack([edges * (s + 1) - s for s in range(4)])
    per_row = row_histograms(values, edges=per_row_edges)
    shared = row_histograms(values, edges=edges)
    for f, s in np.ndindex(values.shape[:-1]):
        np.testing.assert_array_equal(
            per_row.counts[f, s], _np_counts(values[f, s], per_row_edges[s])
        )
        np.testing.assert_array_equal(shared.counts[f, s], _np_counts(values[f, s], edges))
    rows = values[:, :, 2:].reshape(-1, width - 2)
    own = row_histograms(rows)
    for i, row in enumerate(rows):
        np.testing.assert_array_equal(own.bin_edges[i], _own_edges(row))
        np.testing.assert_array_equal(own.counts[i], _np_counts(row, _own_edges(row)))


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


def _speech_like(seconds: float, seed: int, lead_s: float = 0.25) -> tuple:
    """Harmonic bursts between noise-only gaps, after a noise lead-in."""
    rate = 16000
    rng = np.random.default_rng(seed)
    clean = np.zeros(int(seconds * rate))
    start = int(lead_s * rate)
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


def _assert_matches_oracle(noisy, config, sample_atol=1e-12):
    enhanced, report = enhance(noisy, config)
    samples, records = oracle.enhance(noisy, config)
    off = ~(np.abs(enhanced.samples - samples) <= sample_atol)  # NaN is off too
    assert not np.any(off), f"samples {np.flatnonzero(off)} differ by more than their bound"
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
    # 187 frames x 16 subbands x 109 bins: a block holds _BLOCK_VALUES //
    # (subbands x bins) frames, here 11, the last block shorter; band
    # selection block by block changes nothing.
    monkeypatch.setattr(pipeline, "_BLOCK_VALUES", 11 * 16 * 109)
    _assert_matches_oracle(noisy, config)


def _window_power(config: EnhanceConfig, n: int) -> np.ndarray:
    """Sample j's overlap-add normaliser: the sum of w**2 over the frames
    that cover it."""
    w2 = window_values(config.window, config.frame_len) ** 2
    n_frames = frame_count(n, config.frame_len, config.hop)
    power = np.zeros((n_frames - 1) * config.hop + config.frame_len)
    for k in range(n_frames):
        power[k * config.hop : k * config.hop + config.frame_len] += w2
    return power[:n]


@st.composite
def enhance_cases(draw):
    """A config of every geometry, depth, window, noise mode, method and
    lead-in, and a 0.25-0.5 s speech-like or sine-plus-noise input."""
    wavelet = draw(st.sampled_from(FILTERS))
    frame_len = 1 << draw(st.integers(6, 10))
    max_depth = (frame_len // len(filter_bank(wavelet))).bit_length() - 1
    kwargs = dict(
        frame_len=frame_len, hop=frame_len // draw(st.sampled_from([2, 4])),
        wavelet=wavelet, depth=draw(st.integers(1, max_depth)),
        window=draw(st.sampled_from(WINDOWS)), method=draw(st.sampled_from(METHODS)),
        noise_estimation=draw(st.sampled_from(NOISE_MODES)),
        vuv_enabled=draw(st.booleans()),
        silence_ms=draw(st.sampled_from([40.0, 100.0, 250.0])),
    )
    seconds = draw(st.sampled_from([0.25, 0.3125, 0.375, 0.5]))
    seed = draw(st.integers(0, 2**16))
    if draw(st.booleans()):
        noisy = _speech_like(seconds, seed, lead_s=draw(st.sampled_from([0.0625, 0.125])))[1]
    else:
        tone = sine_wave(draw(st.sampled_from([220.0, 440.0, 1000.0])), 0.5, seconds, 16000)
        noisy = mix_at_snr(tone, white_noise(1.0, seconds, 16000, seed), 0.0)
    return kwargs, noisy


@settings(max_examples=examples(12), deadline=None)
@given(enhance_cases())
def test_enhance_matches_oracle_over_drawn_configs(case):
    """enhance against the per-frame oracle, config by config.

    VUV labels and zero counts are equal; sigma, thresholds and bands
    agree within 1e-12. Sample j agrees within 1e-12 * max(1, 1/sqrt(n_j)),
    n_j being its overlap-add normaliser. That is 1e-12 wherever the
    window power is full (n_j >= 1, as at every rectangular sample) and
    at most 1.5e-12 in the hann interior (n_j >= 1/2). Only at a hann
    sample that one frame alone covers, such as the first, does it grow
    to 1e-12 times the overlap-add edge gain 1/w[0] (`framing.edge_gain`),
    because there a last-bit difference of a rebuilt frame becomes about
    1e-11. It is not a wider bound anywhere else.
    """
    kwargs, noisy = case
    try:
        config = EnhanceConfig(**kwargs)
        pipeline._analyse(noisy, config)  # the span and epsilon checks
    except ValueError:
        assume(False)
    bound = 1e-12 * np.maximum(1.0, 1.0 / np.sqrt(_window_power(config, len(noisy))))
    _assert_matches_oracle(noisy, config, sample_atol=bound)
