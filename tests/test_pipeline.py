"""Tests for noise profiling, VUV classification and the full pipeline."""

import json
import math

import numpy as np
import pytest

from wpdenoise import stats
from wpdenoise.pipeline import (
    EnhanceConfig,
    analyze,
    classify_vuv,
    enhance,
    estimate_noise_profile,
    leaf_coefficients,
)
from wpdenoise.framing import frame_count
from wpdenoise.signal_io import SignalBuffer, sine_wave, white_noise
from wpdenoise.stats import (
    ratio_profile,
    row_histograms,
    shared_edges,
    symmetric_divergence,
    to_probability,
)
from wpdenoise.thresholding import universal_threshold
from wpdenoise.wavelet import filter_bank, wp_analysis
from wpdenoise.experiments import sine_0db_material


def _silence_lead_sine(duration_s=2.0, rate=16000, lead_s=0.25):
    tone = sine_wave(440, 0.5, duration_s, rate)
    samples = tone.samples.copy()
    samples[: int(lead_s * rate)] = 0.0
    return SignalBuffer(samples, rate)


class TestEnhanceConfig:
    def test_defaults_are_valid(self):
        EnhanceConfig().validate()

    def test_rejects_inconsistencies(self):
        bad = [
            EnhanceConfig(frame_len=500),
            EnhanceConfig(hop=100),
            EnhanceConfig(window="hamming"),
            EnhanceConfig(wavelet="coif1"),
            EnhanceConfig(depth=9),  # leaf would be 1 sample
            EnhanceConfig(method="sure"),
            EnhanceConfig(unvoiced_scale=0.0),
            EnhanceConfig(unvoiced_scale=1.5),
            EnhanceConfig(noise_estimation="vad"),
            EnhanceConfig(silence_ms=0.0),
            EnhanceConfig(band_tolerance=-1.0),
            EnhanceConfig(epsilon=0.5),
        ]
        for cfg in bad:
            with pytest.raises(ValueError):
                cfg.validate()

    @pytest.mark.parametrize(
        "field",
        [
            "silence_ms", "band_tolerance", "entropy_threshold",
            "unvoiced_scale", "epsilon",
        ],
    )
    def test_rejects_non_finite_floats(self, field):
        # NaN slips through every range check written as a comparison
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=rf"^{field} "):
                EnhanceConfig(**{field: value}).validate()

    @pytest.mark.parametrize("noise_estimation", ["leading_silence", "mad"])
    def test_epsilon_checked_against_largest_histogram_first(
        self, noise_estimation, monkeypatch
    ):
        # 0.05 passes the per-frame check (11 bins) but not the pooled
        # noise histograms: 25 bins from the leading silence, 141 from
        # the level-1 detail of all 312 frames in mad mode.
        import wpdenoise.pipeline as pipeline

        def no_transform(*args, **kwargs):
            raise AssertionError("transform ran before the epsilon check")

        monkeypatch.setattr(pipeline, "wp_analysis", no_transform)
        monkeypatch.setattr(pipeline, "analysis_step", no_transform)
        _, noisy = sine_0db_material(seed=1)
        config = EnhanceConfig(epsilon=0.05, noise_estimation=noise_estimation)
        config.validate()
        bins = 25 if noise_estimation == "leading_silence" else 141
        with pytest.raises(ValueError, match=rf"epsilon=0\.05 .*\(0, 1/{bins}\)"):
            enhance(noisy, config)


class TestEstimateNoiseProfile:
    def test_leading_silence_matches_full_signal_distribution(self):
        # pure noise: a 100 ms profile estimated from 1e5 samples should
        # look like the whole signal, subband by subband. The rate is a
        # synthetic desk-scale choice that puts 1e5 samples in the span.
        rate = 10**6
        noise = white_noise(1.0, 0.4, rate, seed=21)
        config = EnhanceConfig()
        profile = estimate_noise_profile(noise, config)

        from wpdenoise.stats import shared_edges

        span = int(round(config.silence_ms / 1000 * rate))
        assert span == 10**5

        def subband_pools(samples):
            leaves = leaf_coefficients(SignalBuffer(samples, rate), config)
            return [leaves[:, i].ravel() for i in range(config.n_subbands)]

        lead_pools = subband_pools(noise.samples[: span - span % config.hop])
        full_pools = subband_pools(noise.samples)
        for i in range(config.n_subbands):
            edges = shared_edges(lead_pools[i], full_pools[i])
            p = to_probability(
                row_histograms(lead_pools[i], edges=edges), config.epsilon
            )
            q = to_probability(
                row_histograms(full_pools[i], edges=edges), config.epsilon
            )
            assert symmetric_divergence(p, q) <= 0.05
            # the stored profile sigma tracks the full-signal level
            full_sigma = profile.sigma[i]
            assert abs(full_sigma - np.median(np.abs(full_pools[i])) / 0.6745) < 0.05

    def test_zero_signal_gives_zero_sigma(self):
        silent = SignalBuffer(np.zeros(16000), 16000)
        profile = estimate_noise_profile(silent, EnhanceConfig())
        assert np.all(profile.sigma == 0.0)

    def test_mad_mode_recovers_unit_sigma(self):
        # rectangular window so leaf coefficients keep the raw noise scale
        noise = white_noise(1.0, 2.0, 16000, seed=22)
        config = EnhanceConfig(noise_estimation="mad", window="rectangular")
        profile = estimate_noise_profile(noise, config)
        sigma = np.broadcast_to(profile.sigma, (config.n_subbands,))
        assert np.all(np.abs(sigma - 1.0) < 0.05)

    def test_short_silence_span_rejected(self):
        sig = white_noise(1.0, 1.0, 16000, seed=23)
        with pytest.raises(ValueError, match="shorter than one frame"):
            estimate_noise_profile(sig, EnhanceConfig(silence_ms=10.0))

    def test_signal_shorter_than_span_rejected(self):
        sig = white_noise(1.0, 0.05, 16000, seed=24)
        with pytest.raises(ValueError):
            estimate_noise_profile(sig, EnhanceConfig(silence_ms=100.0))


def _frame_leaves(frames):
    return wp_analysis(np.atleast_2d(frames), filter_bank("db4"), 4)


class TestClassifyVuv:
    def test_peaky_coefficients_are_unvoiced(self):
        frame = np.zeros(512)
        frame[100] = 5.0  # a single spike concentrates the histogram
        assert classify_vuv(_frame_leaves(frame), 0.5, 1e-12) == ["unvoiced"]

    def test_spread_coefficients_are_voiced(self):
        rng = np.random.default_rng(25)
        spread = rng.uniform(-1, 1, (1, 16, 32))
        assert classify_vuv(spread, 0.5, 1e-12) == ["voiced"]

    def test_tie_goes_to_voiced(self):
        from wpdenoise.stats import entropy

        rng = np.random.default_rng(26)
        leaves = _frame_leaves(rng.normal(size=512))
        e = entropy(to_probability(row_histograms(leaves.ravel()), 1e-12))
        assert classify_vuv(leaves, e, 1e-12) == ["voiced"]
        assert classify_vuv(leaves, math.nextafter(e, math.inf), 1e-12) == ["unvoiced"]

    def test_one_label_per_frame(self):
        peaky = np.zeros(512)
        peaky[100] = 5.0
        spread = np.random.default_rng(27).normal(size=512)
        leaves = _frame_leaves([spread, peaky, spread])
        assert classify_vuv(leaves, 0.5, 1e-12) == ["voiced", "unvoiced", "voiced"]


class TestEnhance:
    @pytest.mark.parametrize("method", ["universal-hard", "universal-soft"])
    def test_zero_noise_threshold_zero_is_identity(self, method):
        # silent lead-in -> sigma 0 -> universal threshold 0: the whole
        # pipeline collapses to the framing+wavelet round trip
        clean = _silence_lead_sine()
        config = EnhanceConfig(method=method, vuv_enabled=False)
        out, report = enhance(clean, config)
        np.testing.assert_allclose(out.samples, clean.samples, atol=1e-10)
        assert report.threshold.shape == report.n_zero_pre.shape
        assert np.all(report.threshold == 0.0)

    @pytest.mark.parametrize("method", ["universal-hard", "universal-soft", "band"])
    def test_silence_in_silence_out(self, method):
        silent = SignalBuffer(np.zeros(8192), 16000)
        out, _ = enhance(silent, EnhanceConfig(method=method))
        assert np.all(out.samples == 0.0)

    def test_output_length_matches_input(self):
        sig = white_noise(0.3, 0.2347, 16000, seed=27)  # awkward length
        out, _ = enhance(sig, EnhanceConfig())
        assert len(out) == len(sig)

    def test_deterministic(self):
        _, noisy = sine_0db_material(seed=5)
        config = EnhanceConfig(seed=5)
        out1, rep1 = enhance(noisy, config)
        out2, rep2 = enhance(noisy, config)
        assert np.array_equal(out1.samples, out2.samples)
        assert rep1.to_json() == rep2.to_json()

    def test_unvoiced_scaling_visible_in_report(self):
        clean, noisy = sine_0db_material(seed=3)
        config = EnhanceConfig(method="universal-hard", seed=3)
        _, report = enhance(noisy, config, reference=clean)
        n = config.coeffs_per_subband
        unvoiced = np.array([v == "unvoiced" for v in report.vuv])
        scale = np.where(unvoiced, config.unvoiced_scale, 1.0)
        expected = scale[:, None] * universal_threshold(report.sigma, n)[None, :]
        assert report.threshold.shape == expected.shape
        np.testing.assert_allclose(report.threshold, expected, rtol=0, atol=1e-12)
        # the preset must exercise both frame classes
        assert set(report.vuv) == {"voiced", "unvoiced"}

    def test_report_snr_fields_only_with_reference(self):
        clean, noisy = sine_0db_material(seed=4)
        config = EnhanceConfig(seed=4)
        _, bare = enhance(noisy, config)
        assert bare.input_snr_db is None and bare.output_snr_db is None
        _, with_ref = enhance(noisy, config, reference=clean)
        assert with_ref.input_snr_db is not None
        assert abs(with_ref.input_snr_db) < 1e-9  # mixed at 0 dB
        assert with_ref.output_snr_db > with_ref.input_snr_db

    def test_band_method_improves_snr(self):
        clean, noisy = sine_0db_material(seed=6)
        _, report = enhance(
            noisy, EnhanceConfig(method="band", seed=6), reference=clean
        )
        assert report.output_snr_db > report.input_snr_db
        assert report.threshold is None
        assert report.band.shape == (*report.n_zero_pre.shape, 2)
        t1, t2 = report.band[..., 0], report.band[..., 1]
        # well-formed interval
        assert np.all(((t1 <= 0.0) & (0.0 <= t2)) | (t1 <= t2))
        assert np.all(report.n_zero_post >= report.n_zero_pre)

    def test_report_arrays_ordered_and_sized(self):
        _, noisy = sine_0db_material(seed=7)
        config = EnhanceConfig(seed=7)
        _, report = enhance(noisy, config)
        shape = (frame_count(len(noisy), config.frame_len, config.hop), config.n_subbands)
        assert len(report.vuv) == shape[0] and report.sigma.shape == shape[1:]
        assert report.threshold.shape == report.n_zero_pre.shape == shape
        assert report.n_zero_post.shape == shape
        frames = json.loads(report.to_json())["frames"]
        assert [f["frame"] for f in frames] == list(range(shape[0]))
        for frame in frames:
            assert [s["subband"] for s in frame["subbands"]] == list(range(shape[1]))
        assert len(report.subband_divergence) == config.n_subbands
        assert all(math.isfinite(d) for d in report.subband_divergence)
        assert all(math.isfinite(r) for _, r in report.near_zero_ratios)

    def test_empty_signal_rejected(self):
        with pytest.raises(ValueError):
            enhance(SignalBuffer(np.zeros(0), 16000), EnhanceConfig())

    def test_invalid_config_rejected_before_processing(self):
        _, noisy = sine_0db_material(seed=8)
        with pytest.raises(ValueError):
            enhance(noisy, EnhanceConfig(hop=100))

    def test_mad_mode_bins_each_leaf_once(self, monkeypatch):
        # the noise profile bins the level-1 detail (F x N/2 values); VUV
        # and the per-subband statistics bin every leaf (F x N) once each,
        # and the pooled statistics reuse the per-subband counts
        binned = []
        bin_index = stats._bin_index

        def counting(x, edges):
            binned.append(x.size)
            return bin_index(x, edges)

        monkeypatch.setattr(stats, "_bin_index", counting)
        _, noisy = sine_0db_material(seed=2)
        config = EnhanceConfig(noise_estimation="mad", vuv_enabled=True)
        enhance(noisy, config)
        n = config.frame_len
        frames = frame_count(len(noisy), n, config.hop)
        assert sum(binned) == frames * n // 2 + 2 * frames * n


class TestAnalyze:
    def test_equals_per_subband_histograms_on_shared_edges(self):
        _, noisy = sine_0db_material(seed=4)
        noise = white_noise(0.3, 1.5, 16000, seed=5)
        config = EnhanceConfig(seed=4)
        report = analyze(noisy, noise, config)
        assert report.mode == "analyze" and report.seed == 4 and report.vuv == []
        noisy_leaves = leaf_coefficients(noisy, config)
        noise_leaves = leaf_coefficients(noise, config)
        assert len(report.histograms) == config.n_subbands
        for i, (div, h_ns, h_n) in enumerate(report.histograms):
            sub_ns, sub_n = noisy_leaves[:, i].ravel(), noise_leaves[:, i].ravel()
            edges = shared_edges(sub_ns, sub_n)
            want_ns = row_histograms(sub_ns, edges=edges)
            want_n = row_histograms(sub_n, edges=edges)
            np.testing.assert_array_equal(h_ns.bin_edges, edges)
            np.testing.assert_array_equal(h_ns.counts, want_ns.counts)
            np.testing.assert_array_equal(h_n.counts, want_n.counts)
            assert div == report.subband_divergence[i] == symmetric_divergence(
                to_probability(want_ns, config.epsilon),
                to_probability(want_n, config.epsilon),
            )
        edges = shared_edges(noisy_leaves.ravel(), noise_leaves.ravel())
        assert report.near_zero_ratios == ratio_profile(
            to_probability(
                row_histograms(noisy_leaves.ravel(), edges=edges), config.epsilon
            ),
            to_probability(
                row_histograms(noise_leaves.ravel(), edges=edges), config.epsilon
            ),
        )

    def test_sample_rate_mismatch_rejected(self):
        with pytest.raises(ValueError, match="sample rate"):
            analyze(
                white_noise(0.1, 0.5, 16000, seed=1),
                white_noise(0.1, 0.5, 8000, seed=1),
                EnhanceConfig(),
            )
