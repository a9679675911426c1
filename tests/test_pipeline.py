"""Tests for noise profiling, VUV classification and the full pipeline."""

import dataclasses
import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import examples, in_layout

from wpdenoise import stats
from wpdenoise import pipeline
from wpdenoise.pipeline import (
    METHODS,
    NOISE_MODES,
    EnhanceConfig,
    analyze,
    classify_vuv,
    enhance,
    estimate_noise_profile,
    leaf_coefficients,
)
from wpdenoise.framing import (
    WINDOWS, ColaError, edge_gain, frame_count, make_frames, max_peak, overlap_add,
)
from wpdenoise.signal_io import SignalBuffer, sine_wave, white_noise
from wpdenoise.stats import (
    ratio_profile,
    row_histograms,
    shared_edges,
    symmetric_divergence,
    to_probability,
)
from wpdenoise.report import validate_report_dict
from wpdenoise.thresholding import (
    band_hard_threshold, hard_threshold, soft_threshold, universal_threshold,
)
from wpdenoise.wavelet import FILTERS, filter_bank, wp_analysis, wp_synthesis
from wpdenoise.experiments import sine_0db_material


def _silence_lead_sine(duration_s=2.0, rate=16000, lead_s=0.25):
    tone = sine_wave(440, 0.5, duration_s, rate)
    samples = tone.samples.copy()
    samples[: int(lead_s * rate)] = 0.0
    return SignalBuffer(samples, rate)


class TestEnhanceConfig:
    def test_defaults_are_valid(self):
        EnhanceConfig()

    def test_rejects_inconsistencies(self):
        bad = [
            dict(frame_len=500),
            dict(hop=100),
            dict(window="hamming"),
            dict(wavelet="coif1"),
            dict(depth=9),  # leaf would be 1 sample
            dict(method="sure"),
            dict(unvoiced_scale=0.0),
            dict(unvoiced_scale=1.5),
            dict(noise_estimation="vad"),
            dict(silence_ms=0.0),
            dict(band_tolerance=-1.0),
            dict(epsilon=0.5),
        ]
        for kwargs in bad:
            with pytest.raises(ValueError):
                EnhanceConfig(**kwargs)

    @pytest.mark.parametrize(
        "field",
        [
            "silence_ms", "band_tolerance", "entropy_threshold",
            "unvoiced_scale", "epsilon",
        ],
    )
    def test_rejects_non_finite_floats(self, field):
        # NaN slips through every range check written as a comparison, and
        # a value that is not a real number would fail deep in the stats
        for value in (math.nan, math.inf, -math.inf, "x", 1j, [0.5]):
            with pytest.raises(ValueError, match=rf"^{field} "):
                EnhanceConfig(**{field: value})

    def test_is_immutable_and_replace_checks(self):
        config = EnhanceConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.hop = 100
        assert dataclasses.replace(config, hop=128).hop == 128
        with pytest.raises(ValueError, match="hop 100 must divide"):
            dataclasses.replace(config, hop=100)

    def test_integers_are_anything_operator_index_takes(self):
        config = EnhanceConfig(
            frame_len=np.int64(256), hop=np.int32(128), depth=np.uint8(3)
        )
        assert (config.frame_len, config.hop, config.depth) == (256, 128, 3)
        assert all(type(v) is int for v in (config.frame_len, config.hop, config.depth))
        for field in ("frame_len", "hop", "depth"):
            with pytest.raises(ValueError, match=rf"{field}\b.* must be .*integer"):
                EnhanceConfig(**{field: 4.0})

    def test_seed_is_an_integer_or_none(self):
        # the report echoes the seed: a numpy integer is stored as an int,
        # so the report serialises and passes its own schema
        config = EnhanceConfig(seed=np.int64(3))
        assert config.seed == 3 and type(config.seed) is int
        assert EnhanceConfig(seed=None).seed is None
        _, noisy = sine_0db_material(seed=1)
        _, report = enhance(noisy, config)
        validate_report_dict(json.loads(report.to_json()))
        for bad in (1.5, "7", -1):
            with pytest.raises(ValueError, match=r"seed must be an integer"):
                EnhanceConfig(seed=bad)

    def test_numpy_values_are_stored_as_the_report_writes_them(self):
        # each of these used to run the whole enhancement and then fail in
        # to_json; stored as Python values, the report is the one of the
        # Python config, byte for byte
        config = EnhanceConfig(vuv_enabled=np.True_, silence_ms=np.float32(100),
                               entropy_threshold=np.float32(2), epsilon=np.float64(1e-12))
        assert (config.vuv_enabled, config.silence_ms, config.entropy_threshold) == (
            True, 100.0, 2.0
        )
        assert type(config.vuv_enabled) is bool
        assert all(type(v) is float
                   for v in (config.silence_ms, config.entropy_threshold, config.epsilon))
        assert EnhanceConfig(vuv_enabled=np.False_).vuv_enabled is False
        # Python ints and floats are stored as given
        assert type(EnhanceConfig(silence_ms=100).silence_ms) is int
        _, noisy = sine_0db_material(seed=1)
        python = EnhanceConfig(silence_ms=100.0, entropy_threshold=2.0)
        assert enhance(noisy, config)[1].to_json() == enhance(noisy, python)[1].to_json()

    @pytest.mark.parametrize("value", ["no", 1, 0, None, np.int64(1)])
    def test_vuv_enabled_is_a_bool(self, value):
        # "no" used to run with VUV on, and the report said "no"
        with pytest.raises(ValueError, match=r"^vuv_enabled must be a bool"):
            EnhanceConfig(vuv_enabled=value)

    @pytest.mark.parametrize("field", list(pipeline._REAL_FIELDS))
    def test_real_fields_reject_bools(self, field):
        for value in (True, np.True_, np.str_("1")):
            with pytest.raises(ValueError, match=rf"^{field} "):
                EnhanceConfig(**{field: value})

    @pytest.mark.parametrize("field", list(pipeline._REAL_FIELDS))
    def test_real_fields_reject_ints_beyond_float_range(self, field):
        for value in (10**400, -(10**400)):
            with pytest.raises(ValueError, match=rf"^{field} must be a finite real"):
                EnhanceConfig(**{field: value})

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(EnhanceConfig)])
    def test_a_huge_int_is_rejected_by_name(self, field):
        # 10**5000 has more digits than Python converts to a string, so
        # messages that printed it failed with "Exceeds the limit (4300
        # digits)" and named nothing; a seed that large was accepted and
        # failed only in Report.to_json, after the whole run
        named = "filter" if field == "wavelet" else field
        with pytest.raises(ValueError, match=rf"\b{named}\b"):
            EnhanceConfig(**{field: 10**5000})

    def test_a_list_wavelet_is_rejected_by_name(self):
        # the filter lookup hashed the name: TypeError "unhashable type"
        with pytest.raises(ValueError, match=r"^unknown wavelet filter \[1\]"):
            EnhanceConfig(wavelet=[1])

    def test_an_array_wavelet_is_rejected_by_name(self):
        with pytest.raises(ValueError, match=r"^unknown wavelet filter array\(2\.\)"):
            EnhanceConfig(wavelet=np.array(2.0))

    @pytest.mark.parametrize("field, name", [
        ("window", "hann"), ("wavelet", "db4"), ("method", "band"),
        ("noise_estimation", "mad"),
    ])
    def test_a_name_in_an_array_is_not_a_name(self, field, name):
        # `np.array(name) in choices` compares elementwise and was true,
        # so the config held an array the report could not write
        for value in (np.array(name), np.array([name])):
            with pytest.raises(ValueError, match=field.split("_")[0]):
                EnhanceConfig(**{field: value})

    def test_hann_frames_past_1024_cannot_be_rebuilt(self):
        # the first sample's overlap-add normaliser is w[0]^2: 5.5e-12 at
        # 1024 samples, 3.5e-13 at 2048
        EnhanceConfig(frame_len=1024, hop=512)
        with pytest.raises(ColaError, match="normaliser at 3.46"):
            EnhanceConfig(frame_len=2048, hop=1024)
        EnhanceConfig(frame_len=2048, hop=1024, window="rectangular")

    def test_frame_len_beyond_the_bound_fails_before_any_allocation(self):
        # the window's floor has a closed form, so a frame too long to
        # allocate (2**40 raised MemoryError) fails by its bound, unbuilt
        EnhanceConfig(frame_len=2**16, hop=2**15, window="rectangular")
        tracemalloc.start()
        try:
            for frame_len in (2**17, 2**40):
                with pytest.raises(ValueError, match=r"frame_len must be at most 65536"):
                    EnhanceConfig(frame_len=frame_len, hop=frame_len // 2,
                                  window="rectangular")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**17  # an 8-byte value per sample of 2**17 is 1 MB

    @settings(max_examples=examples(40), deadline=None)
    @given(
        log_frame=st.integers(min_value=3, max_value=13),
        shift=st.integers(min_value=0, max_value=4),
        window=st.sampled_from(WINDOWS),
        wavelet=st.sampled_from(FILTERS),
        depth=st.integers(min_value=1, max_value=6),
        method=st.sampled_from(METHODS),
    )
    def test_a_config_that_constructs_can_run(
        self, log_frame, shift, window, wavelet, depth, method
    ):
        # hop = frame_len >> shift, at most 16 frames per sample
        frame_len = 1 << log_frame
        try:
            config = EnhanceConfig(
                frame_len=frame_len, hop=frame_len >> min(shift, log_frame),
                window=window, wavelet=wavelet, depth=depth, method=method,
                noise_estimation="mad",
            )
        except ValueError:
            return
        noisy = white_noise(0.1, 0.5, 16000, seed=log_frame + depth)
        out, _ = enhance(noisy, config)
        assert len(out) == len(noisy) and np.all(np.isfinite(out.samples))

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

        monkeypatch.setattr(pipeline, "_analysis", no_transform)
        _, noisy = sine_0db_material(seed=1)
        config = EnhanceConfig(epsilon=0.05, noise_estimation=noise_estimation)
        bins = 25 if noise_estimation == "leading_silence" else 141
        with pytest.raises(ValueError, match=rf"epsilon=0\.05 .*\(0, 1/{bins}\)"):
            enhance(noisy, config)


def _lead_frames(config, rate):
    """Frames that lie entirely inside the leading-silence span."""
    span = int(round(config.silence_ms / 1000 * rate))
    return (span - config.frame_len) // config.hop + 1


def _same_profile(a, b):
    for got, want in ((a.distribution, b.distribution), (a.pooled, b.pooled)):
        np.testing.assert_array_equal(got.probs, want.probs)
        np.testing.assert_array_equal(got.bin_edges, want.bin_edges)
    np.testing.assert_array_equal(a.sigma, b.sigma)


class TestEstimateNoiseProfile:
    def test_leading_silence_matches_full_signal_distribution(self):
        # pure noise: a 100 ms profile estimated from 1e5 samples should
        # look like the whole signal, subband by subband. The rate is a
        # synthetic desk-scale choice that puts 1e5 samples in the span.
        rate = 10**6
        noise = white_noise(1.0, 0.4, rate, seed=21)
        config = EnhanceConfig()
        leaves = leaf_coefficients(noise, config)
        profile = estimate_noise_profile(leaves[: _lead_frames(config, rate)], config)
        _same_profile(pipeline._analyse(noise, config)[1], profile)

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
        config = EnhanceConfig()
        leaves = leaf_coefficients(silent, config)[: _lead_frames(config, 16000)]
        profile = estimate_noise_profile(leaves, config)
        assert np.all(profile.sigma == 0.0)
        _same_profile(pipeline._analyse(silent, config)[1], profile)

    def test_mad_mode_recovers_unit_sigma(self):
        # rectangular window so leaf coefficients keep the raw noise scale
        noise = white_noise(1.0, 2.0, 16000, seed=22)
        config = EnhanceConfig(noise_estimation="mad", window="rectangular")
        frames = make_frames(noise, config.frame_len, config.hop, config.window)
        level1 = wp_analysis(frames.frames, filter_bank(config.wavelet), 1)
        profile = estimate_noise_profile(level1[:, 1], config)
        sigma = np.broadcast_to(profile.sigma, (config.n_subbands,))
        assert np.all(np.abs(sigma - 1.0) < 0.05)
        _same_profile(pipeline._analyse(noise, config)[1], profile)

    def test_mad_profile_leaves_a_contiguous_detail_unchanged(self):
        # the profile takes magnitudes in place, on a copy of its input
        detail = np.random.default_rng(25).normal(size=(7, 256))
        before = detail.copy()
        profile = estimate_noise_profile(detail, EnhanceConfig(noise_estimation="mad"))
        np.testing.assert_array_equal(detail, before)
        assert profile.sigma == np.median(np.abs(detail)) / 0.6745

    def test_mad_profile_copies_the_detail_once(self):
        # the profile flattened the detail into a private copy and binned
        # the copy: 2.87 MB at 15 s. It bins the detail where it lies, so
        # its one detail-sized array is |detail| for the median
        rng = np.random.default_rng(26)
        samples = 0.3 * np.sin(np.arange(15 * 16000) * 0.11)
        samples += rng.normal(0.0, 0.1, samples.size)
        config = EnhanceConfig(noise_estimation="mad")
        frames = make_frames(SignalBuffer(samples, 16000), config.frame_len, config.hop,
                             config.window)
        detail = wp_analysis(frames.frames, filter_bank(config.wavelet), 1)[:, 1]
        tracemalloc.start()
        try:
            estimate_noise_profile(detail, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = detail.nbytes + 0.25 * 2**20
        assert peak <= bound, (peak, bound)

    def test_short_silence_span_rejected(self):
        # the front end checks the span before any transform
        sig = white_noise(1.0, 1.0, 16000, seed=23)
        with pytest.raises(ValueError, match="shorter than one frame"):
            enhance(sig, EnhanceConfig(silence_ms=10.0))

    def test_signal_shorter_than_span_rejected(self):
        sig = white_noise(1.0, 0.05, 16000, seed=24)
        with pytest.raises(ValueError, match="signal shorter than the leading-silence span"):
            enhance(sig, EnhanceConfig(silence_ms=100.0))

    def test_a_span_beyond_the_float_range_is_longer_than_the_signal(self):
        # silence_ms / 1000 * rate overflows to inf, which is compared
        # with the signal as a float (converting it raised OverflowError)
        sig = SignalBuffer(np.zeros(4096), 10**308)
        with pytest.raises(ValueError, match="signal shorter than the leading-silence span"):
            enhance(sig, EnhanceConfig(silence_ms=1e6))

    @pytest.mark.parametrize("silence_ms, window", [(100.0, "hann"), (250.0, "rectangular")])
    def test_profile_from_the_run_leaves_equals_the_lead_in_framed_alone(
        self, silence_ms, window
    ):
        # the profile pools the first frames of the signal's own leaves;
        # framing and transforming the lead-in alone gives the same bits
        _, noisy = sine_0db_material(seed=1)
        config = EnhanceConfig(silence_ms=silence_ms, window=window)
        n_lead = _lead_frames(config, noisy.sample_rate_hz)
        assert n_lead == (5 if silence_ms == 100.0 else 14)
        lead = noisy.samples[: (n_lead - 1) * config.hop + config.frame_len]
        lead_leaves = leaf_coefficients(SignalBuffer(lead, noisy.sample_rate_hz), config)
        assert len(lead_leaves) == n_lead
        _, profile = pipeline._analyse(noisy, config)
        _same_profile(profile, estimate_noise_profile(lead_leaves, config))


    @pytest.mark.parametrize("mode", NOISE_MODES)
    def test_a_profile_of_one_pool_shares_its_distribution(self, mode):
        # (frames, coeffs), as mad mode's level-1 detail, whatever the mode
        detail = np.random.default_rng(28).normal(size=(9, 256))
        config = EnhanceConfig(noise_estimation=mode)
        profile = estimate_noise_profile(detail, config)
        assert profile.pooled is profile.distribution
        assert profile.distribution.bin_edges.shape == (pipeline._noise_bins(detail.size) + 1,)
        assert profile.sigma == np.median(np.abs(detail)) / 0.6745
        other = dataclasses.replace(config, noise_estimation=NOISE_MODES[mode == "mad"])
        _same_profile(profile, estimate_noise_profile(detail, other))

    @pytest.mark.parametrize("mode", NOISE_MODES)
    def test_a_profile_of_leaves_pools_all_values_apart(self, mode):
        # (frames, subbands, coeffs), as the leading-silence frames'
        # leaves, whatever the mode: one row per subband, and a pooled
        # distribution of all the values
        leaves = np.random.default_rng(29).normal(size=(5, 16, 32))
        config = EnhanceConfig(noise_estimation=mode)
        profile = estimate_noise_profile(leaves, config)
        assert profile.pooled is not profile.distribution
        assert profile.distribution.probs.shape[0] == 16
        pooled = pipeline._noise_distribution(leaves.reshape(1, -1), config.epsilon)
        np.testing.assert_array_equal(profile.pooled.bin_edges, pooled.bin_edges)
        np.testing.assert_array_equal(profile.pooled.probs, pooled.probs)
        np.testing.assert_array_equal(
            profile.sigma, np.median(np.abs(np.moveaxis(leaves, 1, 0)).reshape(16, -1),
                                     axis=-1) / 0.6745)
        other = dataclasses.replace(config, noise_estimation=NOISE_MODES[mode == "mad"])
        _same_profile(profile, estimate_noise_profile(leaves, other))

    @pytest.mark.parametrize("shape", [(32,), (0, 32), (3, 0, 8), (2, 3, 4, 8)])
    def test_noise_that_is_no_pool_or_leaves_is_rejected_first(self, shape, monkeypatch):
        # numpy's "duplicate value in 'axis'" (1-D), "zero-size array to
        # reduction operation" (empty), and a (3, 4) sigma for 4-D noise
        def no_histogram(*args):
            raise AssertionError("binned before the shape check")

        monkeypatch.setattr(pipeline, "_noise_distribution", no_histogram)
        message = ("noise must be a non-empty (frames, coeffs) pool or (frames, "
                   f"subbands, coeffs) leaves, got shape {shape}")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            estimate_noise_profile(np.ones(shape), EnhanceConfig())


class TestSweep:
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("profile_mode", NOISE_MODES)
    def test_the_profile_not_the_noise_mode_shapes_the_walk(self, method, profile_mode):
        # a profile of either mode walks the same under either mode's
        # config; a leading-silence profile under a mad config raised,
        # its per-subband edges summed into h_all
        _, noisy = sine_0db_material(seed=1)
        config = EnhanceConfig(method=method, noise_estimation=profile_mode)
        leaves, profile = pipeline._analyse(noisy, config)
        vuv = classify_vuv(leaves, pipeline._frame_entropy_threshold(config), config.epsilon)
        # h_all is every leaf on the pooled edges, binned apart or summed
        want_all = pipeline._pooled_counts(leaves.reshape(len(leaves), -1),
                                           profile.pooled.bin_edges)
        walks = [pipeline._sweep(leaves.copy(), profile, vuv,
                                 dataclasses.replace(config, noise_estimation=mode))
                 for mode in NOISE_MODES]
        for walk in walks:
            np.testing.assert_array_equal(walk[3].counts, want_all)
            np.testing.assert_array_equal(walk[3].bin_edges, profile.pooled.bin_edges)
        for got, want in zip(*walks):  # threshold, band, h_sub, h_all, zero counts
            if isinstance(want, stats.Histogram):
                np.testing.assert_array_equal(got.bin_edges, want.bin_edges)
                got, want = got.counts, want.counts
            np.testing.assert_array_equal(got, want)


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

    @pytest.mark.parametrize("leaves, threshold, message", [
        # ComplexWarning before, then labels from the real parts
        (np.ones((1, 2, 4)) * (1 + 1j), 0.5,
         "leaves must be real numbers, got dtype complex128"),
        # OverflowError before
        (np.array([[[10**400, 1]]], dtype=object), 0.5,
         "leaves must be real numbers within float range"),
        (np.ones((2, 4)), 0.5, "leaves must be (frames, subbands, coeffs), not (2, 4)"),
        # numpy's reshape error, and row_histograms' empty-sample error, before
        (np.ones((0, 2, 4)), 0.5, "leaves must hold values, got shape (0, 2, 4)"),
        (np.ones((1, 0, 4)), 0.5, "leaves must hold values, got shape (1, 0, 4)"),
        (np.ones((1, 2, 0)), 0.5, "leaves must hold values, got shape (1, 2, 0)"),
        (np.arange(8.0).reshape(1, 2, 4), math.nan,
         "entropy_threshold must be a finite real number, got nan"),
        (np.arange(8.0).reshape(1, 2, 4), None,
         "entropy_threshold must be a finite real number, got None"),
        # broadcast against the one frame's entropy, it gave no label
        (np.arange(8.0).reshape(1, 2, 4), [],
         "entropy_threshold must be a finite real number, got []"),
    ], ids=["complex", "int-beyond-float", "2-d", "no-frames", "no-subbands", "no-coeffs",
            "nan-threshold", "none-threshold", "empty-threshold"])
    def test_bad_leaves_or_threshold_raise_value_error(self, leaves, threshold, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            classify_vuv(leaves, threshold, 1e-12)


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
        n = config.frame_len >> config.depth
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

    @pytest.mark.parametrize(
        "reference, message",
        [
            (SignalBuffer(np.ones(80000), 8000), "sample rate mismatch"),
            (SignalBuffer(np.ones(79999), 16000), "length mismatch"),
        ],
    )
    def test_reference_checked_before_any_work(self, reference, message, monkeypatch):
        def no_transform(*args, **kwargs):
            raise AssertionError("transform ran before the reference check")

        monkeypatch.setattr(pipeline, "_analysis", no_transform)
        _, noisy = sine_0db_material(seed=1)
        with pytest.raises(ValueError, match=message):
            enhance(noisy, EnhanceConfig(), reference=reference)

    @pytest.mark.parametrize("call, message", [
        (lambda s, c: enhance(s.samples, c), "noisy must be a SignalBuffer, got ndarray"),
        (lambda s, c: enhance(s, {}), "config must be an EnhanceConfig, got dict"),
        (lambda s, c: enhance(s, c, reference=s.samples),
         "reference must be a SignalBuffer, got ndarray"),
        (lambda s, c: analyze(s, None, c), "noise must be a SignalBuffer, got NoneType"),
        (lambda s, c: analyze(s, s, None), "config must be an EnhanceConfig, got NoneType"),
        (lambda s, c: leaf_coefficients(list(s.samples), c),
         "signal must be a SignalBuffer, got list"),
        (lambda s, c: leaf_coefficients(s, dataclasses.asdict(c)),
         "config must be an EnhanceConfig, got dict"),
    ], ids=["enhance-noisy", "enhance-config", "enhance-reference", "analyze-noise",
            "analyze-config", "leaves-signal", "leaves-config"])
    def test_wrong_typed_arguments_named_before_any_work(self, call, message,
                                                         monkeypatch):
        # each raised AttributeError
        def no_transform(*args, **kwargs):
            raise AssertionError("transform ran before the argument check")

        monkeypatch.setattr(pipeline, "_analysis", no_transform)
        _, noisy = sine_0db_material(seed=1)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
            call(noisy, EnhanceConfig())
        assert info.type is ValueError

    @pytest.mark.parametrize("seconds", [3, 15])
    @pytest.mark.parametrize("noise_estimation", ["leading_silence", "mad"])
    def test_soft_peaks_within_the_memory_of_hard(self, seconds, noise_estimation):
        # soft_threshold held three leaf-sized temporaries: 15.0 MB
        # against 8.8 MB for hard on a 15 s input. Every leaf-sized stage
        # now writes over the leaves, so a call holds them and one
        # signal-sized array at a time, plus 1.5 MB: 6.99 MB at 15 s,
        # where each leaf-sized stage writing a new array peaked at 8.8 MB.
        # Band selection's dense blocks are cut by the same budget, so band
        # keeps the bound in both modes (in mad mode its 2 MB blocks peaked
        # at 11.55 MB at 3 s and 14.73 MB at 15 s)
        rng = np.random.default_rng(5)
        samples = 0.3 * np.sin(np.arange(seconds * 16000) * 0.11)
        samples += rng.normal(0.0, 0.1, samples.size)
        samples[:1600] = rng.normal(0.0, 0.1, 1600)  # the 100 ms leading silence
        noisy = SignalBuffer(samples, 16000)
        peaks = {}
        for method in METHODS:
            config = EnhanceConfig(method=method, noise_estimation=noise_estimation)
            tracemalloc.start()
            try:
                enhance(noisy, config)
                peaks[method] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks["universal-soft"] <= peaks["universal-hard"] + 0.5 * 2**20, peaks
        leaf_bytes = frame_count(len(noisy), 512, 256) * 512 * 8
        bound = leaf_bytes + samples.nbytes + 1.5 * 2**20
        assert max(peaks.values()) <= bound, (peaks, bound)

    @pytest.mark.parametrize("method", ["universal-hard", "band"])
    def test_denormal_leading_silence(self, method):
        # a noise span of 1e-321: its histogram edges are widened like any
        # other too-narrow range instead of collapsing
        tiny = SignalBuffer(np.full(16000, 1e-321), 16000)
        out, _ = enhance(tiny, EnhanceConfig(method=method))
        assert len(out) == len(tiny) and np.all(np.abs(out.samples) < 1e-300)

    @pytest.mark.parametrize("method", ["universal-hard", "band"])
    def test_denormal_constant_in_mad_mode(self, method):
        # the level-1 detail spans a few subnormals (about +-2.4e-322)
        tiny = SignalBuffer(np.full(16000, 1e-321), 16000)
        out, _ = enhance(tiny, EnhanceConfig(method=method, noise_estimation="mad"))
        assert len(out) == len(tiny) and np.all(np.abs(out.samples) < 1e-300)

    def test_invalid_config_rejected_before_processing(self):
        _, noisy = sine_0db_material(seed=8)
        with pytest.raises(ValueError):
            enhance(noisy, EnhanceConfig(hop=100))

    @pytest.mark.parametrize("method", ["universal-hard", "band"])
    def test_mad_mode_bins_each_leaf_once(self, method, monkeypatch):
        # the noise profile bins the level-1 detail (F x N/2 values); VUV
        # and the per-subband statistics bin every leaf (F x N) once each
        # (band: the band selection's counts are the per-subband ones),
        # and the pooled statistics reuse the per-subband counts
        binned = []
        bin_index = stats._bin_index

        def counting(x, edges):
            binned.append(x.size)
            return bin_index(x, edges)

        monkeypatch.setattr(stats, "_bin_index", counting)
        _, noisy = sine_0db_material(seed=2)
        config = EnhanceConfig(method=method, noise_estimation="mad", vuv_enabled=True)
        enhance(noisy, config)
        n = config.frame_len
        frames = frame_count(len(noisy), n, config.hop)
        assert sum(binned) == frames * n // 2 + 2 * frames * n

    @pytest.mark.parametrize("noise_estimation", ["leading_silence", "mad"])
    def test_band_subband_counts_are_the_band_selection_counts(
        self, noise_estimation, monkeypatch
    ):
        # the walk bins every leaf on the profile's edges for band
        # selection, block by block; summed over the frames its counts are
        # each subband's histogram on those edges, the h_sub of the
        # divergences
        _, noisy = sine_0db_material(seed=5)
        config = EnhanceConfig(method="band", noise_estimation=noise_estimation)
        leaves, profile = pipeline._analyse(noisy, config)
        vuv = [None] * len(leaves)  # band ignores the labels
        dist = profile.distribution
        h_sub = row_histograms(pipeline._per_subband(leaves), edges=dist.bin_edges)
        whole = leaves.copy()
        by_default = pipeline._sweep(whole, profile, vuv, config)
        # a block's largest array, its leaves (7 bins with leading
        # silence) or its dense (frames, subbands, bins) counts (141 bins
        # in mad mode), holds _BLOCK_VALUES values: 7 frames a block, 45
        # blocks of the 312 frames, the last shorter
        n_sub, n_coeff = leaves.shape[1:]
        monkeypatch.setattr(pipeline, "_BLOCK_VALUES", 7 * n_sub * max(n_coeff, dist.n_bins))
        blocks = leaves.copy()
        _, band, h_blocks, h_all_blocks, *_ = pipeline._sweep(blocks, profile, vuv, config)
        for got in (h_blocks.counts, by_default[2].counts):
            assert got.dtype == h_sub.counts.dtype
            assert np.array_equal(got, h_sub.counts)
        assert np.array_equal(band, by_default[1])
        assert np.array_equal(blocks, whole)
        # the public rule on the run's leaves gives the same thresholded leaves
        kept = band_hard_threshold(leaves, band[..., :1], band[..., 1:])
        assert np.array_equal(blocks, kept)
        _, report = enhance(noisy, config)
        divergences = symmetric_divergence(to_probability(h_sub, config.epsilon), dist)
        assert report.subband_divergence == divergences.tolist()
        np.testing.assert_array_equal(report.band, band)
        # h_all: in mad mode h_sub summed over the subbands (they share the
        # pooled edges), with leading silence every leaf on the pooled edges
        pooled = profile.pooled
        if noise_estimation == "mad":
            all_counts = np.sum(h_sub.counts, axis=0)
        else:
            all_counts = row_histograms(leaves.ravel(), edges=pooled.bin_edges).counts
        for got in (h_all_blocks, by_default[3]):
            assert np.array_equal(got.counts, all_counts)
        h_all = stats.Histogram(pooled.bin_edges, all_counts)
        assert report.near_zero_ratios == ratio_profile(
            to_probability(h_all, config.epsilon), pooled)

    @pytest.mark.parametrize("noise_estimation", NOISE_MODES)
    @pytest.mark.parametrize("method", METHODS)
    def test_the_walk_gives_one_run_at_every_block_size(
        self, method, noise_estimation, monkeypatch
    ):
        # blocks of 1 frame and of 7 frames (the last shorter) give the
        # samples and the report bytes of the default budget
        _, noisy = sine_0db_material(seed=4)
        config = EnhanceConfig(method=method, noise_estimation=noise_estimation, seed=4)
        want, want_report = enhance(noisy, config)
        leaves, profile = pipeline._analyse(noisy, config)
        n_frames, n_sub, n_coeff = leaves.shape
        width = max(n_coeff, profile.distribution.n_bins) if method == "band" else n_coeff
        calls = []
        zero_counts = pipeline._zero_counts
        monkeypatch.setattr(pipeline, "_zero_counts",
                            lambda block: calls.append(len(block)) or zero_counts(block))
        for frames in (1, 7):
            calls.clear()
            monkeypatch.setattr(pipeline, "_BLOCK_VALUES", frames * n_sub * width)
            got, report = enhance(noisy, config)
            # each block's zeros are counted before and after its rule
            assert calls[::2] == calls[1::2] == [frames] * (n_frames // frames) + (
                [n_frames % frames] if n_frames % frames else [])
            assert np.array_equal(got.samples, want.samples)
            assert report.to_json() == want_report.to_json()

    @pytest.mark.parametrize("case", ["detail", "leaves", "leaves-shared"])
    def test_pooled_counts_equal_the_whole_rows_counts(self, case, monkeypatch):
        # binned where they lie, block by block of frames, the counts are
        # those of the rows pooled over every frame: 9 frames a block, 35
        # blocks of the 312 frames, the last shorter
        shape = (312, 256) if case == "detail" else (312, 16, 32)
        values = np.random.default_rng(9).normal(size=shape)
        if case == "detail":  # the mad profile's detail: a strided view
            values = np.stack((values, -values), axis=1)[:, 0]
            rows = values.ravel()
            edges = stats._uniform_edges(-4.0, 4.0, 113)
        elif case == "leaves":  # on per-subband edges
            rows = values.swapaxes(0, 1).reshape(shape[1], -1)
            edges = stats._uniform_edges(np.min(rows, axis=-1), np.max(rows, axis=-1), 44)
        else:  # on one shared support, as mad mode's h_sub
            rows = values.swapaxes(0, 1).reshape(shape[1], -1)
            edges = stats._uniform_edges(-3.0, 3.0, 113)
        want = row_histograms(rows, edges=edges).counts
        by_default = pipeline._pooled_counts(values, edges)
        monkeypatch.setattr(pipeline, "_BLOCK_VALUES", 9 * values[0].size)
        for got in (pipeline._pooled_counts(values, edges), by_default):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("noise_estimation", ["mad", "leading_silence"])
    @pytest.mark.parametrize("depth", [1, 4])
    def test_each_input_is_framed_and_transformed_once(
        self, depth, noise_estimation, monkeypatch
    ):
        # the noise profile and the leaves share one framing and one
        # transform: with leading silence the profile takes the first
        # frames' leaves; in mad mode the level-1 split, whose 2F rows the
        # leaves split depth - 1 levels on (0 levels, no stage, at depth 1)
        framed, split = [], []
        make_frames, analysis = pipeline.make_frames, pipeline._analysis

        def counting_frames(*args, **kwargs):
            framed.append(args)
            return make_frames(*args, **kwargs)

        def counting_analysis(frames, fb, levels):
            split.append((len(frames), levels))
            return analysis(frames, fb, levels)

        monkeypatch.setattr(pipeline, "make_frames", counting_frames)
        monkeypatch.setattr(pipeline, "_analysis", counting_analysis)
        _, noisy = sine_0db_material(seed=3)
        config = EnhanceConfig(noise_estimation=noise_estimation, depth=depth)
        enhance(noisy, config)
        n_frames = frame_count(len(noisy), config.frame_len, config.hop)
        assert len(framed) == 1
        if noise_estimation == "leading_silence":
            assert split == [(n_frames, depth)]
        else:
            assert split == [(n_frames, 1), (2 * n_frames, depth - 1)]

    @pytest.mark.parametrize("noise_estimation", NOISE_MODES)
    @pytest.mark.parametrize("method", METHODS)
    def test_the_in_place_run_equals_the_public_functions(self, method, noise_estimation):
        # enhance writes every leaf-sized stage over one buffer; the public
        # functions, each on a copy of its input, give the same bits
        _, noisy = sine_0db_material(seed=4)
        config = EnhanceConfig(method=method, noise_estimation=noise_estimation)
        fb = filter_bank(config.wavelet)
        out, report = enhance(noisy, config)
        frames = make_frames(noisy, config.frame_len, config.hop, config.window)
        if noise_estimation == "mad":  # the level-1 rows split on
            level1 = wp_analysis(frames.frames, fb, 1).reshape(2 * frames.n_frames, -1)
            leaves = wp_analysis(level1, fb, config.depth - 1)
            leaves = leaves.reshape(frames.n_frames, config.n_subbands, -1)
        else:
            leaves = wp_analysis(frames.frames, fb, config.depth)
        if method == "band":
            kept = band_hard_threshold(leaves, report.band[..., :1], report.band[..., 1:])
        else:
            rule = hard_threshold if method == "universal-hard" else soft_threshold
            kept = rule(leaves, report.threshold[..., None])
        np.testing.assert_array_equal(report.n_zero_pre,
                                      np.count_nonzero(leaves == 0.0, axis=-1))
        np.testing.assert_array_equal(report.n_zero_post,
                                      np.count_nonzero(kept == 0.0, axis=-1))
        rebuilt = overlap_add(dataclasses.replace(frames, frames=wp_synthesis(kept, fb)))
        assert np.array_equal(out.samples, rebuilt.samples)

    def test_leaf_coefficients_of_an_empty_signal_rejected_before_any_transform(
            self, monkeypatch):
        # it returned one zero-padded frame's leaves, (1, 16, 32) zeros
        def transform(*args):
            raise AssertionError("transformed")

        monkeypatch.setattr(pipeline, "_transform", transform)
        with pytest.raises(ValueError, match="^cannot transform an empty signal: "
                                             "signal holds no samples$"):
            leaf_coefficients(SignalBuffer(np.zeros(0), 16000), EnhanceConfig())

    @pytest.mark.parametrize("layout", ["C", "sliced"])
    @pytest.mark.parametrize("window", WINDOWS)
    @pytest.mark.parametrize("wavelet", FILTERS)
    def test_leaf_coefficients_leave_the_signal_untouched(self, wavelet, window, layout):
        _, noisy = sine_0db_material(seed=6)
        samples = in_layout(noisy.samples, layout)
        config = EnhanceConfig(window=window, wavelet=wavelet, depth=6)
        leaves = leaf_coefficients(SignalBuffer(samples, noisy.sample_rate_hz), config)
        np.testing.assert_array_equal(samples, noisy.samples)
        frames = make_frames(noisy, config.frame_len, config.hop, window).frames
        np.testing.assert_array_equal(leaves, wp_analysis(frames, filter_bank(wavelet), 6))


def _edge_case(scale=1.0):
    """A 1 s, 440 Hz sine of amplitude 0.5 plus N(0, 0.05^2) noise (seed
    3), times `scale`: at scale 1, mad-mode universal-hard makes its first
    output sample 492.4, 729 times the input's peak (the overlap-add
    edge gain)."""
    clean = sine_wave(440, 0.5, 1.0, 16000)
    noise = np.random.default_rng(3).normal(0.0, 0.05, len(clean))
    return (SignalBuffer(scale * clean.samples, 16000),
            SignalBuffer(scale * (clean.samples + noise), 16000))


class TestPeakBound:
    def test_the_bound_of_the_default_geometry(self):
        # float max / (8 N^2 g), with g = 1 / w[0] = 1.06e5 for the hann
        assert edge_gain("hann", 512) == pytest.approx(1.0624e5, rel=1e-4)
        assert edge_gain("rectangular", 512) == 1.0
        assert max_peak(512, "hann") == pytest.approx(8.068e296, rel=1e-3)

    def test_a_signal_too_loud_for_overlap_add_is_rejected_first(self, monkeypatch):
        # at 1e306 the edge sample overflowed in overlap_add's division
        def no_transform(*args, **kwargs):
            raise AssertionError("transform ran before the peak check")

        monkeypatch.setattr(pipeline, "_analysis", no_transform)
        _, noisy = _edge_case(1e306)
        config = EnhanceConfig(noise_estimation="mad")
        with pytest.raises(ValueError, match=r"samples peak at 6\.753e\+305, above the 8\.068e\+296"):
            enhance(noisy, config)

    @pytest.mark.parametrize("noise_estimation",
                             ["leading_silence", "mad", "analyze", "leaf_coefficients"])
    def test_noise_at_the_float_limit_is_rejected(self, noise_estimation):
        # the transform overflowed in matmul, and stats then failed on
        # the infinite values
        rng = np.random.default_rng(5)
        loud = SignalBuffer(np.clip(rng.normal(0, 1e308, 16000), -1.7e308, 1.7e308), 16000)
        with pytest.raises(ValueError, match="samples peak at 1.7e\\+308"):
            if noise_estimation == "analyze":
                analyze(white_noise(0.1, 1.0, 16000, seed=6), loud, EnhanceConfig())
            elif noise_estimation == "leaf_coefficients":  # overflowed in matmul
                leaf_coefficients(loud, EnhanceConfig())
            else:
                enhance(loud, EnhanceConfig(noise_estimation=noise_estimation))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("call", [
        "enhance/leading_silence/vuv", "enhance/leading_silence/no-vuv", "enhance/mad/vuv",
        "enhance/mad/no-vuv", "analyze/noisy", "analyze/noise", "leaf_coefficients",
    ])
    def test_non_finite_samples_written_after_construction_are_rejected_first(
            self, call, bad, monkeypatch):
        # a SignalBuffer's samples are not copied, so a value written into
        # them after it was built passed the peak check (NaN > bound is
        # false): leaf_coefficients returned NaN leaves, and enhance
        # failed late in the histograms
        analysis, transformed = pipeline._analysis, []

        def finite_analysis(frames, fb, depth):
            assert np.all(np.isfinite(frames)), "non-finite frames were transformed"
            transformed.append(len(frames))
            return analysis(frames, fb, depth)

        monkeypatch.setattr(pipeline, "_analysis", finite_analysis)
        clean, noisy = sine_0db_material(seed=1)
        noise = SignalBuffer(noisy.samples - clean.samples, noisy.sample_rate_hz)
        target = noise if call == "analyze/noise" else noisy
        target.samples[len(target) // 2] = bad
        kind, _, rest = call.partition("/")
        mode, _, vuv = rest.partition("/")
        with pytest.raises(ValueError, match=r"^samples must be finite \(no NaN/Inf\)$"):
            if kind == "enhance":
                enhance(noisy, EnhanceConfig(noise_estimation=mode, vuv_enabled=vuv == "vuv"))
            elif kind == "analyze":
                analyze(noisy, noise, EnhanceConfig())
            else:
                leaf_coefficients(noisy, EnhanceConfig())
        # nothing was transformed but analyze's noisy side, checked and
        # transformed before the noise side is checked
        assert len(transformed) == (call == "analyze/noise")

    @pytest.mark.parametrize("geometry", [
        dict(), dict(frame_len=1024, hop=64), dict(window="rectangular", hop=32),
        dict(frame_len=16, hop=1, depth=1),
    ])
    @pytest.mark.parametrize("noise_estimation", ["leading_silence", "mad"])
    @pytest.mark.parametrize("method", METHODS)
    def test_a_signal_at_the_bound_runs_finite(self, geometry, noise_estimation, method):
        # under the suite's warnings-as-errors: no value of the run overflows
        config = EnhanceConfig(method=method, noise_estimation=noise_estimation, **geometry)
        clean, noisy = _edge_case()
        scale = max_peak(config.frame_len, config.window) / np.max(np.abs(noisy.samples))
        clean, noisy = _edge_case(scale)
        assert np.max(np.abs(noisy.samples)) <= max_peak(config.frame_len, config.window)
        out, report = enhance(noisy, config, reference=clean)
        assert np.all(np.isfinite(out.samples))
        assert math.isfinite(report.input_snr_db) and math.isfinite(report.output_snr_db)
        report.to_json()
        analyze(noisy, clean, config).to_json()


class TestAnalyze:
    def test_equals_per_subband_histograms_on_shared_edges(self):
        _, noisy = sine_0db_material(seed=4)
        noise = white_noise(0.3, 1.5, 16000, seed=5)
        config = EnhanceConfig(seed=4)
        report = analyze(noisy, noise, config)
        assert report.mode == "analyze" and report.seed == 4 and report.vuv == []
        noisy_leaves = leaf_coefficients(noisy, config)
        noise_leaves = leaf_coefficients(noise, config)
        # the batch pair it binned: one row per subband, on that subband's edges
        h_ns, h_n = report.histograms
        assert h_ns.counts.shape[0] == h_n.counts.shape[0] == config.n_subbands
        assert len(report.subband_divergence) == config.n_subbands
        for i in range(config.n_subbands):
            sub_ns, sub_n = noisy_leaves[:, i].ravel(), noise_leaves[:, i].ravel()
            edges = shared_edges(sub_ns, sub_n)
            want_ns = row_histograms(sub_ns, edges=edges)
            want_n = row_histograms(sub_n, edges=edges)
            np.testing.assert_array_equal(h_ns.bin_edges[i], edges)
            np.testing.assert_array_equal(h_n.bin_edges[i], edges)
            np.testing.assert_array_equal(h_ns.counts[i], want_ns.counts)
            np.testing.assert_array_equal(h_n.counts[i], want_n.counts)
            assert report.subband_divergence[i] == symmetric_divergence(
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

    def test_peaks_within_two_leaf_arrays_and_one_signal(self):
        # analyze copied both sides' leaves into (subbands, frames x coeffs)
        # rows: 15.6 MB at 15 s. Binned block by block of frames, it holds
        # the two sides' leaves, one signal-sized array while the second
        # side is framed, and 1.5 MB
        rng = np.random.default_rng(27)
        n = 15 * 16000
        noisy = SignalBuffer(0.3 * np.sin(np.arange(n) * 0.11) + rng.normal(0.0, 0.1, n),
                             16000)
        noise = SignalBuffer(rng.normal(0.0, 0.1, n), 16000)
        tracemalloc.start()
        try:
            analyze(noisy, noise, EnhanceConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        leaf_bytes = frame_count(n, 512, 256) * 512 * 8
        bound = 2 * leaf_bytes + noisy.samples.nbytes + 1.5 * 2**20
        assert peak <= bound, (peak, bound)

    @pytest.mark.parametrize("empty", ["noisy", "noise"])
    def test_empty_signal_rejected_before_any_transform(self, empty, monkeypatch):
        # an empty side was framed as one zero-padded frame and compared
        def transform(*args):
            raise AssertionError("transformed")

        monkeypatch.setattr(pipeline, "_transform", transform)
        sides = {"noisy": white_noise(0.1, 0.5, 16000, seed=1),
                 "noise": white_noise(0.1, 0.5, 16000, seed=2)}
        sides[empty] = SignalBuffer(np.zeros(0), 16000)
        with pytest.raises(ValueError, match=f"^cannot analyze an empty signal: {empty} "
                                             "holds no samples$"):
            analyze(sides["noisy"], sides["noise"], EnhanceConfig())

    def test_sample_rate_mismatch_rejected(self):
        with pytest.raises(ValueError, match="sample rate"):
            analyze(
                white_noise(0.1, 0.5, 16000, seed=1),
                white_noise(0.1, 0.5, 8000, seed=1),
                EnhanceConfig(),
            )
