"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they happen; without -s they appear in the captured output.
"""

import json
import math
from contextlib import contextmanager

import numpy as np
import pytest

from wpdenoise.cli import run
from wpdenoise.experiments import sine_0db_material
from wpdenoise.framing import make_frames, overlap_add
from wpdenoise.pipeline import EnhanceConfig, enhance
from wpdenoise.signal_io import SignalBuffer
from wpdenoise.stats import (
    Histogram,
    bin_count,
    kl_divergence,
    ratio_profile,
    row_histograms,
    shared_edges,
    symmetric_divergence,
    to_probability,
)
from wpdenoise.thresholding import (
    band_hard_threshold,
    hard_threshold,
    semisoft_threshold,
    soft_threshold,
)
from wpdenoise.wavelet import filter_bank, wp_analysis, wp_synthesis


@contextmanager
def criterion(tag, description):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {tag} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {tag} PASS: {description}")


def test_criterion_1_perfect_reconstruction():
    with criterion(1, "packet transform round trip within 1e-10 "
                      "(haar/db4, depths 1-5, lengths 64-1024)"):
        rng = np.random.default_rng(101)
        checked = 0
        for name in ("haar", "db4"):
            fb = filter_bank(name)
            for n in (64, 128, 256, 512, 1024):
                for depth in (1, 2, 3, 4, 5):
                    if n >> depth < len(fb):
                        continue  # leaf shorter than the filter
                    for _ in range(3):
                        x = rng.normal(size=(1, n))
                        rec = wp_synthesis(wp_analysis(x, fb, depth), fb)
                        assert np.max(np.abs(rec - x)) < 1e-10
                        checked += 1
        assert checked >= 100


def test_criterion_2_framing_identity_and_cola():
    with criterion(2, "framing round trip and hann COLA within 1e-10"):
        rng = np.random.default_rng(102)
        for window in ("rectangular", "hann"):
            sig = SignalBuffer(rng.normal(size=5000), 16000)
            back = overlap_add(make_frames(sig, 512, 256, window))
            assert len(back) == len(sig)
            assert np.max(np.abs(back.samples - sig.samples)) < 1e-10
        ones = SignalBuffer(np.ones(5000), 16000)
        back = overlap_add(make_frames(ones, 512, 256, "hann"))
        assert np.max(np.abs(back.samples - 1.0)) < 1e-10


def _random_probability_pair(rng, n_bins=12):
    edges = np.linspace(-1.0, 1.0, n_bins + 1)
    p = to_probability(
        Histogram(edges, rng.integers(0, 500, n_bins) + 1), 1e-12
    )
    q = to_probability(
        Histogram(edges, rng.integers(0, 500, n_bins) + 1), 1e-12
    )
    return p, q


def test_criterion_3_divergence_identities():
    with criterion(3, "divergence non-negativity, identity of "
                      "indiscernibles, per-bin algebraic identity"):
        rng = np.random.default_rng(103)
        for _ in range(1000):
            p, q = _random_probability_pair(rng)
            assert kl_divergence(p, q) >= -1e-12
            if not np.array_equal(p.probs, q.probs):
                assert kl_divergence(p, q) > 1e-12  # equality only at p == q
            assert abs(kl_divergence(p, p)) <= 1e-12
            assert abs(symmetric_divergence(p, p)) <= 1e-12
            z = np.log(p.probs / q.probs)
            lhs = float(np.sum(z * (p.probs - q.probs)))
            assert abs(lhs - symmetric_divergence(p, q)) <= 1e-12


def test_criterion_4_near_zero_ratio():
    with criterion(4, "independent noise draws: zero-bin ratio within "
                      "1 +- 0.1 and symmetric divergence <= 0.05"):
        rng = np.random.default_rng(104)
        a = rng.normal(size=10**5)
        b = rng.normal(size=10**5)
        edges = shared_edges(a, b)
        p = to_probability(row_histograms(a, edges=edges), 1e-12)
        q = to_probability(row_histograms(b, edges=edges), 1e-12)
        _, zero_ratio = ratio_profile(p, q)[0]
        assert abs(zero_ratio - 1.0) <= 0.1
        assert symmetric_divergence(p, q) <= 0.05


def test_criterion_5_bin_rule():
    with criterion(5, "histogram bin count B = max(1, floor(sqrt(N)/2))"):
        expected = {4: 1, 100: 5, 1024: 16, 10**5: 158}
        rng = np.random.default_rng(105)
        for n, b in expected.items():
            assert bin_count(n) == b
            assert row_histograms(rng.normal(size=n)).n_bins == b
        for n in (1, 2, 3, 17, 255, 4096, 10**6):
            assert bin_count(n) == max(1, math.floor(math.sqrt(n) / 2))


def test_criterion_6a_hard_threshold_table():
    with criterion("6a", "hard-threshold table with boundary |w| = T kept"):
        cases = [
            ([0.5, -2.0, 1.0], 1.0, [0.0, -2.0, 1.0]),
            ([1.0, -1.0], 1.0, [1.0, -1.0]),  # boundary kept
            ([0.0, 0.2, -0.9], 1.0, [0.0, 0.0, 0.0]),
            ([0.3, -0.7], 0.0, [0.3, -0.7]),  # T = 0 is the identity
        ]
        for coeffs, t, want in cases:
            np.testing.assert_array_equal(hard_threshold(coeffs, t), want)


def test_criterion_6b_band_hard_agreement():
    with criterion("6b", "band removal with symmetric band matches hard "
                         "thresholding off the |w| = T boundary"):
        rng = np.random.default_rng(106)
        x = rng.normal(size=4096)
        t = 0.8
        off_boundary = np.abs(np.abs(x) - t) > 0
        banded = band_hard_threshold(x, -t, t)
        harded = hard_threshold(x, t)
        np.testing.assert_array_equal(
            banded[off_boundary], harded[off_boundary]
        )


_T, _T2 = 0.7, 1.4
# semisoft re-applied acts as semisoft with a wider dead zone (see 6c)
_T1_TWICE = _T2 - (_T2 - _T) ** 2 / _T2

_RULES = {
    "hard": lambda x: hard_threshold(x, _T),
    "soft": lambda x: soft_threshold(x, _T),
    "semisoft": lambda x: semisoft_threshold(x, _T, _T2),
    "band_hard": lambda x: band_hard_threshold(x, -_T, _T),
}

# What applying each rule a second time must give, and the claim checked.
_TWICE = {
    "hard": (None, "hard rule is idempotent"),
    "band_hard": (None, "band_hard rule is idempotent"),
    "soft": (lambda x: soft_threshold(x, 2 * _T),
             "soft rule applied twice equals soft with 2t"),
    "semisoft": (lambda x: semisoft_threshold(x, _T1_TWICE, _T2),
                 "semisoft rule applied twice equals semisoft with "
                 "t1' = t2 - (t2 - t1)^2 / t2"),
}


@pytest.mark.parametrize("rule", list(_RULES))
def test_criterion_6c_idempotence(rule):
    # NOTE: hard and band_hard keep or kill, so they are idempotent.
    # soft shrinks again on each pass: soft_t(soft_t(w)) == soft_2t(w).
    # semisoft maps t1 < |w| < t2 to t2(|w| - t1)/(t2 - t1), which the
    # second pass zeroes up to |w| = t1' = t2 - (t2 - t1)^2 / t2 and ramps
    # above it with slope t2^2/(t2 - t1)^2 = t2/(t2 - t1'). Every rule
    # keeps the zeros of its first pass.
    expected, claim = _TWICE[rule]
    with criterion(f"6c[{rule}]", claim):
        rng = np.random.default_rng(107)
        x = rng.normal(size=2048)  # spans below/between/above thresholds
        once = _RULES[rule](x)
        twice = _RULES[rule](once)
        np.testing.assert_array_equal(twice[once == 0], 0.0)
        if expected is None:
            np.testing.assert_array_equal(twice, once)
        else:
            np.testing.assert_allclose(twice, expected(x), rtol=0, atol=1e-15)
        if rule == "semisoft":
            above = np.abs(x) >= _T2
            np.testing.assert_array_equal(twice[above], x[above])


def test_criterion_6d_semisoft_continuity():
    with criterion("6d", "semisoft rule continuous (max jump < 1e-9 "
                         "under dense sampling)"):
        t1, t2 = 1.0, 2.0
        grids = [np.linspace(-3.0, 3.0, 100001)]
        for knee in (-t2, -t1, t1, t2):
            grids.append(knee + np.linspace(-1e-6, 1e-6, 20001))
        for grid in grids:
            out = semisoft_threshold(grid, t1, t2)
            step = grid[1] - grid[0]
            lipschitz = t2 / (t2 - t1)
            assert np.max(np.abs(np.diff(out))) < max(
                2 * lipschitz * step, 1e-9
            )
        # dense sampling right at the knees: adjacent evaluations differ
        # by less than 1e-9
        for knee in (t1, t2):
            grid = knee + np.linspace(-1e-10, 1e-10, 2001)
            out = semisoft_threshold(grid, t1, t2)
            assert np.max(np.abs(np.diff(out))) < 1e-9


# Improvements frozen from the first run of this suite; repeat runs must
# stay within +-0.5 dB.
_FROZEN_IMPROVEMENTS_DB = {
    ("universal-hard", 1): 1.323819,
    ("universal-hard", 2): 1.234631,
    ("universal-hard", 3): 1.130905,
    ("universal-hard", 4): 1.305726,
    ("universal-hard", 5): 1.140844,
    ("universal-hard", 6): 1.230359,
    ("universal-hard", 7): 1.206373,
    ("universal-hard", 8): 1.348363,
    ("universal-hard", 9): 1.217195,
    ("universal-hard", 10): 1.131877,
    ("universal-hard", 11): 1.152168,
    ("universal-hard", 12): 1.054204,
    ("universal-hard", 13): 1.143137,
    ("universal-hard", 14): 1.016862,
    ("universal-hard", 15): 1.164808,
    ("universal-hard", 16): 1.244646,
    ("universal-hard", 17): 1.056412,
    ("universal-hard", 18): 1.247539,
    ("universal-hard", 19): 1.176974,
    ("universal-hard", 20): 1.314093,
    ("band", 1): 0.427264,
    ("band", 2): 0.415035,
    ("band", 3): 0.449065,
    ("band", 4): 0.434825,
    ("band", 5): 0.374547,
    ("band", 6): 0.446759,
    ("band", 7): 0.422710,
    ("band", 8): 0.464614,
    ("band", 9): 0.459730,
    ("band", 10): 0.453380,
    ("band", 11): 0.442928,
    ("band", 12): 0.489895,
    ("band", 13): 0.334626,
    ("band", 14): 0.332147,
    ("band", 15): 0.445804,
    ("band", 16): 0.354166,
    ("band", 17): 0.426810,
    ("band", 18): 0.459962,
    ("band", 19): 0.356492,
    ("band", 20): 0.440111,
}


@pytest.mark.parametrize("method", ["universal-hard", "band"])
def test_criterion_7_denoising_improves_snr(method):
    with criterion(f"7[{method}]",
                   "sine-0db preset: output SNR beats input SNR for 20 "
                   "seeds, within 0.5 dB of the frozen baseline"):
        for seed in range(1, 21):
            clean, noisy = sine_0db_material(seed)
            config = EnhanceConfig(method=method, seed=seed)
            _, report = enhance(noisy, config, reference=clean)
            improvement = report.output_snr_db - report.input_snr_db
            assert report.output_snr_db > report.input_snr_db, (
                f"seed {seed}: no improvement ({improvement:+.4f} dB)"
            )
            baseline = _FROZEN_IMPROVEMENTS_DB[(method, seed)]
            assert abs(improvement - baseline) <= 0.5, (
                f"seed {seed}: improvement {improvement:.4f} dB drifted "
                f"from baseline {baseline:.4f} dB"
            )


def test_criterion_8_determinism(tmp_path):
    with criterion(8, "byte-identical WAV and report for repeated runs "
                      "with a fixed seed"):
        wavs, reports = [], []
        for tag in ("first", "second"):
            wav = tmp_path / f"synth-{tag}.wav"
            assert run(["synth", "--kind", "mix", "--seed", "13",
                        "--duration", "1.0", "--out", str(wav)]) == 0
            wavs.append(wav.read_bytes())

            out = tmp_path / f"exp-{tag}.wav"
            rep = tmp_path / f"exp-{tag}.json"
            assert run(["experiment", "--preset", "sine-0db", "--seed", "13",
                        "--out", str(out), "--report", str(rep)]) == 0
            wavs.append(out.read_bytes())
            reports.append(rep.read_bytes())
        assert wavs[0] == wavs[2]  # synth
        assert wavs[1] == wavs[3]  # enhanced audio
        assert reports[0] == reports[1]
        parsed = json.loads(reports[0])
        from wpdenoise.report import validate_report_dict

        validate_report_dict(parsed)
