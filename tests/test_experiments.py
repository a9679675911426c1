"""Tests for the reproducible presets."""

import re

import numpy as np
import pytest

from wpdenoise.experiments import run_preset, sine_0db_material
from wpdenoise.pipeline import METHODS, EnhanceConfig
from wpdenoise.signal_io import sine_wave, snr_db, snr_dbs


def test_run_preset_takes_method_or_config_not_both():
    with pytest.raises(ValueError, match="either method or config"):
        run_preset("sine-0db", method="band", seed=1,
                   config=EnhanceConfig(method="universal-hard", seed=1))


def test_run_preset_method_and_config_runs_agree():
    _, _, by_method, rep_m = run_preset("sine-0db", method="universal-soft", seed=2)
    _, _, by_config, rep_c = run_preset(
        "sine-0db", seed=2, config=EnhanceConfig(method="universal-soft", seed=2)
    )
    assert rep_m.config["method"] == rep_c.config["method"] == "universal-soft"
    assert (by_method.samples == by_config.samples).all()
    assert rep_m.to_json() == rep_c.to_json()


@pytest.mark.parametrize("method", METHODS)
def test_run_preset_draws_the_noise_from_the_config_seed(method):
    # the seed the report records is the seed of the noise: a config
    # alone drew the seed-0 noise under a report that said seed 5
    clean, noisy, by_config, rep_c = run_preset(
        "sine-0db", config=EnhanceConfig(method=method, seed=5)
    )
    _, noisy_5, by_seed, rep_s = run_preset("sine-0db", method, 5)
    assert np.array_equal(noisy.samples, noisy_5.samples)
    assert by_config.samples.tobytes() == by_seed.samples.tobytes()
    assert rep_c.to_json() == rep_s.to_json() and rep_c.seed == 5


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_report_snrs_are_snr_db_bit_for_bit(seed):
    # enhance takes both SNRs in one call that reads the reference once;
    # each must still be exactly the one SNR rule's value
    clean, noisy, enhanced, report = run_preset("sine-0db", seed=seed)
    assert report.input_snr_db == snr_db(clean, noisy)
    assert report.output_snr_db == snr_db(clean, enhanced)
    assert snr_dbs(clean, noisy, enhanced) == (report.input_snr_db, report.output_snr_db)
    assert snr_dbs(clean) == ()


def test_run_preset_refuses_a_seed_beside_a_config_with_another():
    # the report would record seed 5 for noise drawn from seed 3
    with pytest.raises(ValueError, match=r"a seed beside a config must be its seed, 5$"):
        run_preset("sine-0db", seed=3, config=EnhanceConfig(seed=5))


def test_run_preset_refuses_a_config_without_a_seed():
    # the report would record no seed for noise drawn from seed 0
    with pytest.raises(ValueError, match=r"^seed must be an integer, got None$"):
        run_preset("sine-0db", config=EnhanceConfig())


def test_run_preset_default_method():
    _, _, _, report = run_preset("sine-0db", seed=3)
    assert report.config["method"] == "universal-hard"
    assert report.mode == "experiment"


def test_clean_samples_are_one_read_only_tone_with_the_lead_zeroed():
    clean, noisy = sine_0db_material(1)
    want = sine_wave(440.0, 0.5, 5.0, 16000).samples.copy()
    want[:4000] = 0.0  # the first 0.25 s
    assert clean.sample_rate_hz == 16000
    assert clean.samples.dtype == want.dtype and clean.samples.tobytes() == want.tobytes()
    assert not clean.samples.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        clean.samples[4000] = 0.0
    # every call and seed shares the one array; the noisy mix is built anew
    again, noisy_again = sine_0db_material(1)
    other, noisy_other = sine_0db_material(2)
    assert again.samples is clean.samples and other.samples is clean.samples
    assert noisy_again.samples is not noisy.samples
    assert np.array_equal(noisy_again.samples, noisy.samples)
    assert not np.array_equal(noisy_other.samples, noisy.samples)


@pytest.mark.parametrize("name", ["sine-6db", "SINE-0DB", ""])
def test_each_rejection_raises_its_error(name):
    message = f"unknown preset {name!r} (expected one of ('sine-0db',))"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as info:
        run_preset(name)
    assert info.type is ValueError
