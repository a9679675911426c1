"""Tests for the reproducible presets."""

import pytest

from wpdenoise.experiments import run_preset
from wpdenoise.pipeline import EnhanceConfig


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


def test_run_preset_default_method():
    _, _, _, report = run_preset("sine-0db", seed=3)
    assert report.config["method"] == "universal-hard"
    assert report.mode == "experiment"
