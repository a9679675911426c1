"""Tests for the command-line surface: flags, exit codes, reports."""

import dataclasses
import json
import os
import re
import shlex
import struct
import subprocess
import sys
import threading

import numpy as np
import pytest

from wpdenoise.cli import build_parser, run
from wpdenoise.framing import WINDOWS
from wpdenoise.pipeline import NOISE_MODES, EnhanceConfig, enhance
from wpdenoise.report import validate_report_dict
from wpdenoise.signal_io import SignalBuffer, read_wav, white_noise, write_wav
from wpdenoise.wavelet import FILTERS


def _clipped(samples) -> int:
    """Samples outside the 16-bit range [-1, 1 - 1/32768]."""
    return int(((samples < -1.0) | (samples > 1.0 - 1.0 / 32768)).sum())


def _warning(clipped, total, path) -> str:
    return f"warning: {clipped} of {total} samples clipped on write to {path}\n"


def _synth(tmp_path, name="in.wav", kind="mix", seed=3, extra=()):
    path = tmp_path / name
    status = run([
        "synth", "--kind", kind, "--out", str(path),
        "--seed", str(seed), "--duration", "1.0", *extra,
    ])
    assert status == 0
    return path


class TestSynth:
    def test_same_seed_same_bytes(self, tmp_path):
        a = _synth(tmp_path, "a.wav", kind="noise", seed=7)
        b = _synth(tmp_path, "b.wav", kind="noise", seed=7)
        assert a.read_bytes() == b.read_bytes()
        c = _synth(tmp_path, "c.wav", kind="noise", seed=8)
        assert a.read_bytes() != c.read_bytes()

    def test_sine_is_clean(self, tmp_path):
        path = _synth(tmp_path, "s.wav", kind="sine")
        sig = read_wav(path)
        assert sig.sample_rate_hz == 16000
        assert len(sig) == 16000

    def test_env_seed_overrides_flag(self, tmp_path, monkeypatch):
        flag = _synth(tmp_path, "flag.wav", kind="noise", seed=11)
        monkeypatch.setenv("WAVEDENOISE_SEED", "11")
        env = tmp_path / "env.wav"
        assert run(["synth", "--kind", "noise", "--out", str(env),
                    "--seed", "999", "--duration", "1.0"]) == 0
        assert flag.read_bytes() == env.read_bytes()

    def test_non_integer_env_seed_is_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("WAVEDENOISE_SEED", "abc")
        status = run(["synth", "--kind", "noise", "--out", str(tmp_path / "x.wav"),
                      "--duration", "1.0"])
        assert status == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "WAVEDENOISE_SEED" in err and "'abc'" in err
        assert not (tmp_path / "x.wav").exists()

    def test_quiet_on_success(self, tmp_path, capsys):
        # std 0.2: no sample reaches full scale, so nothing is clipped
        _synth(tmp_path, "q.wav", kind="noise", extra=("--std", "0.2"))
        out = capsys.readouterr()
        assert out.out == "" and out.err == ""


class TestDenoise:
    def test_end_to_end_with_report(self, tmp_path, capsys):
        # material with a genuinely silent lead-in for noise estimation
        noisy = tmp_path / "noisy.wav"
        ref = tmp_path / "ref.wav"
        from wpdenoise.experiments import sine_0db_material
        from wpdenoise.signal_io import write_wav

        clean, mixed = sine_0db_material(seed=2)
        write_wav(noisy, mixed)
        write_wav(ref, clean)

        out = tmp_path / "out.wav"
        report_path = tmp_path / "report.json"
        status = run([
            "denoise", "--in", str(noisy), "--out", str(out),
            "--ref", str(ref), "--report", str(report_path),
            "--method", "universal-hard", "--seed", "2",
        ])
        assert status == 0
        captured = capsys.readouterr()
        # the 0 dB mixture's output overshoots full scale: one warning line
        expected, _ = enhance(
            read_wav(noisy), EnhanceConfig(method="universal-hard", seed=2),
        )
        clipped = _clipped(expected.samples)
        assert clipped > 0
        assert captured.out == ""
        assert captured.err == _warning(clipped, len(expected), out)

        enhanced = read_wav(out)
        assert len(enhanced) == len(mixed)

        report = json.loads(report_path.read_text())
        validate_report_dict(report)
        assert report["mode"] == "denoise"
        assert report["output_snr_db"] > report["input_snr_db"]

    def test_snr_fields_absent_without_ref(self, tmp_path):
        noisy = _synth(tmp_path, "n.wav", kind="noise")
        out = tmp_path / "out.wav"
        report_path = tmp_path / "r.json"
        status = run([
            "denoise", "--in", str(noisy), "--out", str(out),
            "--report", str(report_path), "--silence-ms", "100",
        ])
        assert status == 0
        report = json.loads(report_path.read_text())
        validate_report_dict(report)
        assert "input_snr_db" not in report and "output_snr_db" not in report

    def test_input_may_be_a_pipe(self, tmp_path):
        # reading used to seek past each chunk's pad byte, which a pipe
        # cannot: exit status 2, "File or stream is not seekable."
        wav = _synth(tmp_path)
        fifo = tmp_path / "pipe.wav"
        os.mkfifo(fifo)
        writer = threading.Thread(target=lambda: fifo.write_bytes(wav.read_bytes()),
                                  daemon=True)
        writer.start()
        assert run(["denoise", "--in", str(fifo), "--out", str(tmp_path / "p.wav")]) == 0
        writer.join(timeout=30)
        assert not writer.is_alive()
        assert run(["denoise", "--in", str(wav), "--out", str(tmp_path / "f.wav")]) == 0
        assert (tmp_path / "p.wav").read_bytes() == (tmp_path / "f.wav").read_bytes()

    def test_missing_input_is_io_error(self, tmp_path, capsys):
        status = run([
            "denoise", "--in", str(tmp_path / "missing.wav"),
            "--out", str(tmp_path / "o.wav"),
        ])
        assert status == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_malformed_wav_is_io_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.wav"
        bad.write_bytes(b"not a wav at all")
        status = run(["denoise", "--in", str(bad), "--out", str(tmp_path / "o.wav")])
        assert status == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_zero_sample_rate_is_io_error(self, tmp_path, capsys):
        bad = tmp_path / "rate0.wav"
        header = struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 40, b"WAVE", b"fmt ",
                             16, 1, 1, 0, 0, 2, 16, b"data", 4)
        bad.write_bytes(header + bytes(4))
        status = run(["denoise", "--in", str(bad), "--out", str(tmp_path / "o.wav")])
        assert status == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1

    def test_bad_geometry_is_processing_error(self, tmp_path, capsys):
        noisy = _synth(tmp_path)
        capsys.readouterr()  # the 0 dB mixture clips on write: a warning
        status = run([
            "denoise", "--in", str(noisy), "--out", str(tmp_path / "o.wav"),
            "--hop", "100",
        ])
        assert status == 3
        assert capsys.readouterr().err.startswith("error:")

    def test_unrebuildable_window_rejected_before_any_read(self, tmp_path, capsys):
        # a 2048-sample hann frame leaves the overlap-add normaliser at 3.5e-13
        out = tmp_path / "o.wav"
        status = run([
            "denoise", "--in", str(tmp_path / "missing.wav"), "--out", str(out),
            "--frame-len", "2048",
        ])
        assert status == 3
        err = capsys.readouterr().err
        assert err.startswith("error: window 'hann'") and err.count("\n") == 1
        assert not out.exists()

    def test_reference_at_another_rate_is_processing_error(self, tmp_path, capsys):
        # 16000 samples each, at 16 kHz and at 8 kHz
        noisy = _synth(tmp_path, "n.wav", kind="noise")
        ref = tmp_path / "ref.wav"
        assert run([
            "synth", "--kind", "noise", "--out", str(ref), "--seed", "3",
            "--duration", "2.0", "--rate", "8000",
        ]) == 0
        out = tmp_path / "o.wav"
        status = run([
            "denoise", "--in", str(noisy), "--out", str(out), "--ref", str(ref),
        ])
        assert status == 3
        assert capsys.readouterr().err == "error: sample rate mismatch: 8000 vs 16000\n"
        assert not out.exists()

    def test_unknown_method_is_usage_error(self, tmp_path, capsys):
        noisy = _synth(tmp_path)
        capsys.readouterr()  # the 0 dB mixture clips on write: a warning
        status = run([
            "denoise", "--in", str(noisy), "--out", str(tmp_path / "o.wav"),
            "--method", "sure",
        ])
        assert status == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert run([]) == 1
        capsys.readouterr()


class TestSynthRate:
    def test_rate_beyond_wav_header_is_io_error(self, tmp_path, capsys):
        out = tmp_path / "x.wav"
        status = run(["synth", "--kind", "sine", "--rate", "3000000000",
                      "--duration", "0.000001", "--out", str(out)])
        assert status == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {out}: ") and err.count("\n") == 1
        assert not out.exists()


class TestSynthDuration:
    @pytest.mark.parametrize("kind", ["sine", "noise", "mix"])
    @pytest.mark.parametrize("duration", ["inf", "nan", "1e308"])
    def test_a_length_no_signal_has_is_processing_error(self, tmp_path, capsys, kind,
                                                        duration):
        # inf died with an OverflowError traceback, exit 1
        out = tmp_path / "x.wav"
        status = run(["synth", "--kind", kind, f"--duration={duration}", "--out", str(out)])
        assert status == 3
        err = capsys.readouterr().err
        assert err.startswith("error: duration_s") and err.count("\n") == 1
        assert not out.exists()


class TestSynthSine:
    @pytest.mark.parametrize("flag, value", [("--amplitude", "inf"), ("--freq", "1e308")])
    def test_a_tone_no_float_holds_is_processing_error(self, tmp_path, capsys, flag,
                                                      value):
        # numpy warned on stderr before the samples were refused
        out = tmp_path / "x.wav"
        status = run(["synth", "--kind", "sine", f"{flag}={value}", "--out", str(out)])
        assert status == 3
        err = capsys.readouterr().err
        name = {"--amplitude": "amplitude", "--freq": "freq_hz"}[flag]
        assert err.startswith(f"error: {name}") and err.count("\n") == 1
        assert not out.exists()


class TestSeed:
    @pytest.mark.parametrize("argv, env", [
        (["experiment", "--preset", "sine-0db", "--seed", "-1"], None),
        (["synth", "--kind", "noise", "--seed", "-3"], None),
        (["denoise", "--in", "missing.wav"], "-1"),
        (["synth", "--kind", "sine", "--seed", "-5"], None),
        (["synth", "--kind", "sine"], "-1"),
    ], ids=["experiment", "synth", "denoise-env", "synth-sine", "synth-sine-env"])
    def test_a_negative_seed_is_one_line_naming_seed(self, tmp_path, capsys, monkeypatch,
                                                    argv, env):
        # numpy's "expected non-negative integer" named nothing, and
        # denoise only echoed the seed; denoise fails before any read, and
        # synth checks the seed of every kind, a sine's too, which it ignores
        monkeypatch.chdir(tmp_path)
        if env is not None:
            monkeypatch.setenv("WAVEDENOISE_SEED", env)
        out = tmp_path / "o.wav"
        status = run([*argv, "--out", str(out)])
        assert status == 3
        err = capsys.readouterr().err
        assert err.startswith("error: seed must be an integer >= 0") and err.count("\n") == 1
        assert not out.exists()


class TestClippingWarning:
    def test_synth_reports_clipped_count(self, tmp_path, capsys):
        path = tmp_path / "loud.wav"
        assert run(["synth", "--kind", "noise", "--out", str(path), "--seed", "3",
                    "--duration", "1.0", "--std", "1.0"]) == 0
        clipped = _clipped(white_noise(1.0, 1.0, 16000, 3).samples)
        assert clipped > 1000
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == _warning(clipped, 16000, path)

    @pytest.mark.parametrize("seed", ["0", "7"])
    def test_synth_noise_defaults_do_not_clip(self, tmp_path, capsys, seed):
        path = tmp_path / "noise.wav"
        assert run(["synth", "--kind", "noise", "--out", str(path), "--seed", seed,
                    "--duration", "2"]) == 0
        assert _clipped(read_wav(path).samples) == 0
        assert capsys.readouterr().err == ""

    def test_readme_mix_example_does_not_clip(self, tmp_path, capsys):
        readme = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
        with open(readme, encoding="utf-8") as fh:
            text = fh.read()
        argv = shlex.split(re.search(r"wpdenoise (synth --kind mix .*)", text).group(1))
        argv[argv.index("--out") + 1] = str(tmp_path / "noisy.wav")
        assert run(argv) == 0
        assert capsys.readouterr().err == ""

    def test_experiment_warns_once_per_clipping_write(self, tmp_path, capsys):
        out = tmp_path / "e.wav"
        assert run(["experiment", "--preset", "sine-0db", "--seed", "1",
                    "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("warning: ")
        assert err.endswith(f" of 80000 samples clipped on write to {out}\n")

    def test_denoise_without_clipping_is_quiet(self, tmp_path, capsys):
        tone = _synth(tmp_path, "tone.wav", kind="sine")  # amplitude 0.5
        out = tmp_path / "o.wav"
        assert run(["denoise", "--in", str(tone), "--out", str(out)]) == 0
        assert _clipped(enhance(read_wav(tone), EnhanceConfig())[0].samples) == 0
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == ""


class TestAnalyze:
    def test_self_analysis_divergence_zero(self, tmp_path):
        wav = _synth(tmp_path, "x.wav", kind="noise")
        report_path = tmp_path / "r.json"
        status = run([
            "analyze", "--in", str(wav), "--noise", str(wav),
            "--report", str(report_path),
        ])
        assert status == 0
        report = json.loads(report_path.read_text())
        validate_report_dict(report)
        assert report["mode"] == "analyze"
        assert report["frames"] == []
        assert all(abs(d) <= 1e-9 for d in report["subband_divergence"])
        for entry in report["near_zero_ratios"]:
            assert abs(entry["ratio"] - 1.0) <= 1e-9
        assert len(report["histograms"]) == 16

    def test_distinct_noise_gives_positive_divergence(self, tmp_path):
        a = _synth(tmp_path, "a.wav", kind="mix", seed=5)
        b = _synth(tmp_path, "b.wav", kind="noise", seed=6)
        report_path = tmp_path / "r.json"
        assert run([
            "analyze", "--in", str(a), "--noise", str(b),
            "--report", str(report_path),
        ]) == 0
        report = json.loads(report_path.read_text())
        assert any(d > 0 for d in report["subband_divergence"])

    @pytest.mark.parametrize("empty", ["noisy", "noise"])
    def test_an_empty_input_exits_3_with_no_report(self, tmp_path, capsys, empty):
        # a header-only WAV on either side was framed as one zero-padded
        # frame, and the report written with status 0
        files = {"noisy": _synth(tmp_path, "mix.wav"), "noise": tmp_path / "empty.wav"}
        write_wav(files["noise"], SignalBuffer(np.zeros(0), 16000))
        if empty == "noisy":
            files = {"noisy": files["noise"], "noise": files["noisy"]}
        report_path = tmp_path / "a.json"
        capsys.readouterr()
        assert run(["analyze", "--in", str(files["noisy"]), "--noise", str(files["noise"]),
                    "--report", str(report_path)]) == 3
        assert capsys.readouterr().err == (
            f"error: cannot analyze an empty signal: {empty} holds no samples\n")
        assert not report_path.exists()


class TestExperiment:
    def test_prints_snr_and_writes_valid_report(self, tmp_path, capsys):
        report_path = tmp_path / "r.json"
        status = run([
            "experiment", "--preset", "sine-0db", "--seed", "4",
            "--report", str(report_path),
        ])
        assert status == 0
        out_lines = capsys.readouterr().out.strip().splitlines()
        assert out_lines[0].startswith("input_snr_db ")
        assert out_lines[1].startswith("output_snr_db ")
        input_snr = float(out_lines[0].split()[1])
        output_snr = float(out_lines[1].split()[1])
        assert output_snr > input_snr

        report = json.loads(report_path.read_text())
        validate_report_dict(report)
        assert report["mode"] == "experiment"
        assert report["seed"] == 4

    def test_repeat_runs_byte_identical(self, tmp_path, capsys):
        paths = []
        for tag in ("1", "2"):
            wav = tmp_path / f"out{tag}.wav"
            rep = tmp_path / f"rep{tag}.json"
            assert run([
                "experiment", "--preset", "sine-0db", "--seed", "9",
                "--out", str(wav), "--report", str(rep),
            ]) == 0
            paths.append((wav, rep))
        capsys.readouterr()
        assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
        assert paths[0][1].read_bytes() == paths[1][1].read_bytes()

    def test_unknown_preset_is_usage_error(self, capsys):
        assert run(["experiment", "--preset", "speech-5db"]) == 1
        capsys.readouterr()


class TestNonFiniteValues:
    @pytest.mark.parametrize(
        "flags",
        [
            ("--band-tolerance", "nan", "--method", "band"),
            ("--entropy-threshold", "nan"),
            ("--silence-ms", "inf"),
        ],
    )
    def test_config_rejected_before_any_read(self, tmp_path, capsys, flags):
        # the input does not exist: reading it first would exit 2
        out, report = tmp_path / "o.wav", tmp_path / "r.json"
        status = run([
            "denoise", "--in", str(tmp_path / "missing.wav"), "--out", str(out),
            "--report", str(report), *flags,
        ])
        assert status == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert flags[0][2:].replace("-", "_") in err
        assert not out.exists() and not report.exists()

    @pytest.mark.parametrize("snr", ["-inf", "-4000", "nan"])
    def test_synth_mix_without_finite_noise_gain(self, tmp_path, capsys, snr):
        out = tmp_path / "m.wav"
        status = run(["synth", "--kind", "mix", "--out", str(out), f"--snr-db={snr}"])
        assert status == 3
        err = capsys.readouterr().err
        assert "target_snr_db" in err and err.count("\n") == 1
        assert not out.exists()


class TestAnalyzeEpsilon:
    def test_epsilon_too_large_for_pooled_histograms(self, tmp_path, capsys):
        # 1 s of audio is 62 frames: the pooled histograms have
        # bin_count(62 * 512) = 89 bins, so 0.02 (under 1/11 per frame and
        # 1/22 per subband) fails, before any transform.
        wav = _synth(tmp_path, "x.wav", kind="noise")
        status = run([
            "analyze", "--in", str(wav), "--noise", str(wav),
            "--report", str(tmp_path / "r.json"), "--epsilon", "0.02",
        ])
        assert status == 3
        err = capsys.readouterr().err
        assert "epsilon=0.02" in err and "1/89" in err
        assert not (tmp_path / "r.json").exists()


class TestSharedFlags:
    @pytest.mark.parametrize("argv", [
        ["denoise", "--in", "x.wav", "--out", "y.wav"],
        ["analyze", "--in", "x.wav", "--noise", "n.wav", "--report", "r.json"],
        ["synth", "--kind", "sine", "--out", "y.wav"],
        ["experiment", "--preset", "sine-0db"],
    ])
    def test_every_subcommand_takes_seed_and_verbose(self, argv):
        args = build_parser().parse_args([*argv, "--seed", "3", "--verbose"])
        assert args.seed == 3 and args.verbose is True
        args = build_parser().parse_args(argv)
        assert args.seed is None and args.verbose is False

    @pytest.mark.parametrize("command", ["denoise", "analyze", "experiment"])
    def test_config_group_is_the_enhance_config_fields(self, command):
        sub = build_parser()._subparsers._group_actions[0].choices[command]
        (group,) = [g for g in sub._action_groups if g.title == "pipeline configuration"]
        actions = {a.dest: a for a in group._group_actions}
        names = [f.name for f in dataclasses.fields(EnhanceConfig)]
        assert sorted(actions) == sorted(set(names) - {"method", "seed"})
        choices = {"window": WINDOWS, "wavelet": FILTERS, "noise_estimation": NOISE_MODES}
        for f in dataclasses.fields(EnhanceConfig):
            if f.name in ("method", "seed"):
                continue
            action = actions[f.name]
            assert action.default == f.default and action.required is False
            assert action.choices == choices.get(f.name)
            flag = "--" + f.name.replace("_", "-")
            if f.name == "vuv_enabled":
                assert action.option_strings == ["--vuv", "--no-vuv"]
            else:
                assert action.option_strings == [flag]
                assert action.type is (float if f.default is None else type(f.default))

    def test_method_on_denoise_and_experiment_only(self, capsys):
        parser = build_parser()
        for argv in (["denoise", "--in", "x.wav", "--out", "y.wav"],
                     ["experiment", "--preset", "sine-0db"]):
            assert parser.parse_args(argv).method == EnhanceConfig.method
            assert parser.parse_args([*argv, "--method", "band"]).method == "band"
        status = run(["analyze", "--in", "x.wav", "--noise", "n.wav",
                      "--report", "r.json", "--method", "band"])
        assert status == 1
        assert "unrecognized arguments: --method band" in capsys.readouterr().err

    def test_verbose_names_every_file_written(self, tmp_path, capsys):
        def wrote(argv):
            assert run([*argv, "--verbose"]) == 0
            err = capsys.readouterr().err.splitlines()
            # besides the names, only clipping warnings
            assert all(line.startswith(("wrote ", "warning: ")) for line in err)
            return [line for line in err if line.startswith("wrote ")]

        tone, noise = tmp_path / "tone.wav", tmp_path / "noise.wav"
        assert wrote(["synth", "--kind", "sine", "--out", str(tone),
                      "--duration", "1"]) == [f"wrote {tone}"]
        assert wrote(["synth", "--kind", "noise", "--out", str(noise),
                      "--duration", "1"]) == [f"wrote {noise}"]
        out, report = tmp_path / "d.wav", tmp_path / "d.json"
        assert wrote(["denoise", "--in", str(tone), "--out", str(out),
                      "--report", str(report)]) == [f"wrote {out}", f"wrote {report}"]
        assert wrote(["denoise", "--in", str(tone), "--out", str(out)]) == [
            f"wrote {out}"
        ]
        assert wrote(["analyze", "--in", str(tone), "--noise", str(noise),
                      "--report", str(report)]) == [f"wrote {report}"]
        out, report = tmp_path / "e.wav", tmp_path / "e.json"
        assert wrote(["experiment", "--preset", "sine-0db", "--out", str(out),
                      "--report", str(report)]) == [f"wrote {out}", f"wrote {report}"]
        assert wrote(["experiment", "--preset", "sine-0db"]) == []


class TestOutputs:
    @pytest.mark.parametrize("command", ["denoise", "experiment"])
    def test_an_output_that_cannot_be_opened_writes_none(self, tmp_path, capsys, command):
        # every output is opened before any is written; a WAV written
        # before the report's open failed would be left behind
        if command == "denoise":
            argv = ["denoise", "--in", str(_synth(tmp_path))]
            capsys.readouterr()  # the mix's clipping warning
        else:
            argv = ["experiment", "--preset", "sine-0db"]
        out, report, missing = tmp_path / "o.wav", tmp_path / "r.json", tmp_path / "missing"
        for outputs, absent in [
            (["--out", str(out), "--report", str(missing / "r.json")], missing / "r.json"),
            (["--out", str(missing / "o.wav"), "--report", str(report)], missing / "o.wav"),
        ]:
            assert run([*argv, *outputs]) == 2
            err = capsys.readouterr().err
            assert err == f"error: [Errno 2] No such file or directory: '{absent}'\n"
            assert not out.exists() and not report.exists()
        # an existing output is left as it was
        out.write_bytes(b"old")
        assert run([*argv, "--out", str(out), "--report", str(missing / "r.json")]) == 2
        assert out.read_bytes() == b"old"
        capsys.readouterr()

    @pytest.mark.parametrize("spelling", ["same", "./same", "link"])
    @pytest.mark.parametrize("command", ["denoise", "experiment"])
    def test_two_outputs_that_name_one_file_are_refused(
        self, tmp_path, capsys, monkeypatch, command, spelling
    ):
        # the report written over the WAV would leave only the report:
        # refused with nothing opened, whether the file exists or not
        if command == "denoise":
            argv = ["denoise", "--in", str(_synth(tmp_path))]
            capsys.readouterr()  # the mix's clipping warning
        else:
            argv = ["experiment", "--preset", "sine-0db"]
        monkeypatch.chdir(tmp_path)
        os.symlink("same", "link")  # dangling until "same" is written
        outputs = ["--out", spelling, "--report", "same", "--verbose"]
        for old in (None, b"old"):
            if old is not None:
                (tmp_path / "same").write_bytes(old)
            assert run([*argv, *outputs]) == 1
            err = capsys.readouterr().err
            assert err == f"error: --out {spelling} and --report same name the same file\n"
            assert sorted(os.listdir(tmp_path)) == sorted(
                ["link"] + ["in.wav"] * (command == "denoise") + ["same"] * (old is not None))
            assert old is None or (tmp_path / "same").read_bytes() == old
        # a device takes both
        assert run([*argv, "--out", os.devnull, "--report", os.devnull]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["denoise", "experiment"])
    def test_two_names_of_one_file_by_a_hard_link_are_refused(
        self, tmp_path, capsys, monkeypatch, command
    ):
        # realpath tells the two names apart; their inode does not
        if command == "denoise":
            argv = ["denoise", "--in", str(_synth(tmp_path))]
            capsys.readouterr()  # the mix's clipping warning
        else:
            argv = ["experiment", "--preset", "sine-0db"]
        monkeypatch.chdir(tmp_path)
        (tmp_path / "a.wav").write_bytes(b"old")
        os.link("a.wav", "b.json")
        assert run([*argv, "--out", "a.wav", "--report", "b.json", "--verbose"]) == 1
        assert capsys.readouterr().err == (
            "error: --out a.wav and --report b.json name the same file\n")
        for name in ("a.wav", "b.json"):
            assert (tmp_path / name).read_bytes() == b"old"


_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def _fresh_env() -> dict:
    env = dict(os.environ, PYTHONPATH=_SRC)
    env.pop("WAVEDENOISE_SEED", None)
    return env


def test_cli_import_leaves_out_jsonschema():
    # jsonschema is only needed to validate reports; the CLI must not pay
    # for its import at start-up.
    env = dict(os.environ, PYTHONPATH=_SRC)
    probe = "import sys, wpdenoise.cli; print('jsonschema' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
    # pytest's warning filter is not yet in force while the package is
    # first imported; a fresh interpreter turns import-time warnings into
    # errors
    out = subprocess.run([sys.executable, "-W", "error", "-c", "import wpdenoise.cli"],
                         env=env, capture_output=True, text=True)
    assert out.returncode == 0 and out.stderr == ""


def test_cli_import_leaves_out_importlib_resources():
    # only report_schema reads the packaged schema, so a CLI request need
    # not import importlib.resources; site hooks (.pth files) may import it
    # at start-up, so the probe runs without them (-S) on the same paths
    import site

    probe = (f"import sys; sys.path += {site.getsitepackages()!r}; import wpdenoise.cli; "
             "print('importlib.resources' in sys.modules)")
    out = subprocess.run([sys.executable, "-S", "-c", probe], env=_fresh_env(),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("argv, status", [
    (["experiment", "--preset", "sine-0db", "--seed", "4"], 0),
    (["denoise", "--bogus"], 1),
    (["denoise", "--in", "missing.wav", "--out", "o.wav"], 2),
])
def test_entry_point_is_run_in_a_process(tmp_path, capsys, monkeypatch, argv, status):
    # the console script and `python -m wpdenoise.cli` go through main(),
    # which must exit as run() returns and print what it prints
    fresh = subprocess.run([sys.executable, "-m", "wpdenoise.cli", *argv], cwd=tmp_path,
                           env=_fresh_env(), capture_output=True, text=True)
    monkeypatch.delenv("WAVEDENOISE_SEED", raising=False)
    monkeypatch.chdir(tmp_path)
    assert run(argv) == fresh.returncode == status
    out, err = capsys.readouterr()
    assert (fresh.stdout, fresh.stderr) == (out, err)
    if status == 0:
        assert [line.split()[0] for line in out.splitlines()] == [
            "input_snr_db", "output_snr_db"]
    else:
        assert err.startswith(("usage: ", "error: ")) and out == ""


@pytest.mark.parametrize("call, frozen", [
    ('c.run(["--version"])', False),
    ('sys.argv = ["wpdenoise", "--version"]\ntry:\n    c.main()\nexcept SystemExit:\n    pass',
     True),
], ids=["run", "main"])
def test_only_main_freezes_the_collector(call, frozen):
    # main() keeps the exit-time collections off the imports; a caller of
    # run() or of the library keeps its GC state
    code = f"import gc, sys\nimport wpdenoise.cli as c\n{call}\nprint(gc.get_freeze_count())"
    out = subprocess.run([sys.executable, "-c", code], env=_fresh_env(),
                         capture_output=True, text=True, check=True)
    count = int(out.stdout.splitlines()[-1])
    assert count > 0 if frozen else count == 0
