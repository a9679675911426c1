"""Tests for WAV I/O, synthetic signals and SNR metrics."""

import math
import re
import struct

import numpy as np
import pytest

from wpdenoise.signal_io import (
    SNR_CAP_DB,
    SignalBuffer,
    WavFormatError,
    WavTruncatedError,
    mix_at_snr,
    read_wav,
    sine_wave,
    snr_db,
    white_noise,
    write_wav,
)


class TestSignalBuffer:
    def test_rejects_nonfinite_samples(self):
        with pytest.raises(ValueError):
            SignalBuffer(np.array([0.0, np.nan]), 8000)
        with pytest.raises(ValueError):
            SignalBuffer(np.array([np.inf]), 8000)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            SignalBuffer(np.zeros(4), 0)
        with pytest.raises(ValueError):
            SignalBuffer(np.zeros(4), -8000)


class TestWavRoundtrip:
    def test_zero_maps_to_zero(self, tmp_path):
        path = tmp_path / "z.wav"
        write_wav(path, SignalBuffer(np.zeros(16), 8000))
        back = read_wav(path)
        assert np.all(back.samples == 0.0)

    def test_full_scale_negative(self, tmp_path):
        path = tmp_path / "n.wav"
        write_wav(path, SignalBuffer(np.array([-1.0]), 8000))
        back = read_wav(path)
        assert back.samples[0] == -1.0  # stored as -32768

    def test_clamps_above_full_scale(self, tmp_path):
        path = tmp_path / "c.wav"
        write_wav(path, SignalBuffer(np.array([2.0, -3.0]), 8000))
        raw = path.read_bytes()
        lo, hi = struct.unpack("<hh", raw[44:48])
        assert (lo, hi) == (32767, -32768)

    def test_roundtrip_error_within_one_lsb(self, tmp_path):
        rng = np.random.default_rng(11)
        sig = SignalBuffer(rng.uniform(-1, 1, 4096), 16000)
        path = tmp_path / "r.wav"
        write_wav(path, sig)
        back = read_wav(path)
        assert back.sample_rate_hz == 16000
        assert np.max(np.abs(back.samples - sig.samples)) <= 1.0 / 32768

    def test_reread_is_bit_identical(self, tmp_path):
        rng = np.random.default_rng(12)
        sig = SignalBuffer(rng.uniform(-1, 1, 1000), 44100)
        first = tmp_path / "a.wav"
        second = tmp_path / "b.wav"
        write_wav(first, sig)
        back = read_wav(first)
        write_wav(second, back)
        assert first.read_bytes() == second.read_bytes()

    def test_empty_signal_header_only(self, tmp_path):
        path = tmp_path / "e.wav"
        write_wav(path, SignalBuffer(np.zeros(0), 8000))
        back = read_wav(path)
        assert len(back) == 0


# KSDATAFORMAT_SUBTYPE_PCM after its two-byte format tag.
_GUID_TAIL = b"\x00\x00\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


class TestWavErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_wav(tmp_path / "nope.wav")

    def test_not_riff(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"OggS" + b"\x00" * 40)
        with pytest.raises(WavFormatError):
            read_wav(path)

    def _wav_bytes(self, fmt_tag=1, channels=1, bits=16, payload=b"\x00\x00" * 4,
                   rate=8000):
        header = struct.pack(
            "<4sI4s4sIHHIIHH4sI",
            b"RIFF", 36 + len(payload), b"WAVE",
            b"fmt ", 16, fmt_tag, channels, rate, rate * 2, 2, bits,
            b"data", len(payload),
        )
        return header + payload

    def _extensible_bytes(self, sub_tag=1, channels=1, bits=16, cb_size=22,
                          guid_tail=_GUID_TAIL, payload=b"\x01\x00\xff\xff"):
        """WAVE_FORMAT_EXTENSIBLE: a 40-byte fmt chunk with a sub-format GUID."""
        fmt = struct.pack(
            "<HHIIHHHHI", 0xFFFE, channels, 8000, 8000 * 2 * channels,
            2 * channels, bits, cb_size, bits, 0x4,
        ) + struct.pack("<H", sub_tag) + guid_tail
        return (
            struct.pack("<4sI4s", b"RIFF", 4 + 8 + len(fmt) + 8 + len(payload), b"WAVE")
            + struct.pack("<4sI", b"fmt ", len(fmt)) + fmt
            + struct.pack("<4sI", b"data", len(payload)) + payload
        )

    def test_extensible_pcm_read(self, tmp_path):
        path = tmp_path / "x.wav"
        path.write_bytes(self._extensible_bytes())
        back = read_wav(path)
        assert back.sample_rate_hz == 8000
        np.testing.assert_array_equal(back.samples, [1 / 32768, -1 / 32768])

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"sub_tag": 3}, "sub-format 00000003-0000-0010-8000-00aa00389b71"),
            # ambisonic B-format PCM: tag 1, but not the PCM GUID
            ({"guid_tail": b"\x00\x00\x21\x07\xd3\x11\x86\x44\xc8\xc1\xca"
                           b"\x00\x00\x00"}, "sub-format 00000001-0721-11d3"),
            ({"cb_size": 0}, "extension"),
            ({"channels": 2}, "mono"),
            ({"bits": 24}, "16-bit"),
        ],
        ids=["float", "ambisonic", "no-extension", "stereo", "24-bit"],
    )
    def test_extensible_other_than_pcm16_mono_rejected(self, tmp_path, kwargs, match):
        path = tmp_path / "x.wav"
        path.write_bytes(self._extensible_bytes(**kwargs))
        with pytest.raises(WavFormatError, match=match):
            read_wav(path)

    def test_non_pcm_rejected(self, tmp_path):
        path = tmp_path / "f.wav"
        path.write_bytes(self._wav_bytes(fmt_tag=3))
        with pytest.raises(WavFormatError, match="PCM"):
            read_wav(path)

    def test_stereo_rejected(self, tmp_path):
        path = tmp_path / "s.wav"
        path.write_bytes(self._wav_bytes(channels=2))
        with pytest.raises(WavFormatError, match="mono"):
            read_wav(path)

    def test_zero_sample_rate_rejected(self, tmp_path):
        path = tmp_path / "r.wav"
        path.write_bytes(self._wav_bytes(rate=0))
        with pytest.raises(WavFormatError, match=f"^{re.escape(str(path))}: .*rate"):
            read_wav(path)

    def test_rate_beyond_header_byte_rate_rejected_before_open(self, tmp_path):
        path = tmp_path / "w.wav"
        write_wav(path, SignalBuffer(np.zeros(4), 2**31 - 1))  # byte rate 2**32 - 2
        assert read_wav(path).sample_rate_hz == 2**31 - 1
        path.unlink()
        with pytest.raises(WavFormatError, match="32-bit"):
            write_wav(path, SignalBuffer(np.zeros(4), 2**31))
        assert not path.exists()

    def test_truncated_data_chunk(self, tmp_path):
        path = tmp_path / "t.wav"
        whole = self._wav_bytes(payload=b"\x00\x00" * 50)
        path.write_bytes(whole[:-40])  # cut off part of the data chunk
        with pytest.raises(WavTruncatedError):
            read_wav(path)


class TestSynth:
    def test_sine_starts_at_zero(self):
        sig = sine_wave(440, 1.0, 1.0, 8000)
        assert sig.samples[0] == 0.0
        assert len(sig) == 8000

    def test_sine_matches_formula(self):
        sig = sine_wave(440, 0.25, 0.01, 8000)
        n = np.arange(len(sig))
        expected = 0.25 * np.sin(2 * np.pi * 440 * n / 8000)
        np.testing.assert_allclose(sig.samples, expected, atol=1e-15)

    def test_noise_deterministic_for_seed(self):
        a = white_noise(1.0, 0.5, 8000, seed=7)
        b = white_noise(1.0, 0.5, 8000, seed=7)
        assert np.array_equal(a.samples, b.samples)
        c = white_noise(1.0, 0.5, 8000, seed=8)
        assert not np.array_equal(a.samples, c.samples)

    def test_noise_std_monte_carlo(self):
        # 1e5 draws: sample std should sit within 1 +- 0.02
        sig = white_noise(1.0, 12.5, 8000, seed=7)
        assert len(sig) == 10**5
        assert abs(np.std(sig.samples) - 1.0) < 0.02

    def test_rejects_nonpositive_duration_or_rate(self):
        with pytest.raises(ValueError):
            sine_wave(440, 1.0, 0.0, 8000)
        with pytest.raises(ValueError):
            sine_wave(440, 1.0, 1.0, 0)
        with pytest.raises(ValueError):
            white_noise(1.0, -1.0, 8000, seed=0)


class TestMixAtSnr:
    def test_equal_power_zero_db_keeps_noise_unscaled(self):
        clean = SignalBuffer(np.array([1.0, -1.0, 1.0, -1.0]), 8000)
        noise = SignalBuffer(np.array([-1.0, 1.0, 1.0, 1.0]), 8000)  # same power
        mixed = mix_at_snr(clean, noise, 0.0)
        np.testing.assert_allclose(mixed.samples - clean.samples, noise.samples,
                                   atol=1e-15)

    def test_infinite_target_returns_clean(self):
        clean = SignalBuffer(np.array([0.5, -0.5]), 8000)
        noise = SignalBuffer(np.array([1.0, 1.0]), 8000)
        mixed = mix_at_snr(clean, noise, math.inf)
        assert np.array_equal(mixed.samples, clean.samples)

    @pytest.mark.parametrize("target", [-10.0, -3.0, 0.0, 5.0, 20.0])
    def test_achieved_snr_matches_target(self, target):
        clean = sine_wave(440, 0.5, 0.5, 8000)
        noise = white_noise(1.0, 0.5, 8000, seed=3)
        mixed = mix_at_snr(clean, noise, target)
        # independent oracle: recompute the power ratio from the mix
        residual = mixed.samples - clean.samples
        achieved = 10 * math.log10(
            float(np.sum(clean.samples**2)) / float(np.sum(residual**2))
        )
        assert abs(achieved - target) < 1e-9
        assert abs(snr_db(clean, mixed) - target) < 1e-9

    @pytest.mark.parametrize("target", [-math.inf, -4000.0, math.nan])
    def test_non_finite_noise_gain_rejected(self, target):
        # -4000 dB: 10**(target/10) underflows to 0, so the gain is infinite
        clean = sine_wave(440, 0.5, 0.1, 8000)
        noise = white_noise(1.0, 0.1, 8000, seed=3)
        with pytest.raises(ValueError, match="target_snr_db"):
            mix_at_snr(clean, noise, target)

    def test_target_beyond_float_range_returns_clean(self):
        # 10**(4000/10) overflows; the noise gain is 0, as for +inf
        clean = sine_wave(440, 0.5, 0.1, 8000)
        noise = white_noise(1.0, 0.1, 8000, seed=3)
        assert np.array_equal(mix_at_snr(clean, noise, 4000.0).samples, clean.samples)

    def test_zero_power_noise_rejected(self):
        clean = SignalBuffer(np.ones(4), 8000)
        silent = SignalBuffer(np.zeros(4), 8000)
        with pytest.raises(ValueError):
            mix_at_snr(clean, silent, 0.0)
        with pytest.raises(ValueError):
            mix_at_snr(silent, clean, 0.0)

    def test_mismatched_inputs_rejected(self):
        a = SignalBuffer(np.ones(4), 8000)
        b = SignalBuffer(np.ones(5), 8000)
        c = SignalBuffer(np.ones(4), 16000)
        with pytest.raises(ValueError):
            mix_at_snr(a, b, 0.0)
        with pytest.raises(ValueError):
            mix_at_snr(a, c, 0.0)


class TestSnrDb:
    def test_identical_signals_hit_cap(self):
        sig = sine_wave(100, 0.5, 0.1, 8000)
        assert snr_db(sig, sig) == SNR_CAP_DB == 300.0

    def test_zero_test_signal_gives_zero_db(self):
        sig = sine_wave(100, 0.5, 0.1, 8000)
        silent = SignalBuffer(np.zeros(len(sig)), 8000)
        assert abs(snr_db(sig, silent)) < 1e-12

    def test_against_direct_power_ratio(self):
        ref = sine_wave(440, 1.0, 0.25, 8000)
        noise = white_noise(0.1, 0.25, 8000, seed=5)
        test = SignalBuffer(ref.samples + noise.samples, 8000)
        expected = 10 * math.log10(
            float(np.sum(ref.samples**2)) / float(np.sum(noise.samples**2))
        )
        assert abs(snr_db(ref, test) - expected) < 1e-12

    def test_errors(self):
        sig = sine_wave(100, 0.5, 0.1, 8000)
        with pytest.raises(ValueError):
            snr_db(sig, SignalBuffer(np.zeros(3), 8000))
        silent = SignalBuffer(np.zeros(len(sig)), 8000)
        with pytest.raises(ValueError):
            snr_db(silent, sig)
