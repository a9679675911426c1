"""Tests for WAV I/O, synthetic signals and SNR metrics."""

import math
import os
import re
import struct
import threading
import warnings

import numpy as np
import pytest

from wpdenoise.experiments import sine_0db_material
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

    def test_rate_is_an_integer(self):
        # a fractional rate used to be truncated silently to 16000
        for rate in (16000.7, 16000.0, "16000"):
            with pytest.raises(ValueError, match=r"^sample_rate_hz must be an integer"):
                SignalBuffer(np.zeros(4), rate)
        signal = SignalBuffer(np.zeros(4), np.int64(16000))
        assert signal.sample_rate_hz == 16000 and type(signal.sample_rate_hz) is int

    def test_rate_beyond_float_range_rejected(self):
        # such a rate used to fail later, with OverflowError, in the
        # leading-silence span arithmetic of enhance
        for rate in (10**309, 10**5000):
            with pytest.raises(ValueError, match=r"^sample_rate_hz .*float range, got"):
                SignalBuffer(np.zeros(4096), rate)
        with pytest.raises(ValueError, match=r"<int of 16610 bits>"):
            SignalBuffer(np.zeros(4), -(10**5000))
        assert SignalBuffer(np.zeros(4), 10**308).sample_rate_hz == 10**308

    def test_a_list_holding_a_huge_int_is_shown_by_its_type(self):
        # repr of the list fails ("Exceeds the limit (4300 digits)"), and
        # the message fell back on int.bit_length: AttributeError
        with pytest.raises(ValueError, match=r"got <list holding an int too long to print>"):
            SignalBuffer(np.zeros(4), [10**5000])

    def test_huge_int_sample_rejected_by_name(self):
        # np.asarray(10**400, dtype=float64) raised OverflowError
        with pytest.raises(ValueError, match=r"^samples must be real numbers"):
            SignalBuffer(10**400, 16000)

    def test_ints_beyond_int64_within_float_range_accepted(self):
        # an object array, converted one element at a time
        assert SignalBuffer([10**20, 0], 8000).samples.tolist() == [1e20, 0.0]
        assert SignalBuffer([2**64, 0], 8000).samples.tolist() == [2.0**64, 0.0]
        with pytest.raises(ValueError, match=r"^samples must be real numbers"):
            SignalBuffer([10**400, 0], 8000)

    def test_dict_samples_rejected_by_name(self):
        # the float conversion raised TypeError
        with pytest.raises(ValueError, match=r"^samples must be real numbers"):
            SignalBuffer({}, 16000)

    @pytest.mark.parametrize("samples", [None, [None], [0.5, None], [10**20, None]])
    def test_none_is_no_real_number(self, samples):
        # float(None) is NaN: the check named a NaN the caller never passed
        with pytest.raises(ValueError, match=r"^samples must be real numbers, got None$"):
            SignalBuffer(samples, 16000)

    def test_complex_sample_rejected_by_name(self):
        # the float conversion dropped the imaginary part with ComplexWarning
        with pytest.raises(ValueError, match=r"^samples must be real numbers"):
            SignalBuffer(np.complex128(1), 16000)
        # beside an int beyond int64 it is an element of an object array
        with pytest.raises(ValueError, match=r"^samples must be real numbers"):
            SignalBuffer([10**20, np.complex128(1)], 16000)


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


class TestWavBytes:
    @pytest.mark.parametrize("n", [0, 1, 7, 16000])
    @pytest.mark.parametrize("rate", [1, 8000, 44100, 2**31 - 1])
    def test_canonical_44_byte_header(self, tmp_path, n, rate):
        # 2**31 - 1 is the largest rate whose byte rate fits the header
        path = tmp_path / "h.wav"
        write_wav(path, white_noise(0.1, n / rate, rate, 1) if n else
                  SignalBuffer(np.zeros(0), rate))
        data = path.read_bytes()
        assert len(data) == 44 + 2 * n
        assert data[:44] == struct.pack(
            "<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + 2 * n, b"WAVE", b"fmt ", 16,
            1, 1, rate, 2 * rate, 2, 16, b"data", 2 * n,
        )

    def test_unseekable_output_gets_the_same_bytes(self, tmp_path):
        signal = white_noise(0.1, 0.25, 16000, 4)
        write_wav(tmp_path / "file.wav", signal)
        fifo = tmp_path / "pipe.wav"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()),
                                  daemon=True)
        reader.start()
        write_wav(fifo, signal)
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert got == [(tmp_path / "file.wav").read_bytes()]

    def test_a_shorter_rewrite_leaves_no_stale_tail(self, tmp_path):
        # the file is written over without O_TRUNC, then cut to what was
        # written; through a symlink the target is, and a device is not cut
        path = tmp_path / "file.wav"
        write_wav(path, white_noise(0.1, 1.0, 16000, 4))
        short = white_noise(0.1, 0.25, 16000, 5)
        write_wav(tmp_path / "fresh.wav", short)
        link = tmp_path / "link.wav"
        link.symlink_to(path)
        for target in (path, link):
            write_wav(target, white_noise(0.1, 0.5, 16000, 6))
            write_wav(target, short)
            assert path.read_bytes() == (tmp_path / "fresh.wav").read_bytes()
        assert link.is_symlink()
        write_wav(os.devnull, short)

    def test_unseekable_input_reads_the_same_samples(self, tmp_path):
        # an odd-sized chunk before the data puts a pad byte on the way
        path = tmp_path / "file.wav"
        write_wav(path, white_noise(0.1, 0.25, 16000, 4))
        raw = path.read_bytes()
        extra = struct.pack("<4sI", b"LIST", 3) + b"abc\x00"
        raw = (struct.pack("<4sI4s", b"RIFF", len(raw) - 8 + len(extra), b"WAVE")
               + raw[12:36] + extra + raw[36:])
        path.write_bytes(raw)
        fifo = tmp_path / "pipe.wav"
        os.mkfifo(fifo)
        writer = threading.Thread(target=lambda: fifo.write_bytes(raw), daemon=True)
        writer.start()
        got = read_wav(fifo)
        writer.join(timeout=30)
        assert not writer.is_alive()
        want = read_wav(path)
        assert got.sample_rate_hz == want.sample_rate_hz
        np.testing.assert_array_equal(got.samples, want.samples)


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


def _chunk(chunk_id: bytes, body: bytes) -> bytes:
    """A RIFF chunk: id, size, body and the pad byte of an odd size."""
    return struct.pack("<4sI", chunk_id, len(body)) + body + b"\x00" * (len(body) % 2)


def _riff(*chunks: bytes) -> bytes:
    body = b"WAVE" + b"".join(chunks)
    return struct.pack("<4sI", b"RIFF", len(body)) + body


def _reading(data: bytes):
    """A call that writes `data` to a file in tmp_path and reads it as WAV."""
    def call(tmp_path):
        path = tmp_path / "x.wav"
        path.write_bytes(data)
        return read_wav(path)
    return call


_FMT = _chunk(b"fmt ", struct.pack("<HHIIHH", 1, 1, 8000, 16000, 2, 16))
_DATA = _chunk(b"data", b"\x01\x00")


@pytest.mark.parametrize("call, error, message", [
    (_reading(_riff(_chunk(b"fmt ", b"\x01\x00" * 7), _DATA)), WavFormatError,
     r": fmt chunk too short$"),
    (_reading(_riff(_DATA)), WavFormatError, r": missing fmt chunk$"),
    (_reading(_riff(_FMT)), WavFormatError, r": missing data chunk$"),
    (_reading(_riff(_FMT, _chunk(b"data", b"\x01\x00\x02"))), WavTruncatedError,
     r": data chunk has a dangling byte$"),
    (lambda tmp_path: white_noise(-0.5, 1.0, 8000, 0), ValueError,
     r"^std_dev must be non-negative$"),
    # a seed is an integer >= 0 that a report prints: numpy took a list,
    # drew fresh entropy for None and failed on the rest without naming it
    (lambda tmp_path: white_noise(0.1, 1.0, 8000, None), ValueError,
     r"^seed must be an integer, got None$"),
    (lambda tmp_path: white_noise(0.1, 1.0, 8000, 1.5), ValueError,
     r"^seed must be an integer, got 1.5$"),
    (lambda tmp_path: white_noise(0.1, 1.0, 8000, -1), ValueError,
     r"^seed must be an integer >= 0 short enough to print, got -1$"),
    (lambda tmp_path: white_noise(0.1, 1.0, 8000, [1, 2]), ValueError,
     r"^seed must be an integer, got \[1, 2\]$"),
    (lambda tmp_path: white_noise(0.1, 1.0, 8000, 10**5000), ValueError,
     r"^seed must be an integer >= 0 short enough to print, got <int of 16610 bits>$"),
    # a tone's arguments are finite reals whose phase stays finite: these
    # raised TypeError, or warned before the samples were refused
    (lambda tmp_path: sine_wave("440", 0.5, 1.0, 8000), ValueError,
     r"^freq_hz must be a finite real number, got '440'$"),
    (lambda tmp_path: sine_wave(440.0, None, 1.0, 8000), ValueError,
     r"^amplitude must be a finite real number, got None$"),
    (lambda tmp_path: sine_wave(440.0, math.inf, 1.0, 8000), ValueError,
     r"^amplitude must be a finite real number, got inf$"),
    (lambda tmp_path: sine_wave(1e308, 0.5, 1.0, 8000), ValueError,
     r"^freq_hz=1e\+308 gives a phase beyond the float range$"),
    (lambda tmp_path: sine_wave(1e308, 0.5, 1 / 8000, 8000), ValueError,
     r"^freq_hz=1e\+308 gives a phase beyond the float range$"),
], ids=["short-fmt", "no-fmt", "no-data", "dangling-byte", "negative-std-dev",
        "none-seed", "float-seed", "negative-seed", "list-seed", "huge-seed",
        "str-freq", "none-amplitude", "inf-amplitude", "huge-phase",
        "huge-phase-one-sample"])
def test_each_rejection_raises_its_error(tmp_path, call, error, message):
    with pytest.raises(error, match=message) as info:
        call(tmp_path)
    assert info.type is error


def test_the_rejection_cases_are_built_from_a_readable_file(tmp_path):
    # so each case above holds only its own defect
    np.testing.assert_array_equal(_reading(_riff(_FMT, _DATA))(tmp_path).samples, [2**-15])


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


    @pytest.mark.parametrize("duration, rate, message", [
        (math.inf, 16000, r"^duration_s must be a finite real number, got inf$"),  # Overflow
        (math.nan, 16000, r"^duration_s must be a finite real number, got nan$"),
        ("1.0", 16000, r"^duration_s must be a finite real number, got '1.0'$"),
        (True, 16000, r"^duration_s must be a finite real number, got True$"),
        (1.0, "16000", r"^sample_rate_hz must be an integer, got '16000'$"),  # TypeError
        (1.0, 16000.0, r"^sample_rate_hz must be an integer, got 16000.0$"),
        (1.0, 10**400, r"^sample_rate_hz must be positive and within float range"),
        (1e308, 16000, r"^duration_s=1e\+308 at 16000 Hz is more samples than a float "),
    ], ids=["inf-duration", "nan-duration", "str-duration", "bool-duration", "str-rate",
            "float-rate", "huge-rate", "huge-duration"])
    def test_lengths_follow_the_argument_rules(self, duration, rate, message):
        for make in (lambda: sine_wave(440, 0.5, duration, rate),
                     lambda: white_noise(0.1, duration, rate, 0)):
            with pytest.raises(ValueError, match=message) as info:
                make()
            assert info.type is ValueError

    def test_numpy_lengths_are_taken(self):
        assert len(sine_wave(440, 0.5, np.float32(0.5), np.int64(8000))) == 4000


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

    @pytest.mark.parametrize("scale", [1e200, 1e-170])
    def test_scale_of_inputs_neither_overflows_nor_vanishes(self, scale):
        x = np.random.default_rng(0).normal(size=8000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mixed = mix_at_snr(SignalBuffer(scale * x, 8000), SignalBuffer(x, 8000), 0.0)
        # equal powers after the noise gain: the mix is (1 + 1) * scale * x
        np.testing.assert_allclose(mixed.samples, 2 * scale * x, rtol=1e-12)

    def test_noise_gain_beyond_float_range_rejected(self):
        x = np.random.default_rng(0).normal(size=800)
        with pytest.raises(ValueError, match="target_snr_db"):
            mix_at_snr(SignalBuffer(1e200 * x, 8000), SignalBuffer(1e-170 * x, 8000), 0.0)

    def test_mix_beyond_float_range_rejected(self):
        # the powers and the gain are finite; only clean + alpha * noise overflows
        x = np.random.default_rng(0).normal(size=8000)
        clean = SignalBuffer(1.7e308 * (x / np.max(np.abs(x))), 8000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"target_snr_db=0\.0 .*float range"):
                mix_at_snr(clean, SignalBuffer(x, 8000), 0.0)

    @pytest.mark.parametrize("seed", range(1, 21))
    def test_preset_mix_is_bit_equal_to_the_unscaled_formula(self, seed):
        clean, noisy = sine_0db_material(seed)
        noise = white_noise(1.0, 5.0, 16000, seed)
        p_clean = float(np.sum(clean.samples**2))
        p_noise = float(np.sum(noise.samples**2))
        alpha = math.sqrt(p_clean / (p_noise * 10.0 ** (0.0 / 10.0)))
        assert np.array_equal(noisy.samples, clean.samples + alpha * noise.samples)

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

    def test_scale_invariant_over_the_float_range(self):
        # 0.9 x against x is 20 log10(9) dB at any scale; the squares of
        # 1e200 x overflowed to NaN, and those of 1e-170 x rounded to 0
        x = np.random.default_rng(0).normal(size=8000)
        unit = snr_db(SignalBuffer(0.9 * x, 8000), SignalBuffer(x, 8000))
        assert unit == pytest.approx(20 * math.log10(9), abs=1e-12)
        for c in (1e-170, 2.0**-600, 1e200, 2.0**900):
            got = snr_db(SignalBuffer(c * 0.9 * x, 8000), SignalBuffer(c * x, 8000))
            assert got == pytest.approx(unit, abs=1e-12)
            if math.frexp(c)[0] == 0.5:  # a power of two scales exactly
                assert got == unit

    def test_bit_equal_to_the_direct_ratio_at_unit_scale(self):
        rng = np.random.default_rng(11)
        for scale in (1.0, 0.3, 5e-3):
            ref = rng.normal(size=1000) * scale
            test = ref + rng.normal(size=1000) * 0.1
            direct = 10.0 * math.log10(np.sum(ref**2) / np.sum((ref - test) ** 2))
            assert snr_db(SignalBuffer(ref, 8000), SignalBuffer(test, 8000)) == direct

    def test_finite_at_the_ends_of_the_float_range(self):
        big = np.full(16, 1.7e308)
        # the residual is 2x the reference: -6.02 dB, not an overflow
        assert snr_db(SignalBuffer(big, 8000), SignalBuffer(-big, 8000)) == pytest.approx(
            -20 * math.log10(2), abs=1e-12
        )
        tiny = SignalBuffer(np.full(16, 1e-300), 8000)
        loud = SignalBuffer(np.full(16, 1e300), 8000)
        assert snr_db(tiny, loud) == pytest.approx(-12000.0, abs=1e-6)
        assert snr_db(loud, SignalBuffer(np.full(16, 1e300 * (1 + 2**-52)), 8000)) == 300.0
        # subnormal: the residual is the reference itself, 0 dB
        least = SignalBuffer(np.full(16, 5e-324), 8000)
        assert snr_db(least, SignalBuffer(np.zeros(16), 8000)) == 0.0
