"""Mono PCM audio I/O, synthetic test signals, and SNR metrics.

WAV support is deliberately narrow: RIFF/WAVE, PCM 16-bit, mono,
little-endian (a plain PCM fmt chunk, or WAVE_FORMAT_EXTENSIBLE with the
PCM sub-format). Anything else is rejected rather than coerced so the
round-trip behaviour stays exact.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

# 16-bit quantisation scale; amplitudes are sample/_PCM_SCALE.
_PCM_SCALE = 32768.0

# fmt tag of WAVE_FORMAT_EXTENSIBLE, whose sub-format GUID names the
# encoding, and KSDATAFORMAT_SUBTYPE_PCM as it is stored (little-endian).
_FORMAT_EXTENSIBLE = 0xFFFE
_PCM_SUB_FORMAT = bytes.fromhex("0100000000001000800000aa00389b71")

# Returned (and never exceeded) when the residual power is zero.
SNR_CAP_DB = 300.0


class WavFormatError(ValueError):
    """File is not a RIFF/WAVE PCM 16-bit mono stream."""


class WavTruncatedError(WavFormatError):
    """Data chunk ends before its declared size."""


@dataclass
class SignalBuffer:
    """Mono sample sequence with its sample rate.

    Samples are float64 amplitudes, nominally in [-1, +1]; values outside
    that range are legal in memory and only clamped when written to disk.
    """

    samples: np.ndarray
    sample_rate_hz: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("samples must be finite (no NaN/Inf)")
        self.sample_rate_hz = int(self.sample_rate_hz)
        if self.sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be positive")

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.sample_rate_hz


def read_wav(path) -> SignalBuffer:
    """Read a PCM 16-bit mono WAV file (plain or WAVE_FORMAT_EXTENSIBLE PCM).

    Samples are normalised by 1/32768 into [-1, 1). Raises
    FileNotFoundError for a missing file, WavFormatError for anything
    that is not PCM 16-bit mono or declares a sample rate of 0, and
    WavTruncatedError when the data chunk is shorter than its declared
    size.
    """
    with open(path, "rb") as fh:
        riff = fh.read(12)
        if len(riff) < 12 or riff[:4] != b"RIFF" or riff[8:12] != b"WAVE":
            raise WavFormatError(f"{path}: not a RIFF/WAVE file")

        fmt = None
        data = None
        while True:
            header = fh.read(8)
            if len(header) < 8:
                break
            chunk_id, size = struct.unpack("<4sI", header)
            if chunk_id == b"fmt ":
                fmt = fh.read(size)
                if len(fmt) < 16:
                    raise WavFormatError(f"{path}: fmt chunk too short")
            elif chunk_id == b"data":
                data = fh.read(size)
                if len(data) < size:
                    raise WavTruncatedError(
                        f"{path}: data chunk declares {size} bytes, "
                        f"found {len(data)}"
                    )
            else:
                fh.seek(size + (size % 2), 1)
            if size % 2 and chunk_id in (b"fmt ", b"data"):
                fh.seek(1, 1)

    if fmt is None:
        raise WavFormatError(f"{path}: missing fmt chunk")
    audio_format, channels, sample_rate, _, _, bits = struct.unpack("<HHIIHH", fmt[:16])
    if audio_format == _FORMAT_EXTENSIBLE:
        # cbSize >= 22: valid bits, channel mask, then the sub-format GUID
        if len(fmt) < 40 or struct.unpack("<H", fmt[16:18])[0] < 22:
            raise WavFormatError(
                f"{path}: WAVE_FORMAT_EXTENSIBLE fmt chunk lacks its extension"
            )
        guid = fmt[24:40]
        if guid != _PCM_SUB_FORMAT:
            a, b, c = struct.unpack("<IHH", guid[:8])
            raise WavFormatError(
                f"{path}: not PCM (WAVE_FORMAT_EXTENSIBLE sub-format "
                f"{a:08x}-{b:04x}-{c:04x}-{guid[8:10].hex()}-{guid[10:].hex()})"
            )
    elif audio_format != 1:
        raise WavFormatError(f"{path}: not PCM (format tag {audio_format})")
    if channels != 1:
        raise WavFormatError(f"{path}: expected mono, found {channels} channels")
    if bits != 16:
        raise WavFormatError(f"{path}: expected 16-bit samples, found {bits}")
    if sample_rate == 0:
        raise WavFormatError(f"{path}: sample rate must be positive, found 0")
    if data is None:
        raise WavFormatError(f"{path}: missing data chunk")
    if len(data) % 2:
        raise WavTruncatedError(f"{path}: data chunk has a dangling byte")

    samples = np.frombuffer(data, dtype="<i2").astype(np.float64) / _PCM_SCALE
    return SignalBuffer(samples, sample_rate)


def write_wav(path, signal: SignalBuffer) -> int:
    """Write a SignalBuffer as PCM 16-bit mono little-endian WAV.

    Amplitudes are clamped to [-1, 1 - 1/32768] and quantised by
    rounding, so a write/read round trip is within 1/32768 per sample.
    An empty signal produces a header-only file. Returns the number of
    samples the clamp changed. Raises WavFormatError, before opening
    the file, when the byte rate (2 x sample rate) does not fit the
    header's 32-bit field.
    """
    if 2 * signal.sample_rate_hz > 0xFFFFFFFF:
        raise WavFormatError(
            f"{path}: sample rate {signal.sample_rate_hz} Hz gives a byte rate "
            "beyond the WAV header's 32-bit field"
        )
    clamped = np.clip(signal.samples, -1.0, 1.0 - 1.0 / _PCM_SCALE)
    n_clipped = int(np.count_nonzero(clamped != signal.samples))
    pcm = np.rint(clamped * _PCM_SCALE).astype("<i2")
    payload = pcm.tobytes()

    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF",
        36 + len(payload),
        b"WAVE",
        b"fmt ",
        16,
        1,  # PCM
        1,  # mono
        signal.sample_rate_hz,
        signal.sample_rate_hz * 2,
        2,
        16,
        b"data",
        len(payload),
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)
    return n_clipped


def _num_samples(duration_s: float, sample_rate_hz: int) -> int:
    if duration_s <= 0:
        raise ValueError("duration_s must be positive")
    if sample_rate_hz <= 0:
        raise ValueError("sample_rate_hz must be positive")
    return int(round(duration_s * sample_rate_hz))


def sine_wave(
    freq_hz: float, amplitude: float, duration_s: float, sample_rate_hz: int
) -> SignalBuffer:
    """Generate amplitude * sin(2*pi*freq*n/fs)."""
    n = _num_samples(duration_s, sample_rate_hz)
    t = np.arange(n, dtype=np.float64)
    samples = amplitude * np.sin(2.0 * np.pi * freq_hz * t / sample_rate_hz)
    return SignalBuffer(samples, sample_rate_hz)


def white_noise(
    std_dev: float, duration_s: float, sample_rate_hz: int, seed: int
) -> SignalBuffer:
    """Seeded Gaussian noise (numpy PCG64; identical stream for a seed)."""
    if std_dev < 0:
        raise ValueError("std_dev must be non-negative")
    n = _num_samples(duration_s, sample_rate_hz)
    rng = np.random.default_rng(seed)
    return SignalBuffer(rng.normal(0.0, std_dev, n), sample_rate_hz)


def _check_aligned(a: SignalBuffer, b: SignalBuffer) -> None:
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    if a.sample_rate_hz != b.sample_rate_hz:
        raise ValueError(
            f"sample rate mismatch: {a.sample_rate_hz} vs {b.sample_rate_hz}"
        )


def mix_at_snr(
    clean: SignalBuffer, noise: SignalBuffer, target_snr_db: float
) -> SignalBuffer:
    """Return clean + alpha*noise with alpha chosen to hit target_snr_db.

    alpha scales the noise power so 10*log10(P_clean / P_scaled_noise)
    equals the target. target_snr_db = +inf is the alpha = 0 limit and
    returns a copy of the clean signal; a target so low (or NaN) that
    alpha is not finite raises ValueError.
    """
    _check_aligned(clean, noise)
    p_clean = float(np.sum(clean.samples**2))
    if p_clean == 0.0:
        raise ValueError("clean signal has zero power")
    if math.isinf(target_snr_db) and target_snr_db > 0:
        return SignalBuffer(clean.samples.copy(), clean.sample_rate_hz)
    p_noise = float(np.sum(noise.samples**2))
    if p_noise == 0.0:
        raise ValueError("noise signal has zero power")
    try:
        scaled_noise = p_noise * 10.0 ** (target_snr_db / 10.0)
    except OverflowError:  # a target beyond float range: the noise gain is 0
        scaled_noise = math.inf
    alpha = math.sqrt(p_clean / scaled_noise) if scaled_noise > 0 else math.inf
    if not math.isfinite(alpha):
        raise ValueError(f"target_snr_db={target_snr_db} leaves no finite noise gain")
    return SignalBuffer(clean.samples + alpha * noise.samples, clean.sample_rate_hz)


def snr_db(reference: SignalBuffer, test: SignalBuffer) -> float:
    """10*log10(sum(ref^2) / sum((ref - test)^2)), capped at +300 dB.

    A zero residual (test identical to reference) returns the cap.
    """
    if len(reference) != len(test):
        raise ValueError(f"length mismatch: {len(reference)} vs {len(test)}")
    p_ref = float(np.sum(reference.samples**2))
    if p_ref == 0.0:
        raise ValueError("reference signal has zero power")
    p_residual = float(np.sum((reference.samples - test.samples) ** 2))
    if p_residual == 0.0:
        return SNR_CAP_DB
    return min(10.0 * math.log10(p_ref / p_residual), SNR_CAP_DB)
