"""Mono PCM audio I/O, synthetic test signals, and SNR metrics.

WAV support is deliberately narrow: RIFF/WAVE, PCM 16-bit, mono,
little-endian (a plain PCM fmt chunk, or WAVE_FORMAT_EXTENSIBLE with the
PCM sub-format). Anything else is rejected rather than coerced so the
round-trip behaviour stays exact. Files are written by the stdlib wave
writer and read by the parser here, which also takes the EXTENSIBLE
form that wave rejects on Python 3.10 and 3.11. Every file the package
writes, a WAV or a report, is opened by output_file, which writes over
an existing file and cuts it after, instead of truncating it first. A
caller writing several files opens them all first (open_outputs), so
that one which cannot be opened stops the call before any is written.

The argument rules every module applies live here too, each written
once: real_floats (arrays of real numbers), level (thresholds,
tolerances and noise levels: finite and >= 0), finite_real (one finite
real setting), integer and check_seed (the seed of a generator and a
report); each raises ValueError naming the argument, which shown()
prints even when it is an int too long to convert. So is the rule of
the public functions whose bodies write their output over their input:
each hands its body private_copy's new array, so none writes its
caller's.
"""

from __future__ import annotations

import contextlib
import math
import operator
import os
import stat
import struct
import sys
import warnings
import wave
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


def shown(value) -> str:
    """repr(value) for an error message, bounded for huge ints.

    An int with more decimal digits than Python converts to a string
    (sys.get_int_max_str_digits) is shown by its bit length, and any
    other value holding one by its type, so that the message naming the
    bad value can still be built.
    """
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, int):
            return f"<int of {value.bit_length()} bits>"
        return f"<{type(value).__name__} holding an int too long to print>"


def real_floats(values, name: str) -> np.ndarray:
    """`values` as a float64 array, not copied when it is one already.

    Bools, ints and floats convert. An object array (ints beyond int64,
    say) converts one element at a time, where a numpy complex element
    warns (ComplexWarning, a RuntimeWarning) instead of failing, so that
    warning is raised and caught. Complex values, strings, an int beyond
    the float range or a dict raise ValueError naming `name`.
    """
    x = np.asarray(values)
    if x.dtype.kind not in "biufO":
        raise ValueError(f"{name} must be real numbers, got dtype {x.dtype}")
    if x.dtype.kind != "O":
        return x.astype(np.float64, copy=False)
    if any(v is None for v in x.flat):  # float(None) would be NaN
        raise ValueError(f"{name} must be real numbers, got None")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            return x.astype(np.float64)
        except (TypeError, ValueError, OverflowError, RuntimeWarning):
            raise ValueError(f"{name} must be real numbers within float range") from None


def integer(value, name: str) -> int:
    """`value` as an int: anything operator.index takes (an int, a bool, a
    numpy integer). Anything else raises ValueError naming `name`."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {shown(value)}") from None


def check_seed(value) -> int:
    """`value` as an int seed, the one rule for every seed: an integer
    (integer) >= 0, as numpy's generators take, with few enough digits
    for a report to write it in decimal. Anything else raises
    ValueError naming seed."""
    seed = integer(value, "seed")
    # shown(seed) is all digits unless seed is negative or too long to print
    if not shown(seed).isdigit():
        raise ValueError("seed must be an integer >= 0 short enough to print, "
                         f"got {shown(seed)}")
    return seed


def private_copy(x: np.ndarray, values, *thresholds: np.ndarray) -> np.ndarray:
    """x, real_floats' array of `values`, broadcast against the shapes of
    any `thresholds`, in C-ordered memory no caller holds: for an
    in-place body to write its output over. Where no threshold
    broadcasts x and real_floats converted `values` into new memory,
    that conversion is the copy; otherwise x is copied."""
    shape = np.broadcast_shapes(x.shape, *(t.shape for t in thresholds))
    if shape == x.shape and x.flags.c_contiguous and not np.may_share_memory(x, values):
        return x
    return np.array(np.broadcast_to(x, shape), order="C")


def finite_real(value, name: str):
    """`value`, one finite real number, as the Python int or float it is
    (a numpy scalar by .item()). A bool, an array, NaN, inf, an int
    beyond the float range or anything else raises ValueError naming
    `name`."""
    value = value.item() if isinstance(value, np.generic) else value
    # compared, not converted: an int beyond float range is not finite
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
        raise ValueError(f"{name} must be a finite real number, got {shown(value)}")
    return value


def level(value, name: str) -> np.ndarray:
    """`value`, a scalar or an array of thresholds, tolerances or noise
    levels, as float64 (real_floats): each a finite number >= 0. NaN and
    inf are no level, so no rule computes inf - inf; anything else
    raises ValueError naming `name`."""
    x = real_floats(value, name)
    if not np.all((0 <= x) & (x < np.inf)):  # NaN fails both
        rule = "non-negative" if np.any(x < 0) else "finite (not NaN or inf)"
        raise ValueError(f"{name} must be {rule}")
    return x


def _rate(sample_rate_hz) -> int:
    """`sample_rate_hz` as an int (integer) that is positive and within
    the float range; anything else raises ValueError naming it."""
    rate = integer(sample_rate_hz, "sample_rate_hz")
    # an int compares exactly with the largest float
    if not 0 < rate <= sys.float_info.max:
        raise ValueError("sample_rate_hz must be positive and within float range, "
                         f"got {shown(rate)}")
    return rate


@dataclass
class SignalBuffer:
    """Mono sample sequence with its sample rate.

    Samples are float64 amplitudes, nominally in [-1, +1]; values outside
    that range are legal in memory and only clamped when written to disk.
    """

    samples: np.ndarray
    sample_rate_hz: int

    def __post_init__(self):
        self.samples = real_floats(self.samples, "samples")
        if self.samples.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("samples must be finite (no NaN/Inf)")
        self.sample_rate_hz = _rate(self.sample_rate_hz)

    def __len__(self) -> int:
        return len(self.samples)


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
            # read, never seek, so a pipe works: the body and the pad
            # byte that keeps every chunk an even size
            body = fh.read(size + size % 2)[:size]
            if chunk_id == b"fmt ":
                fmt = body
                if len(fmt) < 16:
                    raise WavFormatError(f"{path}: fmt chunk too short")
            elif chunk_id == b"data":
                data = body
                if len(data) < size:
                    raise WavTruncatedError(
                        f"{path}: data chunk declares {size} bytes, "
                        f"found {len(data)}"
                    )

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
    """Write a SignalBuffer as a canonical 44-byte-header PCM 16-bit mono WAV.

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
    # native int16: wave byte-swaps to little-endian where it must. One
    # writeframes call writes the header once, with the final sizes, so
    # the output need not be seekable.
    pcm = np.rint(clamped * _PCM_SCALE).astype(np.int16)
    with output_file(path) as fh, wave.open(fh, "wb") as out:
        out.setparams((1, 2, signal.sample_rate_hz, len(pcm), "NONE", "not compressed"))
        out.writeframes(pcm.tobytes())
    return n_clipped


@contextlib.contextmanager
def output_file(path):
    """A binary file object that writes `path` over from its start, for
    every file the package writes (write_wav, Report.write).

    Opened without O_TRUNC, which on some filesystems stalls for tens
    of milliseconds when the file already has blocks; a regular file is
    cut to what was written once the writer is done, so no stale tail
    of a longer old file stays. A FIFO, a device such as os.devnull or
    a symlink to either is written as open(path, "wb") would write it.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        yield fh
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()


@contextlib.contextmanager
def open_outputs(paths):
    """Hold every path of `paths` open for writing while the body writes
    them (by write_wav or Report.write), so that none is written unless
    all of them can be opened.

    A path that cannot be opened raises its OSError before the body runs.
    Each is opened as output_file opens it, without O_TRUNC, so an
    existing file is left as it was; a file opened here that did not
    exist is removed if opening another or the body fails. A FIFO's
    reader sees the end of the data once both writers have closed it.
    """
    fds, created = [], []
    try:
        for path in paths:
            try:
                fds.append(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
                created.append(path)
            except FileExistsError:
                fds.append(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666))
        yield
    except BaseException:
        for path in created:
            os.unlink(path)
        raise
    finally:
        for fd in fds:
            os.close(fd)


def _num_samples(duration_s: float, sample_rate_hz: int) -> int:
    """round(duration_s * sample_rate_hz): a finite real duration > 0
    (finite_real) at a rate SignalBuffer takes, whose product is finite."""
    duration_s = finite_real(duration_s, "duration_s")
    if duration_s <= 0:
        raise ValueError("duration_s must be positive")
    n = duration_s * _rate(sample_rate_hz)
    if n == math.inf:
        raise ValueError(f"duration_s={shown(duration_s)} at {sample_rate_hz} Hz "
                         "is more samples than a float counts")
    return int(round(n))


def sine_wave(
    freq_hz: float, amplitude: float, duration_s: float, sample_rate_hz: int
) -> SignalBuffer:
    """Generate amplitude * sin(2*pi*freq*n/fs).

    freq_hz and amplitude are finite reals (finite_real), and the largest
    phase before the division by the rate, 2*pi*freq*(n - 1) (2*pi*freq
    for a single sample), must be within the float range, so that every
    sample is finite; otherwise ValueError names the argument.
    """
    freq_hz = finite_real(freq_hz, "freq_hz")
    amplitude = finite_real(amplitude, "amplitude")
    n = _num_samples(duration_s, sample_rate_hz)
    if not abs(2.0 * math.pi * freq_hz * max(n - 1, 1)) <= sys.float_info.max:
        raise ValueError(f"freq_hz={shown(freq_hz)} gives a phase beyond the float range")
    t = np.arange(n, dtype=np.float64)
    samples = amplitude * np.sin(2.0 * np.pi * freq_hz * t / sample_rate_hz)
    return SignalBuffer(samples, sample_rate_hz)


def white_noise(
    std_dev: float, duration_s: float, sample_rate_hz: int, seed: int
) -> SignalBuffer:
    """Seeded Gaussian noise (numpy PCG64; identical stream for a seed).

    The seed follows check_seed.
    """
    level(std_dev, "std_dev")
    n = _num_samples(duration_s, sample_rate_hz)
    rng = np.random.default_rng(check_seed(seed))
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
    alpha is not finite, or a mix beyond the float range, raises
    ValueError.

    Each power is summed scaled by 4**-e, e the binary exponent of the
    signal's peak, so that neither sum overflows or rounds to zero, and
    alpha takes back 2**(e_clean - e_noise). The scaling is exact: in
    the normal float range alpha, and so the mix, is bit-equal to that
    of the unscaled sums.
    """
    _check_aligned(clean, noise)
    e_clean = _exponent(peak_magnitude(clean.samples))
    p_clean = _scaled_power(clean.samples, e_clean)
    if p_clean == 0.0:
        raise ValueError("clean signal has zero power")
    if math.isinf(target_snr_db) and target_snr_db > 0:
        return SignalBuffer(clean.samples.copy(), clean.sample_rate_hz)
    e_noise = _exponent(peak_magnitude(noise.samples))
    p_noise = _scaled_power(noise.samples, e_noise)
    if p_noise == 0.0:
        raise ValueError("noise signal has zero power")
    # numpy scalars, whose overflow or division by zero gives inf instead
    # of raising: a target too high for the float range gives alpha = 0,
    # and one that leaves no finite noise gain an inf or NaN alpha
    with np.errstate(all="ignore"):
        ratio = np.float64(10.0) ** (target_snr_db / 10.0)
        alpha = np.ldexp(np.sqrt(p_clean / (p_noise * ratio)), e_clean - e_noise)
    if not np.isfinite(alpha):
        raise ValueError(f"target_snr_db={target_snr_db} leaves no finite noise gain")
    with np.errstate(over="ignore"):  # an overflow is reported below, by the target
        mixed = clean.samples + alpha * noise.samples
    if not np.all(np.isfinite(mixed)):
        raise ValueError(f"target_snr_db={target_snr_db} gives a mix beyond the float range")
    return SignalBuffer(mixed, clean.sample_rate_hz)


def peak_magnitude(x: np.ndarray) -> float:
    """max |x| (0 when empty), without an |x| temporary."""
    return max(float(np.max(x, initial=0.0)), -float(np.min(x, initial=0.0)))


def _exponent(peak: float) -> int:
    """The binary exponent e of peak, at least -1021: x * 2**-e is then
    below 1 in magnitude and, in the normal float range, exact; 2**1021
    is the largest such scale a float holds."""
    return max(math.frexp(peak)[1], -1021)


def _scaled_power(x: np.ndarray, e: int) -> float:
    """sum((x * 2**-e)**2): the power of x scaled by 4**-e."""
    buf = x * 2.0**-e
    return float(np.sum(np.square(buf, out=buf)))


def snr_db(reference: SignalBuffer, test: SignalBuffer) -> float:
    """10*log10(sum(ref^2) / sum((ref - test)^2)), capped at +300 dB.

    A zero residual returns the cap; length and sample rate must match.
    The reference is summed scaled by a power of two from its own peak,
    the residual by one from the peak of both signals, so that neither
    sum overflows or rounds to zero. The scaling is exact: the value is
    that of the unscaled sums wherever they neither overflow nor lose
    bits, and any finite pair gives a finite value.
    """
    return snr_dbs(reference, test)[0]


def snr_dbs(reference: SignalBuffer, *tests: SignalBuffer) -> tuple:
    """(snr_db(reference, test) for each test), bit for bit, with the
    reference's peak, exponent and scaled power taken once for all."""
    for test in tests:
        _check_aligned(reference, test)
    r = reference.samples
    peak_ref = peak_magnitude(r)
    e_ref = _exponent(peak_ref)
    buf = r * 2.0**-e_ref  # every power is summed in this one buffer
    p_ref = float(np.sum(np.square(buf, out=buf)))
    if p_ref == 0.0:
        raise ValueError("reference signal has zero power")
    snrs = []
    for test in tests:
        e = _exponent(max(peak_ref, peak_magnitude(test.samples)))
        scale = 2.0**-e
        np.multiply(r, scale, out=buf)
        buf -= test.samples * scale
        p_residual = float(np.sum(np.square(buf, out=buf)))
        # the ratio is p_ref / p_residual * 2**shift, shift <= 0; ldexp is
        # exact while the ratio is a normal float, and where it might not be
        # one (SNRs far below -2000 dB) the logs add instead
        shift = 2 * (e_ref - e)
        if p_residual == 0.0:
            snrs.append(SNR_CAP_DB)
        elif shift > -800:
            snrs.append(min(10.0 * math.log10(math.ldexp(p_ref / p_residual, shift)),
                            SNR_CAP_DB))
        else:
            snrs.append(10.0 * (math.log10(p_ref / p_residual) + shift * math.log10(2.0)))
    return tuple(snrs)
