"""Benchmark workloads: seeded inputs, the calls of one round, and output checks.

Every workload is a closed loop with one caller. A run repeats one fixed
round of calls, so per-call means (SNR gain, work counts) are the same
however many rounds fit in the measured time. Inputs come only from the
benchmark seed; the program receives arrays or WAV files.

- preset-sweep: ``experiments.run_preset("sine-0db", method, seed)`` for
  each method and for PRESET_SEEDS_PER_ROUND preset seeds drawn from the
  criterion-7 seeds 1..20, each followed by ``Report.to_json()``.
- long-hard-mad: four 15 s speech-like inputs (60 s of audio per round)
  through ``pipeline.enhance`` with universal-hard, mad noise estimation
  and VUV on; no report serialisation. One 60 s call lasts about 8 s,
  too long for the speed calibration around it (calibrate.py) to track
  this machine's swings.
- cli-clips: twelve 1-3 s WAV clips, one fresh ``python -m wpdenoise.cli``
  process per request, methods rotating, every fourth request ``analyze``
  against a noise-only WAV.

Long and CLI inputs are one of VARIANTS recorded variants (seed mod
VARIANTS), so that the expected outputs of every seed sit in
``expected_outputs.json``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import time
import wave
from dataclasses import dataclass

import numpy as np

from wpdenoise import cli, experiments, pipeline
from wpdenoise.pipeline import EnhanceConfig
from wpdenoise.report import validate_report_dict
from wpdenoise.signal_io import SignalBuffer

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(BENCH_DIR, "expected_outputs.json")

RATE = 16000
METHODS = ("universal-hard", "universal-soft", "band")
WORKLOADS = ("preset-sweep", "long-hard-mad", "cli-clips")

PRESET_POOL = tuple(range(1, 21))  # the seeds frozen by acceptance criterion 7
PRESET_SEEDS_PER_ROUND = 3
PRESET_AUDIO_SAMPLES = 5 * RATE

VARIANTS = 16
LONG_INPUTS = 4
LONG_SECONDS = 15.0
LEAD_S = 0.25
SPEECH_SNR_DB = 5.0
# Clip i has length CLIP_SECONDS[i] whatever the seed, so every seed
# processes the same audio per round and each method gets short, middle
# and long clips.
CLIP_SECONDS = tuple(1.0 + 2.0 * i / 11 for i in range(12))
NOISE_WAV_SECONDS = 1.5

# Admits a reordered-arithmetic path (1e-12 on coefficients moves the SNR
# by ~1e-10 dB) but no change of output quality.
SNR_TOLERANCE_DB = 1e-6
DIVERGENCE_RTOL = 1e-9

_WORKLOAD_TAG = {name: i for i, name in enumerate(WORKLOADS)}


def long_config(variant: int) -> EnhanceConfig:
    return EnhanceConfig(
        method="universal-hard", noise_estimation="mad", vuv_enabled=True, seed=variant
    )


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def rng_for(workload: str, *keys: int) -> np.random.Generator:
    return np.random.default_rng([_WORKLOAD_TAG[workload], *keys])


# ---------------------------------------------------------------- inputs


def speech_like(rng: np.random.Generator, n_samples: int) -> tuple:
    """(clean, noisy): harmonic voiced bursts with gaps, noise-only lead-in.

    Bursts of 0.2-0.35 s alternate with gaps of 0.06-0.14 s; the narrow
    ranges keep the voiced share, and so the SNR gain, alike across seeds.
    Bursts have a gliding fundamental of 95-250 Hz with 1/k harmonics up
    to 3.8 kHz under a Hann envelope; white noise is mixed at
    SPEECH_SNR_DB over the whole signal. The first LEAD_S seconds and
    the gaps hold noise only.
    """
    clean = np.zeros(n_samples)
    t = int(LEAD_S * RATE)
    while True:
        start = t + int(rng.uniform(0.06, 0.14) * RATE)
        length = int(rng.uniform(0.2, 0.35) * RATE)
        if start + length > n_samples:
            break
        f0 = rng.uniform(95.0, 250.0)
        glide = rng.uniform(-0.15, 0.15)
        harmonics = np.arange(1, int(3800.0 // (f0 * (1.0 + abs(glide)))) + 1)
        tt = np.arange(length) / RATE
        phase = 2.0 * np.pi * f0 * (tt + glide * tt**2 / (2.0 * tt[-1]))
        amps = rng.uniform(0.3, 1.0, harmonics.size) / harmonics
        offsets = rng.uniform(0.0, 2.0 * np.pi, harmonics.size)
        seg = amps @ np.sin(harmonics[:, None] * phase[None, :] + offsets[:, None])
        seg *= np.hanning(length) * rng.uniform(0.15, 0.35) / np.max(np.abs(seg))
        clean[start : start + length] = seg
        t = start + length
    noise = rng.standard_normal(n_samples)
    scale = math.sqrt(
        np.sum(clean**2) / (np.sum(noise**2) * 10.0 ** (SPEECH_SNR_DB / 10.0))
    )
    return clean, clean + scale * noise


def tone_material(rng: np.random.Generator, n_samples: int) -> tuple:
    """(clean, noisy) shaped like the sine-0db preset, at any length."""
    clean = 0.5 * np.sin(2.0 * np.pi * 440.0 * np.arange(n_samples) / RATE)
    clean[: int(LEAD_S * RATE)] = 0.0
    noise = rng.standard_normal(n_samples)
    scale = math.sqrt(np.sum(clean**2) / np.sum(noise**2))
    return clean, clean + scale * noise


def write_wav(path: str, samples: np.ndarray) -> None:
    """PCM 16-bit mono, clamped and rounded like wpdenoise.write_wav."""
    pcm = np.rint(np.clip(samples, -1.0, 1.0 - 1.0 / 32768.0) * 32768.0)
    with wave.open(path, "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(RATE)
        fh.writeframes(pcm.astype("<i2").tobytes())


def read_wav(path: str) -> np.ndarray:
    with wave.open(path, "rb") as fh:
        if fh.getnchannels() != 1 or fh.getsampwidth() != 2:
            raise ValueError(f"{path}: not 16-bit mono")
        data = fh.readframes(fh.getnframes())
    return np.frombuffer(data, dtype="<i2").astype(np.float64) / 32768.0


def snr_db(reference: np.ndarray, test: np.ndarray) -> float:
    residual = float(np.sum((reference - test) ** 2))
    return 10.0 * math.log10(float(np.sum(reference**2)) / residual)


def digest(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def load_expected(workload: str) -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)[workload]


# ---------------------------------------------------------------- calls


@dataclass(frozen=True)
class Call:
    key: str  # key into the expected-output table
    label: str  # method name, or "analyze"
    audio_samples: int
    args: tuple


@dataclass
class Outcome:
    key: str
    label: str
    audio_samples: int
    wall_s: float
    error: str | None = None
    gain_db: float | None = None
    digest: str | None = None
    scale: float = 1.0  # turns wall_s into seconds at the reference speed


def _snr_error(expected: dict | None, key: str, measured: dict) -> str | None:
    if expected is None:
        return None
    want = expected.get(key)
    if want is None:
        return f"{key}: no expected output recorded"
    for name, value in measured.items():
        if not abs(value - want[name]) <= SNR_TOLERANCE_DB:
            return f"{key}: {name} {value!r} != expected {want[name]!r}"
    return None


def _array_error(key: str, out: np.ndarray, n: int) -> str | None:
    if len(out) != n:
        return f"{key}: output length {len(out)} != input length {n}"
    if not np.all(np.isfinite(out)):
        return f"{key}: output is not finite"
    return None


def check_audio(
    call: Call, clean: np.ndarray, noisy: np.ndarray, out: np.ndarray, expected
) -> tuple:
    """(error or None, SNR gain in dB) for one enhanced signal."""
    error = _array_error(call.key, out, len(noisy))
    if error:
        return error, None
    snr_in, snr_out = snr_db(clean, noisy), snr_db(clean, out)
    error = _snr_error(
        expected, call.key, {"input_snr_db": snr_in, "output_snr_db": snr_out}
    )
    return error, snr_out - snr_in


class PresetSweep:
    name = "preset-sweep"

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        rng = np.random.default_rng(seed)
        k = 1 if tiny else PRESET_SEEDS_PER_ROUND
        self.seeds = sorted(int(s) for s in rng.choice(PRESET_POOL, k, replace=False))
        self.expected = None if tiny else load_expected(self.name)

    def round(self) -> list:
        return [
            Call(f"{m}/{s}", m, PRESET_AUDIO_SAMPLES, (m, s))
            for s in self.seeds
            for m in METHODS
        ]

    def warm_up(self) -> None:
        warm_up(self.name)

    def execute(self, call: Call, in_process: bool = True) -> tuple:
        method, seed = call.args
        t0 = time.perf_counter()
        clean, noisy, enhanced, report = experiments.run_preset("sine-0db", method, seed)
        text = report.to_json()
        wall = time.perf_counter() - t0
        return wall, (clean.samples, noisy.samples, enhanced.samples, text)

    def check(self, call: Call, raw) -> Outcome:
        clean, noisy, out, text = raw
        error, gain = check_audio(call, clean, noisy, out, self.expected)
        return Outcome(call.key, call.label, call.audio_samples, 0.0, error, gain, digest(text))

    def validate(self, call: Call, raw) -> str | None:
        text = raw[3]
        validate_report_dict(json.loads(text))
        return digest(text)


class LongHardMad:
    name = "long-hard-mad"

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        self.variant = variant_of(seed)
        n = int((3.0 if tiny else LONG_SECONDS) * RATE)
        self.inputs = [
            speech_like(rng_for(self.name, self.variant, i), n)
            for i in range(1 if tiny else LONG_INPUTS)
        ]
        self.buffers = [SignalBuffer(noisy, RATE) for _, noisy in self.inputs]
        self.config = long_config(self.variant)
        self.expected = None if tiny else load_expected(self.name)

    def round(self) -> list:
        return [
            Call(f"{self.variant}/{i}", "universal-hard", len(buf), (i,))
            for i, buf in enumerate(self.buffers)
        ]

    def warm_up(self) -> None:
        warm_up(self.name)

    def execute(self, call: Call, in_process: bool = True) -> tuple:
        buffer = self.buffers[call.args[0]]
        t0 = time.perf_counter()
        enhanced, report = pipeline.enhance(buffer, self.config)
        wall = time.perf_counter() - t0
        return wall, (enhanced.samples, report)

    def check(self, call: Call, raw) -> Outcome:
        clean, noisy = self.inputs[call.args[0]]
        error, gain = check_audio(call, clean, noisy, raw[0], self.expected)
        # Reports are not serialised on the timed path; validate() checks
        # the reports of the untimed pass over the same inputs.
        return Outcome(call.key, call.label, call.audio_samples, 0.0, error, gain, None)

    def validate(self, call: Call, raw) -> str | None:
        validate_report_dict(json.loads(raw[1].to_json()))
        return None


class CliClips:
    name = "cli-clips"

    def __init__(self, seed: int, workdir: str, tiny: bool = False):
        self.variant = variant_of(seed)
        self.workdir = workdir
        self.expected = None if tiny else load_expected(self.name)
        self.requests = write_clips(self.variant, workdir, tiny)
        self.env = child_env()

    def round(self) -> list:
        return self.requests

    def warm_up(self) -> None:
        cli.run(self.warm_up_argv())

    def warm_up_argv(self) -> list:
        return warm_up_argv(self.workdir)

    def execute(self, call: Call, in_process: bool = False) -> tuple:
        argv = list(call.args[0])
        if in_process:
            t0 = time.perf_counter()
            status = cli.run(argv)
            return time.perf_counter() - t0, (status, "")
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "wpdenoise.cli", *argv],
            env=self.env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            timeout=120,
        )
        wall = time.perf_counter() - t0
        return wall, (proc.returncode, proc.stderr.decode(errors="replace").strip())

    def check(self, call: Call, raw) -> Outcome:
        status, stderr = raw
        outcome = Outcome(call.key, call.label, call.audio_samples, 0.0)
        if status != 0:
            outcome.error = f"{call.key}: exit status {status}: {stderr}"
            return outcome
        _, _, out_path, report_path = call.args
        try:
            with open(report_path, "rb") as fh:
                data = fh.read()
            outcome.digest = digest(data)
            report = json.loads(data)
            if call.label == "analyze":
                outcome.error = self._divergence_error(call, report)
                return outcome
            out = read_wav(out_path)
        except (OSError, ValueError, EOFError, wave.Error) as exc:
            outcome.error = f"{call.key}: {exc}"
            return outcome
        outcome.error = _array_error(call.key, out, call.audio_samples)
        if outcome.error is None:
            snrs = {k: report[k] for k in ("input_snr_db", "output_snr_db")}
            outcome.error = _snr_error(self.expected, call.key, snrs)
            outcome.gain_db = snrs["output_snr_db"] - snrs["input_snr_db"]
        return outcome

    def _divergence_error(self, call: Call, report: dict) -> str | None:
        if self.expected is None:
            return None
        total = math.fsum(report["subband_divergence"])
        want = self.expected.get(call.key, {}).get("divergence_sum")
        if want is None or not abs(total - want) <= DIVERGENCE_RTOL * abs(want):
            return f"{call.key}: divergence sum {total!r} != expected {want!r}"
        return None

    def validate(self, call: Call, raw) -> str | None:
        with open(call.args[3], "rb") as fh:
            data = fh.read()
        validate_report_dict(json.loads(data))
        return digest(data)


WORKLOAD_CLASSES = {w.name: w for w in (PresetSweep, LongHardMad, CliClips)}


def child_env() -> dict:
    """Environment of CLI children: the checkout's src first, no seed override."""
    env = dict(os.environ)
    env.pop("WAVEDENOISE_SEED", None)
    src = os.path.dirname(os.path.dirname(os.path.abspath(pipeline.__file__)))
    env["PYTHONPATH"] = src
    return env


def write_clips(variant: int, workdir: str, tiny: bool = False) -> list:
    """Write the variant's clips, references and noise WAV; return the requests."""
    rng = rng_for("cli-clips", variant)
    lengths = [1.0] * 4 if tiny else CLIP_SECONDS
    noise_path = os.path.join(workdir, "noise.wav")
    noise = rng.standard_normal(int(NOISE_WAV_SECONDS * RATE))
    requests = []
    denoise_count = 0
    for i, seconds in enumerate(lengths):
        n = int(round(seconds * RATE))
        clean, noisy = speech_like(rng, n)
        if i == 0:
            # the noise-only WAV has the clips' noise level
            scale = np.std(noisy[: int(LEAD_S * RATE)])
            write_wav(noise_path, scale * noise)
        in_path = os.path.join(workdir, f"clip{i}.wav")
        ref_path = os.path.join(workdir, f"ref{i}.wav")
        out_path = os.path.join(workdir, f"out{i}.wav")
        report_path = os.path.join(workdir, f"report{i}.json")
        write_wav(in_path, noisy)
        write_wav(ref_path, clean)
        if i % 4 == 3:
            label = "analyze"
            argv = ["analyze", "--in", in_path, "--noise", noise_path,
                    "--report", report_path, "--seed", str(variant)]
        else:
            label = METHODS[denoise_count % len(METHODS)]
            denoise_count += 1
            argv = ["denoise", "--in", in_path, "--out", out_path, "--ref", ref_path,
                    "--report", report_path, "--method", label, "--seed", str(variant)]
        requests.append(Call(f"{variant}/{i}", label, n, (tuple(argv), in_path, out_path, report_path)))
    return requests


# ---------------------------------------------------------------- set-up


def warm_up_argv(workdir: str) -> list:
    """A universal-hard CLI request on a 1 s clip written into `workdir`."""
    in_path = os.path.join(workdir, "warmup.wav")
    if not os.path.exists(in_path):
        write_wav(in_path, speech_like(rng_for("cli-clips", 10**6), RATE)[1])
    return ["denoise", "--in", in_path, "--out", os.path.join(workdir, "warmup-out.wav"),
            "--report", os.path.join(workdir, "warmup.json")]


def warm_up_input(workload: str) -> tuple:
    """(clean, noisy) SignalBuffers of 1 s for a library workload's warm-up."""
    rng = rng_for(workload, 10**6)
    make = tone_material if workload == "preset-sweep" else speech_like
    clean, noisy = make(rng, RATE)
    return SignalBuffer(clean, RATE), SignalBuffer(noisy, RATE)


def warm_up(workload: str, inputs: tuple | None = None) -> None:
    """One call per configuration of a library workload, on a 1 s input."""
    clean, noisy = inputs or warm_up_input(workload)
    if workload == "preset-sweep":
        for method in METHODS:
            _, report = pipeline.enhance(
                noisy, EnhanceConfig(method=method, seed=0), reference=clean
            )
            report.to_json()
    else:
        pipeline.enhance(noisy, long_config(0))
