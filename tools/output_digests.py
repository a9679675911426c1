"""Print sha256 digests of wpdenoise's outputs, one sorted line per case.

A change that should not alter the output prints the same text as its
parent. Put the source tree to check on the path and compare:

    PYTHONPATH=src python3 tools/output_digests.py > after.txt
    PYTHONPATH=../parent/src python3 tools/output_digests.py > before.txt
    diff before.txt after.txt

The cases are the sine-0db preset (every method, both noise modes,
seeds 1 and 7; and with leading silence from 250 ms, which holds 14
frames of 512 and 6 of 1024), a 15 s speech-like input from bench/workloads.py
(universal-hard and band: in mad mode with VUV on and off, and with the
default leading silence), two analyze reports (sine-0db, and the 15 s
input against its noise, noisy - clean, as tools/bench_stages.py's
memory_analyze), the
packet transform of random frames (haar and db4, 16 to 4096 samples,
every depth they allow, and the level-1 detail), and a fixed script of
CLI calls run in a temporary directory. Array digests cover dtype,
shape and bytes; report digests the bytes of Report.to_json(); a CLI
case the exit status, stdout and stderr of each call and every file
written. Each report case also prints a decisions/<case> line: the
digest of the VUV labels and the zero counts before and after
thresholding. A change that moves floats only in their last bits
changes value digests but keeps every decisions line. Only the
standard library and wpdenoise itself are used, so the script runs
against any revision of the package that has these entry points.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile

import numpy as np

from wpdenoise import cli
from wpdenoise.experiments import run_preset, sine_0db_material
from wpdenoise.pipeline import METHODS, EnhanceConfig, analyze, enhance
from wpdenoise.signal_io import SignalBuffer
from wpdenoise.wavelet import filter_bank, wp_analysis, wp_synthesis

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Run in order in one temporary directory; later calls read earlier files.
CLI_SCRIPT = (
    ("synth", "--kind", "sine", "--out", "sine.wav", "--duration", "2"),
    ("synth", "--kind", "noise", "--out", "noise.wav", "--duration", "2", "--seed", "3"),
    ("synth", "--kind", "mix", "--out", "mix.wav", "--duration", "2", "--seed", "7",
     "--snr-db", "0"),
    ("denoise", "--in", "mix.wav", "--out", "band.wav", "--method", "band",
     "--ref", "sine.wav", "--report", "band.json"),
    ("denoise", "--in", "mix.wav", "--out", "mad.wav", "--noise-estimation", "mad",
     "--no-vuv"),
    ("analyze", "--in", "mix.wav", "--noise", "noise.wav", "--report", "analyze.json"),
    ("experiment", "--preset", "sine-0db", "--method", "universal-soft", "--seed", "4",
     "--out", "experiment.wav", "--report", "experiment.json"),
)


def sha(*parts) -> str:
    """One digest over arrays (dtype, shape and bytes), strings and bytes."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, str):
            part = part.encode("utf-8")
        elif not isinstance(part, bytes):
            a = np.ascontiguousarray(part)
            h.update(f"{a.dtype.str}{a.shape}".encode())
            part = a.tobytes()
        h.update(len(part).to_bytes(8, "little") + part)
    return h.hexdigest()


def report_cases(case, report, *arrays):
    """The value line of a case and its decisions line."""
    yield case, *(sha(a) for a in arrays), sha(report.to_json())
    yield f"decisions/{case}", sha(
        repr(report.vuv), np.asarray(report.n_zero_pre), np.asarray(report.n_zero_post)
    )


def enhance_cases():
    for seed in (1, 7):
        for method in METHODS:
            for mode in ("leading_silence", "mad"):
                config = EnhanceConfig(method=method, noise_estimation=mode, seed=seed)
                _, _, out, report = run_preset("sine-0db", seed=seed, config=config)
                yield from report_cases(
                    f"sine-0db/{method}/{mode}/seed={seed}", report, out.samples
                )


def long_silence_cases():
    """Leading-silence profiles from more than the default 5 noise frames."""
    for name, geometry in (("silence_ms=250", {}),
                           ("frame_len=1024", {"frame_len": 1024, "hop": 512})):
        for method in METHODS:
            config = EnhanceConfig(method=method, silence_ms=250.0, seed=1, **geometry)
            _, _, out, report = run_preset("sine-0db", seed=1, config=config)
            yield from report_cases(
                f"sine-0db/{method}/leading_silence/{name}/seed=1", report, out.samples
            )


def _speech_like():
    """(clean, noisy) of the first 15 s input of bench/workloads.py's
    long-hard-mad workload."""
    sys.dont_write_bytecode = True  # read the benchmark, leave no file in it
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    import workloads

    rng = workloads.rng_for("long-hard-mad", 0, 0)
    n = int(workloads.LONG_SECONDS * workloads.RATE)
    return tuple(SignalBuffer(x, workloads.RATE) for x in workloads.speech_like(rng, n))


def speech_cases():
    noisy = _speech_like()[1]
    methods = ("universal-hard", "band")
    configs = [EnhanceConfig(method=method, noise_estimation="mad", vuv_enabled=vuv, seed=0)
               for method in methods for vuv in (True, False)]
    configs += [EnhanceConfig(method=method, seed=0) for method in methods]
    for config in configs:
        out, report = enhance(noisy, config)
        yield from report_cases(f"speech-15s/{config.method}/{config.noise_estimation}/"
                                f"vuv={config.vuv_enabled}", report, out.samples)


def analyze_cases():
    for case, (clean, noisy) in (("sine-0db/seed=1", sine_0db_material(1)),
                                 ("speech-15s", _speech_like())):
        noise = SignalBuffer(noisy.samples - clean.samples, noisy.sample_rate_hz)
        yield from report_cases(f"analyze/{case}", analyze(noisy, noise, EnhanceConfig()))


def wavelet_cases():
    rng = np.random.default_rng(2009)
    for name in ("haar", "db4"):
        fb = filter_bank(name)
        for log_n in range(4, 13):
            n = 1 << log_n
            frames = rng.normal(size=(3, n))
            detail = wp_analysis(frames, fb, 1)[:, 1]
            yield f"wavelet/{name}/n={n}/level1-detail", sha(detail)
            for depth in range(1, log_n + 1):
                if n >> depth < len(fb):
                    break
                leaves = wp_analysis(frames, fb, depth)
                yield (f"wavelet/{name}/n={n}/depth={depth}", sha(leaves),
                       sha(wp_synthesis(leaves, fb)))


def cli_cases():
    seed_env = os.environ.pop(cli.SEED_ENV_VAR, None)
    cwd = os.getcwd()
    try:
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            for i, argv in enumerate(CLI_SCRIPT):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    status = cli.run(list(argv))
                yield f"cli/{i}/{argv[0]}", sha(str(status), out.getvalue(), err.getvalue())
            for name in sorted(os.listdir(tmp)):
                with open(name, "rb") as fh:
                    yield f"cli/file/{name}", sha(fh.read())
    finally:
        os.chdir(cwd)
        if seed_env is not None:
            os.environ[cli.SEED_ENV_VAR] = seed_env


def main() -> None:
    lines = []
    for cases in (enhance_cases, long_silence_cases, speech_cases, analyze_cases,
                  wavelet_cases, cli_cases):
        lines.extend(" ".join(case) for case in cases())
    print("\n".join(sorted(lines)))


if __name__ == "__main__":
    main()
