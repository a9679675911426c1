"""Write BENCH_<label>.json: the speed record of one wpdenoise source tree.

    PYTHONPATH=src python3 tools/bench_stages.py --label my-change

It measures the wpdenoise package first on the import path, so a
parent revision is measured by putting its src/ on PYTHONPATH instead.
Each wall time comes from `split`, which times named calls in rounds,
each call once a round, and inside each call every boundary it enters:

- `sine_0db`: per method, the 5 s preset call (seed 1), `run_preset` and
  `to_json()`, split into `sine_0db_material`, `enhance` (also as wall s
  per s of audio), its STAGES, `to_json` and its `_frames_text`;
- `speech_like`: per method and noise mode, `enhance` split into STAGES
  on a --long-seconds speech-like input (seed 37), `calls_share`, the
  median over the calls of the stages' sum over the call's time, and
  the tracemalloc peak of a universal-hard mad call;
- `report_15s_mad`: `to_json()` of the first 15 s long-hard-mad input's
  report (universal-hard, mad) split into `_frames_text`;
- `memory_15s`: on that input, per method and noise mode, the minor
  page faults per warmed call and the tracemalloc peak of one call;
- fresh processes: a CLI `denoise` request on a 2 s clip, `-c pass`,
  `-c "import numpy"` and `-c "import wpdenoise.cli"`;
- `machine`: the commit (found with git; a tree outside a git checkout
  needs --commit), the CPU, Python, numpy and BLAS, and the host's speed
  (bench/calibrate.py's kernel) before and after the in-process figures.

Each tracemalloc peak is the min, median and max over 3 fresh
interpreters, in kB (2**10 bytes); each time the best and median of
--repeats rounds after an untimed one. Set OPENBLAS_NUM_THREADS to pin
the BLAS threads.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import calibrate  # noqa: E402  (bench/calibrate.py, after the path insert)
import workloads  # noqa: E402  (bench/workloads.py)

import wpdenoise  # noqa: E402
from wpdenoise import experiments, pipeline  # noqa: E402
from wpdenoise.experiments import run_preset, sine_0db_material  # noqa: E402
from wpdenoise.framing import frame_count  # noqa: E402
from wpdenoise.pipeline import (  # noqa: E402
    METHODS, NOISE_MODES, EnhanceConfig, analyze, enhance,
)
from wpdenoise.report import Report  # noqa: E402
from wpdenoise.signal_io import SignalBuffer  # noqa: E402

RATE = workloads.RATE
DEFAULT = EnhanceConfig()

# The stages `enhance` calls, in order, by record name: (owner, attribute)
# where `enhance` looks each up, its module's globals.
STAGES = {
    "pipeline._analyse": (pipeline, "_analyse"),
    "pipeline.classify_vuv": (pipeline, "classify_vuv"),
    "pipeline._sweep": (pipeline, "_sweep"),
    "wavelet._synthesis": (pipeline, "_synthesis"),
    "framing._overlap_add": (pipeline, "_overlap_add"),
}
# Those of `preset_json`, the preset sweep's call.
PRESET = {
    "sine_0db_material": (experiments, "sine_0db_material"),
    "enhance": (experiments, "enhance"),
    **STAGES,
    "to_json": (Report, "to_json"),
    "_frames_text": (Report, "_frames_text"),
}


def spread(seconds: list, unit: float = 1e3) -> dict:
    """Best and median of `seconds` times `unit` (default: in ms), and their count."""
    return {"best": min(seconds) * unit, "median": statistics.median(seconds) * unit,
            "n": len(seconds)}


def split(calls: dict, boundaries: dict, repeats: int) -> dict:
    """By name of each of `calls` (callables of no argument), its wall
    seconds as "whole" and each boundary's inclusive time in the same call.

    The calls run in rounds, one untimed and then `repeats` timed, each
    call once a round in turn, so a change of the host's speed falls on
    every call of a round alike. `boundaries` maps a name to (owner,
    attribute), a module global or a class's method, wrapped where the
    calls look it up while split runs. One that does not resolve raises
    AttributeError before any is wrapped, one not entered exactly once in
    a call RuntimeError naming it and the call; the originals are put
    back however the calls end.
    """
    originals = [(owner, attribute, getattr(owner, attribute))
                 for owner, attribute in boundaries.values()]
    times = {label: {name: [] for name in ("whole", *boundaries)} for label in calls}

    def wrapped(name, original):
        def boundary(*args, **kwargs):
            start = time.perf_counter()
            out = original(*args, **kwargs)
            spans[name].append(time.perf_counter() - start)
            return out
        return boundary

    try:
        for name, (owner, attribute, original) in zip(boundaries, originals):
            setattr(owner, attribute, wrapped(name, original))
        for run in range(repeats + 1):
            for label, call in calls.items():
                spans = {name: [] for name in boundaries}
                start = time.perf_counter()
                call()
                spans["whole"] = [time.perf_counter() - start]
                for name, entered in spans.items():
                    if len(entered) != 1:
                        raise RuntimeError(
                            f"{name} entered {len(entered)} times in a call of {label}")
                    if run:
                        times[label][name] += entered
    finally:
        for owner, attribute, original in originals:
            setattr(owner, attribute, original)
    return times


def peak_kb(call) -> float:
    """The tracemalloc peak of one call, in kB (2**10 bytes)."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**10
    finally:
        tracemalloc.stop()


PACKAGE_DIR = os.path.dirname(os.path.abspath(wpdenoise.__file__))


def source_commit() -> dict | None:
    """The git commit of the tree the measured package sits in, or None."""
    git = ["git", "-C", PACKAGE_DIR]
    try:
        commit = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True,
                                text=True, check=True).stdout.strip()
        dirty = subprocess.run(git + ["diff", "--quiet", "HEAD", "--"]).returncode != 0
    except (OSError, subprocess.CalledProcessError):
        return None
    return {"commit": commit, "tracked_changes": dirty}


def cpu_model() -> str | None:
    """The `model name` of /proc/cpuinfo, or None where there is none."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            return next((line.partition(":")[2].strip() for line in fh
                         if line.startswith("model name")), None)
    except OSError:
        return None


def kernel_s() -> float:
    """The host's speed: median wall seconds of 9 runs of the calibration kernel."""
    return statistics.median(calibrate.kernel_seconds() for _ in range(9))


def machine(commit: dict, kernel: dict) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        **commit,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "calibrate_kernel_s": kernel,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def preset_json(method: str) -> str:
    """The preset sweep's call: the sine-0db preset (seed 1) as report JSON."""
    return run_preset("sine-0db", method, 1)[3].to_json()


def sine_0db(repeats: int) -> dict:
    noisy = sine_0db_material(1)[1]
    seconds = len(noisy) / noisy.sample_rate_hz
    calls = {method: functools.partial(preset_json, method) for method in METHODS}
    methods = {method: {
        **{f"{name}_ms": spread(t) for name, t in times.items() if name not in STAGES},
        "enhance_rtf": spread(times["enhance"], 1 / seconds),
        "calls": [{"call": name, **spread(times[name])} for name in STAGES],
        "to_json_bytes": len(calls[method]().encode("utf-8")),
    } for method, times in split(calls, PRESET, repeats).items()}
    return {"audio_s": seconds, "methods": methods,
            "frames": frame_count(len(noisy), DEFAULT.frame_len, DEFAULT.hop)}


def speech_like_input(seconds: float) -> SignalBuffer:
    """The noisy speech-like input of `seconds` (seed 37)."""
    _, samples = workloads.speech_like(np.random.default_rng(37), int(seconds * RATE))
    return SignalBuffer(samples, RATE)


def speech_like(seconds: float, repeats: int) -> dict:
    """The split of `enhance` into STAGES for every method and noise mode
    on the speech-like input of `seconds` (seed 37)."""
    noisy = speech_like_input(seconds)
    calls = {f"{method}/{mode}": functools.partial(
                 enhance, noisy, EnhanceConfig(method=method, noise_estimation=mode))
             for method in METHODS for mode in NOISE_MODES}
    configs = {key: {
        "enhance_ms": spread(times["whole"]),
        "calls": [{"call": name, **spread(times[name])} for name in STAGES],
        "calls_share": statistics.median(
            sum(stages) / whole
            for whole, *stages in zip(*(times[name] for name in ("whole", *STAGES)))),
    } for key, times in split(calls, STAGES, repeats).items()}
    peak = in_fresh_interpreters(f"speech_like_peak({seconds!r})")["tracemalloc_peak_kb"]
    return {"audio_s": seconds, "configs": configs,
            "frames": frame_count(len(noisy), DEFAULT.frame_len, DEFAULT.hop),
            "tracemalloc_peak_kb_universal_hard_mad": peak}


def speech_like_peak(seconds: float) -> dict:
    """The tracemalloc peak of a universal-hard mad call on speech_like_input."""
    noisy = speech_like_input(seconds)
    config = EnhanceConfig(noise_estimation="mad")
    return {"tracemalloc_peak_kb": peak_kb(lambda: enhance(noisy, config))}


def long_hard_mad_15s() -> tuple:
    """(clean, noisy) of the first 15 s input of the long-hard-mad workload,
    the noisy one as tools/output_digests.py."""
    rng = workloads.rng_for("long-hard-mad", 0, 0)
    pair = workloads.speech_like(rng, int(workloads.LONG_SECONDS * RATE))
    return tuple(SignalBuffer(samples, RATE) for samples in pair)


def report_15s_mad(repeats: int) -> dict:
    _, report = enhance(long_hard_mad_15s()[1], EnhanceConfig(noise_estimation="mad"))
    times = split({"to_json": report.to_json},
                  {"_frames_text": (Report, "_frames_text")}, repeats)["to_json"]
    return {
        "audio_s": workloads.LONG_SECONDS,
        "frames": len(report.vuv),
        "to_json_ms": spread(times["whole"]),
        "_frames_text_ms": spread(times["_frames_text"]),
        "to_json_bytes": len(report.to_json().encode("utf-8")),
    }


FRESH_RUNS = 3


def in_fresh_interpreters(call: str) -> dict:
    """Each figure of `bench_stages.<call>`, a dict of numbers, over
    FRESH_RUNS fresh interpreters on this import path, so that no earlier
    call has shaped the heap a call faults in or peaks on: the median of
    each, and of "tracemalloc_peak_kb" the min, median and max."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(PACKAGE_DIR))
    tools = os.path.dirname(os.path.abspath(__file__))
    code = (f"import json, sys; sys.path.insert(0, {tools!r}); import bench_stages; "
            f"print(json.dumps(bench_stages.{call}))")
    runs = [json.loads(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                      capture_output=True, text=True).stdout)
            for _ in range(FRESH_RUNS)]
    figures = {key: statistics.median(run[key] for run in runs) for key in runs[0]}
    peaks = [run["tracemalloc_peak_kb"] for run in runs]
    figures["tracemalloc_peak_kb"] = {
        "min": min(peaks), "median": statistics.median(peaks), "max": max(peaks)}
    return figures


def memory_15s(repeats: int) -> dict:
    """memory_call of every method and noise mode, and memory_analyze,
    each in fresh interpreters."""
    calls = {f"{method}/{mode}": in_fresh_interpreters(
                 f"memory_call({method!r}, {mode!r}, {repeats})")
             for method in METHODS for mode in NOISE_MODES}
    n_samples = int(workloads.LONG_SECONDS * RATE)
    n_frames = frame_count(n_samples, DEFAULT.frame_len, DEFAULT.hop)
    return {
        "audio_s": workloads.LONG_SECONDS,
        "leaves_mb": n_frames * DEFAULT.frame_len * 8 / 2**20,
        "samples_mb": n_samples * 8 / 2**20,
        "calls": calls,
        "analyze_tracemalloc_peak_kb": in_fresh_interpreters(
            "memory_analyze()")["tracemalloc_peak_kb"],
    }


def memory_analyze() -> dict:
    """The tracemalloc peak of `analyze` of the 15 s input against its
    noise (noisy - clean), default config."""
    clean, noisy = long_hard_mad_15s()
    noise = SignalBuffer(noisy.samples - clean.samples, RATE)
    return {"tracemalloc_peak_kb": peak_kb(lambda: analyze(noisy, noise, EnhanceConfig()))}


def memory_call(method: str, noise_estimation: str, repeats: int) -> dict:
    """The minor faults per call of `repeats` calls after two warm-up calls
    (this process's ru_minflt), then the tracemalloc peak of one more
    call, on the 15 s input."""
    noisy = long_hard_mad_15s()[1]
    config = EnhanceConfig(method=method, noise_estimation=noise_estimation)
    for _ in range(2):  # the heap and the allocator's thresholds settle
        enhance(noisy, config)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(repeats):
        enhance(noisy, config)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    return {"minor_faults_per_call": faults / repeats,
            "tracemalloc_peak_kb": peak_kb(lambda: enhance(noisy, config))}


def cli_request(repeats: int) -> dict:
    """Wall ms of fresh processes on this import path, without a seed
    override, in rounds: a `denoise --ref --report` request of a 2 s
    speech-like clip, and the same interpreter running `pass`, `import
    numpy` and `import wpdenoise.cli`."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(PACKAGE_DIR))
    env.pop("WAVEDENOISE_SEED", None)
    with tempfile.TemporaryDirectory() as tmp:
        clean, noisy = workloads.speech_like(np.random.default_rng(37), 2 * RATE)
        ref, clip = os.path.join(tmp, "ref.wav"), os.path.join(tmp, "clip.wav")
        workloads.write_wav(ref, clean)
        workloads.write_wav(clip, noisy)
        argvs = {
            "cli_request_ms": ["-m", "wpdenoise.cli", "denoise", "--in", clip, "--ref", ref,
                               "--out", os.path.join(tmp, "out.wav"),
                               "--report", os.path.join(tmp, "report.json")],
            "python_pass_ms": ["-c", "pass"],
            "python_import_numpy_ms": ["-c", "import numpy"],
            "python_import_cli_ms": ["-c", "import wpdenoise.cli"],
        }
        calls = {key: functools.partial(subprocess.run, [sys.executable, *argv], env=env,
                                        check=True, capture_output=True)
                 for key, argv in argvs.items()}
        return {key: spread(times["whole"])
                for key, times in split(calls, {}, repeats).items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True, help="names the file BENCH_<label>.json")
    parser.add_argument("--repeats", type=int, default=7, help="timed calls per figure")
    parser.add_argument("--long-seconds", type=float, default=60.0,
                        help="length of the speech-like input")
    parser.add_argument("--out-dir", default=ROOT, help="directory of the file")
    parser.add_argument("--commit", help="the measured commit, for a tree outside a "
                        "git checkout (default: found with git)")
    args = parser.parse_args(argv)
    if args.commit is not None:
        commit = {"commit": args.commit, "tracked_changes": None}
    else:
        commit = source_commit()
        if commit is None:
            parser.error(f"{PACKAGE_DIR} is not in a git checkout: "
                         "name the measured commit with --commit")
    before = kernel_s()
    record = {
        "label": args.label,
        "sine_0db": sine_0db(args.repeats),
        "speech_like": speech_like(args.long_seconds, args.repeats),
        "report_15s_mad": report_15s_mad(args.repeats),
    }
    record["machine"] = machine(commit, {"before": before, "after": kernel_s()})
    record.update(memory_15s=memory_15s(args.repeats), **cli_request(args.repeats))
    path = os.path.join(args.out_dir, f"BENCH_{args.label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
