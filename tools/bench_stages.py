"""Write BENCH_<label>.json: the speed record of one wpdenoise source tree.

    PYTHONPATH=src python3 tools/bench_stages.py --label my-change

It measures the wpdenoise package first on the import path, so a
parent revision is measured by putting its src/ on PYTHONPATH instead.
The file records:

- per method, the real-time factor (wall seconds per second of audio)
  of `enhance` on the 5 s sine-0db preset (seed 1), and the time and
  size of its Report.to_json();
- on sine-0db, the time of `sine_0db_material` (the preset's input);
- on a --long-seconds speech-like input (bench/workloads.py's
  generator, seed 37), for every method and noise mode, the time of
  `enhance` in ms and of each call it makes, in order (`enhance_calls`):
  `pipeline._analyse` (peak check, framing, packet analysis and noise
  profile), `pipeline.classify_vuv`, `pipeline._sweep` (zero counts,
  histograms, band selection and the rule), `wavelet._synthesis` and
  `framing._overlap_add`. Each call is timed alone on a fresh copy of
  the array the call before it left, made before the timer starts, and
  the replay must end with the samples `enhance` returns, or the run
  raises; beside them, the share of `enhance`'s median that the calls'
  medians sum to, and the tracemalloc peak of one universal-hard mad
  call, in kB;
- the time of Report._frames_text(), which writes the per-frame records,
  on the 312-frame sine-0db universal-hard report and on the 937-frame
  report of the first 15 s long-hard-mad input (universal-hard, mad);
- on that 15 s input, for every method and noise mode, the minor page
  faults per warmed call (a process's ru_minflt over --repeats calls)
  and the tracemalloc peak of one call, beside the sizes of the input's
  leaves and samples, and the tracemalloc peak of `analyze` of that
  input against its own noise, each from 3 fresh interpreters: the
  faults their median, each peak in kB (2**10 bytes) their min, median
  and max, unrounded, as a peak moves by a few kB from one fresh
  interpreter to the next on the same tree, so that two records show
  whether their peaks overlap;
- the time of `import wpdenoise.cli` in a fresh interpreter;
- the wall time of one fresh-process request, `python -m wpdenoise.cli
  denoise --ref ... --report ...` of a 2 s speech-like clip (seed 37),
  and beside it the same interpreter running `-c pass` and
  `-c "import numpy"`, which split it into start-up, numpy and the rest;
- the commit of the measured tree, nproc, and the Python, numpy and BLAS
  versions. The commit is found with git; a tree outside a git checkout
  (such as a `git archive` copy) needs --commit, or nothing is measured.

Each timing is given as the best and the median of --repeats calls,
after one untimed call. Runs are single-process; set
OPENBLAS_NUM_THREADS to pin the BLAS threads (the value is recorded).
"""

from __future__ import annotations

import argparse
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

import workloads  # noqa: E402  (bench/workloads.py, after the path insert)

import wpdenoise  # noqa: E402
from wpdenoise import pipeline  # noqa: E402
from wpdenoise.experiments import sine_0db_material  # noqa: E402
from wpdenoise.framing import FrameSet, _overlap_add, frame_count  # noqa: E402
from wpdenoise.pipeline import (  # noqa: E402
    METHODS, NOISE_MODES, EnhanceConfig, analyze, classify_vuv, enhance,
)
from wpdenoise.signal_io import SignalBuffer  # noqa: E402
from wpdenoise.wavelet import _synthesis, filter_bank  # noqa: E402

RATE = workloads.RATE


def timed(call, repeats: int, scale: float = 1.0, setup=None) -> dict:
    """Best and median wall time of `repeats` calls (after one warm-up),
    divided by `scale`; `setup`, if given, is called untimed before each."""
    setup = setup or (lambda: None)
    setup()
    call()
    times = []
    for _ in range(repeats):
        setup()
        start = time.perf_counter()
        call()
        times.append((time.perf_counter() - start) / scale)
    return {"best": min(times), "median": statistics.median(times), "n": repeats}


def in_ms(timing: dict) -> dict:
    return {**timing, "best": timing["best"] * 1e3, "median": timing["median"] * 1e3}


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


def machine(commit: dict) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        **commit,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def frames_text(report, repeats: int) -> dict:
    return {"frames": len(report.vuv), "ms": in_ms(timed(report._frames_text, repeats))}


def sine_0db(repeats: int) -> dict:
    clean, noisy = sine_0db_material(1)
    seconds = len(noisy) / noisy.sample_rate_hz
    methods = {}
    for method in METHODS:
        config = EnhanceConfig(method=method, seed=1)
        _, report = enhance(noisy, config, reference=clean)
        methods[method] = {
            "enhance_rtf": timed(lambda: enhance(noisy, config, reference=clean),
                                 repeats, seconds),
            "to_json_ms": in_ms(timed(report.to_json, repeats)),
            "to_json_bytes": len(report.to_json().encode("utf-8")),
        }
        if method == "universal-hard":
            frames = frames_text(report, repeats)
    return {
        "audio_s": seconds, "methods": methods, "frames_text_universal_hard": frames,
        "material_ms": in_ms(timed(lambda: sine_0db_material(1), repeats)),
    }


def enhance_calls(noisy: SignalBuffer, config: EnhanceConfig) -> list:
    """The calls `enhance(noisy, config)` makes, in order, with VUV on:
    (name, call) pairs. Each call takes the array the call before it
    left (the first takes None) and returns the one it leaves; the
    profile and VUV labels a later call needs are the last its
    forerunner made."""
    made = {}

    def analyse(_):
        leaves, made["profile"] = pipeline._analyse(noisy, config)
        return leaves

    def vuv(leaves):
        made["vuv"] = classify_vuv(
            leaves, pipeline._frame_entropy_threshold(config), config.epsilon)
        return leaves

    def sweep(leaves):
        pipeline._sweep(leaves, made["profile"], made["vuv"], config)
        return leaves

    def overlap_add(frames):
        rebuilt = FrameSet(frames, config.frame_len, config.hop, config.window,
                           len(noisy), noisy.sample_rate_hz)
        return _overlap_add(rebuilt, frames).samples

    return [
        ("pipeline._analyse", analyse),
        ("pipeline.classify_vuv", vuv),
        ("pipeline._sweep", sweep),
        ("wavelet._synthesis", lambda leaves: _synthesis(leaves, filter_bank(config.wavelet))),
        ("framing._overlap_add", overlap_add),
    ]


def replay(noisy: SignalBuffer, config: EnhanceConfig, calls: list, repeats: int) -> list:
    """Each of `calls` (enhance_calls) timed alone in ms, in order, each
    on a fresh copy of the array the call before it left, made before
    the timer starts. Raises RuntimeError unless the last call leaves
    the samples `enhance(noisy, config)` returns."""
    figures, left = [], None
    for name, call in calls:
        given = left
        work = None if given is None else np.empty_like(given)
        out = {}
        timing = timed(lambda: out.update(left=call(work)), repeats,
                       setup=None if given is None else lambda: np.copyto(work, given))
        figures.append({"call": name, **in_ms(timing)})
        left = out["left"]
    if not np.array_equal(left, enhance(noisy, config)[0].samples):
        raise RuntimeError(f"the calls replayed do not give the samples of enhance "
                           f"({config.method}/{config.noise_estimation})")
    return figures


def speech_like(seconds: float, repeats: int) -> dict:
    """`enhance` and each call it makes (replay), for every method and
    noise mode, on the speech-like input of `seconds` (seed 37)."""
    _, samples = workloads.speech_like(np.random.default_rng(37), int(seconds * RATE))
    noisy = SignalBuffer(samples, RATE)
    configs = {}
    for method in METHODS:
        for mode in NOISE_MODES:
            config = EnhanceConfig(method=method, noise_estimation=mode)
            whole = in_ms(timed(lambda: enhance(noisy, config), repeats))
            calls = replay(noisy, config, enhance_calls(noisy, config), repeats)
            configs[f"{method}/{mode}"] = {
                "enhance_ms": whole, "calls": calls,
                "calls_median_share": sum(c["median"] for c in calls) / whole["median"],
            }
    default = EnhanceConfig()
    peak = peak_kb(lambda: enhance(noisy, EnhanceConfig(noise_estimation="mad")))
    return {"audio_s": seconds, "configs": configs,
            "frames": frame_count(len(samples), default.frame_len, default.hop),
            "tracemalloc_peak_kb_universal_hard_mad": peak}


def long_hard_mad_15s() -> tuple:
    """(clean, noisy) of the first 15 s input of the long-hard-mad workload,
    the noisy one as tools/output_digests.py."""
    rng = workloads.rng_for("long-hard-mad", 0, 0)
    pair = workloads.speech_like(rng, int(workloads.LONG_SECONDS * RATE))
    return tuple(SignalBuffer(samples, RATE) for samples in pair)


def report_15s_mad(repeats: int) -> dict:
    _, report = enhance(long_hard_mad_15s()[1], EnhanceConfig(noise_estimation="mad"))
    return {
        "audio_s": workloads.LONG_SECONDS,
        "to_json_ms": in_ms(timed(report.to_json, repeats)),
        "to_json_bytes": len(report.to_json().encode("utf-8")),
        "frames_text_universal_hard": frames_text(report, repeats),
    }


FRESH_RUNS = 3


def in_fresh_interpreters(call: str) -> dict:
    """Each figure of `bench_stages.<call>`, a dict of numbers, over
    FRESH_RUNS fresh interpreters on this import path, so that no earlier
    call has shaped the heap a call faults in: the median of each, and
    of "tracemalloc_peak_kb" the min, median and max."""
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
    default = EnhanceConfig()
    n_samples = int(workloads.LONG_SECONDS * RATE)
    n_frames = frame_count(n_samples, default.frame_len, default.hop)
    return {
        "audio_s": workloads.LONG_SECONDS,
        "leaves_mb": n_frames * default.frame_len * 8 / 2**20,
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


def cli_import_s(repeats: int) -> dict:
    """`import wpdenoise.cli` in a fresh interpreter, on this import path."""
    code = ("import time; t = time.perf_counter(); import wpdenoise.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(PACKAGE_DIR))

    def once() -> float:
        return float(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                    capture_output=True, text=True).stdout)

    once()
    times = [once() for _ in range(repeats)]
    return {"best": min(times), "median": statistics.median(times), "n": repeats}


def cli_request(repeats: int) -> dict:
    """Wall ms of fresh processes on this import path, without a seed
    override: a `denoise --ref --report` request of a 2 s speech-like
    clip, and the same interpreter running `pass` and `import numpy`."""
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
        }
        return {key: in_ms(timed(lambda: subprocess.run(
                    [sys.executable, *argv], env=env, check=True, capture_output=True),
                    repeats))
                for key, argv in argvs.items()}


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
    record = {
        "label": args.label,
        "machine": machine(commit),
        "sine_0db": sine_0db(args.repeats),
        "speech_like": speech_like(args.long_seconds, args.repeats),
        "report_15s_mad": report_15s_mad(args.repeats),
        "memory_15s": memory_15s(args.repeats),
        "cli_import_s": cli_import_s(args.repeats),
        **cli_request(args.repeats),
    }
    path = os.path.join(args.out_dir, f"BENCH_{args.label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
