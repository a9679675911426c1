"""Write BENCH_<label>.json: the speed record of one wpdenoise source tree.

    PYTHONPATH=src python3 tools/bench_stages.py --label my-change

It measures the wpdenoise package first on the import path, so a
parent revision is measured by putting its src/ on PYTHONPATH instead.
The file records:

- per method, the real-time factor (wall seconds per second of audio)
  of `enhance` on the 5 s sine-0db preset (seed 1), and the time and
  size of its Report.to_json();
- on sine-0db, the time of `sine_0db_material` (the preset's input),
  and of band mode's band selection together with the per-subband
  counts h_sub, from the leaves and noise profile of the default config;
- per method, the real-time factor of `enhance` on a 60 s speech-like
  input (bench/workloads.py's generator, seed 37) with mad noise
  estimation;
- the tracemalloc peak of one 60 s universal-hard mad call;
- on that 60 s input, the time of both framing ends, `make_frames` of
  the input and `overlap_add` of its frames, and of the mad noise
  profile (`estimate_noise_profile` of its frames' level-1 detail), each
  called alone;
- the time of Report._frames_text(), which writes the per-frame records,
  on the 312-frame sine-0db universal-hard report and on the 937-frame
  report of the first 15 s long-hard-mad input (universal-hard, mad);
- the time of `import wpdenoise.cli` in a fresh interpreter;
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
import statistics
import subprocess
import sys
import time
import tracemalloc

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import workloads  # noqa: E402  (bench/workloads.py, after the path insert)

import wpdenoise  # noqa: E402
from wpdenoise import pipeline  # noqa: E402
from wpdenoise.experiments import sine_0db_material  # noqa: E402
from wpdenoise.framing import make_frames, overlap_add  # noqa: E402
from wpdenoise.pipeline import EnhanceConfig, enhance, estimate_noise_profile  # noqa: E402
from wpdenoise.signal_io import SignalBuffer  # noqa: E402
from wpdenoise.wavelet import filter_bank, wp_analysis  # noqa: E402

METHODS = ("universal-hard", "universal-soft", "band")
RATE = workloads.RATE


def timed(call, repeats: int, scale: float = 1.0) -> dict:
    """Best and median wall time of `repeats` calls (after one warm-up),
    divided by `scale`."""
    call()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append((time.perf_counter() - start) / scale)
    return {"best": min(times), "median": statistics.median(times), "n": repeats}


def in_ms(timing: dict) -> dict:
    return {**timing, "best": timing["best"] * 1e3, "median": timing["median"] * 1e3}


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
    band = EnhanceConfig(method="band", seed=1)
    leaves, profile = pipeline._analyse(noisy, band)
    return {
        "audio_s": seconds, "methods": methods, "frames_text_universal_hard": frames,
        "material_ms": in_ms(timed(lambda: sine_0db_material(1), repeats)),
        "band_selection_and_h_sub_ms": in_ms(timed(
            lambda: pipeline._select_bands(leaves, profile.distribution, band), repeats)),
    }


def speech_like_mad(seconds: float, repeats: int) -> dict:
    _, samples = workloads.speech_like(np.random.default_rng(37), int(seconds * RATE))
    noisy = SignalBuffer(samples, RATE)
    methods = {}
    for method in METHODS:
        config = EnhanceConfig(method=method, noise_estimation="mad")
        methods[method] = {
            "enhance_rtf": timed(lambda: enhance(noisy, config), repeats, seconds),
        }
    tracemalloc.start()
    try:
        enhance(noisy, EnhanceConfig(noise_estimation="mad"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"audio_s": seconds, "methods": methods,
            "tracemalloc_peak_mb_universal_hard": peak / 2**20,
            "stages": mad_stages(noisy, repeats)}


def mad_stages(noisy: SignalBuffer, repeats: int) -> dict:
    """Both framing ends and the mad noise profile of `noisy`, each timed alone."""
    config = EnhanceConfig(noise_estimation="mad")
    frames = make_frames(noisy, config.frame_len, config.hop, config.window)
    detail = wp_analysis(frames.frames, filter_bank(config.wavelet), 1)[:, 1]
    return {
        "frames": frames.n_frames,
        "make_frames_ms": in_ms(timed(lambda: make_frames(
            noisy, config.frame_len, config.hop, config.window), repeats)),
        "estimate_noise_profile_ms": in_ms(
            timed(lambda: estimate_noise_profile(detail, config), repeats)),
        "overlap_add_ms": in_ms(timed(lambda: overlap_add(frames), repeats)),
    }


def report_15s_mad(repeats: int) -> dict:
    """The first 15 s input of the long-hard-mad workload, as tools/output_digests.py."""
    rng = workloads.rng_for("long-hard-mad", 0, 0)
    samples = workloads.speech_like(rng, int(workloads.LONG_SECONDS * RATE))[1]
    _, report = enhance(SignalBuffer(samples, RATE), EnhanceConfig(noise_estimation="mad"))
    return {
        "audio_s": workloads.LONG_SECONDS,
        "to_json_ms": in_ms(timed(report.to_json, repeats)),
        "to_json_bytes": len(report.to_json().encode("utf-8")),
        "frames_text_universal_hard": frames_text(report, repeats),
    }


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True, help="names the file BENCH_<label>.json")
    parser.add_argument("--repeats", type=int, default=7, help="timed calls per figure")
    parser.add_argument("--long-seconds", type=float, default=60.0,
                        help="length of the speech-like mad input")
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
        "speech_like_mad": speech_like_mad(args.long_seconds, args.repeats),
        "report_15s_mad": report_15s_mad(args.repeats),
        "cli_import_s": cli_import_s(args.repeats),
    }
    path = os.path.join(args.out_dir, f"BENCH_{args.label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
