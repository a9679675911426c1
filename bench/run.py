"""wpdenoise benchmark: speed, memory and output quality on three workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: preset-sweep, long-hard-mad, cli-clips (see workloads.py).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it holds the exact work counts, the machine and the per-label latencies.

--trace 0 reports the end-to-end metrics, measured untraced in a fresh
process: rtf, latency_ms_p50, peak_rss_mb, setup_s, snr_gain_db and
success_rate. Times are scaled to a reference machine speed by the
calibration kernel run around every call (calibrate.py); the unscaled
figures are in the details line. One untimed pass over a round with
the layer-boundary tracer then gives the work counts and the outputs
whose reports are schema-checked.

--trace 1 reports the per-layer metrics: untraced and traced rounds
alternate, both in-process (cli-clips calls ``cli.run`` with the same
argv), and trace.overhead_frac compares their rtf.

Exit status 2 without a result when the checkout holds no
src/wpdenoise to measure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")

# One caller, one process: BLAS stays single-threaded (below nproc).
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3

END_TO_END_UNITS = {
    "rtf": "s/s",
    "latency_ms_p50": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "snr_gain_db": "dB",
    "success_rate": "fraction",
}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


# ---------------------------------------------------------------- set-up


def measure_setup(wl) -> float:
    """Seconds for a fresh interpreter to import and finish one warm-up call.

    Library workloads run setup_probe.py, which reports the time it spent
    generating its input so that it is left out. For cli-clips the
    warm-up is one CLI request on a 1 s clip written beforehand.
    """
    cli = wl.name == "cli-clips"
    if cli:
        argv = [sys.executable, "-m", "wpdenoise.cli", *wl.warm_up_argv()]
    else:
        argv = [sys.executable, os.path.join(BENCH_DIR, "setup_probe.py"), wl.name]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=120)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up of {wl.name} failed: {proc.stderr.strip()}")
    return wall if cli else wall - json.loads(proc.stdout.splitlines()[-1])["gen_s"]


def import_times_ms() -> tuple:
    """(wpdenoise + wpdenoise.cli, jsonschema) cumulative import ms, from -X importtime."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import wpdenoise.cli"],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=120,
    )
    total_us = jsonschema_us = 0
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)", line)
        if not m:
            continue
        cumulative, indent, name = int(m.group(1)), len(m.group(2)), m.group(3)
        if indent == 1 and (name == "wpdenoise" or name.startswith("wpdenoise.")):
            total_us += cumulative
        if name == "jsonschema" and not jsonschema_us:
            jsonschema_us = cumulative
    return total_us / 1000.0, jsonschema_us / 1000.0


def environment() -> dict:
    import numpy

    # The ceiling keeps git from looking above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() if proc.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "machine": platform.machine(),
        "git_commit": commit,
    }


# ---------------------------------------------------------------- runs


def checked_call(wl, call, execute) -> tuple:
    """(outcome, raw) of one call; the check runs outside the timed region.

    A call that raises, or whose output cannot be checked, is a failed
    outcome, never dropped.
    """
    from workloads import Outcome

    t0 = time.perf_counter()
    try:
        wall, raw = execute(call)
        outcome = wl.check(call, raw)
        outcome.wall_s = wall
        return outcome, raw
    except Exception as exc:
        error = f"{call.key}: {type(exc).__name__}: {exc}"
        return Outcome(call.key, call.label, call.audio_samples,
                       time.perf_counter() - t0, error=error), None


def run_rounds(wl, seconds: float, execute, keep_raws: bool = False):
    """Repeat whole rounds while the next one is predicted to fit in `seconds`.

    At least one round runs, so seconds=0 runs exactly one. Returns
    (outcomes, (call, raw) pairs of the first round when keep_raws,
    measured seconds).
    """
    import calibrate

    calls = wl.round()
    outcomes, raws = [], []
    start = time.perf_counter()
    rounds = 0
    before = calibrate.bracket()
    while True:
        for call in calls:
            outcome, raw = checked_call(wl, call, execute)
            after = calibrate.bracket(outcome.wall_s)
            outcome.scale = calibrate.scale(before, after)
            before = after
            outcomes.append(outcome)
            if keep_raws and rounds == 0:
                raws.append((call, raw))
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds > seconds:
            return outcomes, raws, elapsed


def validate_raws(wl, raws, outcomes) -> None:
    """Schema-check the reports in `raws`; mark outcomes whose report differs.

    Runs the same calls as `outcomes` did, so every report of a key must
    be byte-identical to the validated one.
    """
    validated = {}
    for call, raw in raws:
        if raw is None:
            continue
        try:
            validated[call.key] = wl.validate(call, raw)
        except Exception as exc:
            validated[call.key] = f"invalid report: {type(exc).__name__}: {exc}"
    for outcome in outcomes:
        if outcome.error is not None:
            continue
        want = validated.get(outcome.key)
        if want is not None and want != outcome.digest:
            outcome.error = f"{outcome.key}: " + (
                want if want.startswith("invalid") else "report differs between runs"
            )


def rtf(outcomes, scaled: bool = True) -> float:
    from workloads import RATE

    audio_s = sum(o.audio_samples for o in outcomes) / RATE
    wall = math.fsum(o.wall_s * (o.scale if scaled else 1.0) for o in outcomes)
    return _ratio(wall, audio_s)


def work_counts(tracer) -> dict:
    """Exact counts from one traced pass; identical for any number of rounds."""
    from workloads import RATE

    c = tracer.counts
    n_calls = len(tracer.calls)
    audio = sum(samples for _, samples, _ in tracer.calls)
    frames = c["framing.ola_frames"]
    return {
        "wavelet.coeff_ops": _ratio(c["wavelet.coeff_ops"], n_calls),
        "wavelet.synthesis_passes_per_frame": _ratio(c["wavelet.synthesis_passes"], frames),
        "stats.histograms_per_frame": _ratio(c["stats.histograms"], frames),
        "report.bytes_per_audio_s": _ratio(c["report.bytes"] * RATE, audio),
        "signal_io.clipped_samples": _ratio(c["signal_io.clipped_samples"], n_calls),
        "pipeline.unvoiced_frac": _ratio(c["pipeline.unvoiced_frames"], c["pipeline.vuv_frames"]),
        "thresholding.zeroed_frac": _ratio(c["thresholding.zeroed"], c["thresholding.coeffs"]),
    }


def layer_metrics(tracer) -> dict:
    """Per-layer metrics of a traced phase; times are ms per workload call."""
    from tracer import ANALYSIS_SPANS, SYNTHESIS_SPANS

    n = len(tracer.calls)
    c = tracer.counts

    def ms(seconds):
        return _ratio(1000.0 * seconds, n)

    wall = math.fsum(w for *_, w in tracer.calls)
    top_level = math.fsum(e - s for _, s, e, parent, *_ in tracer.spans if parent == -1)
    metrics = {f"{layer}.self_ms": ms(s) for layer, s in tracer.self_seconds().items()}
    band_calls = {i for i, (label, *_) in enumerate(tracer.calls) if label == "band"}
    band = tracer.self_seconds(band_calls)
    metrics.update({
        "wavelet.analysis_ms": ms(tracer.self_of(ANALYSIS_SPANS)),
        "wavelet.synthesis_ms": ms(tracer.self_of(SYNTHESIS_SPANS)),
        "wavelet.calls": _ratio(tracer.span_count("wavelet"), n),
        "stats.histograms": _ratio(c["stats.histograms"], n),
        "stats.values_binned": _ratio(c["stats.values_binned"], n),
        "thresholding.select_band_ms": ms(tracer.inclusive_seconds(("thresholding.select_band",))),
        "thresholding.calls": _ratio(tracer.span_count("thresholding"), n),
        "framing.frames": _ratio(c["framing.frames"], n),
        "pipeline.noise_profile_ms": ms(tracer.inclusive_seconds(("pipeline.estimate_noise_profile",))),
        "pipeline.vuv_ms": ms(tracer.inclusive_seconds(("pipeline.classify_vuv",))),
        "report.to_json_ms": ms(tracer.inclusive_seconds(("report.to_json",))),
        "report.records": _ratio(c["report.records"], n),
        "signal_io.read_wav_ms": ms(tracer.inclusive_seconds(("signal_io.read_wav",))),
        "signal_io.write_wav_ms": ms(tracer.inclusive_seconds(("signal_io.write_wav",))),
        "band.stats_thresholding_to_wavelet": _ratio(
            band["stats"] + band["thresholding"], band["wavelet"]
        ),
        "trace.wall_ms": ms(wall),
        "trace.remainder_ms": ms(wall - top_level),
    })
    metrics.update(work_counts(tracer))
    return metrics


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  tiny: bool = False, setup_samples: int = SETUP_SAMPLES) -> tuple:
    """Measure one workload; returns (info line, result line) as dicts."""
    import workloads

    workdir = os.path.join(WORK_ROOT, f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = workloads.WORKLOAD_CLASSES[workload](seed, workdir, tiny)
        info = {"workload": workload, "seed": seed, "env": environment()}
        if trace:
            metrics, outcomes = _traced_run(wl, seconds, info)
        else:
            metrics, outcomes = _untraced_run(wl, seconds, info, setup_samples)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = [o for o in outcomes if o.error is not None]
    for outcome in failed[:5]:
        print(f"failed: {outcome.error}", file=sys.stderr)
    units = END_TO_END_UNITS if not trace else PER_LAYER_UNITS
    result = {
        "correct": not failed and bool(outcomes),
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return info, result


def _untraced_run(wl, seconds, info, setup_samples):
    import calibrate
    from tracer import Tracer

    setup, raw_setup = [], []
    before = calibrate.bracket()
    for _ in range(setup_samples):
        raw_setup.append(measure_setup(wl))
        after = calibrate.bracket()
        setup.append(raw_setup[-1] * calibrate.scale(before, after))
        before = after
    in_process = wl.name != "cli-clips"
    if in_process:
        wl.warm_up()
    outcomes, _, measured = run_rounds(
        wl, seconds, lambda call: wl.execute(call, in_process=in_process)
    )
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

    # Untimed pass over one round: exact work counts, and the reports
    # that every timed report of the same call must equal byte for byte.
    with Tracer() as tracer:
        counted, raws, _ = run_rounds(
            wl, 0.0, lambda call: tracer.run_call(
                lambda c: wl.execute(c, in_process=True), call),
            keep_raws=True,
        )
    validate_raws(wl, raws, outcomes + counted)

    walls = [o.wall_s * o.scale for o in outcomes]
    gains = [o.gain_db for o in outcomes if o.gain_db is not None]
    everything = outcomes + counted
    info.update({
        "samples": len(outcomes),
        "measured_s": measured,
        "setup_samples_s": setup,
        "latency_ms_p50_by_label": {
            label: 1000.0 * statistics.median(
                o.wall_s * o.scale for o in outcomes if o.label == label)
            for label in sorted({o.label for o in outcomes})
        },
        "speed_scale_p50": statistics.median(o.scale for o in outcomes),
        "unscaled": {
            "rtf": rtf(outcomes, scaled=False),
            "latency_ms_p50": 1000.0 * statistics.median(o.wall_s for o in outcomes),
            "setup_s": statistics.median(raw_setup),
        },
        "counts": work_counts(tracer),
    })
    metrics = {
        "rtf": rtf(outcomes),
        "latency_ms_p50": 1000.0 * statistics.median(walls),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup),
        "snr_gain_db": statistics.fmean(gains) if gains else 0.0,
        "success_rate": _ratio(sum(o.error is None for o in everything), len(everything)),
    }
    return metrics, everything


def _traced_run(wl, seconds, info):
    from tracer import Tracer

    imports = [import_times_ms() for _ in range(IMPORTTIME_SAMPLES)]
    wl.warm_up()

    def in_process(call):
        return wl.execute(call, in_process=True)

    # Untraced and traced rounds alternate, so that drifts of machine
    # speed fall on both sides of trace.overhead_frac alike.
    tracer = Tracer()
    plain, traced, raws = [], [], []
    start = time.perf_counter()
    pairs = 0
    while True:
        plain += run_rounds(wl, 0.0, in_process)[0]
        with tracer:
            outcomes, first, _ = run_rounds(
                wl, 0.0, lambda call: tracer.run_call(in_process, call), keep_raws=not raws
            )
        traced += outcomes
        raws = raws or first
        pairs += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / pairs > seconds:
            break
    outcomes = plain + traced
    validate_raws(wl, raws, outcomes)

    metrics = layer_metrics(tracer)
    metrics["cli.import_ms"] = statistics.median(i[0] for i in imports)
    metrics["cli.jsonschema_import_ms"] = statistics.median(i[1] for i in imports)
    metrics["trace.overhead_frac"] = rtf(traced) / rtf(plain) - 1.0
    metrics["cli.import_share_hard"] = 0.0
    if wl.name == "cli-clips":
        # Fresh-process universal-hard requests: the import's share of the
        # slowest one, each timed as the median of three.
        request_ms = []
        for call in (c for c in wl.round() if c.label == "universal-hard"):
            runs = [checked_call(wl, call, wl.execute)[0] for _ in range(3)]
            outcomes += runs
            request_ms.append(1000.0 * statistics.median(o.wall_s for o in runs))
        metrics["cli.import_share_hard"] = metrics["cli.import_ms"] / max(request_ms)
    info.update({"samples": len(traced), "untraced_samples": len(plain),
                 "counts": work_counts(tracer)})
    return metrics, outcomes


PER_LAYER_UNITS = {
    "wavelet.analysis_ms": "ms",
    "wavelet.synthesis_ms": "ms",
    "wavelet.self_ms": "ms",
    "wavelet.calls": "count",
    "wavelet.coeff_ops": "count",
    "wavelet.synthesis_passes_per_frame": "ratio",
    "stats.self_ms": "ms",
    "stats.histograms": "count",
    "stats.histograms_per_frame": "ratio",
    "stats.values_binned": "count",
    "thresholding.self_ms": "ms",
    "thresholding.select_band_ms": "ms",
    "thresholding.calls": "count",
    "thresholding.zeroed_frac": "fraction",
    "framing.self_ms": "ms",
    "framing.frames": "count",
    "pipeline.self_ms": "ms",
    "pipeline.noise_profile_ms": "ms",
    "pipeline.vuv_ms": "ms",
    "pipeline.unvoiced_frac": "fraction",
    "report.self_ms": "ms",
    "report.to_json_ms": "ms",
    "report.bytes_per_audio_s": "B/s",
    "report.records": "count",
    "signal_io.self_ms": "ms",
    "signal_io.read_wav_ms": "ms",
    "signal_io.write_wav_ms": "ms",
    "signal_io.clipped_samples": "count",
    "experiments.self_ms": "ms",
    "cli.self_ms": "ms",
    "cli.import_ms": "ms",
    "cli.jsonschema_import_ms": "ms",
    "cli.import_share_hard": "ratio",
    "band.stats_thresholding_to_wavelet": "ratio",
    "trace.wall_ms": "ms",
    "trace.remainder_ms": "ms",
    "trace.overhead_frac": "ratio",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("preset-sweep", "long-hard-mad", "cli-clips"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "wpdenoise", "__init__.py")):
        print(f"error: no wpdenoise sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = "1"
    # The calibration kernel and the work it scales (CLI children too)
    # share one CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.environ.pop("WAVEDENOISE_SEED", None)
    sys.path.insert(0, SRC)
    import wpdenoise

    if not os.path.abspath(wpdenoise.__file__).startswith(SRC + os.sep):
        print(f"error: imported wpdenoise from {wpdenoise.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    info, result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
