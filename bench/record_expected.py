"""Record the expected outputs that the benchmark checks every call against.

    python3 bench/record_expected.py

Writes bench/expected_outputs.json: input and output SNR of every
(method, preset seed) of preset-sweep and of every long-hard-mad
input, the report SNRs of every cli-clips denoise request and the
divergence sum of every analyze request. Run it only at a commit whose
output quality is the reference; the table was recorded at the commit
that introduced the benchmark.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

import workloads as w  # noqa: E402
from wpdenoise import cli, experiments, pipeline  # noqa: E402
from wpdenoise.signal_io import SignalBuffer  # noqa: E402


def _snrs(clean, noisy, out) -> dict:
    return {"input_snr_db": w.snr_db(clean, noisy), "output_snr_db": w.snr_db(clean, out)}


def record() -> dict:
    preset = {}
    for seed in w.PRESET_POOL:
        for method in w.METHODS:
            clean, noisy, out, _ = experiments.run_preset("sine-0db", method, seed)
            preset[f"{method}/{seed}"] = _snrs(clean.samples, noisy.samples, out.samples)

    long = {}
    for variant in range(w.VARIANTS):
        for i in range(w.LONG_INPUTS):
            clean, noisy = w.speech_like(
                w.rng_for("long-hard-mad", variant, i), int(w.LONG_SECONDS * w.RATE)
            )
            out, _ = pipeline.enhance(SignalBuffer(noisy, w.RATE), w.long_config(variant))
            long[f"{variant}/{i}"] = _snrs(clean, noisy, out.samples)

    clips = {}
    workdir = os.path.join(os.path.dirname(BENCH_DIR), ".bench_work", "record")
    os.makedirs(workdir, exist_ok=True)
    try:
        for variant in range(w.VARIANTS):
            for call in w.write_clips(variant, workdir):
                argv, _, _, report_path = call.args
                if cli.run(list(argv)) != 0:
                    raise RuntimeError(f"{call.key}: CLI request failed")
                with open(report_path, encoding="utf-8") as fh:
                    report = json.load(fh)
                if call.label == "analyze":
                    clips[call.key] = {"divergence_sum": math.fsum(report["subband_divergence"])}
                else:
                    clips[call.key] = {k: report[k] for k in ("input_snr_db", "output_snr_db")}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"preset-sweep": preset, "long-hard-mad": long, "cli-clips": clips}


if __name__ == "__main__":
    table = record()
    with open(w.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
