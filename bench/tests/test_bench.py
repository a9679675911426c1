"""Self-tests of the benchmark.

    python3 -m pytest bench/tests -q

They check that the trace accounts for all traced wall time, that a
corrupted output is caught and counted, that every workload completes a
tiny-input pass in both modes, that work counts repeat exactly, that
the recorded SNR table agrees with the frozen criterion-7 values, and
that the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def _tiny(workload, trace, seed=3):
    return run.run_benchmark(workload, seed, 0.5, trace, tiny=True, setup_samples=1)


def _values(result):
    return {k: v["value"] for k, v in result["metrics"].items()}


def _layer_sum(metrics):
    return sum(metrics[f"{layer}.self_ms"] for layer in tracing.LAYERS)


class _Tick:
    """Clock that advances one second per reading."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_self_times_and_remainder_sum_to_traced_wall():
    tr = tracing.Tracer(clock=_Tick())
    leaf = tr.wrap("stats.build_histogram", lambda: None)
    inner = tr.wrap("wavelet.wp_decompose", lambda: (leaf(), leaf()))
    outer = tr.wrap("pipeline.enhance", lambda: (inner(), leaf()))
    call = workloads.Call("k", "band", 16000, ())
    tr.run_call(lambda c: (outer(), outer()), call)
    metrics = run.layer_metrics(tr)
    # Spans last: leaf 1, inner 5 (self 3), outer 9 (self 3); the call 21.
    assert metrics["trace.wall_ms"] == 1000.0 * 21
    assert metrics["stats.self_ms"] == 1000.0 * 6
    assert metrics["wavelet.self_ms"] == 1000.0 * 6
    assert metrics["pipeline.self_ms"] == 1000.0 * 6
    assert metrics["trace.remainder_ms"] == 1000.0 * 3
    assert _layer_sum(metrics) + metrics["trace.remainder_ms"] == metrics["trace.wall_ms"]
    assert metrics["band.stats_thresholding_to_wavelet"] == 1.0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_pass_of_every_workload(workload):
    info, result = _tiny(workload, trace=False)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(math.isfinite(v) and v > 0 for v in _values(result).values())
    assert info["counts"]["wavelet.coeff_ops"] > 0

    info, result = _tiny(workload, trace=True)
    assert result["correct"]
    metrics = _values(result)
    assert set(metrics) == set(run.PER_LAYER_UNITS)
    assert math.isclose(
        _layer_sum(metrics) + metrics["trace.remainder_ms"],
        metrics["trace.wall_ms"], rel_tol=1e-9,
    )
    assert metrics["wavelet.synthesis_passes_per_frame"] == 2.0
    assert metrics["cli.import_ms"] > metrics["cli.jsonschema_import_ms"] > 0


def test_work_counts_repeat_exactly():
    first = _tiny("cli-clips", trace=False)[0]["counts"]
    again = _tiny("cli-clips", trace=False)[0]["counts"]
    assert first == again


@pytest.mark.parametrize(
    "corrupt",
    [lambda x: np.where(np.arange(len(x)) == 7, np.nan, x), lambda x: x[:-1]],
    ids=["nan", "short"],
)
def test_corrupted_output_is_caught_and_counted(monkeypatch, corrupt):
    execute = workloads.LongHardMad.execute

    def corrupted(self, call, in_process=True):
        wall, (out, report) = execute(self, call, in_process)
        return wall, (corrupt(out.copy()), report)

    monkeypatch.setattr(workloads.LongHardMad, "execute", corrupted)
    _, result = _tiny("long-hard-mad", trace=False)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert _values(result)["success_rate"] == 0.0


def test_truncated_wav_and_invalid_report_are_caught(tmp_path):
    wl = workloads.CliClips(3, str(tmp_path), tiny=True)
    call = next(c for c in wl.round() if c.label == "universal-hard")
    _, out_path, report_path = call.args[1:]
    outcome, raw = run.checked_call(wl, call, lambda c: wl.execute(c, in_process=True))
    assert outcome.error is None

    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    report["frames"][0]["vuv"] = "loud"
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    run.validate_raws(wl, [(call, raw)], [outcome])
    assert "invalid report" in outcome.error

    workloads.write_wav(out_path, np.zeros(call.audio_samples - 1))
    assert "output length" in wl.check(call, raw).error


def test_expected_table_matches_frozen_criterion_7():
    sys.path.insert(0, os.path.join(ROOT, "tests"))
    from test_acceptance import _FROZEN_IMPROVEMENTS_DB

    table = workloads.load_expected("preset-sweep")
    for (method, seed), frozen in _FROZEN_IMPROVEMENTS_DB.items():
        snrs = table[f"{method}/{seed}"]
        gain = snrs["output_snr_db"] - snrs["input_snr_db"]
        assert abs(gain - frozen) <= 5e-7, (method, seed)


def test_refuses_to_run_without_sources():
    bare = os.path.join(ROOT, ".bench_work", f"bare-{os.getpid()}")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "cli-clips", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
            env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
