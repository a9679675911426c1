"""tools/: the output digests every output-preserving change compares, the
decisions among them pinned in tests/output_decisions.txt, the
BENCH_<label>.json speed record, and the code-line count of src/."""

import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _digests() -> str:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "output_digests.py")],
        env=env, capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


@pytest.fixture(scope="module")
def digests() -> str:
    return _digests()


def test_output_digests_are_sorted_unique_and_repeatable(digests):
    lines = digests.splitlines()
    assert lines
    for line in lines:  # a case, then the digest of each of its outputs
        assert re.fullmatch(r"\S+( [0-9a-f]{64})+", line), line
    keys = [line.split(" ")[0] for line in lines]
    assert keys == sorted(set(keys))
    # same seeds, same outputs (acceptance criterion 8)
    assert _digests() == digests


def test_output_decisions_are_the_recorded_ones(digests):
    # VUV labels and zero counts do not move with the last bits of a
    # float, so every decisions line is pinned, not only compared with
    # the parent's
    with open(os.path.join(ROOT, "tests", "output_decisions.txt"), encoding="utf-8") as fh:
        recorded = [line for line in fh.read().splitlines() if not line.startswith("#")]
    decisions = [line for line in digests.splitlines() if line.startswith("decisions/")]
    assert len(recorded) == 23
    assert decisions == recorded


def _bench_stages(src, out_dir, *args):
    env = dict(os.environ, PYTHONPATH=str(src), GIT_CEILING_DIRECTORIES=str(out_dir))
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "bench_stages.py"), "--label", "tiny",
         "--repeats", "1", "--long-seconds", "1", "--out-dir", str(out_dir), *args],
        env=env, capture_output=True, text=True,
    )


def test_bench_stages_writes_its_record_at_a_tiny_size(tmp_path):
    out = _bench_stages(os.path.join(ROOT, "src"), tmp_path, "--commit", "abc123")
    assert out.returncode == 0, out.stderr
    with open(tmp_path / "BENCH_tiny.json", encoding="utf-8") as fh:
        record = json.load(fh)
    assert record["label"] == "tiny"
    assert record["machine"]["nproc"] >= 1 and record["machine"]["numpy"]
    assert record["machine"]["commit"] == "abc123"
    methods = ("universal-hard", "universal-soft", "band")
    sine = record["sine_0db"]
    assert sorted(sine["methods"]) == sorted(methods)
    for figures in sine["methods"].values():
        assert 0 < figures["enhance_rtf"]["best"] <= figures["enhance_rtf"]["median"]
        assert figures["to_json_ms"]["best"] > 0 and figures["to_json_bytes"] > 10**6
    assert sine["frames_text_universal_hard"]["frames"] == 312
    assert sine["material_ms"]["best"] > 0
    assert record["report_15s_mad"]["frames_text_universal_hard"]["frames"] == 937
    memory = record["memory_15s"]
    assert memory["audio_s"] == 15.0
    assert memory["leaves_mb"] == 937 * 512 * 8 / 2**20
    assert memory["samples_mb"] == 15 * 16000 * 8 / 2**20
    assert sorted(memory["calls"]) == sorted(
        f"{method}/{mode}" for method in methods for mode in ("mad", "leading_silence"))
    for figures in memory["calls"].values():
        # every call holds its leaves at least
        assert figures["tracemalloc_peak_kb"]["min"] > memory["leaves_mb"] * 2**10
        assert figures["minor_faults_per_call"] >= 0
    # analyze holds both sides' leaves
    assert memory["analyze_tracemalloc_peak_kb"]["min"] > 2 * memory["leaves_mb"] * 2**10
    # the peaks move by a few kB between fresh interpreters, so each is
    # the spread of three, unrounded
    peaks = [figures["tracemalloc_peak_kb"] for figures in memory["calls"].values()]
    for peak in [*peaks, memory["analyze_tracemalloc_peak_kb"]]:
        assert sorted(peak) == ["max", "median", "min"]
        assert peak["min"] <= peak["median"] <= peak["max"]
    long = record["speech_like"]
    assert long["audio_s"] == 1.0
    assert long["frames"] == 62  # 1 s at 16 kHz in frames of 512, hop 256
    assert long["tracemalloc_peak_kb_universal_hard_mad"] > 0
    assert sorted(long["configs"]) == sorted(
        f"{method}/{mode}" for method in methods for mode in ("mad", "leading_silence"))
    for figures in long["configs"].values():
        calls = figures["calls"]
        assert [call.pop("call") for call in calls] == [
            "pipeline._analyse", "pipeline.classify_vuv", "pipeline._sweep",
            "wavelet._synthesis", "framing._overlap_add"]
        for timing in [figures["enhance_ms"], *calls]:
            assert 0 < timing["best"] <= timing["median"] and timing["n"] == 1
        medians = sum(call["median"] for call in calls)
        assert figures["calls_median_share"] == medians / figures["enhance_ms"]["median"]
    assert record["cli_import_s"]["best"] > 0
    # a fresh request, and the interpreter's start and numpy's import
    # that it includes
    for key in ("cli_request_ms", "python_pass_ms", "python_import_numpy_ms"):
        assert 0 < record[key]["best"] <= record[key]["median"] and record[key]["n"] == 1
    assert record["python_pass_ms"]["best"] < record["cli_request_ms"]["best"]


def test_bench_stages_replay_ends_with_the_samples_of_enhance():
    sys.path.insert(0, os.path.join(ROOT, "tools"))
    try:
        import bench_stages
    finally:
        sys.path.remove(os.path.join(ROOT, "tools"))
    from wpdenoise.pipeline import EnhanceConfig
    from wpdenoise.signal_io import SignalBuffer

    rate = bench_stages.RATE  # 1 s of bench/workloads.py's speech-like input
    noisy = SignalBuffer(
        bench_stages.workloads.speech_like(np.random.default_rng(37), rate)[1], rate)
    config = EnhanceConfig(method="band", noise_estimation="mad")
    calls = bench_stages.enhance_calls(noisy, config)
    figures = bench_stages.replay(noisy, config, calls, 1)
    assert [figure["call"] for figure in figures] == [name for name, _ in calls]
    # a stage list gone stale (here a synthesis that rebuilds nothing)
    # raises instead of timing a call enhance does not make
    calls[3] = ("wavelet._synthesis", lambda leaves: leaves.reshape(len(leaves), -1))
    with pytest.raises(RuntimeError, match="do not give the samples of enhance"):
        bench_stages.replay(noisy, config, calls, 1)


def test_bench_stages_outside_a_git_checkout_needs_the_commit(tmp_path):
    # a copy of the package outside any checkout, as `git archive` gives
    shutil.copytree(os.path.join(ROOT, "src", "wpdenoise"), tmp_path / "wpdenoise")
    out = _bench_stages(tmp_path, tmp_path)
    assert out.returncode == 2
    assert "--commit" in out.stderr and "not in a git checkout" in out.stderr
    assert not (tmp_path / "BENCH_tiny.json").exists()


_TINY_MODULE = '''"""A module docstring,
over two lines."""

import os  # a comment after code counts


def f(x):
    """A function docstring."""
    # a comment line does not count
    y = (x +
         1)

    return "not a docstring"


class C:
    """A class docstring."""

    z = """a string
value"""
'''


def test_code_lines_counts_lines_holding_code(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "tiny.py").write_text(_TINY_MODULE, encoding="utf-8")
    (tmp_path / "empty.py").write_text('"""Only a docstring."""\n', encoding="utf-8")
    (tmp_path / "notes.txt").write_text("x = 1\n", encoding="utf-8")
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "code_lines.py"), str(tmp_path)],
        capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
    # import, def, two lines of y, return, class, two lines of z
    assert out.stdout.splitlines() == ["empty.py 0", os.path.join("pkg", "tiny.py") + " 8",
                                       "total 8"]
