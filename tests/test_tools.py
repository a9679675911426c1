"""tools/: the output digests every output-preserving change compares, the
decisions among them pinned in tests/output_decisions.txt, the
BENCH_<label>.json speed record, and the code-line count of src/."""

import functools
import json
import os
import re
import shutil
import subprocess
import sys
import types

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
    assert len(recorded) == 26
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
    machine = record["machine"]
    assert machine["nproc"] >= 1 and machine["numpy"]
    assert machine["commit"] == "abc123"
    assert machine["cpu_model"] is None or machine["cpu_model"]
    assert sorted(machine["calibrate_kernel_s"]) == ["after", "before"]
    assert all(seconds > 0 for seconds in machine["calibrate_kernel_s"].values())
    methods = ("universal-hard", "universal-soft", "band")
    stages = ["pipeline._analyse", "pipeline.classify_vuv", "pipeline._sweep",
              "wavelet._synthesis", "framing._overlap_add"]

    def check_split(whole, parts):
        # every part is timed inside the same calls as the whole
        for timing in [whole, *parts]:
            assert 0 < timing["best"] <= timing["median"] and timing["n"] == 1
        assert sum(part["median"] for part in parts) <= whole["median"]

    def check_calls(calls):
        assert [call.pop("call") for call in calls] == stages
        return calls

    sine = record["sine_0db"]
    assert sine["frames"] == 312
    assert sorted(sine["methods"]) == sorted(methods)
    for figures in sine["methods"].values():
        check_split(figures["whole_ms"], [figures["sine_0db_material_ms"],
                                          figures["enhance_ms"], figures["to_json_ms"]])
        check_split(figures["enhance_ms"], check_calls(figures["calls"]))
        check_split(figures["to_json_ms"], [figures["_frames_text_ms"]])
        rtf = figures["enhance_rtf"]["median"] * sine["audio_s"] * 1e3
        assert rtf == pytest.approx(figures["enhance_ms"]["median"])
        assert figures["to_json_bytes"] > 10**6
    report = record["report_15s_mad"]
    assert report["frames"] == 937 and report["to_json_bytes"] > 10**6
    check_split(report["to_json_ms"], [report["_frames_text_ms"]])
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
    long = record["speech_like"]
    # the peaks move by a few kB between fresh interpreters, so each is
    # the spread of three, unrounded
    peaks = [figures["tracemalloc_peak_kb"] for figures in memory["calls"].values()]
    for peak in [*peaks, memory["analyze_tracemalloc_peak_kb"],
                 long["tracemalloc_peak_kb_universal_hard_mad"]]:
        assert sorted(peak) == ["max", "median", "min"]
        assert 0 < peak["min"] <= peak["median"] <= peak["max"]
    assert long["audio_s"] == 1.0
    assert long["frames"] == 62  # 1 s at 16 kHz in frames of 512, hop 256
    assert sorted(long["configs"]) == sorted(
        f"{method}/{mode}" for method in methods for mode in ("mad", "leading_silence"))
    for figures in long["configs"].values():
        check_split(figures["enhance_ms"], check_calls(figures["calls"]))
        # the stages lie inside the call, so their sum is at most its time
        assert 0 < figures["calls_share"] <= 1
    # a fresh request, and the interpreter's start, numpy's import and the
    # CLI's import that it includes, each a fresh process of the same rounds
    assert "cli_import_s" not in record
    for key in ("cli_request_ms", "python_pass_ms", "python_import_numpy_ms",
                "python_import_cli_ms"):
        assert 0 < record[key]["best"] <= record[key]["median"] and record[key]["n"] == 1
    assert record["python_pass_ms"]["best"] < record["cli_request_ms"]["best"]


@pytest.fixture(scope="module")
def bench_stages():
    sys.path.insert(0, os.path.join(ROOT, "tools"))
    try:
        import bench_stages
    finally:
        sys.path.remove(os.path.join(ROOT, "tools"))
    return bench_stages


def _boundary_objects() -> tuple:
    # split wraps these in the pytest process, so each must be put back
    from wpdenoise import experiments, pipeline
    from wpdenoise.report import Report

    return pipeline._sweep, experiments.enhance, Report._frames_text


def _are(objects, originals) -> bool:
    return all(now is before for now, before in zip(objects, originals, strict=True))


def test_split_of_a_boundary_that_does_not_resolve_raises(bench_stages):
    from wpdenoise import pipeline

    originals = _boundary_objects()
    boundaries = {**bench_stages.PRESET, "pipeline._gone": (pipeline, "_gone")}
    with pytest.raises(AttributeError, match="_gone"):
        bench_stages.split({"nothing": lambda: None}, boundaries, 1)
    assert _are(_boundary_objects(), originals)


@pytest.mark.parametrize("block", ["speech_like", "sine_0db"])
def test_split_of_a_stage_the_call_skips_raises_naming_it(bench_stages, block):
    from wpdenoise import experiments, pipeline
    from wpdenoise.pipeline import EnhanceConfig

    originals = _boundary_objects()
    config = EnhanceConfig(seed=1, noise_estimation="mad", vuv_enabled=False)
    noisy = bench_stages.speech_like_input(1.0)  # bench/workloads.py's, 1 s

    def call():
        if block == "speech_like":
            return pipeline.enhance(noisy, config)
        return experiments.run_preset("sine-0db", config=config)[3].to_json()

    boundaries = bench_stages.STAGES if block == "speech_like" else bench_stages.PRESET
    # a list gone stale (here a stage the call does not make) raises
    # instead of timing a call that does not run
    with pytest.raises(RuntimeError, match=r"^pipeline\.classify_vuv entered 0 times "
                                           r"in a call of no_vuv$"):
        bench_stages.split({"no_vuv": call}, boundaries, 1)
    assert _are(_boundary_objects(), originals)
    # the boundaries the call enters are timed inside the same calls
    boundaries = {name: boundary for name, boundary in boundaries.items()
                  if name != "pipeline.classify_vuv"}
    times = bench_stages.split({"no_vuv": call}, boundaries, 2)["no_vuv"]
    assert sorted(times) == sorted(["whole", *boundaries])
    assert all(len(seconds) == 2 for seconds in times.values())
    for run in range(2):
        stages = [times[name][run] for name in bench_stages.STAGES if name in boundaries]
        assert 0 < sum(stages) <= times["whole"][run]
    assert _are(_boundary_objects(), originals)


def test_split_times_its_calls_in_rounds(bench_stages):
    log = []
    owner = types.SimpleNamespace(step=lambda label: log.append(f"{label}.step"))

    def call(label, step=True):
        log.append(label)
        if step:
            owner.step(label)

    original = owner.step
    calls = {"A": functools.partial(call, "A"), "B": functools.partial(call, "B")}
    times = bench_stages.split(calls, {"step": (owner, "step")}, 3)
    # an untimed round, then every call once a round, in turn
    assert log == ["A", "A.step", "B", "B.step"] * 4
    assert sorted(times) == ["A", "B"]
    for figures in times.values():
        assert sorted(figures) == ["step", "whole"]
        assert all(len(seconds) == 3 for seconds in figures.values())
        assert all(0 < step <= whole for step, whole in zip(figures["step"], figures["whole"]))
    assert owner.step is original
    # a boundary one call skips names both, and every original is put back
    calls["B"] = functools.partial(call, "B", step=False)
    with pytest.raises(RuntimeError, match="^step entered 0 times in a call of B$"):
        bench_stages.split(calls, {"step": (owner, "step")}, 3)
    assert owner.step is original


def test_fresh_interpreters_cache_bytecode_outside_the_tree(bench_stages, tmp_path,
                                                           monkeypatch):
    monkeypatch.setenv("WAVEDENOISE_SEED", "5")
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    env = bench_stages.fresh_env(str(tmp_path))
    assert env["PYTHONPATH"] == os.path.dirname(bench_stages.PACKAGE_DIR)
    assert env["PYTHONPYCACHEPREFIX"] == str(tmp_path) and "WAVEDENOISE_SEED" not in env
    # the child loads the package from bytecode it wrote under the prefix,
    # not from a __pycache__ that the measured tree may or may not hold
    code = "import wpdenoise.cli as cli; print(cli.__file__); print(cli.__cached__)"
    source, cached = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                    capture_output=True, text=True).stdout.split()
    assert source.startswith(bench_stages.PACKAGE_DIR)
    assert cached.startswith(str(tmp_path) + os.sep) and os.path.isfile(cached)
    # whether the timed rounds compile from source is in the record
    for value in (None, "1"):
        if value:
            monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", value)
        assert bench_stages.machine({}, {})["PYTHONDONTWRITEBYTECODE"] == value


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
