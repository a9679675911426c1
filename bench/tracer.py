"""Layer-boundary trace, recorded from outside the program.

The tracer replaces the public functions of wpdenoise as their caller
modules see them (``pipeline.wp_decompose``, ``cli.read_wav``,
``CoefficientTree.with_leaves``, ...) with wrappers that record a span
per call: name, start, end, parent span and workload call id. A span's
self time is its duration minus the time of its child spans. Work
counts (coefficient operations, histograms, bytes serialised, ...) are
taken at the same boundaries from argument and result sizes.

Boundaries that a later version of the program no longer has are
skipped, so the benchmark keeps running across refactors; the layer's
time then shows up in its caller's self time.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter

import numpy as np

LAYERS = (
    "signal_io", "framing", "wavelet", "stats", "thresholding",
    "pipeline", "report", "experiments", "cli",
)

_CLIP_HIGH = 1.0 - 1.0 / 32768.0


def _tree_ops(tree) -> int:
    return tree.depth * tree.frame_len * len(tree.filter)


def _count_decompose(c, args, kwargs, result):
    frame, fb, depth = args[0], args[1], args[2] if len(args) > 2 else kwargs["depth"]
    c["wavelet.analyses"] += 1
    c["wavelet.coeff_ops"] += depth * np.size(frame) * len(fb)


def _count_analysis_step(c, args, kwargs, result):
    c["wavelet.coeff_ops"] += np.size(args[0]) * len(args[1])


def _count_synthesis_step(c, args, kwargs, result):
    c["wavelet.coeff_ops"] += 2 * np.size(args[0]) * len(args[2])


def _count_reconstruct(c, args, kwargs, result):
    c["wavelet.synthesis_passes"] += 1
    c["wavelet.coeff_ops"] += _tree_ops(args[0])


def _count_make_frames(c, args, kwargs, result):
    c["framing.frames"] += result.n_frames


def _count_overlap_add(c, args, kwargs, result):
    c["framing.ola_frames"] += args[0].n_frames


def _count_histogram(c, args, kwargs, result):
    c["stats.histograms"] += 1
    c["stats.values_binned"] += np.size(args[0])


def _count_zeroed(c, coeffs, result):
    coeffs = np.asarray(coeffs)
    c["thresholding.coeffs"] += coeffs.size
    c["thresholding.zeroed"] += int(np.count_nonzero((result == 0.0) & (coeffs != 0.0)))


def _count_rule(c, args, kwargs, result):
    _count_zeroed(c, args[0], result)


def _count_apply(c, args, kwargs, result):
    _count_zeroed(c, args[1], result)


def _count_vuv(c, args, kwargs, result):
    c["pipeline.vuv_frames"] += 1
    c["pipeline.unvoiced_frames"] += result == "unvoiced"


def _count_to_json(c, args, kwargs, result):
    frames = getattr(args[0], "frames", None) or []
    c["report.bytes"] += len(result.encode("utf-8"))
    c["report.records"] += len(frames) + sum(len(getattr(f, "subbands", ())) for f in frames)


def _count_write_wav(c, args, kwargs, result):
    samples = args[1].samples
    c["signal_io.clipped_samples"] += int(
        np.count_nonzero((samples < -1.0) | (samples > _CLIP_HIGH))
    )


# (caller module or "module.Class", attribute, span name "<layer>.<function>",
#  counter). The first three are the benchmark's own entry points.
BOUNDARIES = (
    ("experiments", "run_preset", "experiments.run_preset", None),
    ("pipeline", "enhance", "pipeline.enhance", None),
    ("cli", "run", "cli.run", None),
    ("experiments", "sine_0db_material", "experiments.sine_0db_material", None),
    ("experiments", "enhance", "pipeline.enhance", None),
    ("experiments", "sine_wave", "signal_io.sine_wave", None),
    ("experiments", "white_noise", "signal_io.white_noise", None),
    ("experiments", "mix_at_snr", "signal_io.mix_at_snr", None),
    ("cli", "run_preset", "experiments.run_preset", None),
    ("cli", "enhance", "pipeline.enhance", None),
    ("cli", "read_wav", "signal_io.read_wav", None),
    ("cli", "write_wav", "signal_io.write_wav", _count_write_wav),
    ("cli", "make_frames", "framing.make_frames", _count_make_frames),
    ("cli", "filter_bank", "wavelet.filter_bank", None),
    ("cli", "wp_decompose", "wavelet.wp_decompose", _count_decompose),
    ("cli", "build_histogram", "stats.build_histogram", _count_histogram),
    ("cli", "shared_edges", "stats.shared_edges", None),
    ("cli", "to_probability", "stats.to_probability", None),
    ("cli", "symmetric_divergence", "stats.symmetric_divergence", None),
    ("cli", "ratio_profile", "stats.ratio_profile", None),
    ("pipeline", "estimate_noise_profile", "pipeline.estimate_noise_profile", None),
    ("pipeline", "classify_vuv", "pipeline.classify_vuv", _count_vuv),
    ("pipeline", "make_frames", "framing.make_frames", _count_make_frames),
    ("pipeline", "overlap_add", "framing.overlap_add", _count_overlap_add),
    ("pipeline", "filter_bank", "wavelet.filter_bank", None),
    ("pipeline", "wp_decompose", "wavelet.wp_decompose", _count_decompose),
    ("pipeline", "wp_reconstruct", "wavelet.wp_reconstruct", _count_reconstruct),
    ("pipeline", "analysis_step", "wavelet.analysis_step", _count_analysis_step),
    ("pipeline", "synthesis_step", "wavelet.synthesis_step", _count_synthesis_step),
    ("wavelet.CoefficientTree", "with_leaves", "wavelet.with_leaves", _count_reconstruct),
    ("pipeline", "bin_count", "stats.bin_count", None),
    ("pipeline", "build_histogram", "stats.build_histogram", _count_histogram),
    ("pipeline", "to_probability", "stats.to_probability", None),
    ("pipeline", "entropy", "stats.entropy", None),
    ("pipeline", "symmetric_divergence", "stats.symmetric_divergence", None),
    ("pipeline", "ratio_profile", "stats.ratio_profile", None),
    ("thresholding", "zero_bin_index", "stats.zero_bin_index", None),
    ("pipeline", "estimate_sigma", "thresholding.estimate_sigma", None),
    ("pipeline", "select_band", "thresholding.select_band", None),
    ("pipeline", "universal_threshold", "thresholding.universal_threshold", None),
    ("thresholding.ThresholdSpec", "apply", "thresholding.apply", _count_apply),
    ("pipeline", "hard_threshold", "thresholding.hard_threshold", _count_rule),
    ("pipeline", "soft_threshold", "thresholding.soft_threshold", _count_rule),
    ("pipeline", "band_hard_threshold", "thresholding.band_hard_threshold", _count_rule),
    ("pipeline", "snr_db", "signal_io.snr_db", None),
    ("report.Report", "to_json", "report.to_json", _count_to_json),
    ("report.Report", "write", "report.write", None),
)

ANALYSIS_SPANS = ("wavelet.wp_decompose", "wavelet.analysis_step")
SYNTHESIS_SPANS = ("wavelet.wp_reconstruct", "wavelet.with_leaves", "wavelet.synthesis_step")


def _resolve(owner: str):
    module, _, cls = owner.partition(".")
    obj = importlib.import_module(f"wpdenoise.{module}")
    return getattr(obj, cls, None) if cls else obj


class Tracer:
    """Spans and counts for calls made while installed (a context manager).

    ``spans`` holds (name, start, end, parent index, call id, self seconds)
    tuples; ``counts`` the work counters; ``calls`` (label, audio samples,
    traced wall seconds) for each workload call, indexed by call id.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = Counter()
        self.calls = []
        self._stack = []  # [span index, child seconds]
        self._saved = []

    def wrap(self, name: str, fn, counter=None):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][0] if stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            entry = [index, 0.0]
            stack.append(entry)
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = tracer.clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                tracer.spans[index] = (
                    name, start, end, parent, len(tracer.calls), end - start - entry[1]
                )
            if counter is not None:
                counter(tracer.counts, args, kwargs, result)
            return result

        return traced

    def __enter__(self):
        for owner, attr, name, counter in BOUNDARIES:
            target = _resolve(owner)
            original = target is not None and target.__dict__.get(attr)
            if original:
                self._saved.append((target, attr, original))
                setattr(target, attr, self.wrap(name, original, counter))
        return self

    def __exit__(self, *exc):
        for target, attr, original in reversed(self._saved):
            setattr(target, attr, original)
        self._saved.clear()
        return False

    def run_call(self, execute, call):
        """Run one workload call; returns execute's result."""
        t0 = self.clock()
        result = execute(call)
        self.calls.append((call.label, call.audio_samples, self.clock() - t0))
        return result

    # ------------------------------------------------------------ metrics

    def self_seconds(self, calls=None) -> dict:
        """Self seconds per layer, over the given call ids (default: all)."""
        totals = dict.fromkeys(LAYERS, 0.0)
        for name, _, _, _, call_id, self_s in self.spans:
            if calls is None or call_id in calls:
                layer = name.partition(".")[0]
                totals[layer] = totals.get(layer, 0.0) + self_s
        return totals

    def inclusive_seconds(self, names) -> float:
        return sum(end - start for name, start, end, *_ in self.spans if name in names)

    def self_of(self, names) -> float:
        return sum(s[5] for s in self.spans if s[0] in names)

    def span_count(self, layer: str) -> int:
        prefix = layer + "."
        return sum(1 for s in self.spans if s[0].startswith(prefix))
