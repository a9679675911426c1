"""Machine-speed calibration for the benchmark's wall times.

The CPU this benchmark runs on changes speed by up to 1.7x for tens of
seconds at a time. A pure-Python loop of fixed work took between 0.19
and 0.38 s within one minute. Such swings are far wider than any bound a
regression check can use. So every timed call is bracketed by a fixed
calibration kernel, and its wall time is scaled by REFERENCE_KERNEL_S /
(mean kernel time before and after). The result is the time the call
would take at a fixed reference speed.

The kernel is the benchmark's own frozen copy of the seed's per-frame
work: a db4 packet analysis and synthesis of 512-sample frames by
gather and matrix product, subband histograms and small record objects.
It shares no code with wpdenoise, so a change to the program does not
move it. Its mix of interpreter overhead and small numpy calls is close
to the program's. Over 25 s windows of the preset workload this scaling
cut the spread of the mean call time from 0.20 to 0.05.

Single kernel runs jitter, and a long call may outlast a speed phase,
so each bracket holds at least two kernel runs, and more for long calls
(about 5% of the previous call's time); a call is scaled by the median
of the brackets before and after it.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy as np

# Kernel seconds at the reference speed: the median on the 2-core x86_64
# machine where the benchmark was introduced.
REFERENCE_KERNEL_S = 0.025
BRACKET_SHARE = 0.05

_LOWPASS = np.array([
    -0.010597401785069032, 0.0328830116668852, 0.030841381835560764,
    -0.18703481171909309, -0.027983769416859854, 0.6308807679298589,
    0.7148465705529157, 0.2303778133088965,
])
_HIGHPASS = (-1.0) ** np.arange(8) * _LOWPASS[::-1]
_GATHER = {
    n: np.stack([(2 * np.arange(n // 2) + k) % n for k in range(8)])
    for n in (512, 256, 128, 64)
}
_FRAMES = np.random.default_rng(0).standard_normal((20, 512))
_EDGES = np.linspace(-3.0, 3.0, 6)


@dataclass
class _Record:
    peak: float
    nonzero: int


def _frame(x: np.ndarray) -> None:
    nodes = [x]
    for _ in range(4):
        split = []
        for node in nodes:
            seg = node[_GATHER[len(node)]]
            split += [_LOWPASS @ seg, _HIGHPASS @ seg]
        nodes = split
    for leaf in nodes:
        np.histogram(np.clip(leaf, -3.0, 3.0), bins=_EDGES)
        _Record(float(np.max(np.abs(leaf))), int(np.count_nonzero(leaf)))
    for _ in range(4):
        merged = []
        for a, d in zip(nodes[::2], nodes[1::2]):
            idx = _GATHER[2 * len(a)]
            out = np.zeros(2 * len(a))
            for k in range(8):
                out[idx[k]] += _LOWPASS[k] * a + _HIGHPASS[k] * d
            merged.append(out)
        nodes = merged


def kernel_seconds() -> float:
    """Wall seconds of one run of the calibration kernel."""
    t0 = time.perf_counter()
    for x in _FRAMES:
        _frame(x)
    return time.perf_counter() - t0


def bracket(call_s: float = 0.0) -> list:
    """Kernel seconds of a bracket placed after a call of `call_s` seconds."""
    runs = max(2, round(BRACKET_SHARE * call_s / REFERENCE_KERNEL_S))
    return [kernel_seconds() for _ in range(runs)]


def scale(before: list, after: list) -> float:
    """Factor that turns the wall time of a call between two brackets
    into seconds at the reference speed."""
    return REFERENCE_KERNEL_S / statistics.median(before + after)
