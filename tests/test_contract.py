"""One error contract for library callers, as property tests.

Each entry point is fed adversarial values: huge ints, +-1e308,
subnormals, NaN and inf, bools, numpy scalars, 0-d and empty arrays,
lists and strings. A bad argument raises ValueError, never another
exception type, and a good one runs; no numpy warning is emitted either
way. Drawn sizes stay small: at most 2000 samples, frames of at most
128 samples wherever a run is drawn, and coefficient arrays of at most
4 x 4 (leaves of at most 8 x 8 x 8); a huge count, such as
n = 10**5000, is drawn only where nothing of that size is allocated.
"""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import examples

from wpdenoise.pipeline import (
    METHODS, NOISE_MODES, EnhanceConfig, analyze, classify_vuv, enhance, leaf_coefficients,
)
from wpdenoise.framing import WINDOWS
from wpdenoise.signal_io import SignalBuffer
from wpdenoise.stats import (
    Histogram, ProbabilityVector, row_histograms, shared_edges, to_probability,
)
from wpdenoise.thresholding import (
    band_hard_threshold, estimate_sigma, hard_threshold, select_band, semisoft_threshold,
    soft_threshold, universal_threshold,
)
from wpdenoise.wavelet import FILTERS

PROPERTY = settings(max_examples=examples(200), deadline=None)

_EDGE_FLOATS = (1e308, -1e308, 1.7976931348623157e308, 5e-324, -5e-324, 2.2e-308,
                1e-310, 0.0, -0.0, float("inf"), float("-inf"), float("nan"))
_EDGE_INTS = (0, 1, -1, 2**63, -(2**63), 10**400, -(10**400), 10**5000)

floats = st.floats() | st.sampled_from(_EDGE_FLOATS)
ints = st.integers(-(2**70), 2**70) | st.sampled_from(_EDGE_INTS)
numpy_scalars = (
    floats.map(np.float64) | st.integers(-(2**63), 2**63 - 1).map(np.int64)
    | st.booleans().map(np.bool_) | floats.map(np.complex128)
)
small_arrays = hnp.arrays(
    st.sampled_from([np.float64, np.int64, np.bool_, np.complex128]),
    hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=3),
)
adversarial = st.one_of(
    floats, ints, st.booleans(), st.none(), numpy_scalars, small_arrays,
    st.lists(floats | ints, max_size=3), st.text(max_size=6),
    st.sampled_from(WINDOWS + FILTERS + METHODS + NOISE_MODES),
    st.sampled_from(WINDOWS + FILTERS + METHODS + NOISE_MODES).map(np.array),
)


@st.composite
def sample_arrays(draw):
    """200, 700 or 2000 seeded normal samples at a drawn scale, from zero and
    subnormal to near the peak bound, with up to three finite edge
    values (+-1e308, subnormals, 0)."""
    n = draw(st.sampled_from([200, 700, 2000]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    scale = draw(st.sampled_from([1.0, 0.0, 1e-3, 1e-160, 1e-300, 1e-310, 5e-324,
                                  1e150, 1e296, 1e300]))
    x = rng.normal(size=n) * scale
    for _ in range(draw(st.sampled_from([0, 0, 1, 3])) if n else 0):
        x[draw(st.integers(0, n - 1))] = draw(st.floats(allow_nan=False, allow_infinity=False)
                                              | st.sampled_from(_EDGE_FLOATS[:7]))
    return x


def mostly(common, rare):
    """common three times in four, else rare."""
    return st.integers(0, 3).flatmap(lambda k: common if k else rare)


samples = mostly(sample_arrays(), st.lists(floats | ints, max_size=40) | adversarial)
run_samples = mostly(sample_arrays(), samples)  # nine times in sixteen a finite array
rates = mostly(st.sampled_from([16000, 8000]), adversarial)


def _only_value_errors(call):
    """Run call() with every warning raised; return its result or None."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return call()
        except ValueError:
            return None


_VALID = {
    "frame_len": st.sampled_from([32, 64, 128]),
    "hop": st.sampled_from([1, 4, 8, 16]),
    "window": st.sampled_from(WINDOWS),
    "wavelet": st.sampled_from(FILTERS),
    "depth": st.integers(1, 2),
    "method": st.sampled_from(METHODS),
    "vuv_enabled": st.booleans(),
    "entropy_threshold": st.floats(0.0, 3.0),
    "unvoiced_scale": st.floats(0.1, 1.0),
    "noise_estimation": st.sampled_from(NOISE_MODES),
    "silence_ms": st.sampled_from([4.0, 8.0, 16.0]),
    "band_tolerance": st.floats(0.0, 0.1),
    "epsilon": st.sampled_from([1e-12, 1e-3]),
    "seed": st.none() | st.integers(0, 99),
}


@st.composite
def config_kwargs(draw, n_bad):
    """EnhanceConfig arguments with frames of at most 128 samples, split
    at most twice, so that a config drawn runs in milliseconds; up to
    n_bad fields other than frame_len, hop and depth are adversarial,
    and each other one is valid three times in four, else left out."""
    kwargs = {name: draw(_VALID[name]) for name in ("frame_len", "hop", "depth")}
    others = [name for name in _VALID if name not in kwargs]
    bad = draw(st.lists(st.sampled_from(others), max_size=n_bad, unique=True))
    for name in others:
        if name in bad:
            kwargs[name] = draw(adversarial)
        elif draw(mostly(st.just(True), st.just(False))):
            kwargs[name] = draw(_VALID[name])
    return kwargs


@st.composite
def any_config_kwargs(draw):
    """EnhanceConfig arguments, each left out, valid or adversarial."""
    kwargs = {}
    for name, good in _VALID.items():
        choice = draw(st.sampled_from(["default", "valid", "adversarial"]))
        if choice != "default":
            kwargs[name] = draw(good if choice == "valid" else adversarial)
    return kwargs


def _signal(draw_samples, rate):
    return _only_value_errors(lambda: SignalBuffer(draw_samples, rate))


@PROPERTY
@given(kwargs=any_config_kwargs())
def test_enhance_config_raises_only_value_error(kwargs):
    config = _only_value_errors(lambda: EnhanceConfig(**kwargs))
    if config is not None:  # what was accepted is what the report can write
        assert type(config.frame_len) is int and type(config.vuv_enabled) is bool
        assert all(isinstance(getattr(config, name), str)
                   for name in ("window", "wavelet", "method", "noise_estimation"))


@PROPERTY
@given(values=samples, rate=rates)
def test_signal_buffer_raises_only_value_error(values, rate):
    signal = _signal(values, rate)
    if signal is not None:
        assert signal.samples.dtype == np.float64 and signal.samples.ndim == 1
        assert np.all(np.isfinite(signal.samples)) and type(signal.sample_rate_hz) is int


@PROPERTY
@given(kwargs=config_kwargs(n_bad=1), values=run_samples, rate=rates,
       reference=st.sampled_from([None, 0.5, 1e-300, 1e300]))
def test_enhance_raises_only_value_error(kwargs, values, rate, reference):
    # the reference, when given, is the input times a drawn factor
    config = _only_value_errors(lambda: EnhanceConfig(**kwargs))
    noisy = _signal(values, rate)
    if config is None or noisy is None:
        return
    ref = None
    if reference is not None:
        with np.errstate(over="ignore"):
            ref = _signal(noisy.samples * reference, rate)
        if ref is None:
            return
    result = _only_value_errors(lambda: enhance(noisy, config, reference=ref))
    if result is not None:
        out, report = result
        assert len(out) == len(noisy) and np.all(np.isfinite(out.samples))
        _only_value_errors(report.to_json)


@PROPERTY
@given(kwargs=config_kwargs(n_bad=1), noisy=run_samples, noise=run_samples,
       rate=rates)
def test_analyze_raises_only_value_error(kwargs, noisy, noise, rate):
    config = _only_value_errors(lambda: EnhanceConfig(**kwargs))
    signals = [_signal(values, rate) for values in (noisy, noise)]
    if config is None or None in signals:
        return
    report = _only_value_errors(lambda: analyze(*signals, config))
    if report is not None:
        _only_value_errors(report.to_json)


@st.composite
def stats_records(draw):
    """Arguments of the stats records for B <= 4 bins: two value arrays of
    at most 4 x 4 (NaN, inf and the edge floats among them), sorted
    edges (the float extremes among them), counts up to 2**62, even
    probabilities and an epsilon; each valid three times in four, else
    adversarial."""
    n_bins = draw(st.integers(1, 4))
    finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_EDGE_FLOATS[:7])
    shapes = hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=4)
    values = hnp.arrays(np.float64, shapes, elements=floats)
    edges = hnp.arrays(np.float64, n_bins + 1, elements=finite, unique=True)
    valid = {
        "values": values,
        "other_values": values,
        "edges": edges.map(np.sort),
        "counts": hnp.arrays(np.int64, n_bins, elements=st.integers(0, 2**62)),
        "probs": st.just(np.full(n_bins, 1.0 / n_bins)),
        "epsilon": st.sampled_from([1e-12, 2.2250738585072014e-308, 0.1]),
    }
    return {name: draw(mostly(good, adversarial)) for name, good in valid.items()}


@PROPERTY
@given(args=stats_records())
def test_stats_records_raise_only_value_error(args):
    values, edges, epsilon = args["values"], args["edges"], args["epsilon"]
    for given_edges in (None, edges):
        h = _only_value_errors(lambda: row_histograms(values, edges=given_edges))
        if h is not None:  # every value lands in a bin of its row
            assert np.all(h.total == np.shape(values)[-1])
            assert np.all(h.bin_edges[..., 1:] > h.bin_edges[..., :-1])
    shared = _only_value_errors(lambda: shared_edges(values, args["other_values"]))
    if shared is not None:
        assert np.all(np.isfinite(shared)) and np.all(shared[..., 1:] > shared[..., :-1])
    h = _only_value_errors(lambda: Histogram(edges, args["counts"]))
    if h is not None:
        assert h.counts.dtype == np.int64 and np.all(h.counts >= 0)
        p = _only_value_errors(lambda: to_probability(h, epsilon))
        if p is not None:
            assert np.all(p.probs >= epsilon)
            assert np.all(np.abs(np.sum(p.probs, axis=-1) - 1.0) <= 1e-12)
    p = _only_value_errors(lambda: ProbabilityVector(args["probs"], edges, epsilon))
    if p is not None:
        assert p.probs.dtype == np.float64 and p.n_bins == p.bin_edges.shape[-1] - 1


_FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_EDGE_FLOATS[:7])
_LEVELS = st.floats(0.0, 4.0) | st.sampled_from([0.0, 5e-324, 1e-310, 1e300, 1e308,
                                                 1.7976931348623157e308])


@st.composite
def distributions(draw):
    """Two probability vectors on one drawn edge row of B <= 4 bins (one
    or two rows each), or None where the drawn counts make none."""
    n_bins = draw(st.integers(1, 4))
    edges = np.sort(draw(hnp.arrays(np.float64, n_bins + 1, elements=_FINITE, unique=True)))
    shape = draw(st.sampled_from([(n_bins,), (2, n_bins)]))
    eps = draw(st.sampled_from([1e-12, 2.2250738585072014e-308]))
    vectors = []
    for _ in range(2):
        counts = draw(hnp.arrays(np.int64, shape, elements=st.integers(0, 50)))
        vectors.append(_only_value_errors(lambda: to_probability(Histogram(edges, counts), eps)))
    return vectors


@st.composite
def threshold_args(draw):
    """Arguments of the thresholding rules and estimates: coefficient
    arrays of at most 4 x 4 (NaN, inf and the edge floats among them),
    levels from 0 to the float max, signed bounds, counts n up to
    10**400 and two distributions; each valid three times in four,
    else adversarial."""
    shapes = hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=4)
    valid = {
        "coeffs": hnp.arrays(np.float64, shapes, elements=floats),
        "t": _LEVELS,
        "t1": _LEVELS,
        "t2": _LEVELS,
        "lo": floats,
        "hi": floats,
        "n": st.integers(1, 10**6) | st.sampled_from([10**400, np.int64(64)]),
        "tolerance": _LEVELS,
    }
    args = {name: draw(mostly(good, adversarial)) for name, good in valid.items()}
    args["distributions"] = draw(distributions())
    return args


@PROPERTY
@given(args=threshold_args())
def test_thresholding_raises_only_value_error(args):
    coeffs, t1, t2 = args["coeffs"], args["t1"], args["t2"]
    for call in (lambda: hard_threshold(coeffs, args["t"]),
                 lambda: soft_threshold(coeffs, args["t"]),
                 lambda: semisoft_threshold(coeffs, t1, t2),
                 lambda: band_hard_threshold(coeffs, args["lo"], args["hi"])):
        out = _only_value_errors(call)
        # float64 values shaped as the coefficients and thresholds broadcast
        assert out is None or np.asarray(out).dtype == np.float64
    sigma = _only_value_errors(lambda: estimate_sigma(coeffs))
    if sigma is not None:
        assert np.shape(sigma) == np.shape(coeffs)[:-1]
    t = _only_value_errors(lambda: universal_threshold(args["t"], args["n"]))
    if t is not None:
        assert np.all(np.isfinite(t)) and np.all(t >= 0)
    p_ns, p_n = args["distributions"]
    if p_ns is not None and p_n is not None:
        band = _only_value_errors(lambda: select_band(p_ns, p_n, args["tolerance"]))
        if band is not None:
            assert np.all(band[0] < band[1])


@PROPERTY
@given(leaves=mostly(hnp.arrays(np.float64, hnp.array_shapes(min_dims=3, max_dims=3,
                                                              max_side=8), elements=floats),
                     adversarial),
       threshold=mostly(st.floats(0.0, 3.0), adversarial),
       epsilon=mostly(st.sampled_from([1e-12, 1e-3]), adversarial),
       kwargs=config_kwargs(n_bad=1), values=run_samples, rate=rates)
def test_classify_vuv_and_leaf_coefficients_raise_only_value_error(
        leaves, threshold, epsilon, kwargs, values, rate):
    labels = _only_value_errors(lambda: classify_vuv(leaves, threshold, epsilon))
    if labels is not None:  # a list, one label per frame
        assert type(labels) is list and len(labels) == len(leaves)
        assert set(labels) <= {"voiced", "unvoiced"}
    config = _only_value_errors(lambda: EnhanceConfig(**kwargs))
    signal = _signal(values, rate)
    if config is None or signal is None:
        return
    out = _only_value_errors(lambda: leaf_coefficients(signal, config))
    if out is not None:
        assert out.shape[1:] == (config.n_subbands, config.frame_len >> config.depth)
        assert np.all(np.isfinite(out))
