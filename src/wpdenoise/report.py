"""Machine-readable run reports and their JSON schema.

A Report is plain data: the per-frame, per-subband thresholding detail
as the arrays the pipeline computed, plus global divergence statistics.
The schema-v1 layout (a record per frame holding a record per subband,
and {"edges", "counts"} histograms) is written here, only when a report
is serialised: the frame records straight from the arrays through text
templates that json.dumps writes once at import, the rest through
json.dumps, and the whole text is joined once. The bytes are those of
json.dumps(v1 dict, indent=2, sort_keys=True, allow_nan=False), so
repeated runs with the same seed produce byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .signal_io import output_file

SCHEMA_VERSION = 1
SCHEMA_RESOURCE = "schemas/report-v1.schema.json"


def _empty() -> np.ndarray:
    return np.zeros(0)


def _histogram_json(h) -> dict:
    return {"edges": h.bin_edges.tolist(), "counts": h.counts.tolist()}


def _layout(record, depth: int) -> str:
    """json.dumps(record, indent=2, sort_keys=True) as it sits `depth` levels in.

    Lines after the first are indented, and every "%s" string of
    `record` becomes a %s slot, so the text is a template of the record.
    """
    text = json.dumps(record, indent=2, sort_keys=True).replace('"%s"', "%s")
    return text.replace("\n", "\n" + "  " * depth)


# The v1 subband record (its slots in key order), a band pair, a frame
# record (and one with no subbands, whose list json.dumps writes as [])
# and the frame list at the depth each sits at in a report, and the text
# between two items of a list `depth` levels in.
_SUBBAND = _layout(dict.fromkeys(
    ("band", "n_zero_post", "n_zero_pre", "sigma", "subband", "threshold"), "%s"), 4)
_BAND = _layout(["%s", "%s"], 5)
_FRAME = _layout({"frame": "%s", "subbands": ["%s"], "vuv": "%s"}, 2)
_BARE_FRAME = _layout({"frame": "%s", "subbands": [], "vuv": "%s"}, 2)
_FRAMES = _layout(["%s"], 1)
_SEP = {depth: _layout(["%s", "%s"], depth).split("%s")[1] for depth in (1, 3)}


def _text_table(keys, where, write) -> np.ndarray:
    """write() of each distinct key, once, spread back by np.unique's inverse."""
    text = np.empty(len(keys), dtype=object)
    text[:] = [write(key) for key in keys.tolist()]
    return text[where]


def _float_text(name: str, values) -> np.ndarray:
    """repr() of each float of `values` in C order, as json.dumps writes it.

    An object array of texts. Each distinct value (by bit pattern, so
    -0.0 stays "-0.0") is formatted once: thresholds repeat per subband
    and band bounds are bin edges. Non-finite values raise ValueError,
    as allow_nan=False.
    """
    flat = np.ascontiguousarray(values, dtype=np.float64).ravel()
    if not np.all(np.isfinite(flat)):
        raise ValueError(f"Out of range float values are not JSON compliant: {name}")
    bits, where = np.unique(flat.view(np.int64), return_inverse=True)
    return _text_table(bits.view(np.float64), where, repr)


def _count_text(values) -> np.ndarray:
    """str() of each count of `values` in C order, as an object array.

    Each distinct count is written once. The table holds only the
    distinct values, never one entry per count up to the largest, so a
    hand-built report may hold Python ints of any size.
    """
    keys, where = np.unique(np.asarray(values).ravel(), return_inverse=True)
    return _text_table(keys, where, str)


@dataclass
class Report:
    """Full record of a denoise/analyze/experiment run.

    Per-frame detail of F frames and S leaf subbands:

    - vuv: one "voiced"/"unvoiced" label per frame, or None per frame
      when VUV classification is off;
    - sigma: (S,) noise level of each subband;
    - threshold: (F, S) scalar-rule thresholds, None for the band rule;
    - band: (F, S, 2) band-rule intervals (t1, t2), None otherwise;
    - n_zero_pre / n_zero_post: (F, S) zero coefficients before and
      after thresholding.

    An analyze report has no frames; its histograms hold
    (divergence, noisy Histogram, noise Histogram) per subband.
    """

    tool_version: str
    mode: str
    config: dict
    seed: int | None
    vuv: list = field(default_factory=list)
    sigma: np.ndarray = field(default_factory=_empty)
    threshold: np.ndarray | None = None
    band: np.ndarray | None = None
    n_zero_pre: np.ndarray = field(default_factory=_empty)
    n_zero_post: np.ndarray = field(default_factory=_empty)
    subband_divergence: list = field(default_factory=list)
    near_zero_ratios: list = field(default_factory=list)  # (center, ratio)
    input_snr_db: float | None = None
    output_snr_db: float | None = None
    histograms: list | None = None

    def _frames_text(self, before: str = "", after: str = "") -> str:
        """`before`, the v1 "frames" list as a report's json.dumps writes it, `after`.

        Every frame has one layout: the subband records with each
        sigma and index baked in, and null for an unset band or
        threshold. Split on its %s slots it gives W + 1 literal pieces
        around W cells. One (frames, 2W + 1) array holds the pieces in
        its even columns and the cells in its odd ones, and is joined
        once, `before` and `after` with it, so the text is built in one
        piece of memory. Numbers are written as the json encoder writes
        the Python floats and ints that .tolist() gives.
        """
        n_frames, n_sub = len(self.vuv), len(self.sigma)
        if not n_frames:
            return before + "[]" + after
        sigma = _float_text("sigma", self.sigma)
        fields = []  # the (F, S) cells of each subband record, in key order
        if self.band is not None:
            bounds = _float_text("band", self.band).reshape(n_frames, n_sub, 2)
            fields += [bounds[..., 0], bounds[..., 1]]
        fields += [_count_text(self.n_zero_post), _count_text(self.n_zero_pre)]
        if self.threshold is not None:
            fields.append(_float_text("threshold", self.threshold))
        band = "null" if self.band is None else _BAND
        threshold = "null" if self.threshold is None else "%s"
        layout = _FRAME % ("%s", _SEP[3].join(
            _SUBBAND % (band, "%s", "%s", sigma[s], s, threshold) for s in range(n_sub)
        ), "%s") if n_sub else _BARE_FRAME
        pieces = layout.split("%s")
        head, tail = _FRAMES.split("%s")

        text = np.empty((n_frames, 2 * len(pieces) - 1), dtype=object)
        text[:, 0::2] = np.array(pieces, dtype=object)
        text[1:, 0] = _SEP[1] + pieces[0]
        text[0, 0] = before + head + pieces[0]
        text[-1, -1] = pieces[-1] + tail + after
        text[:, 1] = [str(f) for f in range(n_frames)]
        cells = np.stack([np.reshape(cell, (n_frames, n_sub)) for cell in fields], -1)
        text[:, 3:-2:2] = cells.reshape(n_frames, -1)
        labels = {vuv: json.dumps(vuv) for vuv in set(self.vuv)}
        text[:, -2] = [labels[vuv] for vuv in self.vuv]
        return "".join(text.ravel().tolist())

    def to_json(self) -> str:
        """Schema v1: json.dumps(indent=2, sort_keys=True) of the v1 dict.

        The small fields go through json.dumps (allow_nan=False keeps the
        finite-numbers invariant) with an empty frame list; the frames,
        nearly all of the bytes, are written from the arrays by
        _frames_text in place of that list, in the one join that builds
        the whole document.
        """
        d = {
            "schema_version": SCHEMA_VERSION,
            "tool_version": self.tool_version,
            "mode": self.mode,
            "config": self.config,
            "seed": self.seed,
            "frames": [],
            "subband_divergence": list(self.subband_divergence),
            "near_zero_ratios": [
                {"center": c, "ratio": r} for c, r in self.near_zero_ratios
            ],
        }
        if self.input_snr_db is not None:
            d["input_snr_db"] = self.input_snr_db
        if self.output_snr_db is not None:
            d["output_snr_db"] = self.output_snr_db
        if self.histograms is not None:
            d["histograms"] = [
                {
                    "subband": s,
                    "divergence": div,
                    "noisy": _histogram_json(noisy),
                    "noise": _histogram_json(noise),
                }
                for s, (div, noisy, noise) in enumerate(self.histograms)
            ]
        text = json.dumps(d, indent=2, sort_keys=True, allow_nan=False)
        # JSON escapes newlines inside strings, so this is the top-level key.
        cut = text.index('\n  "frames": []') + len('\n  "frames": ')
        return self._frames_text(text[:cut], text[cut + 2 :] + "\n")

    def write(self, path) -> None:
        with output_file(path) as fh:
            fh.write(self.to_json().encode("utf-8"))


def report_schema() -> dict:
    """The JSON schema shipped with the package."""
    # Imported here, as jsonschema below: no CLI request reads the schema,
    # so none should pay for importing importlib.resources.
    from importlib import resources

    text = resources.files("wpdenoise").joinpath(SCHEMA_RESOURCE).read_text()
    return json.loads(text)


def validate_report_dict(d: dict) -> None:
    """Raise jsonschema.ValidationError if `d` is not a valid report."""
    # Imported here: jsonschema costs about 0.1 s, which every CLI call
    # would pay at start-up while only report validation needs it.
    import jsonschema

    jsonschema.validate(instance=d, schema=report_schema())
