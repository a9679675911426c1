"""Machine-readable run reports and their JSON schema.

A Report is plain data: the per-frame, per-subband thresholding detail
as the arrays the pipeline computed, plus global divergence statistics.
The schema-v1 layout (a record per frame holding a record per subband,
and {"edges", "counts"} histograms) is built here, only when a report is
serialised. Serialisation is deterministic (sorted keys, no NaN/Inf) so
repeated runs with the same seed produce byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

SCHEMA_VERSION = 1
SCHEMA_RESOURCE = "schemas/report-v1.schema.json"


def _empty() -> np.ndarray:
    return np.zeros(0)


def _histogram_json(h) -> dict:
    return {"edges": h.bin_edges.tolist(), "counts": h.counts.tolist()}


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

    def _frames_json(self) -> list:
        sigma = np.asarray(self.sigma).tolist()
        pre = np.asarray(self.n_zero_pre).tolist()
        post = np.asarray(self.n_zero_post).tolist()
        unset = [[None] * len(sigma)] * len(pre)
        threshold, band = (
            unset if a is None else np.asarray(a).tolist()
            for a in (self.threshold, self.band)
        )
        return [
            {
                "frame": f,
                "vuv": vuv,
                "subbands": [
                    {
                        "subband": s,
                        "sigma": sigma[s],
                        "threshold": thr[s],
                        "band": bnd[s],
                        "n_zero_pre": n_pre[s],
                        "n_zero_post": n_post[s],
                    }
                    for s in range(len(sigma))
                ],
            }
            for f, (vuv, thr, bnd, n_pre, n_post) in enumerate(
                zip(self.vuv, threshold, band, pre, post)
            )
        ]

    def to_json_dict(self) -> dict:
        d = {
            "schema_version": SCHEMA_VERSION,
            "tool_version": self.tool_version,
            "mode": self.mode,
            "config": self.config,
            "seed": self.seed,
            "frames": self._frames_json(),
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
        return d

    def to_json(self) -> str:
        # allow_nan=False enforces the finite-numbers invariant at the
        # serialisation boundary.
        return (
            json.dumps(self.to_json_dict(), indent=2, sort_keys=True, allow_nan=False)
            + "\n"
        )

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())


def report_schema() -> dict:
    """The JSON schema shipped with the package."""
    text = resources.files("wpdenoise").joinpath(SCHEMA_RESOURCE).read_text()
    return json.loads(text)


def validate_report_dict(d: dict) -> None:
    """Raise jsonschema.ValidationError if `d` is not a valid report."""
    # Imported here: jsonschema costs about 0.1 s, which every CLI call
    # would pay at start-up while only report validation needs it.
    import jsonschema

    jsonschema.validate(instance=d, schema=report_schema())
