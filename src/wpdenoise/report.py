"""Machine-readable run reports and their JSON schema.

A Report is plain data: per-frame/per-subband thresholding records plus
global divergence statistics. Serialisation is deterministic (sorted
keys, no NaN/Inf) so repeated runs with the same seed produce
byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources

SCHEMA_VERSION = 1
SCHEMA_RESOURCE = "schemas/report-v1.schema.json"


@dataclass
class SubbandRecord:
    """Thresholding outcome for one leaf subband of one frame."""

    subband: int
    sigma: float
    threshold: float | None  # scalar rules
    band: tuple | None  # (t1, t2) for the band rule
    n_zero_pre: int
    n_zero_post: int

    def to_json_dict(self) -> dict:
        return {
            "subband": self.subband,
            "sigma": self.sigma,
            "threshold": self.threshold,
            "band": list(self.band) if self.band is not None else None,
            "n_zero_pre": self.n_zero_pre,
            "n_zero_post": self.n_zero_post,
        }


@dataclass
class FrameRecord:
    frame: int
    vuv: str | None  # "voiced" / "unvoiced" / None when disabled
    subbands: list

    def to_json_dict(self) -> dict:
        return {
            "frame": self.frame,
            "vuv": self.vuv,
            "subbands": [s.to_json_dict() for s in self.subbands],
        }


@dataclass
class HistogramPair:
    """Analyze-mode record: one subband's noisy/noise histograms."""

    subband: int
    divergence: float
    noisy_edges: list
    noisy_counts: list
    noise_edges: list
    noise_counts: list

    def to_json_dict(self) -> dict:
        return {
            "subband": self.subband,
            "divergence": self.divergence,
            "noisy": {"edges": self.noisy_edges, "counts": self.noisy_counts},
            "noise": {"edges": self.noise_edges, "counts": self.noise_counts},
        }


@dataclass
class Report:
    """Full record of a denoise/analyze/experiment run."""

    tool_version: str
    mode: str
    config: dict
    seed: int | None
    frames: list = field(default_factory=list)
    subband_divergence: list = field(default_factory=list)
    near_zero_ratios: list = field(default_factory=list)  # (center, ratio)
    input_snr_db: float | None = None
    output_snr_db: float | None = None
    histograms: list | None = None

    def to_json_dict(self) -> dict:
        d = {
            "schema_version": SCHEMA_VERSION,
            "tool_version": self.tool_version,
            "mode": self.mode,
            "config": self.config,
            "seed": self.seed,
            "frames": [f.to_json_dict() for f in self.frames],
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
            d["histograms"] = [h.to_json_dict() for h in self.histograms]
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
