"""Report rows and serialization for the verification harness.

Every experiment reduces to rows of the same shape: a measured statistic, the
closed-form bound it must stay under, and an explicit slack term (sampling
allowance) with its provenance.  A row passes when
``statistic <= bound + slack``; negative-control rows are *expected* to fail,
and the run as a whole is healthy when every row behaves as expected.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone

VERSION = "0.1.0"

CSV_FIELDS = [
    "experiment",
    "claim",
    "d",
    "statistic",
    "bound",
    "slack",
    "slack_kind",
    "pass",
    "negative_control",
    "trials",
    "std_err",
]

__all__ = [
    "VerifyReport",
    "ExperimentConfig",
    "render_rows",
    "all_ok",
    "CSV_FIELDS",
    "VERSION",
]


@dataclass
class VerifyReport:
    """One checked claim: ``statistic <= bound + slack`` (or expected not to)."""

    experiment: str
    d: int
    statistic: float
    bound: float
    slack: float
    passed: bool
    trials: int
    std_err: float
    claim: str = ""
    slack_kind: str = ""
    negative_control: bool = False
    extra: dict = field(default_factory=dict)

    def ok(self) -> bool:
        """Healthy outcome: pass normally, fail if a negative control."""
        return self.passed != self.negative_control

    def to_row(self) -> dict:
        row = {
            "experiment": self.experiment,
            "claim": self.claim,
            "d": self.d,
            "statistic": self.statistic,
            "bound": self.bound,
            "slack": self.slack,
            "slack_kind": self.slack_kind,
            "pass": self.passed,
            "negative_control": self.negative_control,
            "trials": self.trials,
            "std_err": self.std_err,
        }
        if self.extra:
            row["extra"] = _jsonable(self.extra)
        return row


@dataclass
class ExperimentConfig:
    """Knobs shared by the experiment runners, echoed into every report."""

    name: str = ""
    dims: tuple = ()
    trials: int = 0
    master_seed: int = 0
    threads: int = 1
    params: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "dims": list(self.dims),
            "trials": self.trials,
            "master_seed": self.master_seed,
            "threads": self.threads,
            "params": _jsonable(self.params),
        }


def _jsonable(value):
    """Recursively coerce numpy scalars/arrays into plain JSON types."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, bool):
        return value
    if hasattr(value, "item"):
        return _jsonable(value.item())
    if isinstance(value, float):
        return value if math.isfinite(value) else repr(value)
    return value


def all_ok(rows) -> bool:
    return all(r.ok() for r in rows)


def render_rows(rows, config: ExperimentConfig | None = None, fmt: str = "json",
                timestamp: bool = True) -> str:
    """Serialize report rows; ``fmt`` is ``json`` or ``csv``.

    The CSV form is the fixed-schema flat table (no config echo, no
    timestamp) so two runs of the same experiment compare bytewise.
    """
    if fmt == "json":
        doc = {
            "version": VERSION,
            "experiment": config.name if config else (rows[0].experiment if rows else ""),
            "config": config.to_dict() if config else {},
            "rows": [r.to_row() for r in rows],
            "all_ok": all_ok(rows),
        }
        if timestamp:
            doc["generated_at"] = datetime.now(timezone.utc).isoformat()
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=CSV_FIELDS, extrasaction="ignore",
                                lineterminator="\n")
        writer.writeheader()
        for r in rows:
            row = r.to_row()
            row["statistic"] = repr(float(row["statistic"]))
            row["bound"] = repr(float(row["bound"]))
            row["slack"] = repr(float(row["slack"]))
            row["std_err"] = repr(float(row["std_err"]))
            writer.writerow(row)
        return buf.getvalue()
    raise ValueError(f"unknown report format: {fmt!r}")

