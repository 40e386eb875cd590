"""Report rows and serialization for the verification harness.

Every experiment reduces to rows of the same shape: a measured statistic, the
closed-form bound it must stay under, and an explicit slack term (sampling
allowance) with its provenance.  A row passes when
``statistic <= bound + slack``; ``VerifyReport.passed`` is derived from those
three fields, never stored, so no runner writes the rule out.
Negative-control rows are *expected* to fail, and the run as a whole is
healthy when every row behaves as expected.  The JSON form also records the
environment that produced the rows (see ``_environment``).
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np
import scipy

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
    trials: int
    std_err: float
    claim: str = ""
    slack_kind: str = ""
    negative_control: bool = False
    extra: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return bool(self.statistic <= self.bound + self.slack)

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


def _environment(threads: int | None = None) -> dict:
    """The software and machine behind a report: rotquant, numpy and scipy
    versions, the BLAS numpy was built against, the CPU count, and the
    ``--threads`` value (``None`` for a command without one)."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "rotquant": VERSION,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "cpu_count": os.cpu_count(),
        "threads": threads,
    }


def render_rows(rows, config: dict | None = None, fmt: str = "json") -> str:
    """Serialize report rows; ``fmt`` is ``json`` or ``csv``.

    The JSON form echoes ``config`` (the arguments that produced the rows),
    names the experiment by its ``command`` entry and adds an ``env`` block
    whose ``threads`` is ``config["threads"]``.  The CSV form is the
    fixed-schema flat table (no config echo, no environment, no timestamp)
    so two runs of the same experiment compare bytewise.
    """
    if fmt == "json":
        config = config or {}
        doc = {
            "version": VERSION,
            "experiment": config.get("command", rows[0].experiment if rows else ""),
            "config": _jsonable(config),
            "env": _jsonable(_environment(config.get("threads"))),
            "rows": [r.to_row() for r in rows],
            "all_ok": all_ok(rows),
            "generated_at": datetime.now(timezone.utc).isoformat(),
        }
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

