"""Machine-readable run reports: configuration, verdicts, serialization.

Reports are deterministic: identical configurations produce
byte-identical JSON (sorted keys, repr-based floats, no timestamps).  Pass/fail status is reserved for exact or toleranced claims;
exploratory cutoff sweeps are emitted as report-only entries.  The two
records, ``VerdictReport`` and ``RunConfig``, are NamedTuples, like every
record of the package, which keeps defining them cheap at every start-up.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Any, Literal, NamedTuple, Sequence

SCHEMA_VERSION = 1

Status = Literal["pass", "fail", "report-only"]


class VerdictReport(NamedTuple):
    """One check: stable id, the claim it verifies, status and numeric payload."""

    check: str
    claim: str
    status: Status
    payload: dict[str, Any]

    def to_jsonable(self) -> dict[str, Any]:
        return {
            "check": self.check,
            "claim": self.claim,
            "status": self.status,
            "payload": jsonable(self.payload),
        }


class RunConfig(NamedTuple):
    """Resolved CLI configuration, one field per parser destination; defaults
    reproduce the reference setup (m = 1, gamma = 1/5, omega = 1,
    theta = 7 pi / 8, tolerance 1e-10)."""

    subcommand: str
    m: Fraction
    gamma: Fraction
    omega: Fraction | None
    k_spring: Fraction | None
    theta: float
    cutoffs: tuple[int, ...] | None
    kmax: int
    tol: float
    out: Path
    fmt: Literal["json", "csv", "both"]

    def to_jsonable(self) -> dict[str, Any]:
        """Every field but ``out``, with ``fmt`` written as ``format``."""
        return {
            "format" if name == "fmt" else name: jsonable(value)
            for name, value in zip(self._fields, self)
            if name != "out"
        }


def jsonable(value: Any) -> Any:
    """Recursively convert a payload to JSON values: None, bool, int, float
    (numpy's float64 among them) and str pass, a Fraction becomes its string,
    dicts and exact lists and tuples convert item by item; anything else,
    a record (a NamedTuple) among them, is a TypeError."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if type(value) in (list, tuple):
        return [jsonable(v) for v in value]
    raise TypeError(f"cannot write {type(value).__name__} to a report")


def render_report(config: RunConfig, verdicts: Sequence[VerdictReport]) -> str:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "config": config.to_jsonable(),
        "checks": [v.to_jsonable() for v in verdicts],
        "failures": sum(1 for v in verdicts if v.status == "fail"),
    }
    # strict JSON: a NaN or infinity in a payload is a bug, not a value to write
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_report(path: Path, config: RunConfig, verdicts: Sequence[VerdictReport]) -> None:
    path.write_text(render_report(config, verdicts))
