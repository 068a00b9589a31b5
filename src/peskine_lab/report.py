"""Check reports with byte-stable serialization.

Reports are plain data: everything that feeds an assertion lives in
`metrics`, and the serialized body is canonical (sorted keys, compact
separators) so that a fixed (check, seed, config) produces identical
bytes on every run.  Wall-clock time is recorded for humans but kept
out of the stable body, since it is the one field that legitimately
varies between runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

STATUSES = ("PASS", "FAIL", "REPORT_ONLY", "AMBIGUOUS")


@dataclass
class CheckReport:
    check_id: str
    seed: int
    p: object
    params: dict = field(default_factory=dict)
    status: str = "PASS"
    metrics: dict = field(default_factory=dict)
    runtime_ms: int = 0

    def __post_init__(self):
        if self.status not in STATUSES:
            raise ValueError(f"unknown status {self.status!r}")

    def to_dict(self, include_runtime: bool = True) -> dict:
        doc = {
            "check_id": self.check_id,
            "seed": self.seed,
            "p": self.p,
            "params": self.params,
            "status": self.status,
            "metrics": self.metrics,
        }
        if include_runtime:
            doc["runtime_ms"] = self.runtime_ms
        return doc

    def stable_bytes(self) -> bytes:
        """Canonical serialization of everything except runtime_ms."""
        return json.dumps(
            self.to_dict(include_runtime=False),
            sort_keys=True,
            separators=(",", ":"),
        ).encode()


def report_from_dict(doc: dict) -> CheckReport:
    return CheckReport(
        check_id=doc["check_id"],
        seed=doc["seed"],
        p=doc["p"],
        params=doc.get("params", {}),
        status=doc["status"],
        metrics=doc.get("metrics", {}),
        runtime_ms=doc.get("runtime_ms", 0),
    )


def summary_table(reports: list[CheckReport]) -> str:
    """Human-readable status table plus tallies, one line per report."""
    rows = sorted(reports, key=lambda r: (r.check_id, str(r.seed)))
    width = max((len(r.check_id) for r in rows), default=8)
    lines = []
    for r in rows:
        lines.append(f"{r.check_id:<{width}}  {r.status:<11}  seed={r.seed}  p={r.p}")
    tally = {s: 0 for s in STATUSES}
    for r in rows:
        tally[r.status] += 1
    lines.append(
        "total: "
        + "  ".join(f"{s}={tally[s]}" for s in STATUSES if tally[s] or s in ("PASS", "FAIL"))
    )
    return "\n".join(lines)


def emit_report(reports: list[CheckReport], path) -> str:
    """Write the aggregate JSON (sorted by check_id) and return the table.

    The stable region is the `reports` array serialized without
    runtime_ms; the same content is repeated with timings under
    `timings` for human use.
    """
    rows = sorted(reports, key=lambda r: (r.check_id, str(r.seed)))
    body = [r.to_dict(include_runtime=False) for r in rows]
    doc = {
        "reports": body,
        "timings_ms": {f"{r.check_id}#{r.seed}": r.runtime_ms for r in rows},
        "summary": {s: sum(1 for r in rows if r.status == s) for s in STATUSES},
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
    return summary_table(rows)
