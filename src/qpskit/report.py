"""Machine-readable verification reports.

An entry records one identity check: what was computed, what was expected,
the rendered residual (never a bare boolean, so failures stay diagnosable)
and the pass flag. Entries with asserted=False are recorded for information
only and do not count toward the summary or the exit status.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass
class CheckEntry:
    id: str
    lhs: str
    expected: str
    residual: str
    passed: bool
    asserted: bool = True
    residual_norm: float | None = None
    note: str = ""

    def to_dict(self):
        out = {
            "id": self.id,
            "lhs": self.lhs,
            "expected": self.expected,
            "residual": self.residual,
            "pass": self.passed,
        }
        if not self.asserted:
            out["asserted"] = False
        if self.residual_norm is not None:
            out["residual_norm"] = self.residual_norm
        if self.note:
            out["note"] = self.note
        return out


@dataclass
class VerificationReport:
    suite: str
    entries: list[CheckEntry] = field(default_factory=list)

    def add(self, *args, **kwargs):
        entry = CheckEntry(*args, **kwargs)
        self.entries.append(entry)
        return entry

    def extend(self, other: "VerificationReport"):
        self.entries.extend(other.entries)
        return self

    @property
    def passed(self) -> int:
        return sum(1 for e in self.entries if e.asserted and e.passed)

    @property
    def failed(self) -> int:
        return sum(1 for e in self.entries if e.asserted and not e.passed)

    def all_passed(self) -> bool:
        return self.failed == 0

    def to_dict(self):
        return {
            "suite": self.suite,
            "entries": [e.to_dict() for e in self.entries],
            "passed": self.passed,
            "failed": self.failed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def summary(self) -> str:
        return f"{self.suite}: {self.passed} passed, {self.failed} failed"

    def lines(self):
        for e in self.entries:
            status = "PASS" if e.passed else "FAIL"
            if not e.asserted:
                status = f"info:{status}"
            yield f"[{status}] {e.id}: {e.lhs} == {e.expected}" + (
                "" if e.passed else f"  residual: {e.residual}")
