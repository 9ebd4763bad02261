"""Deterministic, diff-able verification reports.

Reports serialize to JSON with a fixed key order so that two runs with the
same configuration produce byte-identical artifacts.  Each check record
carries an opaque reference label from the anchors registry, a pass flag,
an optional witness (first failing component with its residual), and a
wall-time slot that stays null unless timing collection is switched on.
Each check's wall time, measured by `add` as the time since the previous
check (or since the report was made), waits in `wall_ms`, outside the
serialized bytes, until the caller asks for it.
"""

from __future__ import annotations

import json
import time

SCHEMA_VERSION = 1

# The convention choices every report is relative to; a reader diffing two
# reports can tell at a glance whether the underlying normalizations agree.
CONVENTIONS = {
    "braiding": "deformed flip: q on diagonal pairs, unit upper cell, "
                "q - q^-1 lower cell; inverse = braiding - (q - q^-1) I",
    "trace_weights": "diag(q^(1-2i)), i = 1..N; weighted trace of identity "
                     "= (q^N - q^-N)/(q - q^-1)/q^N",
    "word_order": "graded lexicographic on words; in doubles, B-letters "
                  "stand left of A-letters",
}


class VerificationReport:
    """Ordered collection of check records for one suite run."""

    def __init__(self, suite: str, config: dict | None = None):
        self.suite = suite
        self.config = dict(config) if config else {}
        self.checks: list = []
        # check id -> measured wall time in ms, not serialized
        self.wall_ms: dict = {}
        self._mark = time.perf_counter()

    def add(self, check_id: str, anchor: str, passed: bool,
            witness: str | None = None) -> None:
        now = time.perf_counter()
        self.wall_ms[check_id] = round((now - self._mark) * 1000, 3)
        self._mark = now
        self.checks.append({
            "id": check_id,
            "anchor": anchor,
            "passed": bool(passed),
            "witness": witness,
            "wall_time_ms": None,
        })

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def failures(self) -> list:
        return [c for c in self.checks if not c["passed"]]

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "suite": self.suite,
            "config": {k: self.config[k] for k in sorted(self.config)},
            "conventions": CONVENTIONS,
            "checks": self.checks,
            "passed": self.passed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def summary_line(self) -> str:
        n = len(self.checks)
        bad = len(self.failures())
        state = "pass" if bad == 0 else f"FAIL({bad}/{n})"
        return f"{self.suite}: {n} checks, {state}"
