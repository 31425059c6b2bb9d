"""Deterministic JSON reports.

Reports are byte-identical across runs for identical inputs, configuration
and seed, so they carry no wall-clock data; commands print timing to stderr
instead.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass
class Report:
    command: str
    config: dict
    checks: list = field(default_factory=list)
    payload: dict = field(default_factory=dict)

    def add(self, outcome):
        """Append the record of one CheckOutcome."""
        self.checks.append(outcome.as_record())

    def extend(self, outcomes):
        for outcome in outcomes:
            self.add(outcome)

    @property
    def passed(self) -> bool:
        # a composite's verdict is already the AND of its sub-checks
        return all(c["verdict"] == "pass" for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "config": self.config,
            "checks": self.checks,
            "verdict": "pass" if self.passed else "fail",
            **self.payload,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

