"""Structured verification reports with a stable serialization.

Reports serialize to JSON with a fixed top-level key order (schema, suite,
config, properties, summary).  Everything except the wall-time field is a
deterministic function of the configuration, which is what the byte-level
determinism checks rely on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from . import __version__

SCHEMA_VERSION = 1


@dataclass
class PropertyResult:
    name: str
    trials: int
    failures: int
    worst_residual: float
    first_failing_trial: Optional[int] = None
    violation_rate: Optional[float] = None

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def to_record(self) -> dict:
        return {**vars(self), "passed": self.passed}


@dataclass
class VerificationReport:
    config: dict
    properties: list[PropertyResult] = field(default_factory=list)
    wall_time_s: float = 0.0

    @property
    def suite(self) -> str:
        return self.config["suite"]

    @property
    def passed(self) -> bool:
        return all(p.passed for p in self.properties)

    @property
    def total_failures(self) -> int:
        return sum(p.failures for p in self.properties)

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "suite": self.suite,
            "config": dict(self.config),
            "properties": [p.to_record() for p in self.properties],
            "summary": {
                "properties": len(self.properties),
                "failures": self.total_failures,
                "passed": self.passed,
                "version": __version__,
                "wall_time_s": self.wall_time_s,
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, ensure_ascii=False) + "\n"

    def determinism_bytes(self) -> bytes:
        """Serialized report with the wall-time field removed; two runs with
        the same configuration must agree on these bytes exactly."""
        d = self.to_dict()
        del d["summary"]["wall_time_s"]
        return json.dumps(d, indent=2, ensure_ascii=False).encode("utf-8")
