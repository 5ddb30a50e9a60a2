"""Structured check reports shared by the verification pipelines.

The structured serialization is deterministic for a fixed config and seed:
records are ordered by check name, mappings are emitted with sorted keys,
and wall-clock timings are confined to the text rendering.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

SCHEMA_VERSION = 1


@dataclass
class CheckRecord:
    name: str
    params: dict
    passed: bool
    details: dict = field(default_factory=dict)
    counterexample: str = None
    elapsed: float = 0.0

    def summary(self):
        bits = []
        for k in sorted(self.details):
            v = self.details[k]
            if isinstance(v, (str, int, bool)):
                bits.append(f"{k}={v}")
        if bits:
            return ", ".join(bits)
        return "ok" if self.passed else "failed"


@dataclass
class Report:
    subcommand: str
    config: dict
    records: list

    @property
    def overall_pass(self):
        return all(r.passed for r in self.records)

    def sorted_records(self):
        return sorted(self.records, key=lambda r: r.name)

    def to_structured(self):
        checks = []
        for r in self.sorted_records():
            entry = {
                "name": r.name,
                "params": r.params,
                "status": "pass" if r.passed else "fail",
                "details": r.details,
            }
            if r.counterexample is not None:
                entry["counterexample"] = r.counterexample
            checks.append(entry)
        return {
            "schema_version": SCHEMA_VERSION,
            "subcommand": self.subcommand,
            "config": self.config,
            "overall": "pass" if self.overall_pass else "fail",
            "checks": checks,
        }

    def to_json(self):
        return json.dumps(self.to_structured(), sort_keys=True, indent=2) + "\n"

    def to_text(self):
        lines = []
        for r in self.sorted_records():
            status = "PASS" if r.passed else "FAIL"
            line = f"{status} {r.name}: {r.summary()}"
            if r.elapsed >= 0.0005:
                line += f"  [{r.elapsed:.3f}s]"
            lines.append(line)
            if r.counterexample is not None:
                lines.append(f"     counterexample: {r.counterexample}")
        lines.append(
            f"{'OK' if self.overall_pass else 'FAILED'}: "
            f"{sum(r.passed for r in self.records)}/{len(self.records)} checks passed"
        )
        return "\n".join(lines) + "\n"
