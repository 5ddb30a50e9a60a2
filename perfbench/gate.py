"""Correctness gate applied to every structured report the benchmark produces.

Two rules.  For the default seed, each job's report must be byte-identical
to the digest recorded in ``digests.json`` (a speed-up counts only with
identical reports).  For every seed, the report must satisfy invariants that
hold whatever the inputs are.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

DIGESTS = Path(__file__).with_name("digests.json")


def digest(report_json):
    return hashlib.sha256(report_json.encode()).hexdigest()


def load_digests(workload):
    return json.loads(DIGESTS.read_text())[workload]


def invariant_problems(report, job):
    """Seed-independent invariants of one structured report; [] when all hold."""
    problems = []
    if report.get("overall") != "pass":
        problems.append("overall is not pass")
    if report.get("subcommand") != job["subcommand"]:
        problems.append("report is for another subcommand")
    details = {c["name"]: c.get("details", {}) for c in report.get("checks", [])}
    if not details:
        problems.append("report holds no checks")
    homs = details.get("dual.hom-space")
    iso = details.get("dual.quotient-iso")
    if homs is not None or iso is not None:
        dims = [
            (homs or {}).get("hom_dimension"),
            (homs or {}).get("span_dimension"),
            (iso or {}).get("total_homs"),
            (iso or {}).get("covered_homs"),
        ]
        if len(set(dims)) != 1:
            problems.append(f"hom/span/total/covered dimensions differ: {dims}")
    if iso is not None and iso.get("injective_kernel_dimension") != 0:
        problems.append("quotient map has a kernel")
    for name in ("exactness.periodic", "exactness.transposed"):
        ex = details.get(name)
        if ex is None:
            continue
        for pos in ("at_alpha", "at_beta"):
            if ex.get(f"{pos}_kernel_dimension") != ex.get(f"{pos}_covered"):
                problems.append(f"{name}: {pos} kernel not covered")
    nf = details.get("nf.residual-order")
    if nf is not None and nf.get("residual_order_at_least") != job.get("precision", 6) + 2:
        problems.append("residual order is not precision + 2")
    return problems


class Tally:
    """Checks attempted and bad outcomes: failed checks, raised jobs, gate failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def job_raised(self, where, exc):
        self.attempted += 1
        self.failed += 1
        self.problems.append(f"{where}: raised {type(exc).__name__}: {exc}")

    def report(self, where, report_json, job, expected_digest=None):
        """Gate one report; returns its digest."""
        report = json.loads(report_json)
        checks = report.get("checks", [])
        self.attempted += len(checks) + 1
        failed_checks = [c["name"] for c in checks if c.get("status") != "pass"]
        self.failed += len(failed_checks)
        problems = invariant_problems(report, job)
        got = digest(report_json)
        if expected_digest is not None and got != expected_digest:
            problems.append("report differs from the recorded default-seed digest")
        if failed_checks:
            self.problems.append(f"{where}: failed checks {failed_checks}")
        if problems:
            self.failed += 1
            self.problems.append(f"{where}: {'; '.join(problems)}")
        return got

    def same(self, where, got, want, what):
        """One extra check that two digests agree."""
        self.attempted += 1
        if got != want:
            self.failed += 1
            self.problems.append(f"{where}: {what}")

    @property
    def fail_ratio(self):
        return self.failed / self.attempted if self.attempted else 1.0
