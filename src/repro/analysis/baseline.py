"""Baseline suppression: accept today's findings, gate tomorrow's.

A baseline file is a JSON list of finding fingerprints (plus enough
context to stay reviewable in a diff).  Runs subtract the baseline
before computing their exit code, so pre-existing debt does not block
CI while every *new* finding does.  ``--update-baseline`` rewrites the
file from the current findings, keeping the ``justification`` of every
entry it accepts again.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.analysis.findings import AnalysisResult, Finding

FORMAT_VERSION = 1


@dataclass
class Baseline:
    """A set of accepted finding fingerprints."""

    fingerprints: set[str] = field(default_factory=set)
    path: str = ""

    @classmethod
    def load(cls, path: str) -> "Baseline":
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        if payload.get("version") != FORMAT_VERSION:
            raise ValueError(
                f"baseline {path!r}: unsupported version "
                f"{payload.get('version')!r}"
            )
        return cls(
            fingerprints={
                entry["fingerprint"] for entry in payload["findings"]
            },
            path=path,
        )

    def save(self, path: str, findings: list[Finding]) -> None:
        """Write *findings* as the new accepted set (sorted, reviewable).

        A fingerprint already accepted in *path* keeps its
        ``justification``; the others are written without one.
        """
        justifications = {}
        try:
            with open(path, "r", encoding="utf-8") as handle:
                for entry in json.load(handle).get("findings", []):
                    if entry.get("justification"):
                        justifications[entry["fingerprint"]] = \
                            entry["justification"]
        except (OSError, ValueError):
            pass
        entries = []
        for f in findings:
            entry = {
                "fingerprint": f.fingerprint,
                "rule_id": f.rule_id,
                "location": f.location,
                "message": f.message,
            }
            if f.fingerprint in justifications:
                entry["justification"] = justifications[f.fingerprint]
            entries.append(entry)
        entries.sort(key=lambda e: e["fingerprint"])
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"version": FORMAT_VERSION, "findings": entries},
                      handle, indent=2, sort_keys=True)
            handle.write("\n")

    def apply(self, result: AnalysisResult) -> AnalysisResult:
        """Split findings into kept vs. suppressed, in place."""
        kept, suppressed = [], []
        for finding in result.findings:
            if finding.fingerprint in self.fingerprints:
                suppressed.append(finding)
            else:
                kept.append(finding)
        result.findings = kept
        result.suppressed.extend(suppressed)
        return result
