"""Static security analysis: artifact auditor + code analyzer.

Two frontends over one rule engine (stable IDs, severities, baseline
suppression, text/JSON reporters):

* :mod:`repro.analysis.artifact` — audits signed/encrypted disc
  artifacts *without key material*: signature-coverage maps, wrapping
  susceptibility, weak algorithms, sign/encrypt ordering, permission
  claims vs. XACML policy.
* :mod:`repro.analysis.interproc` — runs the four code rule packs.
  It parses each module once, through one content-hash cache,
  and runs on that tree :mod:`~repro.analysis.astlint` (LIN1xx: repo
  invariants such as revision-stamp propagation, no HMAC memoization,
  constant-time comparisons, injected clocks, provider-only
  primitives, typed-errors-only on untrusted paths).  It lowers the
  same tree to the callgraph IR and runs over the whole program
  :mod:`~repro.analysis.taint` (TNT2xx: untrusted bytes must not reach
  script execution/playback/network unverified, key material must not
  reach logs, ``repr`` output, exception text or cache keys),
  :mod:`~repro.analysis.concurrency` (CON3xx: guarded-by inference for
  the shared security state, check-then-act atomicity, lock
  discipline, blocking calls under async roots) and
  :mod:`~repro.analysis.lifecycle` (LIF4xx: orphaned task handles,
  swallowed ``CancelledError``, awaits under threading locks,
  deadline-propagation proofs, exception-unsafe releases).

CLI: ``python -m repro.tools audit|analyze``.
"""

from repro.analysis.artifact import ArtifactAuditor, audit_paths
from repro.analysis.baseline import Baseline
from repro.analysis.engine import Rule, all_rules, catalog_lines, get_rule
from repro.analysis.findings import AnalysisResult, Finding, Severity
from repro.analysis.interproc import (
    analyze_modules, analyze_paths, analyze_source,
)
from repro.analysis.report import render_json, render_text, summary_line

__all__ = [
    "AnalysisResult", "ArtifactAuditor", "Baseline", "Finding", "Rule",
    "Severity", "all_rules", "analyze_modules", "analyze_paths",
    "analyze_source", "audit_paths", "catalog_lines", "get_rule",
    "render_json", "render_text", "summary_line",
]
