"""Shared analysis fixtures: one uncached run of every rule pack over
the repo's ``src/``, split per pack for the clean-repo gates."""

import os

import pytest

from repro.analysis import AnalysisResult, Baseline, analyze_paths

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


@pytest.fixture(scope="session")
def repo_analysis():
    """`repro.tools analyze src` findings, before any baseline."""
    return analyze_paths([os.path.join(REPO_ROOT, "src")])


@pytest.fixture
def repo_above_baseline(repo_analysis):
    """``(prefix) -> AnalysisResult``: the repo's findings whose rule id
    starts with *prefix* that ``interproc-baseline.json`` does not
    accept, on a fresh copy of the shared run."""
    baseline = Baseline.load(os.path.join(REPO_ROOT,
                                          "interproc-baseline.json"))

    def above(prefix: str = "") -> AnalysisResult:
        result = AnalysisResult(
            findings=[f for f in repo_analysis.findings
                      if f.rule_id.startswith(prefix)],
            scanned=repo_analysis.scanned,
        )
        return baseline.apply(result)

    return above
