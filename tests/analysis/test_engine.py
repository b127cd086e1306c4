"""Rule registry, findings model, baseline and reporters."""

import json

import pytest

from repro.analysis import (
    AnalysisResult, Baseline, Finding, Severity, all_rules,
    catalog_lines, get_rule, render_json, render_text, summary_line,
)
from repro.analysis.engine import register


def finding(rule_id="SEC001", location="a.xml", message="boom",
            severity=Severity.ERROR, line=0):
    return Finding(rule_id=rule_id, severity=severity,
                   location=location, message=message, line=line)


# -- registry ----------------------------------------------------------------


def test_registry_has_both_domains():
    artifact_ids = {r.rule_id for r in all_rules("artifact")}
    code_ids = {r.rule_id for r in all_rules("code")}
    assert {"SEC001", "SEC010", "SEC020", "SEC030",
            "SEC040"} <= artifact_ids
    assert {"LIN101", "LIN102", "LIN103", "LIN104",
            "LIN105"} <= code_ids
    assert not artifact_ids & code_ids


def test_rule_ids_are_stable_and_unique():
    everything = all_rules("artifact") + all_rules("code")
    ids = [r.rule_id for r in everything]
    assert len(ids) == len(set(ids))


def test_duplicate_registration_rejected():
    with pytest.raises(ValueError):
        register("SEC001", "imposter", Severity.INFO, "artifact", "x")


def test_unknown_domain_rejected():
    with pytest.raises(ValueError):
        register("ZZZ999", "nope", Severity.INFO, "martian", "x")


def test_rule_builds_finding_with_its_severity():
    rule = get_rule("SEC001")
    built = rule.finding("doc.xml", "two Ids")
    assert built.rule_id == "SEC001"
    assert built.severity == rule.severity
    assert built.location == "doc.xml"


def test_catalog_lists_every_rule():
    text = "\n".join(catalog_lines("artifact"))
    for rule in all_rules("artifact"):
        assert rule.rule_id in text


# -- severity / result -------------------------------------------------------


def test_severity_parse_and_order():
    assert Severity.parse("warning") is Severity.WARNING
    assert Severity.INFO < Severity.WARNING < Severity.ERROR
    with pytest.raises(ValueError):
        Severity.parse("catastrophic")


def test_exceeds_threshold_semantics():
    result = AnalysisResult(findings=[
        finding(severity=Severity.WARNING),
    ])
    assert result.exceeds(Severity.INFO)
    assert result.exceeds(Severity.WARNING)
    assert not result.exceeds(Severity.ERROR)
    assert not AnalysisResult().exceeds(Severity.INFO)


def test_fingerprint_ignores_line_numbers():
    a = finding(line=10)
    b = finding(line=99)
    assert a.fingerprint == b.fingerprint
    assert finding(message="other").fingerprint != a.fingerprint


# -- baseline ----------------------------------------------------------------


def test_baseline_round_trip(tmp_path):
    path = str(tmp_path / "baseline.json")
    known = finding()
    Baseline().save(path, [known])
    loaded = Baseline.load(path)
    result = AnalysisResult(findings=[known, finding(message="new")])
    loaded.apply(result)
    assert [f.message for f in result.findings] == ["new"]
    assert [f.message for f in result.suppressed] == ["boom"]


def test_baseline_update_keeps_justifications(tmp_path):
    """Regenerating a baseline keeps the justification of every entry
    it accepts again and drops the entries that went away."""
    path = str(tmp_path / "baseline.json")
    kept, gone = finding(message="kept"), finding(message="gone")
    Baseline().save(path, [kept, gone])
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    for entry in payload["findings"]:
        entry["justification"] = f"reviewed: {entry['message']}"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)

    Baseline().save(path, [kept, finding(message="fresh")])
    with open(path, encoding="utf-8") as handle:
        entries = {e["message"]: e for e in json.load(handle)["findings"]}
    assert sorted(entries) == ["fresh", "kept"]
    assert entries["kept"]["justification"] == "reviewed: kept"
    assert "justification" not in entries["fresh"]
    assert Baseline.load(path).fingerprints == {
        kept.fingerprint, finding(message="fresh").fingerprint}


def test_baseline_rejects_unknown_version(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({"version": 99, "findings": []}))
    with pytest.raises(ValueError):
        Baseline.load(str(path))


# -- reporters ---------------------------------------------------------------


def test_text_report_mentions_rule_and_location():
    result = AnalysisResult(findings=[finding()], scanned=3)
    text = render_text(result)
    assert "SEC001" in text
    assert "a.xml" in text
    assert "3 target(s)" in text


def test_json_report_is_machine_readable():
    result = AnalysisResult(findings=[finding()], scanned=1)
    payload = json.loads(render_json(result))
    assert payload["findings"][0]["rule_id"] == "SEC001"
    assert payload["scanned"] == 1
    assert payload["worst"] == "ERROR"


def test_summary_line_counts_suppressed():
    result = AnalysisResult(suppressed=[finding()], scanned=2)
    line = summary_line(result)
    assert "no findings" in line
    assert "1 baseline-suppressed" in line
