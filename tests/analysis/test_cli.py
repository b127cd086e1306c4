"""The ``repro audit`` / ``analyze`` command-line surface."""

import json
import os

import pytest

from repro.tools.cli import main

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def fixture(name: str) -> str:
    return os.path.join(FIXTURES, name)


INTERPROC_BASELINE = os.path.join(REPO_ROOT, "interproc-baseline.json")


# -- audit -------------------------------------------------------------------


def test_audit_clean_exits_zero(capsys):
    assert main(["audit", fixture("clean.xml")]) == 0
    out = capsys.readouterr().out
    assert "no findings" in out
    assert "signature coverage" in out


def test_audit_wrapped_fixture_fails_with_rule_id(capsys):
    code = main(["audit", fixture("wrapped_duplicate_id.xml")])
    assert code == 1
    assert "SEC001" in capsys.readouterr().out


def test_audit_fail_on_threshold(capsys):
    weak = fixture("weak_algorithms.xml")  # warnings only
    assert main(["audit", weak]) == 1
    assert main(["audit", "--fail-on", "error", weak]) == 0


def test_audit_json_report(tmp_path, capsys):
    out = str(tmp_path / "report.json")
    code = main(["audit", "--json", out,
                 fixture("wrapped_duplicate_id.xml")])
    assert code == 1
    capsys.readouterr()
    with open(out, encoding="utf-8") as handle:
        payload = json.load(handle)
    assert any(f["rule_id"] == "SEC001" for f in payload["findings"])


def test_audit_rules_catalog(capsys):
    assert main(["audit", "--rules"]) == 0
    out = capsys.readouterr().out
    assert "SEC001" in out and "SEC041" in out
    assert "LIN101" not in out


def test_audit_without_artifacts_is_usage_error(capsys):
    assert main(["audit"]) == 2


def test_audit_baseline_workflow(tmp_path, capsys):
    """--update-baseline accepts today's findings; reruns pass."""
    target = fixture("weak_algorithms.xml")
    baseline = str(tmp_path / "baseline.json")
    assert main(["audit", "--update-baseline", baseline, target]) == 0
    assert main(["audit", "--baseline", baseline, target]) == 0
    out = capsys.readouterr().out
    assert "baseline-suppressed" in out
    # A different finding is NOT covered by that baseline.
    assert main(["audit", "--baseline", baseline,
                 fixture("dangling_reference.xml")]) == 1


def test_audit_missing_baseline_is_usage_error(tmp_path, capsys):
    missing = str(tmp_path / "no-such.json")
    assert main(["audit", "--fail-on", "info", "--baseline", missing,
                 fixture("clean.xml")]) == 2
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ") and missing in line
    assert not os.path.exists(missing)


# -- analyze -----------------------------------------------------------------


def test_analyze_missing_baseline_is_usage_error(tmp_path, capsys):
    module = tmp_path / "fine.py"
    module.write_text("def ok():\n    return 1\n")
    missing = str(tmp_path / "no-such.json")
    assert main(["analyze", str(module), "--no-cache",
                 "--baseline", missing]) == 2
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ") and missing in line
    # --update-baseline still creates its file.
    assert main(["analyze", str(module), "--no-cache",
                 "--update-baseline", missing]) == 0
    assert os.path.exists(missing)


def test_analyze_repo_passes_with_committed_baseline(tmp_path, capsys):
    src = os.path.join(REPO_ROOT, "src")
    baseline = os.path.join(REPO_ROOT, "interproc-baseline.json")
    cache = str(tmp_path / "cache.json")
    assert main(["analyze", src, "--baseline", baseline,
                 "--cache", cache]) == 0
    assert "no findings" in capsys.readouterr().out
    # Second invocation hits the run-level cache and agrees.
    assert main(["analyze", src, "--baseline", baseline,
                 "--cache", cache, "-v"]) == 0
    assert "warm" in capsys.readouterr().out


def test_analyze_unparsable_module_is_a_usage_error(tmp_path, capsys):
    (tmp_path / "fine.py").write_text("def ok():\n    return 1\n")
    (tmp_path / "broken.py").write_text("def broken(:\n    pass\n")
    assert main(["analyze", str(tmp_path), "--no-cache"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert f"{tmp_path / 'broken.py'}:1" in line
    assert "Traceback" not in captured.err


@pytest.fixture(scope="module")
def repo_cache(tmp_path_factory):
    """One cache for the per-pack committed-baseline runs below: the
    first runs cold, the others hit its run-level memo."""
    return str(tmp_path_factory.mktemp("analyze") / "cache.json")


def pack_baseline_split(cache, tmp_path, capsys, prefix):
    """Run `analyze src` on the committed baseline (exit 0, no
    findings); return the fingerprints of the *prefix* pack that the
    run suppressed and those that the baseline file accepts."""
    report = tmp_path / "report.json"
    assert main(["analyze", os.path.join(REPO_ROOT, "src"),
                 "--baseline", INTERPROC_BASELINE, "--cache", cache,
                 "--json", str(report)]) == 0
    assert "no findings" in capsys.readouterr().out
    suppressed = {f["fingerprint"]
                  for f in json.loads(report.read_text())["suppressed"]
                  if f["rule_id"].startswith(prefix)}
    with open(INTERPROC_BASELINE, encoding="utf-8") as handle:
        accepted = {e["fingerprint"] for e in json.load(handle)["findings"]
                    if e["rule_id"].startswith(prefix)}
    return suppressed, accepted


# -- lint (the LIN pack) ----------------------------------------------------


def test_lint_repo_passes_with_committed_baseline(repo_cache, tmp_path,
                                                  capsys):
    suppressed, accepted = pack_baseline_split(repo_cache, tmp_path,
                                               capsys, "LIN")
    assert suppressed == accepted


def test_lint_flags_seeded_violation(tmp_path, capsys):
    bad = tmp_path / "badtree.py"
    bad.write_text(
        "class Node:\n"
        "    def mark_mutated(self):\n"
        "        pass\n"
        "    def drop(self, child):\n"
        "        self.children.remove(child)\n"
    )
    assert main(["analyze", str(bad), "--no-cache"]) == 1
    assert "LIN101" in capsys.readouterr().out


def test_lint_rules_catalog(capsys):
    assert main(["analyze", "--rules"]) == 0
    out = capsys.readouterr().out
    assert "LIN101" in out and "LIN105" in out
    assert "SEC001" not in out


# -- taint -------------------------------------------------------------------


def test_taint_repo_passes_with_committed_baseline(repo_cache, tmp_path,
                                                   capsys):
    suppressed, accepted = pack_baseline_split(repo_cache, tmp_path,
                                               capsys, "TNT")
    assert suppressed == accepted


def test_taint_flags_seeded_flow(tmp_path, capsys):
    bad = tmp_path / "untrusted" / "relay.py"
    bad.parent.mkdir()
    bad.write_text(
        "from repro.xmlcore.parser import parse_element\n"
        "def handle(client, interp):\n"
        "    interp.run(parse_element(client.fetch('x')))\n"
    )
    assert main(["analyze", str(bad.parent), "--no-cache"]) == 1
    assert "TNT201" in capsys.readouterr().out


def test_taint_rules_catalog(capsys):
    assert main(["analyze", "--rules"]) == 0
    out = capsys.readouterr().out
    assert "TNT201" in out and "TNT204" in out
    assert "SEC001" not in out


# -- concurrency -------------------------------------------------------------


def test_concurrency_repo_passes_with_committed_baseline(repo_cache,
                                                         tmp_path, capsys):
    suppressed, accepted = pack_baseline_split(repo_cache, tmp_path,
                                               capsys, "CON")
    assert suppressed == accepted


def test_concurrency_flags_seeded_async_blocker(tmp_path, capsys):
    bad = tmp_path / "asyncsvc" / "service.py"
    bad.parent.mkdir()
    bad.write_text(
        "import time\n"
        "async def serve(request):\n"
        "    time.sleep(1.0)\n"
        "    return request\n"
    )
    assert main(["analyze", str(bad.parent), "--no-cache"]) == 1
    assert "CON304" in capsys.readouterr().out


def test_concurrency_rules_catalog(capsys):
    assert main(["analyze", "--rules"]) == 0
    out = capsys.readouterr().out
    assert "CON301" in out and "CON304" in out
    assert "SEC001" not in out


# -- lifecycle ---------------------------------------------------------------


def test_lifecycle_repo_passes_with_committed_baseline(repo_cache,
                                                       tmp_path, capsys):
    suppressed, accepted = pack_baseline_split(repo_cache, tmp_path,
                                               capsys, "LIF")
    assert suppressed == accepted


def test_lifecycle_flags_seeded_orphan_task(tmp_path, capsys):
    bad = tmp_path / "asyncsvc" / "spawner.py"
    bad.parent.mkdir()
    bad.write_text(
        "import asyncio\n"
        "async def serve(work):\n"
        "    asyncio.create_task(work())\n"
    )
    assert main(["analyze", str(bad.parent), "--no-cache"]) == 1
    assert "LIF401" in capsys.readouterr().out


def test_lifecycle_flags_seeded_deadline_drop(tmp_path, capsys):
    bad = tmp_path / "asyncsvc" / "chain.py"
    bad.parent.mkdir()
    bad.write_text(
        "async def fetch(channel, deadline):\n"
        "    await exchange(channel)\n"
        "async def exchange(channel, deadline=None):\n"
        "    await channel.clock.wait_until(channel.future,\n"
        "                                   deadline.at)\n"
    )
    assert main(["analyze", str(bad.parent), "--no-cache"]) == 1
    assert "LIF404" in capsys.readouterr().out


def test_lifecycle_rules_catalog(capsys):
    assert main(["analyze", "--rules"]) == 0
    out = capsys.readouterr().out
    assert "LIF401" in out and "LIF405" in out
    assert "SEC001" not in out
