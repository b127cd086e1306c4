"""One minimal violating snippet per LIN rule, plus the clean-repo run.
Every case runs through ``analyze_modules`` and keeps only LIN
findings."""

import json
import os
import textwrap

import pytest

from repro.analysis import interproc
from repro.tools.cli import main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def analyze_modules(sources: dict):
    """``analyze_modules`` over *sources*, LIN findings only."""
    result = interproc.analyze_modules(sources)
    result.findings = [f for f in result.findings
                       if f.rule_id.startswith("LIN")]
    return result


def analyze_source(source: str, path: str) -> list:
    return analyze_modules({path: source}).findings


def lint(snippet: str, path: str = "src/repro/dsig/example.py"):
    return analyze_source(textwrap.dedent(snippet), path)


def rule_ids(findings) -> set:
    return {finding.rule_id for finding in findings}


# -- LIN101: mutators must bump revision stamps -----------------------------


SEEDED_MUTATOR_VIOLATION = """
class Element:
    def __init__(self):
        self.children = []
        self.revision = 0

    def mark_mutated(self):
        self.revision += 1

    def append(self, child):
        self.children.append(child)
        self.mark_mutated()

    def sneaky_remove(self, child):
        # BUG under test: skips the revision bump.
        self.children.remove(child)
"""


def test_lin101_catches_mutator_skipping_revision_bump():
    findings = lint(SEEDED_MUTATOR_VIOLATION, "src/repro/xmlcore/x.py")
    assert rule_ids(findings) == {"LIN101"}
    (finding,) = findings
    assert "sneaky_remove" in finding.message
    assert finding.line > 0


def test_lin101_clean_when_all_mutators_bump():
    clean = SEEDED_MUTATOR_VIOLATION.replace(
        "self.children.remove(child)",
        "self.children.remove(child); self.mark_mutated()",
    )
    assert lint(clean, "src/repro/xmlcore/x.py") == []


def test_lin101_ignores_modules_without_revision_protocol():
    snippet = """
    class Bag:
        def add(self, item):
            self.children.append(item)
    """
    assert lint(snippet, "src/repro/other/bag.py") == []


def test_real_tree_module_passes_lin101():
    tree = os.path.join(REPO_ROOT, "src", "repro", "xmlcore", "tree.py")
    with open(tree, encoding="utf-8") as handle:
        findings = analyze_source(handle.read(), tree)
    assert [f for f in findings if f.rule_id == "LIN101"] == []


# -- LIN102: HMAC verdicts never memoized -----------------------------------


def test_lin102_catches_lru_cached_hmac():
    snippet = """
    from functools import lru_cache

    @lru_cache(maxsize=128)
    def hmac_verify(key, data, tag):
        return compute_hmac(key, data) == tag
    """
    assert "LIN102" in rule_ids(lint(snippet))


def test_lin102_catches_hmac_stored_in_cache_table():
    snippet = """
    def check_hmac(key, data, tag):
        verdict = slow_hmac(key, data, tag)
        _verdict_cache[(id(key), data)] = verdict
        return verdict
    """
    assert "LIN102" in rule_ids(lint(snippet))


def test_lin102_allows_uncached_hmac():
    snippet = """
    def hmac_verify(key, data, tag):
        return constant_time_equal(compute_hmac(key, data), tag)
    """
    assert lint(snippet) == []


# -- LIN103: constant-time comparisons in crypto paths ----------------------


def test_lin103_catches_digest_equality():
    snippet = """
    def check(reference, actual_digest):
        return actual_digest == reference.digest_value
    """
    assert "LIN103" in rule_ids(lint(snippet))


def test_lin103_ignores_non_crypto_paths():
    snippet = """
    def check(reference, actual_digest):
        return actual_digest == reference.digest_value
    """
    assert lint(snippet, "src/repro/disc/example.py") == []


def test_lin103_allows_algorithm_name_comparison():
    snippet = """
    def pick(signature_method):
        if signature_method == RSA_SHA256:
            return "rsa"
    """
    assert lint(snippet) == []


def test_lin103_allows_literal_comparison():
    snippet = """
    def empty(sig):
        return sig == b""
    """
    assert lint(snippet) == []


# -- LIN104: injected clock in resilience code ------------------------------


def test_lin104_catches_wall_clock():
    snippet = """
    import time

    def backoff(attempt):
        time.sleep(2 ** attempt)
    """
    findings = lint(snippet, "src/repro/resilience/retry_example.py")
    assert "LIN104" in rule_ids(findings)


@pytest.mark.parametrize("snippet", [
    "from time import sleep\nsleep(1)\n",
    "import time as t\nt.monotonic()\n",
    "from time import monotonic as now\nnow()\n",
], ids=["from-import", "module-alias", "name-alias"])
def test_lin104_resolves_imported_clock_names(snippet):
    findings = lint(snippet, "src/repro/resilience/retry_example.py")
    assert rule_ids(findings) == {"LIN104"}


def test_lin104_allows_injected_clock():
    snippet = """
    def backoff(clock, attempt):
        clock.sleep(2 ** attempt)
    """
    path = "src/repro/resilience/retry_example.py"
    assert lint(snippet, path) == []


def test_lin104_does_not_apply_outside_resilience():
    snippet = """
    import time

    def stamp():
        return time.time()
    """
    assert lint(snippet, "src/repro/tools/example.py") == []


# -- LIN105: raw primitives only via the provider ---------------------------


def test_lin105_catches_raw_primitive_import():
    snippet = """
    from repro.primitives.rsa import rsa_sign
    """
    assert "LIN105" in rule_ids(lint(snippet))


def test_lin105_catches_from_package_import():
    snippet = """
    from repro.primitives import aes
    """
    assert "LIN105" in rule_ids(lint(snippet))


@pytest.mark.parametrize("snippet", [
    "from repro.primitives.hmac import hmac_sha256",
    "from repro.primitives.hmac import hmac_sha1",
    "from repro.primitives.hmac import HMAC",
    "from repro.primitives.hmac import constant_time_equal, hmac_sha256",
    "from repro.primitives import HMAC",
])
def test_lin105_catches_raw_hmac_import(snippet):
    findings = lint(snippet)
    assert rule_ids(findings) == {"LIN105"}
    assert "route through primitives.provider" in findings[0].message


def test_lin105_allows_provider_and_utilities():
    snippet = """
    from repro.primitives.provider import get_provider
    from repro.primitives.encoding import b64encode
    from repro.primitives.hmac import constant_time_equal
    from repro.primitives.keys import RSAPublicKey
    """
    assert lint(snippet) == []


def test_lin105_exempts_provider_internals():
    snippet = """
    from repro.primitives.rsa import rsa_sign
    """
    assert lint(snippet, "src/repro/primitives/provider.py") == []


# -- LIN106: untrusted parse calls carry an explicit guard ------------------


def test_lin106_catches_unguarded_parse_on_untrusted_path():
    snippet = """
    from repro.xmlcore import parse_element

    def handle(payload):
        return parse_element(payload)
    """
    findings = lint(snippet, "src/repro/network/example.py")
    assert rule_ids(findings) == {"LIN106"}
    (finding,) = findings
    assert "guard=" in finding.message
    assert finding.line > 0


@pytest.mark.parametrize("path", [
    "src/repro/xkms/example.py",
    "src/repro/xmlenc/example.py",
    "src/repro/player/example.py",
    "src/repro/core/package.py",
    "src/repro/core/playback_pipeline.py",
    "src/repro/disc/image.py",
    "src/repro/perf/batch.py",
])
def test_lin106_covers_every_untrusted_surface(path):
    snippet = """
    from repro.xmlcore import parse_document

    def handle(payload):
        return parse_document(payload)
    """
    assert "LIN106" in rule_ids(lint(snippet, path))


def test_lin106_clean_with_explicit_guard():
    snippet = """
    from repro.resilience.limits import ResourceGuard
    from repro.xmlcore import parse_element

    def handle(payload, guard):
        parse_element(payload, guard=guard)
        return parse_element(payload, guard=ResourceGuard.default())
    """
    assert lint(snippet, "src/repro/network/example.py") == []


def test_lin106_does_not_apply_to_trusted_paths():
    snippet = """
    from repro.xmlcore import parse_element

    def build():
        return parse_element("<layout/>")
    """
    assert lint(snippet, "src/repro/disc/manifest.py") == []
    assert lint(snippet, "src/repro/dsig/signer.py") == []


# -- LIN107: only typed errors escape untrusted-input modules ---------------


def test_lin107_catches_builtin_raise_on_untrusted_path():
    snippet = """
    def handle(payload):
        if not payload:
            raise ValueError("empty request payload")
        return payload
    """
    findings = lint(snippet, "src/repro/xkms/example.py")
    assert rule_ids(findings) == {"LIN107"}
    (finding,) = findings
    assert "ValueError" in finding.message


def test_lin107_clean_with_typed_error():
    snippet = """
    from repro.errors import XKMSError

    def handle(payload):
        if not payload:
            raise XKMSError("empty request payload")
        return payload
    """
    assert lint(snippet, "src/repro/xkms/example.py") == []


def test_lin107_allows_internally_converted_raises():
    # The timing-parser idiom: a helper raises ValueError inside a try
    # whose handler converts it to the typed error.
    snippet = """
    from repro.errors import MarkupError

    def parse_clock(value):
        try:
            if ":" not in value:
                raise ValueError("not a clock value")
            return value.split(":")
        except ValueError as exc:
            raise MarkupError(f"bad clock value: {exc}") from exc
    """
    assert lint(snippet, "src/repro/markup/example.py") == []


def test_lin107_allows_bare_reraise_and_stub_idiom():
    snippet = """
    from repro.errors import NetworkError

    def relay(frame):
        try:
            return frame.decode()
        except NetworkError:
            raise

    def protocol_hook(self):
        raise NotImplementedError
    """
    assert lint(snippet, "src/repro/network/example.py") == []


def test_lin107_does_not_apply_to_trusted_paths():
    snippet = """
    def check(mode):
        if mode not in ("a", "b"):
            raise ValueError(f"unknown mode {mode!r}")
    """
    assert lint(snippet, "src/repro/dsig/signer.py") == []


# -- LIN108: persistence modules never bare-open for writing ----------------


TORN_WRITE_VIOLATION = """
def save(path, payload):
    with open(path, "wb") as handle:
        handle.write(payload)
"""


def test_lin108_catches_bare_write_open_in_persistence_modules():
    for path in ("src/repro/player/localstorage.py",
                 "src/repro/certs/store.py",
                 "src/repro/xkms/server.py",
                 "src/repro/resilience/degradation.py"):
        findings = lint(TORN_WRITE_VIOLATION, path)
        assert "LIN108" in rule_ids(findings), path


def test_lin108_catches_every_write_mode():
    for mode in ("w", "a", "x", "r+", "wb", "ab", "w+b"):
        snippet = TORN_WRITE_VIOLATION.replace('"wb"', f'"{mode}"')
        findings = lint(snippet, "src/repro/certs/store.py")
        assert "LIN108" in rule_ids(findings), mode


def test_lin108_catches_mode_keyword():
    snippet = """
    def save(path, payload):
        with open(path, mode="w") as handle:
            handle.write(payload)
    """
    findings = lint(snippet, "src/repro/player/localstorage.py")
    assert "LIN108" in rule_ids(findings)


def test_lin108_ignores_read_opens():
    snippet = """
    def load(path):
        with open(path, "rb") as handle:
            return handle.read()

    def load_default(path):
        with open(path) as handle:
            return handle.read()
    """
    assert lint(snippet, "src/repro/player/localstorage.py") == []


def test_lin108_exempts_the_durable_layer_itself():
    assert lint(TORN_WRITE_VIOLATION,
                "src/repro/resilience/durable.py") == []
    assert lint(TORN_WRITE_VIOLATION,
                "src/repro/resilience/crashfs.py") == []


def test_lin108_does_not_apply_outside_persistence_modules():
    assert lint(TORN_WRITE_VIOLATION, "src/repro/tools/cli.py") == []
    assert lint(TORN_WRITE_VIOLATION, "src/repro/dsig/signer.py") == []


def test_lin108_skips_dynamic_modes():
    """Only constant string modes are judged — a variable mode can't
    be proven to write, and a false positive here would push authors
    toward silencing the rule wholesale."""
    snippet = """
    def save(path, payload, mode):
        with open(path, mode) as handle:
            handle.write(payload)
    """
    assert lint(snippet, "src/repro/certs/store.py") == []


def test_real_persistence_modules_pass_lin108():
    for name in ("player/localstorage.py", "certs/store.py",
                 "xkms/server.py"):
        module = os.path.join(REPO_ROOT, "src", "repro", *name.split("/"))
        with open(module, encoding="utf-8") as handle:
            findings = analyze_source(handle.read(), module)
        assert [f for f in findings if f.rule_id == "LIN108"] == [], name


# -- clean-repo run ----------------------------------------------------------


def test_repo_lints_clean_modulo_baseline(repo_above_baseline):
    """`repro.tools analyze src`: no LIN finding above the committed
    baseline."""
    kept = repo_above_baseline("LIN")
    assert kept.findings == [], [f.render() for f in kept.findings]
    assert kept.scanned > 100


def test_baseline_file_is_wellformed():
    """Every LIN entry in the one analysis baseline is justified."""
    with open(os.path.join(REPO_ROOT, "interproc-baseline.json"),
              encoding="utf-8") as handle:
        payload = json.load(handle)
    assert payload["version"] == 1
    lin = [entry for entry in payload["findings"]
           if entry["rule_id"].startswith("LIN")]
    assert lin
    for entry in lin:
        assert entry["fingerprint"]
        assert entry["justification"]


def test_syntax_error_is_reported_not_raised(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("def broken(:\n")
    assert main(["analyze", str(bad), "--no-cache"]) == 2
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ")
    assert "Traceback" not in captured.err
