"""Taint-engine behaviour: one mini-program per TNT rule (violating
and sanitized variants) and the propagation mechanics.  Every case runs
through the one interprocedural driver and keeps only TNT findings."""

import json
import os
import textwrap

from repro.analysis import interproc

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def analyze_modules(sources: dict):
    """The driver's result over *sources*, TNT findings only."""
    result = interproc.analyze_modules(sources)
    result.findings = [f for f in result.findings
                       if f.rule_id.startswith("TNT")]
    return result


def analyze_source(source: str, path: str) -> list:
    return analyze_modules({path: source}).findings


def taint(snippet: str, path: str = "src/repro/network/example.py"):
    return analyze_source(textwrap.dedent(snippet), path)


def rule_ids(findings) -> set:
    return {finding.rule_id for finding in findings}


# -- TNT201: untrusted bytes -> script execution ----------------------------


TNT201_VIOLATION = """
from repro.xmlcore.parser import parse_element

def handle(client, interp):
    payload = client.fetch("app.xml")
    doc = parse_element(payload)
    interp.run(doc)
"""


def test_tnt201_unverified_parse_reaches_interpreter():
    findings = taint(TNT201_VIOLATION)
    assert rule_ids(findings) == {"TNT201"}
    (finding,) = findings
    assert "script interpreter" in finding.message


def test_tnt201_clean_after_verification():
    sanitized = TNT201_VIOLATION.replace(
        "def handle(client, interp):",
        "def handle(client, interp, verifier):",
    ).replace(
        "    interp.run(doc)",
        "    verifier.verify(doc)\n    interp.run(doc)",
    )
    assert taint(sanitized) == []


def test_tnt201_flows_across_modules_with_trace():
    findings = analyze_modules({
        "src/repro/network/a.py": textwrap.dedent("""
            from repro.network.b import stage_two

            def entry(client, interp):
                payload = client.fetch("x")
                stage_two(payload, interp)
        """),
        "src/repro/network/b.py": textwrap.dedent("""
            from repro.xmlcore.parser import parse_element

            def stage_two(data, interp):
                run_it(parse_element(data), interp)

            def run_it(doc, interp):
                interp.run(doc)
        """),
    }).findings
    assert "TNT201" in rule_ids(findings)
    trace = next(f for f in findings if f.rule_id == "TNT201").detail
    assert "entry" in trace and "->" in trace


# -- TNT202: unverified markup -> playback/output ---------------------------


TNT202_VIOLATION = """
from repro.xmlcore.parser import parse_document

def present(image, engine):
    data = image.read("BDMV/markup.xml")
    doc = parse_document(data)
    engine.execute(doc)
"""


def test_tnt202_unverified_disc_markup_reaches_playback():
    findings = taint(TNT202_VIOLATION, "src/repro/player/example.py")
    assert rule_ids(findings) == {"TNT202"}


def test_tnt202_clean_after_verification():
    sanitized = TNT202_VIOLATION.replace(
        "def present(image, engine):",
        "def present(image, engine, verifier):",
    ).replace(
        "    engine.execute(doc)",
        "    verifier.verify_or_raise(doc)\n    engine.execute(doc)",
    )
    assert taint(sanitized, "src/repro/player/example.py") == []


def test_trusted_wrapper_result_is_verified():
    snippet = """
    def play(pipeline, engine, data):
        application = pipeline.open_package(data)
        engine.execute(application)
    """
    # open_package is only trusted under its resolved qualified name,
    # so mimic the real module layout.
    findings = analyze_modules({
        "src/repro/core/playback_pipeline.py": textwrap.dedent("""
            class PlaybackPipeline:
                def open_package(self, data):
                    return data
        """),
        "src/repro/player/example.py": textwrap.dedent("""
            from repro.core.playback_pipeline import PlaybackPipeline

            def play(engine, data):
                pipeline = PlaybackPipeline()
                application = pipeline.open_package(data)
                engine.execute(application)
        """),
    }).findings
    assert "TNT202" not in rule_ids(findings)


# -- TNT203: secrets -> logs / repr / exception text ------------------------


def test_tnt203_key_bytes_printed():
    snippet = """
    from repro.primitives.keys import SymmetricKey

    def debug_dump(raw):
        key = SymmetricKey(raw)
        print(key.data)
    """
    findings = taint(snippet, "src/repro/primitives/example.py")
    assert rule_ids(findings) == {"TNT203"}


def test_tnt203_key_in_log_and_exception_text():
    snippet = """
    def audit(key, log):
        log.append(f"using key {key.data}")

    def fail(secret_key):
        raise ValueError(f"bad key {secret_key.d}")
    """
    findings = taint(snippet, "src/repro/primitives/example.py")
    assert len(findings) == 2
    assert rule_ids(findings) == {"TNT203"}


def test_tnt203_clean_when_logging_fingerprint():
    snippet = """
    from repro.primitives.keys import SymmetricKey

    def audit(raw, log):
        key = SymmetricKey(raw)
        log.append(f"using key {key.fingerprint()}")
    """
    assert taint(snippet, "src/repro/primitives/example.py") == []


def test_tnt203_signature_output_is_declassified():
    snippet = """
    from repro.primitives.rsa import generate_keypair

    def publish(provider, rng, log):
        key = generate_keypair(1024, rng)
        signature = provider.rsa_sign_digest(key, b"digest", "sha256")
        log.append(f"signature {signature!r}")
    """
    assert taint(snippet, "src/repro/certs/example.py") == []


def test_tnt203_secret_cache_key():
    snippet = """
    def memoize(key, verdict_cache, verdict):
        verdict_cache[key.data] = verdict
    """
    findings = taint(snippet, "src/repro/primitives/example.py")
    assert rule_ids(findings) == {"TNT203"}


def test_tnt203_dataclass_repr_leak_detected_structurally():
    snippet = """
    from dataclasses import dataclass, field

    @dataclass(frozen=True)
    class PrivateKeyPair:
        n: int
        d: int
        data: bytes = field(repr=False)
    """
    findings = taint(snippet, "src/repro/primitives/example.py")
    assert rule_ids(findings) == {"TNT203"}
    (finding,) = findings
    assert ".d" in finding.message and "repr" in finding.message


def test_tnt203_dataclass_clean_with_custom_repr():
    snippet = """
    from dataclasses import dataclass

    @dataclass(frozen=True)
    class PrivateKeyPair:
        n: int
        d: int

        def __repr__(self):
            return "PrivateKeyPair(<redacted>)"
    """
    assert taint(snippet, "src/repro/primitives/example.py") == []


# -- TNT204: re-parse discards the verification proof -----------------------


TNT204_VIOLATION = """
from repro.xmlcore.parser import parse_element

def relay(client, interp, verifier, serialize):
    doc = parse_element(client.fetch("app.xml"))
    verifier.verify(doc)
    doc2 = parse_element(serialize(doc))
    interp.run(doc2)
"""


def test_tnt204_reparse_after_verify():
    findings = taint(TNT204_VIOLATION)
    assert rule_ids(findings) == {"TNT204"}
    (finding,) = findings
    assert "re-parsed" in finding.message


def test_tnt204_clean_when_verified_doc_used_directly():
    direct = TNT204_VIOLATION.replace(
        "    doc2 = parse_element(serialize(doc))\n"
        "    interp.run(doc2)",
        "    interp.run(doc)",
    )
    assert taint(direct) == []


# -- propagation mechanics --------------------------------------------------


def test_sanitizer_clears_argument_in_place():
    snippet = """
    from repro.xmlcore.parser import parse_element

    def handle(client, interp, verifier):
        doc = parse_element(client.fetch("x"))
        verifier.verify(doc)
        interp.run(doc)

    def still_bad(client, interp, verifier, other):
        doc = parse_element(client.fetch("x"))
        verifier.verify(other)
        interp.run(doc)
    """
    findings = taint(snippet)
    assert len(findings) == 1
    assert findings[0].line > 0


def test_taint_survives_containers_and_fstrings():
    snippet = """
    def leak(key, log):
        parts = [key.data, "x"]
        log.append(f"blob {parts}")
    """
    assert rule_ids(taint(snippet, "src/repro/primitives/e.py")) == \
        {"TNT203"}


def test_tuple_destructuring_is_precise():
    snippet = """
    def serialize(key, emit):
        for name, value in (("n", key.n), ("d", key.d)):
            emit(name, value)
        print(name)
    """
    # `name` never carries the secret, so printing it is clean.
    assert taint(snippet, "src/repro/primitives/e.py") == []


def test_taint_stopper_drops_labels():
    snippet = """
    def size_of(client, interp):
        payload = client.fetch("x")
        interp.run(len(payload))
    """
    assert taint(snippet) == []


def test_untrusted_path_parse_is_source_only_there():
    snippet = """
    from repro.xmlcore.parser import parse_element

    def build(interp):
        interp.run(parse_element("<static/>"))
    """
    assert "TNT201" in rule_ids(taint(
        snippet, "src/repro/network/example.py"))
    assert taint(snippet, "src/repro/disc/manifest_builder.py") == []


# -- committed baseline ------------------------------------------------------


def test_repo_taints_clean_modulo_baseline(repo_above_baseline):
    """`repro.tools analyze src`: no TNT finding above the committed
    baseline."""
    kept = repo_above_baseline("TNT")
    assert kept.findings == [], [f.render() for f in kept.findings]
    assert kept.scanned > 100


def test_taint_baseline_is_wellformed_and_justified():
    """Every TNT entry in the one interprocedural baseline."""
    with open(os.path.join(REPO_ROOT, "interproc-baseline.json"),
              encoding="utf-8") as handle:
        payload = json.load(handle)
    assert payload["version"] == 1
    for entry in payload["findings"]:
        if not entry["rule_id"].startswith("TNT"):
            continue
        assert entry["fingerprint"]
        assert entry["justification"]
