"""The one analysis cache: module-level hash keys, run-level
memoization, version invalidation, and a differential over ``src/``
showing every cache path returns the uncached findings of all four
packs."""

import json
import os
import shutil

from repro.analysis.interproc import (
    AnalysisCache, analyze_paths, content_hash,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

VIOLATION = """\
from repro.xmlcore.parser import parse_element

def handle(client, interp):
    interp.run(parse_element(client.fetch("x")))
"""

CLEAN = """\
def handle(payload):
    return len(payload)
"""


def write_tree(root, body=VIOLATION):
    pkg = root / "untrusted"
    pkg.mkdir(exist_ok=True)
    target = pkg / "example.py"
    target.write_text(body)
    (pkg / "other.py").write_text(CLEAN)
    return str(pkg), str(target)


def test_cold_then_warm_run_is_memoized(tmp_path):
    pkg, _ = write_tree(tmp_path)
    cache_path = str(tmp_path / "cache.json")

    cold_cache = AnalysisCache(cache_path)
    cold = analyze_paths([pkg], cache=cold_cache)
    assert {f.rule_id for f in cold.findings} == {"TNT201"}
    assert cold_cache.run_hit is False
    assert os.path.exists(cache_path)

    warm_cache = AnalysisCache(cache_path)
    warm = analyze_paths([pkg], cache=warm_cache)
    assert warm_cache.run_hit is True
    assert [f.fingerprint for f in warm.findings] == \
        [f.fingerprint for f in cold.findings]
    assert warm.scanned == cold.scanned


def test_edited_module_misses_and_reruns(tmp_path):
    pkg, target = write_tree(tmp_path)
    cache_path = str(tmp_path / "cache.json")
    analyze_paths([pkg], cache=AnalysisCache(cache_path))

    with open(target, "w") as handle:
        handle.write(CLEAN)
    cache = AnalysisCache(cache_path)
    result = analyze_paths([pkg], cache=cache)
    assert cache.run_hit is False
    assert cache.hits == 1 and cache.misses == 1  # other.py unchanged
    assert result.findings == []


def test_version_bump_invalidates_cache(tmp_path):
    pkg, _ = write_tree(tmp_path)
    cache_path = str(tmp_path / "cache.json")
    analyze_paths([pkg], cache=AnalysisCache(cache_path))

    with open(cache_path) as handle:
        payload = json.load(handle)
    payload["spec_version"] = -1
    with open(cache_path, "w") as handle:
        json.dump(payload, handle)

    cache = AnalysisCache(cache_path)
    analyze_paths([pkg], cache=cache)
    assert cache.run_hit is False
    assert cache.misses == 2


def test_corrupt_cache_file_is_ignored(tmp_path):
    pkg, _ = write_tree(tmp_path)
    cache_path = str(tmp_path / "cache.json")
    with open(cache_path, "w") as handle:
        handle.write("{not json")
    result = analyze_paths([pkg], cache=AnalysisCache(cache_path))
    assert {f.rule_id for f in result.findings} == {"TNT201"}


def test_run_history_is_bounded(tmp_path):
    pkg, target = write_tree(tmp_path)
    cache_path = str(tmp_path / "cache.json")
    for index in range(12):
        with open(target, "w") as handle:
            handle.write(CLEAN + f"\nMARKER = {index}\n")
        analyze_paths([pkg], cache=AnalysisCache(cache_path))
    with open(cache_path) as handle:
        payload = json.load(handle)
    assert len(payload["runs"]) <= 8


def test_content_hash_is_stable():
    assert content_hash(b"abc") == content_hash(b"abc")
    assert content_hash(b"abc") != content_hash(b"abd")


def test_every_cache_path_matches_the_uncached_run_on_src(tmp_path):
    """No cache, a cold cache, one edited module (module-level hits)
    and an unchanged tree (run-level memo) give identical findings."""
    src = str(tmp_path / "src")
    shutil.copytree(os.path.join(REPO_ROOT, "src"), src,
                    ignore=shutil.ignore_patterns("__pycache__"))
    cache_path = str(tmp_path / "cache.json")

    def triples(result):
        return [(f.fingerprint, f.line, f.detail) for f in result.findings]

    uncached = triples(analyze_paths([src]))
    assert uncached, "src/ lost its baselined findings"
    # The LIN findings come from the module-level entries on the cached
    # paths below, so the differential covers them too.
    assert any(fingerprint.startswith("LIN")
               for fingerprint, _, _ in uncached)

    cold = AnalysisCache(cache_path)
    assert triples(analyze_paths([src], cache=cold)) == uncached
    assert not cold.run_hit and cold.hits == 0

    # A trailing comment changes the hash but no line or finding.
    edited = os.path.join(src, "repro", "analysis", "interproc.py")
    with open(edited, "a", encoding="utf-8") as handle:
        handle.write("# edited\n")
    partial = AnalysisCache(cache_path)
    assert triples(analyze_paths([src], cache=partial)) == uncached
    assert not partial.run_hit
    assert partial.misses == 1 and partial.hits == cold.misses - 1

    memo = AnalysisCache(cache_path)
    assert triples(analyze_paths([src], cache=memo)) == uncached
    assert memo.run_hit
