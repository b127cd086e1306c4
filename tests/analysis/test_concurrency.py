"""Concurrency-engine behaviour: one mini-program per CON rule
(racy and disciplined variants), root discovery and shared-surface
gating, and the incremental cache.  Every case runs through the one
interprocedural driver and keeps only CON findings."""

import json
import os
import textwrap

import pytest

from repro.analysis import interproc
from repro.analysis.interproc import AnalysisCache, analyze_paths

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def analyze_modules(sources: dict):
    """The driver's result over *sources*, CON findings only."""
    result = interproc.analyze_modules(sources)
    result.findings = [f for f in result.findings
                       if f.rule_id.startswith("CON")]
    return result


def analyze_source(source: str, path: str) -> list:
    return analyze_modules({path: source}).findings


#: fixtures impersonate a shared-surface module; state here is
#: expected to be visible from many contexts at once.
SHARED_PATH = "src/repro/perf/cache.py"


def conc(snippet: str, path: str = SHARED_PATH):
    return analyze_source(textwrap.dedent(snippet), path)


def rule_ids(findings) -> set:
    return {finding.rule_id for finding in findings}


# -- CON301: shared write outside any lock ----------------------------------


CON301_VIOLATION = """
class Registry:
    def __init__(self):
        self.count = 0

    def bump(self):
        self.count = self.count + 1

def main(pool):
    registry = Registry()
    pool.submit(registry.bump)
"""


def test_con301_unlocked_write_from_task_root():
    findings = conc(CON301_VIOLATION)
    assert rule_ids(findings) == {"CON301"}
    (finding,) = findings
    assert "count" in finding.message
    assert "Registry.bump" in finding.detail


def test_con301_clean_when_write_is_locked():
    disciplined = CON301_VIOLATION.replace(
        "        self.count = self.count + 1",
        "        with self._lock:\n"
        "            self.count = self.count + 1",
    )
    assert conc(disciplined) == []


def test_con301_not_minted_off_the_shared_surface():
    # Identical program, but per-context state (xmlcore parse trees
    # are never shared): the allowlist keeps it silent.
    assert conc(CON301_VIOLATION, "src/repro/xmlcore/example.py") == []


def test_con301_constructor_writes_are_pre_publication():
    snippet = """
    class Registry:
        def __init__(self):
            self.count = 0

        def read(self):
            return self.count

    def main(pool):
        registry = Registry()
        pool.submit(registry.read)
    """
    assert conc(snippet) == []


def test_con301_thread_target_is_a_root():
    snippet = """
    import threading

    class Registry:
        def __init__(self):
            self.count = 0

        def bump(self):
            self.count = self.count + 1

    def main():
        registry = Registry()
        threading.Thread(target=registry.bump).start()
    """
    assert rule_ids(conc(snippet)) == {"CON301"}


# -- CON302: check-then-act without a common lock ---------------------------


CON302_VIOLATION = """
class Memo:
    def __init__(self):
        self._entries = {}

    def put(self, key, value):
        if key not in self._entries:
            self._entries[key] = value

def main(pool):
    memo = Memo()
    pool.submit(memo.put)
"""


def test_con302_unlocked_check_then_act():
    findings = conc(CON302_VIOLATION)
    assert "CON302" in rule_ids(findings)
    finding = next(f for f in findings if f.rule_id == "CON302")
    assert "test at line" in finding.detail


def test_con302_clean_when_check_and_act_share_the_lock():
    disciplined = """
    class Memo:
        def __init__(self):
            self._entries = {}

        def put(self, key, value):
            with self._lock:
                if key not in self._entries:
                    self._entries[key] = value

    def main(pool):
        memo = Memo()
        pool.submit(memo.put)
    """
    assert conc(disciplined) == []


# -- CON303: lock-discipline violations -------------------------------------


def test_con303_inconsistent_guards_across_sites():
    snippet = """
    class Counter:
        def __init__(self):
            self.total = 0

        def from_reader(self):
            with self._read_lock:
                self.total = self.total + 1

        def from_writer(self):
            with self._write_lock:
                self.total = self.total + 1

    def main(pool):
        counter = Counter()
        pool.submit(counter.from_reader)
        pool.submit(counter.from_writer)
    """
    findings = conc(snippet)
    assert rule_ids(findings) == {"CON303"}
    (finding,) = findings
    assert "inconsistent" in finding.message


def test_con303_blocking_call_under_lock():
    snippet = """
    import time

    class Flusher:
        def flush(self):
            with self._lock:
                time.sleep(0.1)

    def main(pool):
        flusher = Flusher()
        pool.submit(flusher.flush)
    """
    findings = conc(snippet)
    assert rule_ids(findings) == {"CON303"}
    (finding,) = findings
    assert "blocking" in finding.message


def test_con303_clean_when_blocking_runs_outside_lock():
    snippet = """
    import time

    class Flusher:
        def flush(self):
            with self._lock:
                pending = True
            time.sleep(0.1)

    def main(pool):
        flusher = Flusher()
        pool.submit(flusher.flush)
    """
    assert conc(snippet) == []


def test_con303_reentrant_lock_reacquisition_is_clean():
    snippet = """
    import threading

    class Nested:
        def __init__(self):
            self._lock = threading.RLock()

        def outer(self):
            with self._lock:
                self.inner()

        def inner(self):
            with self._lock:
                return 1

    def main(pool):
        nested = Nested()
        pool.submit(nested.outer)
    """
    assert conc(snippet) == []


def test_con303_nonreentrant_lock_reacquisition_flagged():
    snippet = """
    import threading

    class Nested:
        def __init__(self):
            self._lock = threading.Lock()

        def outer(self):
            with self._lock:
                self.inner()

        def inner(self):
            with self._lock:
                return 1

    def main(pool):
        nested = Nested()
        pool.submit(nested.outer)
    """
    findings = conc(snippet)
    assert rule_ids(findings) == {"CON303"}
    (finding,) = findings
    assert "re-acquired" in finding.message


# -- CON304: blocking calls under async roots -------------------------------


CON304_VIOLATION = """
import time

async def refresh_bindings(service):
    time.sleep(1.0)
    return service.poll()
"""


def test_con304_blocking_sleep_in_async_root():
    findings = conc(CON304_VIOLATION, "src/repro/xkms/example.py")
    assert rule_ids(findings) == {"CON304"}
    (finding,) = findings
    assert "async" in finding.message


def test_con304_asyncio_sleep_is_await_friendly():
    friendly = CON304_VIOLATION.replace("import time", "import asyncio") \
        .replace("time.sleep(1.0)", "asyncio.sleep(1.0)")
    assert conc(friendly, "src/repro/xkms/example.py") == []


def test_con304_blocking_reached_transitively():
    findings = analyze_modules({
        "src/repro/xkms/a.py": textwrap.dedent("""
            from repro.xkms.b import fetch_remote

            async def serve(request):
                return fetch_remote(request)
        """),
        "src/repro/xkms/b.py": textwrap.dedent("""
            import time

            def fetch_remote(request):
                time.sleep(0.5)
                return request
        """),
    }).findings
    assert "CON304" in rule_ids(findings)


# -- roots / surface mechanics ----------------------------------------------


def test_main_only_programs_are_clean():
    snippet = """
    class Registry:
        def __init__(self):
            self.count = 0

        def bump(self):
            self.count = self.count + 1

    def main():
        registry = Registry()
        registry.bump()
    """
    # No executor, no thread, no async, no driver: nothing is shared.
    assert conc(snippet) == []


def test_main_thread_writer_of_root_read_state_is_flagged():
    snippet = """
    class Registry:
        def __init__(self):
            self.count = 0

        def read(self):
            return self.count

        def bump(self):
            self.count = self.count + 1

    def main(pool):
        registry = Registry()
        pool.submit(registry.read)
        registry.bump()
    """
    # The root only reads, but the main thread writes concurrently
    # with that read: still a torn-read hazard.
    assert rule_ids(conc(snippet)) == {"CON301"}


# -- incremental cache -------------------------------------------------------


MODULE_A = "def alpha():\n    return 1\n"
MODULE_B = "def beta():\n    return 2\n"


@pytest.fixture
def tree(tmp_path):
    (tmp_path / "a.py").write_text(MODULE_A)
    (tmp_path / "b.py").write_text(MODULE_B)
    return tmp_path


def test_cache_cold_then_memoized_run(tree, tmp_path):
    cache_path = str(tmp_path / "cache.json")
    cold = AnalysisCache(cache_path)
    analyze_paths([str(tree)], cache=cold)
    assert not cold.run_hit and cold.misses == 2

    warm = AnalysisCache(cache_path)
    result = analyze_paths([str(tree)], cache=warm)
    assert warm.run_hit
    assert result.scanned == 2


def test_cache_invalidates_only_the_changed_module(tree, tmp_path):
    cache_path = str(tmp_path / "cache.json")
    analyze_paths([str(tree)], cache=AnalysisCache(cache_path))

    (tree / "b.py").write_text(MODULE_B + "\ndef gamma():\n    return 3\n")
    edited = AnalysisCache(cache_path)
    analyze_paths([str(tree)], cache=edited)
    assert not edited.run_hit
    assert edited.hits == 1 and edited.misses == 1


# -- committed baseline ------------------------------------------------------


def test_repo_concurrency_clean_modulo_baseline(repo_above_baseline):
    """`repro.tools analyze src`: no CON finding above the committed
    baseline."""
    kept = repo_above_baseline("CON")
    assert kept.findings == [], [f.render() for f in kept.findings]
    assert kept.scanned > 100


def test_concurrency_baseline_is_wellformed_and_justified():
    """Every CON entry in the one interprocedural baseline."""
    with open(os.path.join(REPO_ROOT, "interproc-baseline.json"),
              encoding="utf-8") as handle:
        payload = json.load(handle)
    assert payload["version"] == 1
    for entry in payload["findings"]:
        if not entry["rule_id"].startswith("CON"):
            continue
        assert entry["fingerprint"]
        assert entry["justification"]
