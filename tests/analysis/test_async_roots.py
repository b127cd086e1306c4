"""Async concurrency roots (spec v2): ``asyncio.create_task`` /
``ensure_future`` / task-group spawns make their target a task root,
and ``loop.run_in_executor`` makes its callable a *thread* root — so
shared-state races in spawned work are analyzed exactly like
thread-pool submissions, while the executor offload itself stays the
sanctioned remedy for fsync-bearing paths under async roots."""

import textwrap

from repro.analysis.interproc import analyze_modules, analyze_paths

SHARED_PATH = "src/repro/perf/cache.py"


def conc(snippet: str, path: str = SHARED_PATH):
    """The one driver over *snippet*, CON findings only."""
    findings = analyze_modules({path: textwrap.dedent(snippet)}).findings
    return [f for f in findings if f.rule_id.startswith("CON")]


def rule_ids(findings) -> set:
    return {finding.rule_id for finding in findings}


SPAWNED_RACE = """
class Registry:
    def __init__(self):
        self.count = 0

    async def bump(self):
        self.count = self.count + 1

def main(loop):
    registry = Registry()
    asyncio.create_task(registry.bump())
"""


def test_create_task_target_is_a_concurrency_root():
    findings = conc(SPAWNED_RACE)
    assert rule_ids(findings) == {"CON301"}
    (finding,) = findings
    assert "count" in finding.message


def test_ensure_future_target_is_a_concurrency_root():
    findings = conc(SPAWNED_RACE.replace("asyncio.create_task",
                                         "asyncio.ensure_future"))
    assert rule_ids(findings) == {"CON301"}


def test_task_group_start_soon_target_is_a_root():
    snippet = """
    class Registry:
        def __init__(self):
            self.count = 0

        async def bump(self):
            self.count = self.count + 1

    def main(tg):
        registry = Registry()
        tg.start_soon(registry.bump)
    """
    findings = conc(snippet)
    assert rule_ids(findings) == {"CON301"}


def test_run_in_executor_callable_is_a_thread_root():
    snippet = """
    class Registry:
        def __init__(self):
            self.count = 0

        def persist(self):
            self.count = self.count + 1

    def main(loop):
        registry = Registry()
        loop.run_in_executor(None, registry.persist)
    """
    findings = conc(snippet)
    assert rule_ids(findings) == {"CON301"}


def test_spawned_race_clean_when_locked():
    disciplined = SPAWNED_RACE.replace(
        "        self.count = self.count + 1",
        "        with self._lock:\n"
        "            self.count = self.count + 1",
    )
    assert conc(disciplined) == []


def test_run_in_executor_offload_does_not_mint_con304():
    # The executor callable runs on a thread, not the event loop:
    # blocking there is the *remedy* for CON304, not a violation.
    snippet = """
    def flush(handle):
        os.fsync(handle)

    async def serve(loop, handle):
        await loop.run_in_executor(None, flush, handle)
    """
    assert rule_ids(conc(snippet)) == set()


def test_spawned_async_root_still_gated_on_blocking():
    # An async task spawned with create_task remains an async root:
    # blocking inside it stalls the loop and mints CON304.
    snippet = """
    async def worker():
        time.sleep(1)

    def main():
        asyncio.create_task(worker())
    """
    assert "CON304" in rule_ids(conc(snippet))


def test_async_service_modules_are_concurrency_clean():
    """The PR's async stack passes CON301-CON304 with no baseline."""
    result = analyze_paths([
        "src/repro/resilience", "src/repro/network",
        "src/repro/xkms", "src/repro/loadgen",
    ])
    concs = [f for f in result.findings
             if f.rule_id.startswith("CON")]
    assert concs == []
