"""Lifecycle-engine behaviour: one mini-program per LIF rule (leaky
and disciplined variants), the deadline-propagation proof over the
real service chain, and the incremental cache (including the
cold-start contract on IR and spec version bumps).  Every case runs
through the one interprocedural driver and keeps only LIF findings."""

import json
import os
import textwrap

import pytest

from repro.analysis import interproc
from repro.analysis.interproc import AnalysisCache, analyze_paths

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def analyze_modules(sources: dict):
    """The driver's result over *sources*, LIF findings only."""
    result = interproc.analyze_modules(sources)
    result.findings = [f for f in result.findings
                       if f.rule_id.startswith("LIF")]
    return result


def analyze_source(source: str, path: str) -> list:
    return analyze_modules({path: source}).findings


def life(snippet: str, path: str = "src/repro/example.py"):
    return analyze_source(textwrap.dedent(snippet), path)


def rule_ids(findings) -> set:
    return {finding.rule_id for finding in findings}


# -- LIF401: spawned task without a retained, shut-down handle ---------------


def test_lif401_dropped_handle():
    findings = life("""
    import asyncio

    async def serve(work):
        asyncio.create_task(work())
    """)
    assert rule_ids(findings) == {"LIF401"}
    (finding,) = findings
    assert "without retaining" in finding.message


def test_lif401_unread_local_handle():
    findings = life("""
    import asyncio

    async def serve(work):
        task = asyncio.create_task(work())
        print("spawned")
    """)
    assert rule_ids(findings) == {"LIF401"}
    assert "'task'" in findings[0].message


def test_lif401_awaited_gather_is_clean():
    assert life("""
    import asyncio

    async def serve(work):
        await asyncio.gather(work(), work())
    """) == []


def test_lif401_awaited_local_is_clean():
    assert life("""
    import asyncio

    async def serve(work):
        task = asyncio.create_task(work())
        await task
    """) == []


def test_lif401_returned_handle_is_callers_problem():
    assert life("""
    import asyncio

    def spawn(work):
        return asyncio.ensure_future(work())
    """) == []


OWNED_SPAWN = """
import asyncio

class Server:
    def __init__(self):
        self._tasks = set()

    async def serve(self, work):
        task = asyncio.create_task(work())
        self._tasks.add(task)
"""


def test_lif401_owner_without_shutdown_path():
    findings = life(OWNED_SPAWN)
    assert rule_ids(findings) == {"LIF401"}
    assert "self._tasks" in findings[0].message
    assert "shutdown path" in findings[0].message


def test_lif401_owner_with_shutdown_path_is_clean():
    assert life("""
    import asyncio

    class Server:
        def __init__(self):
            self._tasks = set()

        async def serve(self, work):
            task = asyncio.create_task(work())
            self._tasks.add(task)

        async def aclose(self):
            for task in self._tasks:
                task.cancel()
    """) == []


# -- LIF402: broad except around await swallows CancelledError ---------------


def test_lif402_broad_handler_swallows_cancellation():
    findings = life("""
    async def step(op):
        try:
            await op()
        except Exception:
            return None
    """)
    assert rule_ids(findings) == {"LIF402"}
    assert "CancelledError" in findings[0].message


def test_lif402_clean_with_narrow_reraise_first():
    assert life("""
    import asyncio

    async def step(op):
        try:
            await op()
        except asyncio.CancelledError:
            raise
        except Exception:
            return None
    """) == []


def test_lif402_clean_when_broad_handler_reraises():
    assert life("""
    async def step(op):
        try:
            await op()
        except BaseException:
            raise
    """) == []


def test_lif402_broad_handler_without_await_is_clean():
    assert life("""
    async def step(op):
        try:
            op.prepare()
        except Exception:
            return None
        await op()
    """) == []


# -- LIF403: await while holding a threading lock ----------------------------


def test_lif403_await_under_threading_lock():
    findings = life("""
    import threading

    class Box:
        def __init__(self):
            self._lock = threading.Lock()

        async def poke(self, op):
            with self._lock:
                await op()
    """)
    assert rule_ids(findings) == {"LIF403"}
    assert "_lock" in findings[0].message


def test_lif403_async_lock_is_clean():
    assert life("""
    class Box:
        def __init__(self, lock):
            self._alock = lock

        async def poke(self, op):
            async with self._alock:
                await op()
    """) == []


def test_lif403_lock_released_before_await_is_clean():
    assert life("""
    import threading

    class Box:
        def __init__(self):
            self._lock = threading.Lock()

        async def poke(self, op):
            with self._lock:
                staged = op.stage()
            await op.run(staged)
    """) == []


# -- LIF404: async call chain drops the propagated Deadline ------------------


#: The seeded deadline-drop: ``fetch`` holds a deadline and reaches
#: the wait through ``exchange`` without filling its deadline slot.
DEADLINE_DROP = """
async def fetch(channel, deadline):
    await exchange(channel)

async def exchange(channel, deadline=None):
    await channel.clock.wait_until(channel.future, deadline.at)
"""


def test_lif404_seeded_deadline_drop_is_flagged():
    findings = life(DEADLINE_DROP)
    assert rule_ids(findings) == {"LIF404"}
    assert "exchange" in findings[0].message
    assert "'deadline'" in findings[0].message


def test_lif404_positional_threading_is_clean():
    assert life(DEADLINE_DROP.replace(
        "await exchange(channel)",
        "await exchange(channel, deadline)")) == []


def test_lif404_keyword_threading_is_clean():
    assert life(DEADLINE_DROP.replace(
        "await exchange(channel)",
        "await exchange(channel, deadline=deadline)")) == []


def test_lif404_crosses_module_boundaries():
    findings = analyze_modules({
        "src/repro/alpha.py": textwrap.dedent("""
        from repro.beta import exchange

        async def fetch(channel, deadline):
            await exchange(channel)
        """),
        "src/repro/beta.py": textwrap.dedent("""
        async def exchange(channel, deadline=None):
            await channel.clock.wait_until(channel.future,
                                           deadline.at)
        """),
    }).findings
    assert rule_ids(findings) == {"LIF404"}
    assert findings[0].location == "src/repro/alpha.py"


def test_lif404_wait_sink_with_underived_bound():
    findings = life("""
    async def fetch(clock, future, deadline, horizon):
        await clock.wait_until(future, horizon)
    """)
    assert rule_ids(findings) == {"LIF404"}
    assert "wait_until" in findings[0].message


def test_lif404_wait_sink_with_derived_bound_is_clean():
    assert life("""
    async def fetch(clock, future, context):
        limit = context.deadline
        await clock.wait_until(future, limit.at)
    """) == []


def test_lif404_bounded_sleep_is_exempt():
    # asleep/sleep are how deadline-clipped backoff is *implemented*;
    # demanding a deadline argument there would flag the protocol.
    assert life("""
    async def backoff(clock, deadline):
        await clock.asleep(0.5)
    """) == []


def test_lif404_caller_without_deadline_is_not_demanded():
    assert life("""
    async def fire_and_wait(channel):
        await exchange(channel)

    async def exchange(channel, deadline=None):
        await channel.clock.wait_until(channel.future, deadline.at)
    """) == []


def test_lif404_real_service_chain_is_proved_not_skipped():
    """The OverloadShield -> AsyncTrustService chain must be *inside*
    the proof (deadline-carrying, transitively waiting) and pass."""
    from repro.analysis.callgraph import Program, extract_module
    from repro.analysis.findings import display_path
    from repro.analysis.lifecycle import LifecycleEngine

    infos = []
    for root, _dirs, files in os.walk(os.path.join(REPO_ROOT, "src")):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = display_path(os.path.join(root, name))
            with open(os.path.join(root, name),
                      encoding="utf-8") as handle:
                infos.append(extract_module(handle.read(), path))
    program = Program(infos)
    paths = {info["module"]: info["path"] for info in infos}
    engine = LifecycleEngine(program, paths)
    findings = engine.run()

    run = "repro.resilience.service:OverloadShield.run"
    dispatch = "repro.network.server:AsyncServiceServer._dispatch"
    assert run in engine.scans and dispatch in engine.scans
    assert engine.scans[run].deadline_names
    assert engine.scans[dispatch].deadline_names
    assert engine._waits(run)  # reaches wait_until via admit()
    assert [f for f in findings if f.rule_id == "LIF404"] == []



def test_spec_names_resolve_to_functions_under_src():
    """The spec names service entry points and deadline factories by
    hand; a rename in src/ would silently unhook LIF404's deadline
    tracking from them, so every name must still be defined there."""
    import ast

    from repro.analysis import lifespec

    qualnames, names = set(), set()
    for root, _dirs, files in os.walk(os.path.join(REPO_ROOT, "src")):
        for name in files:
            if not name.endswith(".py"):
                continue
            with open(os.path.join(root, name),
                      encoding="utf-8") as handle:
                tree = ast.parse(handle.read())
            for node in tree.body:
                owner = node if isinstance(node, ast.ClassDef) else None
                for func in node.body if owner else [node]:
                    if isinstance(func, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                        names.add(func.name)
                        qualnames.add(f"{owner.name}.{func.name}"
                                      if owner else func.name)
    missing = [suffix for suffix in lifespec.ENTRY_QNAME_SUFFIXES
               if suffix not in qualnames]
    missing += [name for name in sorted(lifespec.DEADLINE_FACTORY_NAMES)
                if name not in names]
    assert missing == []

# -- LIF405: acquired resource released on an escapable path -----------------


SLOT_BODY = """
async def run(admission, tenant, deadline, op):
    await admission.admit(tenant, deadline)
    return await op()
"""


def test_lif405_slot_never_released():
    findings = life(SLOT_BODY)
    assert rule_ids(findings) == {"LIF405"}
    assert "never calls admission.release()" in findings[0].message


def test_lif405_release_outside_finally():
    findings = life("""
    async def run(admission, tenant, deadline, op):
        await admission.admit(tenant, deadline)
        result = await op()
        admission.release(tenant)
        return result
    """)
    assert rule_ids(findings) == {"LIF405"}
    assert "outside any finally" in findings[0].message


def test_lif405_release_in_finally_is_clean():
    assert life("""
    async def run(admission, tenant, deadline, op):
        await admission.admit(tenant, deadline)
        try:
            return await op()
        finally:
            admission.release(tenant)
    """) == []


def test_lif405_channel_leaked_on_exception_path():
    findings = life("""
    from repro.network.channel import AsyncChannel

    async def probe(clock, op):
        channel = AsyncChannel(clock=clock)
        await op(channel.client)
    """)
    assert rule_ids(findings) == {"LIF405"}
    assert "no close on any path" in findings[0].message


def test_lif405_channel_closed_in_finally_is_clean():
    assert life("""
    from repro.network.channel import AsyncChannel

    async def probe(clock, op):
        channel = AsyncChannel(clock=clock)
        try:
            await op(channel.client)
        finally:
            channel.close()
    """) == []


def test_lif405_returned_channel_escapes_ownership():
    assert life("""
    from repro.network.channel import AsyncChannel

    async def open_channel(clock):
        channel = AsyncChannel(clock=clock)
        return channel
    """) == []


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


def test_ir_version_bump_cold_starts_every_analyzer_cache_once(
        tree, tmp_path, monkeypatch):
    """A callgraph IR bump (e.g. v3 -> v4), or a spec bump of any one
    pack (LIN included), must cold-start the one analysis cache exactly
    once: the stale file is discarded at load, and the very next run is
    warm again."""
    from repro.analysis import astlint, concspec, lifespec, taintspec

    cache_path = str(tmp_path / "cache.json")
    analyze_paths([str(tree)], cache=AnalysisCache(cache_path))

    def assert_cold_exactly_once(bump: str) -> None:
        stale = AnalysisCache(cache_path)
        analyze_paths([str(tree)], cache=stale)
        assert not stale.run_hit, bump
        assert stale.misses == 2, bump  # full cold start

        fresh = AnalysisCache(cache_path)
        analyze_paths([str(tree)], cache=fresh)
        assert fresh.run_hit, bump  # cold exactly once

    with open(cache_path, encoding="utf-8") as handle:
        payload = json.load(handle)
    payload["ir_version"] -= 1  # pretend it predates the bump
    with open(cache_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    assert_cold_exactly_once("IR_VERSION")

    for spec in (astlint, taintspec, concspec, lifespec):
        monkeypatch.setattr(spec, "SPEC_VERSION", spec.SPEC_VERSION + 1)
        assert_cold_exactly_once(f"{spec.__name__}.SPEC_VERSION")


# -- committed baseline ------------------------------------------------------


def test_repo_lifecycle_clean_modulo_baseline(repo_above_baseline):
    """`repro.tools analyze src`: no LIF finding above the committed
    baseline."""
    kept = repo_above_baseline("LIF")
    assert kept.findings == [], [f.render() for f in kept.findings]
    assert kept.scanned > 100


def test_lifecycle_baseline_is_wellformed_and_justified():
    """Every LIF entry in the one interprocedural baseline."""
    with open(os.path.join(REPO_ROOT, "interproc-baseline.json"),
              encoding="utf-8") as handle:
        payload = json.load(handle)
    assert payload["version"] == 1
    for entry in payload["findings"]:
        if not entry["rule_id"].startswith("LIF"):
            continue
        assert entry["fingerprint"]
        assert entry["justification"]
