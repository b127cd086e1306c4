"""Self-test of the benchmark: tiny runs, the oracle and its controls.

Run from the repository root::

    python3 perfbench/selftest.py

It runs every workload for two seconds with and without tracing,
checks the output schema against ``BENCHMARK.json`` and checks that
each span time ``provenance.json`` maps to a workload was recorded on
that workload's traced run; it breaks the program on purpose (a
verifier that accepts an altered package, an auditor that finds
nothing, a responder that calls a rotated-out key Valid) and checks
that each such run fails; and it checks the wall clock's typed
timeout and that the async stack leaves no task behind.
Exits 0 when every check passes.
"""

from __future__ import annotations

import asyncio
import contextlib
import io
import json
import math
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7
SECONDS = "2"


class SelfTestFailure(Exception):
    pass


def expect(condition, message: str) -> None:
    if not condition:
        raise SelfTestFailure(message)


@contextlib.contextmanager
def patched(owner, attr: str, value):
    original = getattr(owner, attr)
    setattr(owner, attr, value)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def run_benchmark(workload: str, trace: int) -> tuple[int, dict]:
    from perfbench import run
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", str(SEED),
                         "--seconds", SECONDS, "--trace", str(trace)])
    lines = out.getvalue().strip().splitlines()
    return code, json.loads(lines[-1]) if lines else {}


def check_schema() -> None:
    """Every run's output matches BENCHMARK.json, and every per-layer
    span time that provenance.json says should move a workload's
    figures was recorded on that workload's traced run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    moves = json.loads(
        (ROOT / "perfbench" / "provenance.json").read_text())["moves"]
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]),
                                (1, spec["per_layer"])):
            code, result = run_benchmark(workload, trace)
            where = f"{workload} --trace {trace}"
            expect(code == 0, f"{where} exited {code}")
            expect(set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, f"{where}: keys {result}")
            expect(result["correct"] is True, f"{where}: not correct")
            expect(isinstance(result["attempted"], int)
                   and result["attempted"] >= 1, f"{where}: attempted")
            expect(result["failed"] == 0, f"{where}: failed operations")
            names = [m["name"] for m in declared]
            expect(list(result["metrics"]) == names,
                   f"{where}: metric names differ from BENCHMARK.json")
            for metric in declared:
                got = result["metrics"][metric["name"]]
                expect(got["unit"] == metric["unit"],
                       f"{where}: unit of {metric['name']}")
                expect(isinstance(got["value"], (int, float))
                       and math.isfinite(got["value"]),
                       f"{where}: value of {metric['name']}")
            for name, targets in moves.items():
                if trace and name.endswith(".ms") and \
                        any(w == workload for w, _ in targets):
                    expect(result["metrics"][name]["value"] > 0,
                           f"{where}: {name} recorded no time")


def check_altered_package_accepted() -> None:
    """A player whose policy lets an altered package through fails
    the run."""
    from perfbench import inputs
    from repro.core.playback_pipeline import PlaybackPipeline
    original = PlaybackPipeline.open_package

    def lenient(self, data, **kwargs):
        self.require_signature = False
        return original(self, data, **kwargs)

    with patched(inputs, "ALTERED_SHARE", 0.5), \
            patched(PlaybackPipeline, "open_package", lenient):
        code, result = run_benchmark("player-session", 0)
    expect(code == 1 and result.get("correct") is False,
           "accepting an altered package went unnoticed")


def check_altered_disc_authenticated() -> None:
    from perfbench import inputs
    from repro.player.player import DiscPlayer
    original = DiscPlayer.insert_disc

    def credulous(self, image):
        session = original(self, image)
        session.authenticated = True
        return session

    with patched(inputs, "ALTERED_SHARE", 0.5), \
            patched(DiscPlayer, "insert_disc", credulous):
        code, result = run_benchmark("player-session", 0)
    expect(code == 1 and result.get("correct") is False,
           "authenticating an altered disc went unnoticed")


def check_blind_auditor() -> None:
    from repro.analysis.artifact import ArtifactAuditor
    with patched(ArtifactAuditor, "audit_disc_image",
                 lambda self, image, name: None):
        code, result = run_benchmark("studio-release", 0)
    expect(code == 1 and result.get("correct") is False,
           "an auditor that finds nothing went unnoticed")


def check_stale_key_valid() -> None:
    """A responder that ignores which key was asked about calls a
    rotated-out key Valid; the binding model must catch it."""
    from perfbench import xkms_service
    from repro.xkms.messages import KeyBinding
    from repro.xkms.server import TrustServer
    original = TrustServer._validate

    def keyless(self, request):
        if request.binding is not None:
            request.binding = KeyBinding(
                request.binding.key_name,
                self._bindings[request.binding.key_name].key,
                request.binding.status, request.binding.use)
        return original(self, request)

    with patched(xkms_service, "ROTATION_SHARE", 0.1), \
            patched(xkms_service, "STALE_SHARE", 0.5), \
            patched(TrustServer, "_validate", keyless):
        code, result = run_benchmark("xkms-service", 0)
    expect(code == 1 and result.get("correct") is False,
           "a Valid answer for a rotated-out key went unnoticed")


def check_unanswered_shed() -> None:
    from perfbench.clock import WallClock
    from perfbench.common import Outcome
    from perfbench.xkms_service import Stack, make_keys

    async def scenario():
        stack = Stack(SEED, WallClock(), make_keys())
        stack.start()
        await stack.close()
        stack.shield.stats.shed_limiter += 1
        outcome = Outcome("xkms-service")
        stack.check(outcome)
        return outcome

    outcome = asyncio.run(scenario())
    expect(any("sheds" in m for m in outcome.mismatches),
           "a shed without an answer went unnoticed")


def check_clock() -> None:
    from perfbench.clock import WallClock
    from repro.errors import ReproError, TimeoutError
    from repro.network.channel import AsyncChannel
    from repro.network.server import AsyncServiceClient, AsyncServiceServer
    from repro.resilience.service import Deadline

    async def scenario():
        clock = WallClock()
        never = asyncio.get_running_loop().create_future()
        try:
            await clock.wait_until(never, clock.now() + 0.01)
        except TimeoutError:
            timed_out = True
        else:
            timed_out = False
        expect(timed_out, "an expired wait_until did not raise the "
                          "typed TimeoutError")
        expect(not never.done(), "wait_until settled the caller's future")

        async def handler(payload, context):
            if payload == b"slow":
                await clock.asleep(10.0)
            return payload

        server = AsyncServiceServer(handler, clock=clock)
        channel = AsyncChannel(clock=clock)
        mux = AsyncServiceClient(channel, clock=clock)
        serving = asyncio.ensure_future(server.serve(channel))
        reply = await mux.call(b"ping", deadline=Deadline.after(clock, 1.0))
        expect(reply.payload == b"ping", "echo through the mux failed")
        slow = asyncio.ensure_future(
            mux.call(b"slow", deadline=Deadline.after(clock, 0.3)))
        await clock.asleep(0.05)
        channel.close()
        await mux.aclose()
        await server.aclose()
        await serving
        results = await asyncio.gather(slow, return_exceptions=True)
        expect(isinstance(results[0], ReproError),
               f"in-flight call ended with {results[0]!r}")
        pending = [t for t in asyncio.all_tasks()
                   if t is not asyncio.current_task()]
        expect(not pending, f"{len(pending)} task(s) left after aclose")

    asyncio.run(scenario())


def main() -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("selftest: no program source under src/", file=sys.stderr)
        return 2
    os.environ["REPRO_PROVIDER"] = "accelerated"
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench import common
    common.SETUPS = 1
    failures = 0
    for check in (check_clock, check_unanswered_shed, check_schema,
                  check_altered_package_accepted,
                  check_altered_disc_authenticated, check_blind_auditor,
                  check_stale_key_valid):
        try:
            check()
        except SelfTestFailure as exc:
            failures += 1
            print(f"FAIL {check.__name__}: {exc}")
        else:
            print(f"ok   {check.__name__}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
