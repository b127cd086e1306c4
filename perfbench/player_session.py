"""player-session: the consumer path of the paper (Figs 1, 3, 9, 11).

Closed loop, one long-lived :class:`DiscPlayer`.  Each session inserts
a never-seen signed disc and launches its menu application, then
fetches a never-seen signed and encrypted bonus package over the
secure channel and runs it.  The inputs of a session are generated by
the studio code just before it, outside the timed region.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from itertools import count

from perfbench import inputs
from perfbench.common import (
    Outcome, registry_layers, timed_setup,
)
from repro.errors import ApplicationRejectedError
from repro.network import Channel, ContentServer, DownloadClient
from repro.perf import metrics
from repro.player import DiscPlayer

#: What ``op``, ``op2`` and ``rate`` of this workload measure.
LABELS = ("menu", "download", "session_rate")
WARMUP_SESSIONS = 3
#: Traced runs alternate blocks of this many traced and untraced
#: sessions (one block holds every application count once).
TRACE_BLOCK = 7
#: Largest share of traced time that no layer span may cover.
UNATTRIBUTED_LIMIT = 0.1


class Bench:
    """A player, a content server and the seeded input stream."""

    def __init__(self, seed: int):
        self.seed = seed
        self.world = inputs.build_world()
        self.clip = inputs.base_clip(seed)
        self.player = DiscPlayer(self.world.trust_store,
                                 device_key=self.world.device_key)
        self.server = ContentServer(identity=self.world.server_identity)
        self.shapes = inputs.Shapes(seed)
        self.index = count()
        self.channel_bytes = 0

    def next_inputs(self):
        index = next(self.index)
        return (index,
                inputs.release(self.seed, index, self.world, self.clip,
                               self.shapes),
                inputs.bonus(self.seed, index, self.world, self.shapes))

    def menu(self, disc: inputs.Release, outcome: Outcome) -> bool:
        """Insert and launch; True when a clean disc played right."""
        session = self.player.insert_disc(disc.image)
        if disc.altered:
            if session.authenticated:
                outcome.mismatch("an altered disc authenticated")
            return False
        if not session.authenticated:
            outcome.mismatch("a clean disc failed authentication")
            return False
        console = self.player.launch_disc_application("menu").console
        if console != [disc.menu_output]:
            outcome.mismatch(f"menu printed {console!r}, "
                             f"expected {[disc.menu_output]!r}")
            return False
        return True

    def download(self, index: int, package: inputs.Bonus,
                 outcome: Outcome) -> bool:
        """Fetch, verify, decrypt and run; True when a clean package
        ran right."""
        path = f"/bonus/{index}.pkg"
        self.server.publish(path, package.data)
        channel = Channel()
        client = DownloadClient(self.server, channel,
                                trust_store=self.world.trust_store)
        try:
            application = self.player.download_application(
                client, path, secure=True)
            if package.altered:
                outcome.mismatch("an altered package was not barred")
                return False
            console = self.player.run_application(application).console
        except ApplicationRejectedError:
            if not package.altered:
                outcome.mismatch("a clean package was barred")
            return False
        finally:
            del self.server.resources[path]
            self.channel_bytes += channel.bytes_transferred
        if console != [package.output]:
            outcome.mismatch(f"bonus printed {console!r}, "
                             f"expected {[package.output]!r}")
            return False
        return True


def run(seed: int, seconds: float, tracer=None) -> Outcome:
    outcome = Outcome("player-session")
    calibration = outcome.calibration

    def build():
        bench = Bench(seed)
        for _ in range(WARMUP_SESSIONS):
            index, disc, package = bench.next_inputs()
            bench.menu(disc, outcome)
            bench.download(index, package, outcome)
        bench.channel_bytes = 0
        return bench

    bench = timed_setup(outcome, calibration, build)
    registry = metrics.push_registry()
    sessions = 0
    end = time.perf_counter() + seconds
    try:
        while time.perf_counter() < end:
            traced = tracer is not None and \
                tracer.alternate(sessions, TRACE_BLOCK)
            index, disc, package = bench.next_inputs()
            calibration.sample()
            clean = not (disc.altered or package.altered)
            traced = traced and clean
            with tracer.request(index) if traced else nullcontext():
                started = time.perf_counter()
                menu_ok = bench.menu(disc, outcome)
                menu_s = time.perf_counter() - started
                calibration.mark()
                fetched = time.perf_counter()
                download_ok = bench.download(index, package, outcome)
                download_s = time.perf_counter() - fetched
            calibration.mark()
            sessions += 1
            outcome.attempted += 2
            outcome.expected_rejections += disc.altered + package.altered
            outcome.failed += (not menu_ok and not disc.altered) + \
                (not download_ok and not package.altered)
            if not (clean and menu_ok and download_ok):
                continue
            if traced:
                outcome.traced.add(index)
                outcome.traced_op.add(menu_s, started)
            else:
                outcome.op.add(menu_s, started)
                outcome.op2.add(download_s, fetched)
    finally:
        if tracer is not None:
            tracer.uninstall()
        metrics.pop_registry()
    menu = outcome.op.undisturbed(calibration)
    busy_cal = sum(menu.cal(calibration)) + \
        sum(outcome.op2.undisturbed(calibration).cal(calibration))
    outcome.rate = 1000.0 * len(menu) / busy_cal if busy_cal else 0.0
    outcome.layers.update(registry_layers(registry, sessions))
    outcome.layers["network.channel.bytes"] = \
        bench.channel_bytes / sessions if sessions else 0.0
    outcome.notes.update(sessions=sessions,
                         calibration_ms=calibration.median() * 1e3)
    return outcome
