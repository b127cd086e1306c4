"""A wall clock for the async service stack.

The stack takes its time source through ``clock=`` parameters and is
normally driven by :class:`repro.resilience.vclock.VirtualClock`.
:class:`WallClock` implements the same protocol on real time, so the
benchmark measures what the code costs instead of a load model.
"""

from __future__ import annotations

import asyncio
import time

from repro.errors import TimeoutError
from repro.resilience.vclock import NO_DEADLINE


class WallClock:
    """``now``/``sleep``/``asleep``/``wait_until``/``bump`` on
    ``time.perf_counter``."""

    def now(self) -> float:
        return time.perf_counter()

    def sleep(self, seconds: float) -> None:
        if seconds > 0:
            time.sleep(seconds)

    async def asleep(self, seconds: float) -> None:
        await asyncio.sleep(max(0.0, seconds))

    async def wait_until(self, future: asyncio.Future, at: float):
        """Await *future* until instant *at*.

        Raises a typed :class:`~repro.errors.TimeoutError` when *at*
        passes first and leaves *future* for the caller to clean up,
        as :meth:`VirtualClock.wait_until` does.
        """
        if future.done():
            return future.result()
        if at == NO_DEADLINE:
            return await future
        await asyncio.wait((future,), timeout=max(0.0, at - self.now()))
        if future.done():
            return future.result()
        raise TimeoutError(
            f"deadline reached at t={at:g}s while awaiting a response",
            elapsed=self.now(),
        )

    def bump(self) -> None:
        """No-op: real time advances on its own."""
