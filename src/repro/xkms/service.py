"""Sharded async front end for the XKMS trust service (DESIGN §14).

One :class:`AsyncTrustService` puts N independent
:class:`~repro.xkms.server.TrustServer` shards behind the multiplexed
async transport: requests route by a stable hash of the key name, so
each binding lives on exactly one shard and shards never contend on
one binding table.  The handler is shaped for
:class:`~repro.network.server.AsyncServiceServer` — it yields to the
event loop and re-checks the propagated deadline between its phases
(parse → route → respond), so an expired request stops costing work at
the next checkpoint instead of running to completion.

Validation answers are memoized per shard in a small lock-guarded
cache keyed on the shard's binding-table *generation*: a registration
or revocation bumps the generation and thereby invalidates every
cached answer about that shard at once.  A revocation can never be
served stale from the cache.

The responder step itself is synchronous ``TrustServer`` code and runs
inline on the event loop: correct and deterministic for the in-memory
store.
"""

from __future__ import annotations

import threading
import zlib
from dataclasses import dataclass

from repro.errors import XKMSError
from repro.network.server import MuxFrame, RequestContext
from repro.resilience.limits import ResourceLimits
from repro.xkms.messages import (
    RESULT_RECEIVER_FAULT, XKMSRequest, XKMSResult,
)
from repro.xkms.server import TrustServer


def busy_fault_payload(error: BaseException, frame: MuxFrame) -> bytes:
    """Fault encoder for :class:`AsyncServiceServer`: structured XKMS.

    Every shed, timeout or internal failure is answered with a
    well-formed XKMS ``Receiver`` fault result — the busy signal is
    protocol, not a dropped connection or a stack trace.
    """
    return XKMSResult(
        "Status", RESULT_RECEIVER_FAULT,
    ).to_xml().encode("utf-8")


@dataclass
class ServiceCacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0


class AsyncTrustService:
    """N trust-server shards behind one async XML-in/XML-out handler.

    Args:
        shards: prebuilt :class:`TrustServer` list (they keep their
            registered bindings) or an int to mint that many empty
            shards sharing *registration_secrets*.
        clock: the injected clock deadlines are measured on.
        limits: per-request XML resource quotas.
        cache_capacity: bound on memoized Validate answers (0 disables
            the cache).
    """

    def __init__(self, shards=2, *, clock,
                 registration_secrets: dict[str, bytes] | None = None,
                 limits: ResourceLimits | None = None,
                 cache_capacity: int = 256):
        self.clock = clock
        self.limits = limits or ResourceLimits.default()
        if isinstance(shards, int):
            if shards < 1:
                raise XKMSError("a trust service needs >= 1 shard")
            self.shards: list[TrustServer] = [
                TrustServer(
                    registration_secrets=dict(registration_secrets or {}),
                    limits=self.limits,
                )
                for _ in range(shards)
            ]
        else:
            self.shards = list(shards)
            if not self.shards:
                raise XKMSError("a trust service needs >= 1 shard")
        self.cache_capacity = cache_capacity
        self.cache_stats = ServiceCacheStats()
        self._cache: dict = {}
        # The cache is read and filled on the event loop, while the
        # operator console (register_binding / revoke_binding) may run
        # on another thread and bump a shard's generation: guard it
        # like the rest of the shared surface (DESIGN §13).
        self._cache_lock = threading.Lock()

    # -- routing ---------------------------------------------------------------------

    def shard_index(self, key_name: str) -> int:
        return zlib.crc32(key_name.encode("utf-8")) % len(self.shards)

    def shard_for(self, key_name: str) -> TrustServer:
        return self.shards[self.shard_index(key_name)]

    # -- operator console (routes to the owning shard) -------------------------------

    def register_binding(self, key_name: str, key, use="signature"):
        return self.shard_for(key_name).register_binding(
            key_name, key, use)

    def revoke_binding(self, key_name: str) -> None:
        self.shard_for(key_name).revoke_binding(key_name)

    def binding(self, key_name: str):
        return self.shard_for(key_name).binding(key_name)

    @property
    def audit_log(self) -> list[str]:
        merged: list[str] = []
        for shard in self.shards:
            merged.extend(shard.audit_log)
        return merged

    # -- validation cache ------------------------------------------------------------

    def _cache_key(self, index: int, request: XKMSRequest):
        if self.cache_capacity <= 0 or request.operation != "Validate":
            return None
        name = request.key_name
        fingerprint = ""
        if request.binding is not None:
            name = request.binding.key_name
            fingerprint = request.binding.key.fingerprint()
        # The shard generation is part of the key: any mutation on the
        # shard silently orphans every older entry.
        return (index, self.shards[index].generation, name, fingerprint)

    def _cache_get(self, key):
        if key is None:
            return None
        with self._cache_lock:
            entry = self._cache.get(key)
        if entry is None:
            self.cache_stats.misses += 1
            return None
        self.cache_stats.hits += 1
        return entry

    def _cache_put(self, key, result: XKMSResult) -> None:
        if key is None:
            return
        with self._cache_lock:
            if len(self._cache) >= self.cache_capacity:
                self._cache.pop(next(iter(self._cache)))
                self.cache_stats.evictions += 1
            self._cache[key] = (result.result_major,
                                tuple(result.bindings))

    # -- the async handler -----------------------------------------------------------

    async def _checkpoint(self, context: RequestContext,
                          phase: str) -> None:
        """Yield, then re-check the propagated deadline.

        Each phase boundary is an opportunity for an expired request
        to stop costing work; the typed timeout it raises becomes a
        structured fault one layer up.
        """
        await self.clock.asleep(0)
        context.deadline.check(f"xkms {phase}")

    async def handle_request(self, payload: bytes,
                             context: RequestContext) -> bytes:
        """``AsyncServiceServer`` handler: request XML in, result out.

        Hostile input never raises: malformed or oversized request XML
        is answered with a ``Sender`` fault, responder-side failures
        with a ``Receiver`` fault.  Only overload/timeout conditions
        propagate (typed), for the transport to answer as busy faults.
        """
        # Malformed requests are audited on the first shard.
        request = self.shards[0].parse(payload, self.limits)
        if isinstance(request, XKMSResult):
            return request.to_xml().encode("utf-8")
        await self._checkpoint(context, "route")
        name = request.key_name or (
            request.binding.key_name if request.binding else "")
        index = self.shard_index(name)
        cache_key = self._cache_key(index, request)
        cached = self._cache_get(cache_key)
        if cached is not None:
            major, bindings = cached
            result = XKMSResult(request.operation, major,
                                list(bindings),
                                request_id=request.request_id)
            return result.to_xml().encode("utf-8")
        result = self.shards[index].answer(request)
        if result.result_major == RESULT_RECEIVER_FAULT:
            # The shard failed: answer at once and cache nothing.
            return result.to_xml().encode("utf-8")
        await self._checkpoint(context, "respond")
        self._cache_put(cache_key, result)
        return result.to_xml().encode("utf-8")
