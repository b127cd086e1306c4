"""Async lifecycle facts: spawn/shutdown, cancellation, deadlines.

The LIF4xx catalog covers the failure class PR 9's async service layer
introduced and that SEC0xx/LIN1xx/TNT2xx/CON3xx cannot see: leaked
tasks, swallowed ``CancelledError``, awaits parked while holding locks
or admission slots, async call chains that drop the propagated
:class:`~repro.resilience.service.Deadline`, and acquired resources
with escape paths that skip their release.

Like :mod:`repro.analysis.concspec`, this is vocabulary only — names
and shapes that :mod:`repro.analysis.lifecycle` interprets over the
v4 callgraph IR.  Bump :data:`SPEC_VERSION` on any semantic change so
:class:`~repro.analysis.interproc.AnalysisCache` discards stale runs.
"""

from __future__ import annotations

from repro.analysis.callgraph import SPAWN_CALL_NAMES
from repro.analysis.concspec import LOCK_NAME_TOKENS, OPAQUE_METHOD_NAMES
from repro.analysis.engine import Severity, register

#: Invalidates memoized analysis runs on rule-semantics changes.
SPEC_VERSION = 1

LIF401 = register(
    "LIF401", "task spawned without a retained, shut-down handle",
    Severity.ERROR, "code",
    "A create_task/ensure_future/gather/start_soon handle that is "
    "neither awaited nor retained — or is parked on the owner object "
    "without a shutdown path that cancels/awaits it — outlives its "
    "spawner as an orphan: exceptions vanish and close() returns with "
    "work still in flight.",
)
LIF402 = register(
    "LIF402", "broad except around await swallows CancelledError",
    Severity.ERROR, "code",
    "A bare/except-Exception region enclosing an await that does not "
    "re-raise CancelledError turns cooperative cancellation into a "
    "normal-looking answer; the canceller hangs waiting for a task "
    "that already 'handled' its own cancellation.",
)
LIF403 = register(
    "LIF403", "await while holding a threading lock",
    Severity.ERROR, "code",
    "Awaiting inside a ``with <lock>:`` region parks the event loop "
    "with the lock held: every other coroutine (and thread) needing "
    "it stalls for the full await, and a deadline-expired awaiter "
    "leaves no one to release the lock promptly.",
)
LIF404 = register(
    "LIF404", "async call chain drops the propagated Deadline",
    Severity.ERROR, "code",
    "A deadline-carrying caller reaches a wire/sleep/wait operation "
    "through a callee without threading its Deadline into the "
    "callee's deadline slot — the static twin of the runtime "
    "checkpoints: past the drop, nothing bounds the wait.",
)
LIF405 = register(
    "LIF405", "acquired resource released on an escapable path",
    Severity.ERROR, "code",
    "An admission/limiter slot or constructed async resource whose "
    "release/close is missing or sits outside any ``finally`` region "
    "leaks on the exception path: slots starve the bulkhead, "
    "channels strand their readers.",
)

#: Task-spawn call short names (shared with the IR lowerer).
TASK_SPAWN_NAMES = frozenset(SPAWN_CALL_NAMES)

#: Handler name sets that catch ``CancelledError`` too broadly.
BROAD_HANDLER_NAMES = frozenset({"*", "BaseException", "Exception"})
CANCELLED_NAMES = frozenset({"CancelledError"})

#: Methods that constitute an owner's shutdown path: a handle parked
#: on ``self`` must be referenced by one of these to count as managed.
SHUTDOWN_METHOD_NAMES = frozenset({
    "close", "aclose", "shutdown", "stop", "__aexit__", "__del__",
})

#: Container mutators that transfer a task handle into a field.
HANDLE_STORE_NAMES = frozenset({"add", "append", "setdefault"})

#: Parameters that carry a deadline (or an object owning one, like the
#: per-request context) through an async call chain.
DEADLINE_PARAM_NAMES = frozenset({
    "deadline", "context", "until", "at", "deadline_at",
})

#: Attribute reads that derive a deadline from a carrier object
#: (``context.deadline``, ``deadline.at``, ``frame.deadline_at``).
DEADLINE_ATTR_NAMES = frozenset({"deadline", "at", "deadline_at"})

#: Call names (last dotted segment) that mint or derive a Deadline.
DEADLINE_FACTORY_NAMES = frozenset({"deadline", "_attempt_deadline"})
DEADLINE_CLASS_NAME = "Deadline"

#: Wait sinks: short name -> (receiver token, deadline param name,
#: positional index of that param in a bound call).  ``None`` deadline
#: param marks a primitive that is exempt from LIF404 demand (its
#: bound, caller-clipped sleeps — ``asleep``/backoff — are how the
#: deadline protocol is *implemented*, not where it is dropped).
WAIT_SINKS = {
    "wait_until": ("clock", "at", 1),
    "asleep": ("clock", None, None),
    "sleep": ("asyncio", None, None),
}

#: Admission/limiter acquire calls and the release name that must
#: appear later inside a ``finally`` region on the same receiver.
ACQUIRE_RELEASE_PAIRS = {
    "admit": "release",
    "try_acquire": "release",
}

#: Constructors whose instances must be closed before an async
#: function's locals can escape (close name candidates per class).
RESOURCE_CONSTRUCTORS = {
    "AsyncChannel": ("close", "aclose"),
    "VQueue": ("close",),
}

#: Service entry points (qname suffixes): the deadline protocol's
#: roots, called out in findings for orientation.
ENTRY_QNAME_SUFFIXES = (
    "AsyncServiceServer._dispatch",
    "OverloadShield.run",
    "AsyncTrustService.handle_request",
    "AsyncXKMSClient._roundtrip",
    "AsyncXKMSClient._transfer",
)

#: Method names too generic for the unique-definition fallback, over
#: and above the concurrency analyzer's list (wire/future verbs and
#: injected-callable slots that would otherwise mis-bind to an
#: unrelated unique definition).
OPAQUE_LIFECYCLE_NAMES = frozenset(OPAQUE_METHOD_NAMES) | frozenset({
    "send", "recv", "call", "check", "cancel", "result", "done",
    "handler",
})


def is_entry(qname: str) -> bool:
    """Is *qname* one of the documented service entry points?"""
    name = qname.replace(":", ".")
    return any(name.endswith(suffix) for suffix in ENTRY_QNAME_SUFFIXES)


def is_lockish(dotted: str) -> bool:
    """Does a ``with`` context expression look like a threading lock?"""
    if not dotted:
        return False
    last = dotted.rsplit(".", 1)[-1].lower()
    return any(token in last for token in LOCK_NAME_TOKENS)
