"""Concurrency model catalog: roots, shared surface, locks, CON rules.

The paper's deployment (Fig 1/3) has many concurrent player sessions
hitting shared security state — trust anchors, digest caches, XKMS
bindings — and the ROADMAP's async multi-tenant XKMS service will
multiply the in-flight contexts.  This catalog is the machine-readable
form of the repo's concurrency model:

* **Roots** are entry points that execute concurrently: callables
  handed to ``ThreadPoolExecutor``/``ProcessPoolExecutor`` submits or
  ``Thread(target=...)``, ``async def`` bodies, and the chaos-harness
  drivers that interleave whole pipelines.  Batch verify runs on its
  caller's thread, but callers' threads may share verifiers and the
  process-wide digest cache, so those stay on the shared surface.
* **The shared surface** is the explicit allowlist of modules/classes
  whose instances are expected to be visible from more than one
  execution context at once (the RacerD ``@ThreadSafe`` analogue).
  State outside the list — per-request parse trees, per-call locals,
  the single-owner durable stores — is owned by one context and never
  flagged, which is what keeps the analyzer's precision usable.
* **Lock discipline** is inferred from ``with <lock-named>:`` regions;
  :data:`LOCK_NAME_TOKENS` decides what counts as a lock.
* **Blocking calls** must not run while a lock is held (CON303) nor be
  reachable from an async root (CON304, the asyncio-readiness gate).

Bump :data:`SPEC_VERSION` whenever the catalog changes — it keys the
findings cache.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.engine import register
from repro.analysis.findings import Severity

SPEC_VERSION = 2

# -- rules --------------------------------------------------------------------

CON301 = register(
    "CON301", "shared state written outside any lock",
    Severity.ERROR, "code",
    "A field or module global on the shared surface is written from a "
    "concurrency root (or written while concurrent readers exist) "
    "without holding any lock; interleaved writers lose updates and "
    "readers observe torn state.",
)
CON302 = register(
    "CON302", "check-then-act on shared state without a common lock",
    Severity.ERROR, "code",
    "A branch reads shared state and a later write depends on that "
    "read, but no lock is held across both; the classic get-or-compute "
    "/ generation-bump race — two contexts pass the check and both "
    "act.",
)
CON303 = register(
    "CON303", "lock-discipline violation",
    Severity.WARNING, "code",
    "Shared state is guarded by inconsistent locks across its access "
    "sites, or a lock is held across a call that can block on I/O or "
    "re-enter the same non-reentrant lock.",
)
CON304 = register(
    "CON304", "blocking call reachable from an async root",
    Severity.ERROR, "code",
    "Blocking I/O or time.sleep is reachable from an async-marked "
    "entry point; one blocked coroutine stalls the whole event loop. "
    "This is the asyncio-readiness gate the XKMS service rewrite is "
    "held to.",
)

# -- roots --------------------------------------------------------------------

#: receiver-hint tokens that mark ``<recv>.submit(fn)`` / ``.map(fn)``
#: as an executor dispatch.
EXECUTOR_RECEIVER_TOKENS = ("pool", "executor")

SUBMIT_NAMES = frozenset({"submit"})
MAP_NAMES = frozenset({"map"})

#: constructors whose ``target=`` callable runs on its own thread.
THREAD_CONSTRUCTORS = frozenset({"Thread", "Timer"})

#: event-loop spawns: the coroutine handed to
#: ``asyncio.create_task(fn(...))`` / ``ensure_future(fn(...))`` runs
#: as its own concurrent task — a concurrency root like a thread,
#: just cooperatively scheduled.
TASK_SPAWN_NAMES = frozenset({"create_task", "ensure_future"})

#: task-group spawns (``tg.start_soon(fn)`` / ``tg.create_task`` is
#: covered above): the callable argument becomes a concurrent task.
GROUP_SPAWN_NAMES = frozenset({"start_soon"})

#: ``loop.run_in_executor(executor, fn, *args)``: *fn* runs on an
#: executor thread while the loop keeps going — a thread root whose
#: shared-state writes race against every coroutine.
EXECUTOR_RUN_NAMES = frozenset({"run_in_executor"})

#: declared concurrency drivers: harnesses that interleave whole
#: pipelines, so everything they reach executes under contention in
#: the deployment model even when today's harness is single-threaded.
ROOT_QNAMES = {
    "repro.resilience.chaos:run_chaos": "chaos driver",
    "repro.resilience.durablechaos:run_crash_chaos": "crash-chaos driver",
}

# -- shared surface -----------------------------------------------------------

#: module -> None (every class + module globals) or a tuple of class
#: names.  Only state on this surface can mint CON301/CON302 findings.
#: Durable stores and localstorage are deliberately absent: they are
#: single-owner per store file (DESIGN §13 records the rationale).
SHARED_SURFACE: dict = {
    "repro.certs.store": None,
    "repro.dsig.signer": None,
    "repro.dsig.verifier": None,
    "repro.perf.batch": None,
    "repro.perf.cache": None,
    "repro.perf.metrics": None,
    "repro.primitives.provider": None,
    "repro.resilience.degradation": ("DegradationLog",),
    "repro.resilience.retry": ("CircuitBreaker",),
    "repro.xkms.server": None,
}


def in_shared_surface(field_key: tuple) -> bool:
    if field_key[0] == "attr":
        _, module, cls, _attr = field_key
        if module not in SHARED_SURFACE:
            return False
        classes = SHARED_SURFACE[module]
        return classes is None or cls in classes
    _, module, _name = field_key
    return SHARED_SURFACE.get(module, ()) is None


def field_label(field_key: tuple) -> str:
    if field_key[0] == "attr":
        _, module, cls, attr = field_key
        return f"{module}:{cls}.{attr}"
    _, module, name = field_key
    return f"{module}:{name}"


# -- locks --------------------------------------------------------------------

#: ``with <name>:`` counts as a lock region when the last name segment
#: contains one of these tokens.
LOCK_NAME_TOKENS = ("lock", "mutex")

#: constructor name suffixes that build re-entrant locks.
REENTRANT_CONSTRUCTORS = frozenset({"RLock"})

#: writes inside these methods happen before the object is published
#: to other contexts, so they never race.
CONSTRUCTOR_NAMES = frozenset({"__init__", "__post_init__", "__new__"})

#: method calls that mutate their receiver in place.
MUTATOR_NAMES = frozenset({
    "add", "append", "appendleft", "clear", "discard", "extend",
    "insert", "pop", "popitem", "remove", "setdefault", "update",
})

#: names too generic for the unique-method fallback — builtin container
#: / file / hash methods that would otherwise "resolve" to whatever
#: program function shares the name (``self._digests.clear()`` is dict
#: clear, not ``C14NDigestCache.clear``).
OPAQUE_METHOD_NAMES = MUTATOR_NAMES | frozenset({
    "close", "copy", "count", "decode", "digest", "encode", "format",
    "get", "hexdigest", "index", "items", "join", "keys", "map",
    "now", "open", "read", "result", "reverse", "shutdown", "sleep",
    "sort", "split", "start", "strip", "submit", "values", "write",
})

# -- blocking calls -----------------------------------------------------------


@dataclass(frozen=True)
class BlockingCall:
    """One blocking-call pattern.

    ``dotted`` matches the import-resolved dotted call name exactly
    (``time.sleep`` matches both ``time.sleep(..)`` and a bare
    ``sleep(..)`` imported from ``time``); otherwise the callee's last
    name segment must be in ``names`` and, when ``receiver_tokens`` is
    non-empty, some token must be a substring of the receiver hint.
    ``bare_only`` restricts to receiver-less builtins (``open``).
    """

    names: frozenset = frozenset()
    receiver_tokens: frozenset = frozenset()
    dotted: frozenset = frozenset()
    bare_only: bool = False
    origin: str = ""

    def matches(self, short: str, hint: str, full_dotted: str,
                bare: bool) -> bool:
        if full_dotted in self.dotted:
            return True
        if short not in self.names:
            return False
        if self.bare_only:
            return bare
        if not self.receiver_tokens:
            return True
        lowered = hint.lower()
        return any(token in lowered for token in self.receiver_tokens)


def _blocking(**kwargs) -> BlockingCall:
    for key in ("names", "receiver_tokens", "dotted"):
        if key in kwargs:
            kwargs[key] = frozenset(kwargs[key])
    return BlockingCall(**kwargs)


BLOCKING_CALLS = (
    _blocking(
        names={"sleep"}, receiver_tokens={"time"},
        dotted={"time.sleep"}, origin="time.sleep",
    ),
    _blocking(
        names={"open"}, bare_only=True, dotted={"io.open"},
        origin="file open",
    ),
    _blocking(
        dotted={"os.fsync", "os.fdatasync"}, names={"fsync", "fdatasync"},
        receiver_tokens={"os"}, origin="fsync",
    ),
    _blocking(
        names={"connect", "accept", "recv", "recv_into", "sendall"},
        receiver_tokens={"sock", "conn"},
        dotted={"socket.create_connection"}, origin="socket I/O",
    ),
    _blocking(
        dotted={"urllib.request.urlopen", "subprocess.run",
                "subprocess.check_output", "subprocess.check_call"},
        origin="external process / HTTP request",
    ),
)


def blocking_origin(short: str, hint: str, full_dotted: str,
                    bare: bool) -> str | None:
    """Human origin when the call matches a blocking pattern.

    ``asyncio.sleep`` (and injected-clock ``clock.sleep``) fall through
    every pattern: the receiver tokens are what keep the await-friendly
    variants out of CON303/CON304.
    """
    for pattern in BLOCKING_CALLS:
        if pattern.matches(short, hint, full_dotted, bare):
            return pattern.origin
    return None
