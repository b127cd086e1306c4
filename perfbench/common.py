"""Shared measurement helpers: drift calibration, percentiles, memory.

The calibration kernel is the benchmark's own pure-Python work and
calls nothing in ``repro``, so a change to the program cannot move it.
Timing it in alternation with the operations gives the machine's speed
at that moment; each operation's latency divided by the kernel time
measured around it is a *calibration unit* (``cal``) figure that stays
put when the shared machine slows down or speeds up.
"""

from __future__ import annotations

import bisect
import functools
import gc
import hashlib
import random
import re
import resource
import statistics
import time
from dataclasses import dataclass, field

#: Pinned kernel duration that turns calibration units back into
#: seconds for ``setup_s`` (one kernel on the reference machine).
KERNEL_REFERENCE_S = 0.004

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3

# The kernel mirrors the program's two kinds of interpreter work:
# regex-driven markup tokenizing into small objects (the XML parser and
# serializer) and recursive evaluation of a tuple tree (the script
# interpreter).  Both halves are fixed, so only the machine moves them.
_DOC = "<r>" + "".join(f'<e k="{i}" v="w{i * 7}"><c n="{i % 5}"/>t{i}</e>'
                       for i in range(60)) + "</r>"
_TOKEN = re.compile(
    r'<(/?)([a-z]+)((?:\s+[a-z]+="[^"]*")*)\s*(/?)>|([^<]+)')
_ATTR = re.compile(r'([a-z]+)="([^"]*)"')
_PROGRAM = ("block", [("set", "acc", ("num", 7))] + [
    ("set", "acc", ("call", [("var", "acc"), ("num", k)]))
    for k in range(40)])
_STEP = (("x", "k"), ("mod", ("add", ("mul", ("var", "x"), ("num", 31)),
                                 ("var", "k")), ("num", 1_000_003)))


class _Node:
    __slots__ = ("tag", "attrs", "children")

    def __init__(self, tag: str, attrs: dict):
        self.tag, self.attrs, self.children = tag, attrs, []


def _markup() -> int:
    root = _Node("#", {})
    stack = [root]
    for match in _TOKEN.finditer(_DOC):
        if match.group(5) is not None:
            stack[-1].children.append(match.group(5))
        elif match.group(1):
            stack.pop()
        else:
            node = _Node(match.group(2), dict(_ATTR.findall(match.group(3))))
            stack[-1].children.append(node)
            if not match.group(4):
                stack.append(node)
    out: list[str] = []

    def emit(node: _Node) -> None:
        out.append("<" + node.tag)
        for key in sorted(node.attrs):
            out.append(f' {key}="{node.attrs[key]}"')
        out.append(">")
        for child in node.children:
            if isinstance(child, str):
                out.append(child.replace("&", "&amp;"))
            else:
                emit(child)
        out.append(f"</{node.tag}>")

    emit(root.children[0])
    return hashlib.sha256("".join(out).encode()).digest()[0]


def _evaluate(node, env: dict):
    op = node[0]
    if op == "num":
        return node[1]
    if op == "var":
        return env[node[1]]
    if op == "add":
        return _evaluate(node[1], env) + _evaluate(node[2], env)
    if op == "mul":
        return _evaluate(node[1], env) * _evaluate(node[2], env)
    if op == "mod":
        return _evaluate(node[1], env) % _evaluate(node[2], env)
    if op == "call":
        params, body = _STEP
        args = [_evaluate(arg, env) for arg in node[1]]
        return _evaluate(body, dict(zip(params, args)))
    if op == "set":
        env[node[1]] = _evaluate(node[2], env)
        return None
    for statement in node[1]:
        _evaluate(statement, env)
    return None


class _Link:
    __slots__ = ("next", "value")


@functools.cache
def _ring() -> _Link:
    """A ring of 300k links in shuffled memory order (about 20 MB),
    built on first use."""
    rng = random.Random(0)
    links = [_Link() for _ in range(300_000)]
    order = list(range(len(links)))
    rng.shuffle(order)
    for here, there in zip(order, order[1:] + order[:1]):
        links[here].next = links[there]
        links[here].value = here
    return links[0]


def _chase() -> int:
    link, total = _ring(), 0
    for _ in range(6000):
        link = link.next
        total += link.value
    return total


def kernel() -> int:
    """Fixed work, about 4 ms on a 2020s x86 core: interpreter work
    (markup tokenizing and tree evaluation) plus pointer chasing
    through a ring far larger than the CPU caches.  The second half
    tracks a neighbour's memory traffic, which slows the program's
    allocation-heavy code far more than it slows the interpreter."""
    env: dict = {}
    for _ in range(6):
        _evaluate(_PROGRAM, env)
    return _markup() ^ env["acc"] ^ _chase()


def time_kernel() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class Calibration:
    """Kernel timings along the run, looked up by time.

    :meth:`unit_at` is the median of the samples nearest to an
    instant, which follows drift over seconds while ignoring a single
    preempted sample.  The host's steal counter is read after each
    sample and at each :meth:`mark`; :meth:`quiet` uses those readings
    to tell which operations ran while the hypervisor had the CPU
    elsewhere.
    """

    #: Samples in the median :meth:`unit_at` takes.
    WINDOW = 9

    def __init__(self):
        self._times: list[float] = []
        self._seconds: list[float] = []
        self._marks: list[float] = []
        self._steal: list[int] = []

    def sample(self) -> float:
        at = time.perf_counter()
        seconds = time_kernel()
        self._times.append(at)
        self._seconds.append(seconds)
        self.mark()
        return seconds

    def mark(self) -> None:
        """Read the steal counter: call it right before and right
        after a timed region."""
        steal = cpu_ticks()[1]
        self._marks.append(time.perf_counter())
        self._steal.append(steal)

    def quiet(self, start: float, end: float) -> bool:
        """True when the host stole no CPU time from this machine
        between the last reading before *start* and the first after
        *end* (so an operation that ran then was undisturbed)."""
        first = bisect.bisect_right(self._marks, start) - 1
        last = bisect.bisect_left(self._marks, end)
        if first < 0 or last >= len(self._marks):
            return False
        return self._steal[first] == self._steal[last]

    def burst(self, count: int) -> list[float]:
        return [self.sample() for _ in range(count)]

    def unit_at(self, at: float) -> float:
        index = bisect.bisect_left(self._times, at)
        low = max(0, index - self.WINDOW // 2)
        high = min(len(self._seconds), low + self.WINDOW)
        low = max(0, high - self.WINDOW)
        return statistics.median(self._seconds[low:high])

    def recent(self, count: int) -> float:
        """Median of the last *count* samples."""
        return statistics.median(self._seconds[-count:])

    def median(self) -> float:
        return statistics.median(self._seconds)


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    index = min(len(sorted_values) - 1,
                max(0, int(q * len(sorted_values) + 0.5) - 1))
    return sorted_values[index]


def tail(sorted_values: list[float]) -> tuple[float, str]:
    """The highest of p99/p95 with at least ten samples beyond it
    (p50 when there are too few samples for either)."""
    n = len(sorted_values)
    for pct in (99, 95):
        if n * (100 - pct) >= 1000:
            return percentile(sorted_values, pct / 100), f"p{pct}"
    return percentile(sorted_values, 0.5), "p50"


@dataclass
class Latencies:
    """Operation latencies, each with the instant it started.

    Calibrated figures divide each latency by the calibration unit
    measured around its start (:meth:`Calibration.unit_at`).
    """

    raw_s: list[float] = field(default_factory=list)
    at: list[float] = field(default_factory=list)

    def add(self, raw_s: float, at: float) -> None:
        self.raw_s.append(raw_s)
        self.at.append(at)

    def extend(self, other: "Latencies") -> None:
        self.raw_s.extend(other.raw_s)
        self.at.extend(other.at)

    def __len__(self) -> int:
        return len(self.raw_s)

    def cal(self, calibration: Calibration) -> list[float]:
        return [raw / calibration.unit_at(at)
                for raw, at in zip(self.raw_s, self.at)]

    def undisturbed(self, calibration: Calibration) -> "Latencies":
        """The latencies of operations no host CPU steal touched, when
        they are at least half of all; otherwise all of them."""
        kept = Latencies()
        for raw, at in zip(self.raw_s, self.at):
            if calibration.quiet(at, at + raw):
                kept.add(raw, at)
        return kept if 2 * len(kept) >= len(self) else self

    def summary(self, calibration: Calibration) -> dict:
        """p50 and tail over the undisturbed operations."""
        kept = self.undisturbed(calibration)
        cal = sorted(kept.cal(calibration))
        raw = sorted(kept.raw_s)
        tail_cal, which = tail(cal)
        return {
            "p50_cal": percentile(cal, 0.5),
            "tail_cal": tail_cal,
            "tail": which,
            "samples": len(cal),
            "of": len(self),
            "p50_ms": percentile(raw, 0.5) * 1e3,
            "tail_ms": tail(raw)[0] * 1e3,
        }


def cpu_ticks() -> tuple[int, int]:
    """(busy, steal) clock ticks of all CPUs so far; (0, 0) where the
    kernel does not report them."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
        user, nice, system = (int(v) for v in fields[1:4])
        return user + nice + system, int(fields[8])
    except (OSError, ValueError, IndexError):
        return 0, 0


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Outcome:
    """What one workload run produced, before formatting.

    ``op`` and ``op2`` are the workload's two timed operations (see
    ``provenance.json``); ``rate`` is its throughput figure in
    operations per 1000 calibration units.  In a traced run ``op``
    holds the untraced operations and ``traced_op`` the traced ones.
    """

    workload: str
    attempted: int = 0
    failed: int = 0
    expected_rejections: int = 0
    mismatches: list[str] = field(default_factory=list)
    setup_raw_s: list[float] = field(default_factory=list)
    setup_cal: list[float] = field(default_factory=list)
    op: Latencies = field(default_factory=Latencies)
    op2: Latencies = field(default_factory=Latencies)
    traced_op: Latencies = field(default_factory=Latencies)
    calibration: Calibration = field(default_factory=Calibration)
    rate: float = 0.0
    traced: set = field(default_factory=set)
    layers: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)

    def mismatch(self, what: str) -> None:
        """Record an oracle failure (the run exits non-zero)."""
        self.mismatches.append(what)


def record_setup(outcome: Outcome, seconds: float,
                 kernel_s: list[float]) -> None:
    """Book one set-up, calibrated by kernel samples taken around it."""
    outcome.setup_raw_s.append(seconds)
    outcome.setup_cal.append(seconds / statistics.median(kernel_s))


def timed_setup(outcome: Outcome, calibration: Calibration, build):
    """Call *build* ``SETUPS`` times, timing each; returns the last
    result, with the heap built so far frozen (see :func:`settle`)."""
    built = None
    for _ in range(SETUPS):
        built = None
        before = calibration.burst(5)
        started = time.perf_counter()
        built = build()
        seconds = time.perf_counter() - started
        record_setup(outcome, seconds, before + calibration.burst(5))
    settle()
    return built


def settle() -> None:
    """Collect, then freeze the heap left by imports and set-up.

    Full collections then scan only what the timed phase allocates, so
    their pauses do not depend on how much the benchmark itself built.
    """
    gc.collect()
    gc.freeze()


def registry_layers(registry, operations: int) -> dict:
    """Per-operation figures from the counters the program exports."""
    def value(name):
        return registry.counter(name).value

    def per_op(name):
        return value(name) / operations if operations else 0.0

    def ratio(hits, misses):
        total = value(hits) + value(misses)
        return (value(hits) / total if total else 0.0,
                total / operations if operations else 0.0)

    out = {
        "xmlcore.c14n.bytes": per_op("c14n.octets"),
        "primitives.hash.bytes": per_op("digest.octets"),
        "disc.read_bytes": per_op("disc.read_bytes"),
    }
    for metric, base in (("certs.chain_memo", "perf.cache.chain"),
                         ("perf.cache.digest", "perf.cache.digest"),
                         ("perf.cache.sigverify", "perf.cache.sigverify")):
        share, lookups = ratio(f"{base}.hit", f"{base}.miss")
        out[f"{metric}_hit_ratio"] = share
        out[f"{metric}_lookups"] = lookups
    references = value("dsig.batch.references")
    out["perf.batch.dedup_ratio"] = \
        value("dsig.batch.deduplicated") / references if references else 0.0
    out["perf.batch.references"] = per_op("dsig.batch.references")
    return out
