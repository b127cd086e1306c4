"""One driver for the interprocedural analyzers (DESIGN.md §8).

Taint flow (TNT2xx, §10), concurrency safety (CON3xx, §13) and async
lifecycle (LIF4xx, §15) are rule packs over one whole-program model.
The driver reads the targets, lowers each module to the callgraph IR
once, builds one :class:`~repro.analysis.callgraph.Program` and runs
the three engines over it in a fixed order (:data:`ENGINES`).  The
merged findings come back sorted by location, line and rule.

Persistence is one content-hash-keyed JSON file with two levels:

* **module level** — the extracted IR of every module, keyed by the
  SHA-256 of its source bytes.  An edited file misses; everything else
  skips ``ast`` parsing and IR lowering on the next run.
* **run level** — the merged findings, keyed by a digest over the
  sorted ``(path, hash)`` set plus the format versions.  A completely
  unchanged tree returns memoized findings without running any engine.

The file (``.interproc-cache.json``) is gitignored; deleting it only
costs one cold run.  It is keyed on ``IR_VERSION`` plus every pack's
``SPEC_VERSION``, so bumping any one of them cold-starts the whole file
once, at load.
"""

from __future__ import annotations

import hashlib
import json
import os
import time

from repro.analysis import concspec, lifespec, taintspec
from repro.analysis.astlint import _iter_py_files
from repro.analysis.callgraph import IR_VERSION, Program, extract_module
from repro.analysis.concurrency import ConcurrencyEngine
from repro.analysis.findings import (
    AnalysisResult,
    Finding,
    Severity,
    display_path,
)
from repro.analysis.lifecycle import LifecycleEngine
from repro.analysis.taint import TaintEngine

#: (rule prefix, engine) in run order; each engine takes the program
#: and a module -> display path map and returns its sorted findings.
ENGINES = (
    ("TNT", TaintEngine),
    ("CON", ConcurrencyEngine),
    ("LIF", LifecycleEngine),
)

CACHE_FORMAT = 1
DEFAULT_CACHE_PATH = ".interproc-cache.json"
_MAX_RUNS = 8  # keep the file bounded across branch switches


def content_hash(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class AnalysisCache:
    """The driver's on-disk cache (load once, save once)."""

    def __init__(self, path: str = DEFAULT_CACHE_PATH):
        self.path = path
        self.header = {
            "format": CACHE_FORMAT,
            "ir_version": IR_VERSION,
            # A list, not a tuple: the header is compared with what
            # json.load returns, and a tuple never equals a list.
            "spec_version": [
                taintspec.SPEC_VERSION,
                concspec.SPEC_VERSION,
                lifespec.SPEC_VERSION,
            ],
        }
        self.hits = 0
        self.misses = 0
        self.run_hit = False
        self._modules: dict[str, dict] = {}
        self._runs: dict[str, dict] = {}
        self._load()

    def _load(self) -> None:
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return
        if any(payload.get(k) != v for k, v in self.header.items()):
            return
        self._modules = payload.get("modules", {})
        self._runs = payload.get("runs", {})

    def save(self) -> None:
        runs = sorted(self._runs.items(), key=lambda kv: kv[1]["stamp"])
        payload = {
            **self.header,
            "modules": self._modules,
            "runs": dict(runs[-_MAX_RUNS:]),
        }
        tmp = f"{self.path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))
        os.replace(tmp, self.path)

    # -- module level ---------------------------------------------------------

    def module_info(self, path: str, digest: str) -> dict | None:
        entry = self._modules.get(path)
        if entry is not None and entry.get("hash") == digest:
            self.hits += 1
            return entry["info"]
        self.misses += 1
        return None

    def store_module(self, path: str, digest: str, info: dict) -> None:
        self._modules[path] = {"hash": digest, "info": info}

    # -- run level ------------------------------------------------------------

    def _run_key(self, entries) -> str:
        files = sorted((path, digest) for path, digest, _ in entries)
        return content_hash(json.dumps([self.header, files]).encode())

    def run_result(self, entries) -> AnalysisResult | None:
        entry = self._runs.get(self._run_key(entries))
        if entry is None:
            return None
        self.run_hit = True
        self.hits += len(entries)
        result = AnalysisResult(scanned=entry["scanned"])
        for item in entry["findings"]:
            severity = Severity[item["severity"]]
            result.findings.append(Finding(**dict(item, severity=severity)))
        return result

    def store_run(self, entries, result: AnalysisResult) -> None:
        stamps = [run["stamp"] for run in self._runs.values()]
        self._runs[self._run_key(entries)] = {
            "scanned": result.scanned,
            "stamp": max(stamps, default=0) + 1,
            "findings": [
                dict(vars(f), severity=f.severity.name)
                for f in result.findings
            ],
        }


# -- entry points -------------------------------------------------------------


def _run_packs(infos: list, timings: dict | None) -> AnalysisResult:
    program = Program(infos)
    paths = {info["module"]: info["path"] for info in infos}
    findings = []
    for prefix, engine in ENGINES:
        start = time.perf_counter()
        findings.extend(engine(program, paths).run())
        if timings is not None:
            timings[prefix] = time.perf_counter() - start
    findings.sort(key=lambda f: (f.location, f.line or 0, f.rule_id))
    return AnalysisResult(findings=findings, scanned=len(infos))


def analyze_modules(sources: dict) -> AnalysisResult:
    """Analyze in-memory ``{path: source}`` modules (tests, fixtures)."""
    infos = [extract_module(sources[path], path) for path in sorted(sources)]
    return _run_packs(infos, None)


def analyze_source(source: str, path: str = "src/repro/example.py") -> list:
    """Single-module convenience mirroring :func:`lint_source`."""
    return analyze_modules({path: source}).findings


def analyze_paths(
    paths, *, cache: AnalysisCache | None = None, timings: dict | None = None
) -> AnalysisResult:
    """Analyze files/directories of ``.py`` files, optionally cached.

    With a *cache*, unchanged modules skip AST extraction and a fully
    unchanged target set returns the memoized findings without running
    any engine.  A module that does not parse raises its
    :class:`SyntaxError` (``filename`` and ``lineno`` set).  *timings*,
    when given, receives the seconds a run that was not memoized spent
    lowering (``lower``) and in each engine (``TNT``, ``CON``, ``LIF``).
    """
    entries = []  # (display path, content hash, source)
    for target in _iter_py_files(paths):
        target = display_path(target)
        with open(target, "rb") as handle:
            raw = handle.read()
        entries.append((target, content_hash(raw), raw.decode("utf-8")))

    if cache is not None:
        memoized = cache.run_result(entries)
        if memoized is not None:
            return memoized

    start = time.perf_counter()
    infos = []
    for path, digest, source in sorted(entries):
        info = None if cache is None else cache.module_info(path, digest)
        if info is None:
            info = extract_module(source, path)
            if cache is not None:
                cache.store_module(path, digest, info)
        infos.append(info)
    if timings is not None:
        timings["lower"] = time.perf_counter() - start

    result = _run_packs(infos, timings)
    if cache is not None:
        cache.store_run(entries, result)
        cache.save()
    return result
