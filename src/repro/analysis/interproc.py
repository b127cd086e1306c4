"""One entry point for the code analyzers (DESIGN.md §8).

Four rule packs share one parse of every module.  The invariant rules
(LIN1xx, :mod:`~repro.analysis.astlint`) judge each module on its own,
so they ride on the walk that lowers the module to the callgraph IR.
Taint flow (TNT2xx, §10), concurrency safety (CON3xx, §13) and async
lifecycle (LIF4xx, §15) need the whole program: the lowered modules
become one :class:`~repro.analysis.callgraph.Program`, and the three
engines run over it in a fixed order (:data:`ENGINES`).  The merged
findings come back sorted by location, line and rule.

Persistence is one content-hash-keyed JSON file with two levels:

* **module level** — the extracted IR and the LIN findings of every
  module, keyed by the SHA-256 of its source bytes.  An edited file
  misses; everything else skips ``ast`` parsing, IR lowering and the
  LIN rules on the next run.
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

from repro.analysis import astlint, concspec, lifespec, taintspec
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

CACHE_FORMAT = 2
DEFAULT_CACHE_PATH = ".interproc-cache.json"
_MAX_RUNS = 8  # keep the file bounded across branch switches


def content_hash(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _record(finding: Finding) -> dict:
    return dict(vars(finding), severity=finding.severity.name)


def _finding(record: dict) -> Finding:
    return Finding(**dict(record, severity=Severity[record["severity"]]))


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
                astlint.SPEC_VERSION,
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

    def module_entry(self, path: str, digest: str) -> tuple | None:
        """``(IR, LIN findings)`` of a module, if its hash matches."""
        entry = self._modules.get(path)
        if entry is not None and entry.get("hash") == digest:
            self.hits += 1
            return entry["info"], [_finding(r) for r in entry["lin"]]
        self.misses += 1
        return None

    def store_module(
        self, path: str, digest: str, info: dict, lin: list
    ) -> None:
        self._modules[path] = {
            "hash": digest,
            "info": info,
            "lin": [_record(f) for f in lin],
        }

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
        return AnalysisResult(
            findings=[_finding(r) for r in entry["findings"]],
            scanned=entry["scanned"],
        )

    def store_run(self, entries, result: AnalysisResult) -> None:
        stamps = [run["stamp"] for run in self._runs.values()]
        self._runs[self._run_key(entries)] = {
            "scanned": result.scanned,
            "stamp": max(stamps, default=0) + 1,
            "findings": [_record(f) for f in result.findings],
        }


# -- entry points -------------------------------------------------------------


def _iter_py_files(paths):
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames.sort()
                for filename in sorted(filenames):
                    if filename.endswith(".py"):
                        yield os.path.join(dirpath, filename)
        else:
            yield path


def _lower(source: str, path: str) -> tuple[dict, list]:
    """The module's IR and its LIN findings, from one parse and one
    walk.  A module that does not parse raises ``SyntaxError``."""
    lint = astlint.ModuleLint(path)
    info = extract_module(source, path, visit=lint.visit)
    return info, lint.finish(info["imports"])


def _run_packs(lowered: list, timings: dict | None) -> AnalysisResult:
    """Merge the modules' LIN findings with the whole-program packs'."""
    infos = [info for info, _ in lowered]
    program = Program(infos)
    paths = {info["module"]: info["path"] for info in infos}
    findings = [finding for _, lin in lowered for finding in lin]
    for prefix, engine in ENGINES:
        start = time.perf_counter()
        findings.extend(engine(program, paths).run())
        if timings is not None:
            timings[prefix] = time.perf_counter() - start
    findings.sort(key=lambda f: (f.location, f.line or 0, f.rule_id))
    return AnalysisResult(findings=findings, scanned=len(infos))


def analyze_modules(sources: dict) -> AnalysisResult:
    """Analyze in-memory ``{path: source}`` modules (tests, fixtures)."""
    lowered = [_lower(sources[path], path) for path in sorted(sources)]
    return _run_packs(lowered, None)


def analyze_source(source: str, path: str = "src/repro/example.py") -> list:
    """Analyze one in-memory module; returns its findings."""
    return analyze_modules({path: source}).findings


def analyze_paths(
    paths, *, cache: AnalysisCache | None = None, timings: dict | None = None
) -> AnalysisResult:
    """Analyze files/directories of ``.py`` files, optionally cached.

    With a *cache*, unchanged modules skip parsing, lowering and the
    LIN rules, and a fully unchanged target set returns the memoized
    findings without running any engine.  A module that does not parse
    raises its :class:`SyntaxError` (``filename`` and ``lineno`` set).
    *timings*, when given, receives the seconds a run that was not
    memoized spent parsing, lowering and running the LIN rules
    (``lower``) and in each engine (``TNT``, ``CON``, ``LIF``).
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
    lowered = []
    for path, digest, source in sorted(entries):
        module = None if cache is None else cache.module_entry(path, digest)
        if module is None:
            module = _lower(source, path)
            if cache is not None:
                cache.store_module(path, digest, *module)
        lowered.append(module)
    if timings is not None:
        timings["lower"] = time.perf_counter() - start

    result = _run_packs(lowered, timings)
    if cache is not None:
        cache.store_run(entries, result)
        cache.save()
    return result
