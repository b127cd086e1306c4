"""The LIN pack: AST invariant rules over the repo's own code.

Machine-checks the contracts the test suite can only spot-check.
:mod:`repro.analysis.interproc` parses each module once and lowers it
to the callgraph IR; a :class:`ModuleLint` sees every node of the walk
that lowering makes anyway, so the rules add no walk of their own, and
their findings are cached with the module's IR.

* ``LIN101`` — every mutator in the XML tree model propagates revision
  stamps (the ``perf.cache`` safety contract: a cached digest must
  never validate a tampered subtree).
* ``LIN102`` — HMAC verdicts are never memoized (secret-keyed results
  must not reach cache tables or ``lru_cache``).
* ``LIN103`` — digest/signature comparisons in crypto paths use the
  constant-time helper, not ``==``.
* ``LIN104`` — resilience code uses the injected clock, never the wall
  clock, so fault schedules stay deterministic.
* ``LIN105`` — raw crypto primitives are reached only through
  ``primitives.provider`` (so provider swaps cover every call site).
* ``LIN106`` — untrusted-input modules never parse XML without an
  explicit ``guard=`` resource quota (the DoS hardening contract:
  hostile documents must hit a :class:`ResourceGuard`, and the call
  site must say *which* one).
* ``LIN107`` — untrusted-input modules only let *typed* errors from
  :mod:`repro.errors` escape; a builtin exception raised at a trust
  boundary leaks implementation detail and dodges the containment
  contract callers rely on.
* ``LIN108`` — persistence modules never write files with a bare
  ``open(..., "w"/"wb")``: a power cut mid-write leaves a torn file.
  Durable bytes go through the durable layer's ``atomic_write`` (or a
  :class:`DurableStore`), which the rule exempts.

Rules are heuristic by design: they pattern-match the shapes this
codebase actually uses, and anything legitimately outside a rule goes
in the committed baseline file rather than weakening the rule.
"""

from __future__ import annotations

import ast
import builtins as _builtins
import os

from repro.analysis.engine import register
from repro.analysis.findings import Severity

#: Part of the analysis cache key: bump it whenever a rule changes what
#: it reports, so cached LIN findings are recomputed.
SPEC_VERSION = 1

LIN101 = register(
    "LIN101", "tree mutator must bump revision stamps", Severity.ERROR,
    "code",
    "A method that mutates tree state (children/attrs/ns_decls/text "
    "payload) never calls mark_mutated(); revision-keyed caches would "
    "serve stale digests for the mutated subtree.",
)
LIN102 = register(
    "LIN102", "HMAC verdict memoized", Severity.ERROR, "code",
    "A function computing or checking an HMAC stores results in a "
    "cache/memo structure or is wrapped in lru_cache; secret-keyed "
    "verdicts must always be recomputed.",
)
LIN103 = register(
    "LIN103", "non-constant-time digest comparison", Severity.ERROR,
    "code",
    "A digest/signature/MAC value is compared with ==/!= in a crypto "
    "path; use primitives.hmac.constant_time_equal.",
)
LIN104 = register(
    "LIN104", "wall clock in resilience code", Severity.ERROR, "code",
    "Resilience code calls time.time/monotonic/sleep or datetime.now "
    "directly instead of the injected clock object.",
)
LIN105 = register(
    "LIN105", "raw primitive reached outside provider", Severity.ERROR,
    "code",
    "A module outside repro.primitives imports a raw primitive "
    "(aes/des/rsa/sha/modes/keywrap/prime, or an HMAC construction) "
    "instead of going through primitives.provider.",
)

LIN108 = register(
    "LIN108", "torn-write hazard in a persistence module",
    Severity.ERROR, "code",
    "A module that persists security state opens a file for writing "
    "directly; a crash mid-write leaves a torn file that recovery "
    "cannot distinguish from tampering.  Route the bytes through "
    "repro.resilience.durable.atomic_write or a DurableStore.",
)

LIN106 = register(
    "LIN106", "unguarded parse of untrusted input", Severity.WARNING,
    "code",
    "A module on an untrusted-input path (network, xkms, xmlenc, "
    "player, package/pipeline/disc-image/batch entry points) calls "
    "parse_document/parse_element without an explicit guard= keyword; "
    "pass the session's ResourceGuard, or ResourceGuard.default() to "
    "document that the CE-device default quota is intended.",
)
LIN107 = register(
    "LIN107", "builtin exception escapes an untrusted-input module",
    Severity.ERROR, "code",
    "A module that receives bytes from the other side of a trust "
    "boundary raises a builtin exception that is not caught in the "
    "same module; failures on untrusted paths must be typed errors "
    "from repro.errors so callers catch the contract, not the "
    "implementation (raises converted inside an enclosing try are "
    "fine).",
)

# LIN101: attributes whose direct mutation must be stamped.
_TREE_STATE = ("children", "attrs", "ns_decls", "_data")
_MUTATING_METHODS = ("append", "insert", "remove", "pop", "clear",
                     "extend", "update", "setdefault")

# LIN103: identifier-token heuristics.
_SECRET_TOKENS = {"digest", "mac", "hmac", "signature", "sig", "tag"}
_BENIGN_TOKENS = {"method", "methods", "name", "names", "algorithm",
                  "algorithms", "uri", "id", "el", "size", "kind",
                  "path", "local", "len"}

# LIN104: forbidden wall-clock calls.
_WALL_CLOCK = {("time", "time"), ("time", "monotonic"),
               ("time", "perf_counter"), ("time", "sleep"),
               ("datetime", "now"), ("datetime", "utcnow")}

# LIN105: primitive modules only the provider may touch.  keys,
# encoding, random and padding are data-model/utility surfaces, not
# raw algorithms; hmac is both, so only its MAC constructions count
# (its constant-time helper is a utility).
_RAW_PRIMITIVES = {"aes", "des", "rsa", "sha", "modes", "keywrap",
                   "prime"}
_RAW_HMAC_NAMES = {"HMAC", "hmac_sha1", "hmac_sha256"}

# LIN106: where XML arrives from the other side of a trust boundary.
_UNTRUSTED_DIRS = ("/network/", "/xkms/", "/xmlenc/", "/player/")
_UNTRUSTED_FILES = ("core/package.py", "core/playback_pipeline.py",
                    "disc/image.py", "perf/batch.py",
                    # flash contents are attacker-reachable input
                    "resilience/durable.py")
_PARSE_ENTRY_POINTS = ("parse_document", "parse_element")

# LIN108: modules that put security state on disk.  The durable layer
# itself is the sanctioned implementation (its Filesystem abstraction
# and atomic_write are *how* everyone else avoids torn writes), so it
# is exempt by construction.
_PERSISTENCE_FILES = ("player/localstorage.py", "certs/store.py",
                      "xkms/server.py")
_DURABLE_LAYER_FILES = ("resilience/durable.py", "resilience/crashfs.py")
_WRITE_MODE_CHARS = ("w", "a", "x", "+")

# LIN107: builtin exception types (anything importable without an
# import is "builtin"); NotImplementedError is the protocol-stub idiom
# and deliberately exempt.
_BUILTIN_EXCEPTIONS = frozenset(
    name for name, obj in vars(_builtins).items()
    if isinstance(obj, type) and issubclass(obj, BaseException)
) - {"NotImplementedError"}


def _name_hint(node: ast.expr) -> str:
    """The identifier a comparison operand 'is about'."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Call):
        return _name_hint(node.func)
    return ""


def _tokens(identifier: str) -> set[str]:
    return {t for t in identifier.lower().split("_") if t}


def _is_secret_hint(node: ast.expr) -> bool:
    hint = _name_hint(node)
    if hint.isupper():
        return False  # ALL_CAPS module constants (algorithm URIs etc.)
    tokens = _tokens(hint)
    return bool(tokens & _SECRET_TOKENS) and not (tokens & _BENIGN_TOKENS)


def _is_hmac_name(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        hint = node.id
    elif isinstance(node, ast.Attribute):
        hint = node.attr
    elif isinstance(node, ast.FunctionDef):
        hint = node.name
    else:
        return False
    return "hmac" in hint.lower()


def _dotted(node: ast.expr) -> str:
    parts: list[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
    return ".".join(reversed(parts))


class ModuleLint:
    """The LIN rules over one module.

    Feed every node of one walk over the module to :meth:`visit`, then
    call :meth:`finish` for the findings.
    """

    def __init__(self, path: str):
        self.path = path
        self.findings = []
        normalized = path.replace(os.sep, "/")
        self.in_primitives = "/primitives/" in normalized
        self.in_resilience = ("/resilience/" in normalized
                              and not normalized.endswith("clock.py"))
        self.in_crypto_path = any(
            part in normalized for part in
            ("/dsig/", "/xmlenc/", "/primitives/", "/omadcf/")
        )
        self.in_untrusted_input = (
            any(part in normalized for part in _UNTRUSTED_DIRS)
            or normalized.endswith(_UNTRUSTED_FILES)
        )
        # LIN107 also covers markup handling: its input is parsed
        # content that originated on a disc or the network.
        self.in_typed_raise_scope = (self.in_untrusted_input
                                     or "/markup/" in normalized)
        # LIN108 applies to modules that persist security state, plus
        # all of /resilience/ except the durable layer itself.
        self.in_persistence = (
            normalized.endswith(_PERSISTENCE_FILES)
            or ("/resilience/" in normalized
                and not normalized.endswith(_DURABLE_LAYER_FILES))
        )
        # Nodes kept for the rules that need the whole module (LIN104
        # needs the import table, which is complete only after the walk).
        self._clock_calls, self._raises, self._tries = [], [], []
        self._classes, self._functions = [], []
        self._saw_hmac = False

    def visit(self, node: ast.AST) -> None:
        """Judge one node of the walk, or keep it for :meth:`finish`."""
        if isinstance(node, (ast.Name, ast.Attribute)):
            # The most common nodes; only LIN102's trigger reads them.
            if not self._saw_hmac:
                self._saw_hmac = _is_hmac_name(node)
        elif isinstance(node, ast.Call):
            if self.in_resilience:
                self._clock_calls.append(node)
            self._lint_unguarded_parse(node)
            self._lint_torn_write(node)
        elif isinstance(node, ast.Compare):
            self._lint_compare(node)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            self._lint_import(node)
        elif isinstance(node, ast.Raise):
            self._raises.append(node)
        elif isinstance(node, ast.Try):
            self._tries.append(node)
        elif isinstance(node, ast.ClassDef):
            self._classes.append(node)
        elif isinstance(node, ast.FunctionDef):
            self._functions.append(node)
            if not self._saw_hmac:
                self._saw_hmac = _is_hmac_name(node)

    def finish(self, imports: dict) -> list:
        """Run the rules that need the whole module; return every LIN
        finding.  *imports* is the module's import table (local name ->
        dotted target), which LIN104 resolves call heads through."""
        for node in self._clock_calls:
            self._lint_wall_clock(node, imports)
        # LIN101 applies to modules that define the revision protocol
        # (the tree model and anything shaped like it).
        if any(func.name == "mark_mutated" for func in self._functions):
            for cls in self._classes:
                for item in cls.body:
                    if isinstance(item, ast.FunctionDef):
                        self._lint_mutator(cls, item)
        if self._saw_hmac:
            for func in self._functions:
                self._lint_hmac_memo(func)
        self._lint_typed_raises()
        return self.findings

    # -- LIN101 ----------------------------------------------------------------

    def _lint_mutator(self, cls: ast.ClassDef,
                      func: ast.FunctionDef) -> None:
        if func.name in ("__init__", "mark_mutated"):
            return
        mutations = []
        for node in ast.walk(func):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (node.targets
                           if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    if self._is_self_state(target):
                        mutations.append(node)
            elif isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute) and \
                    node.func.attr in _MUTATING_METHODS and \
                    self._is_self_state(node.func.value):
                mutations.append(node)
        if not mutations:
            return
        calls_mark = any(
            isinstance(n, ast.Call)
            and isinstance(n.func, ast.Attribute)
            and n.func.attr == "mark_mutated"
            for n in ast.walk(func)
        )
        if not calls_mark:
            self.findings.append(LIN101.finding(
                self.path,
                f"{cls.name}.{func.name} mutates tree state without "
                "calling mark_mutated()",
                line=mutations[0].lineno,
            ))

    @staticmethod
    def _is_self_state(node: ast.expr) -> bool:
        """``self.children`` / ``self.attrs[i]`` / ``self._data`` ..."""
        if isinstance(node, ast.Subscript):
            node = node.value
        return (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and node.attr in _TREE_STATE)

    # -- LIN102 ----------------------------------------------------------------

    def _lint_hmac_memo(self, func: ast.FunctionDef) -> None:
        if not any(_is_hmac_name(node) for node in ast.walk(func)):
            return
        for decorator in func.decorator_list:
            name = _dotted(decorator.func
                           if isinstance(decorator, ast.Call)
                           else decorator)
            if name.rsplit(".", 1)[-1] in ("lru_cache", "cache"):
                self.findings.append(LIN102.finding(
                    self.path,
                    f"{func.name} touches HMAC material and is wrapped "
                    f"in {name}",
                    line=func.lineno,
                ))
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Subscript):
                        store = _dotted(target.value).lower()
                        if "cache" in store or "memo" in store:
                            self.findings.append(LIN102.finding(
                                self.path,
                                f"{func.name} stores an HMAC-derived "
                                f"value into {_dotted(target.value)}",
                                line=node.lineno,
                            ))

    # -- LIN103 ----------------------------------------------------------------

    def _lint_compare(self, node: ast.Compare) -> None:
        if not self.in_crypto_path:
            return
        if len(node.ops) != 1 or \
                not isinstance(node.ops[0], (ast.Eq, ast.NotEq)):
            return
        left, right = node.left, node.comparators[0]
        # Comparisons against literals/None are never secret-vs-secret.
        if isinstance(left, ast.Constant) or \
                isinstance(right, ast.Constant):
            return
        if _is_secret_hint(left) or _is_secret_hint(right):
            self.findings.append(LIN103.finding(
                self.path,
                f"comparison of "
                f"{_name_hint(left) or '<expr>'} and "
                f"{_name_hint(right) or '<expr>'} with ==/!=; use "
                "constant_time_equal",
                line=node.lineno,
            ))

    # -- LIN104 ----------------------------------------------------------------

    def _lint_wall_clock(self, node: ast.Call, imports: dict) -> None:
        dotted = _dotted(node.func)
        # Resolve the head through the import table, so that
        # ``from time import sleep`` and ``import time as t`` match too.
        head, dot, rest = dotted.partition(".")
        resolved = imports.get(head, head) + dot + rest
        base, _, attr = resolved.rpartition(".")
        if (base.rsplit(".", 1)[-1], attr) in _WALL_CLOCK:
            self.findings.append(LIN104.finding(
                self.path,
                f"wall-clock call {dotted}(); use the injected clock",
                line=node.lineno,
            ))

    # -- LIN106 ----------------------------------------------------------------

    def _lint_unguarded_parse(self, node: ast.Call) -> None:
        if not self.in_untrusted_input:
            return
        name = _dotted(node.func).rsplit(".", 1)[-1]
        if name not in _PARSE_ENTRY_POINTS:
            return
        if any(kw.arg == "guard" for kw in node.keywords):
            return
        self.findings.append(LIN106.finding(
            self.path,
            f"{name}() on an untrusted-input path without an explicit "
            "guard= resource quota",
            line=node.lineno,
        ))

    # -- LIN108 ----------------------------------------------------------------

    def _lint_torn_write(self, node: ast.Call) -> None:
        if not self.in_persistence:
            return
        if not (isinstance(node.func, ast.Name)
                and node.func.id == "open"):
            return
        mode = None
        if len(node.args) >= 2:
            mode = node.args[1]
        for kw in node.keywords:
            if kw.arg == "mode":
                mode = kw.value
        if not (isinstance(mode, ast.Constant)
                and isinstance(mode.value, str)):
            return  # default mode "r" / dynamic mode: not a write
        if any(ch in mode.value for ch in _WRITE_MODE_CHARS):
            self.findings.append(LIN108.finding(
                self.path,
                f"open(..., {mode.value!r}) in a persistence module; "
                "a crash here leaves a torn file — use "
                "repro.resilience.durable.atomic_write",
                line=node.lineno,
            ))

    # -- LIN107 ----------------------------------------------------------------

    def _lint_typed_raises(self) -> None:
        if not self.in_typed_raise_scope or not self._raises:
            return
        # Raises lexically inside a try that has except handlers are
        # treated as converted-on-the-spot (the timing-parser idiom:
        # raise ValueError in a helper, catch and re-raise typed).
        handled = {
            id(sub)
            for node in self._tries if node.handlers
            for stmt in node.body + node.orelse
            for sub in ast.walk(stmt) if isinstance(sub, ast.Raise)
        }
        for node in self._raises:
            if id(node) in handled:
                continue
            exc = node.exc
            if exc is None:
                continue  # bare re-raise keeps the active (typed) error
            if isinstance(exc, ast.Call):
                exc = exc.func
            name = _dotted(exc).rsplit(".", 1)[-1]
            if name in _BUILTIN_EXCEPTIONS:
                self.findings.append(LIN107.finding(
                    self.path,
                    f"raises builtin {name} on an untrusted-input "
                    "path; raise a typed error from repro.errors",
                    line=node.lineno,
                ))

    # -- LIN105 ----------------------------------------------------------------

    def _lint_import(self, node: ast.Import | ast.ImportFrom) -> None:
        if self.in_primitives:
            return
        if isinstance(node, ast.ImportFrom) and node.module:
            parts = node.module.split(".")
            if parts[:2] == ["repro", "primitives"]:
                if len(parts) > 2 and parts[2] in _RAW_PRIMITIVES:
                    self._raw_import(node, node.module)
                elif parts[2:] == ["hmac"]:
                    for alias in node.names:
                        if alias.name in _RAW_HMAC_NAMES:
                            self._raw_import(
                                node,
                                f"repro.primitives.hmac.{alias.name}",
                            )
                elif len(parts) == 2:
                    for alias in node.names:
                        if alias.name in _RAW_PRIMITIVES or \
                                alias.name == "HMAC":
                            self._raw_import(
                                node,
                                f"repro.primitives.{alias.name}",
                            )
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[:2] == ["repro", "primitives"] and \
                        len(parts) > 2 and \
                        parts[2] in _RAW_PRIMITIVES:
                    self._raw_import(node, alias.name)

    def _raw_import(self, node: ast.AST, module: str) -> None:
        self.findings.append(LIN105.finding(
            self.path,
            f"imports raw primitive {module}; route through "
            "primitives.provider",
            line=node.lineno,
        ))
