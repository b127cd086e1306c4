"""Interprocedural concurrency-safety analysis over the repo's source.

RacerD-style, over the same per-function IR the taint analyzer uses
(:mod:`repro.analysis.callgraph`, IR v3 adds branch-test reads and
``with``-region markers):

1. **Root discovery** — callables handed to executor ``submit``/
   ``map`` sites, ``threading.Thread(target=...)`` constructors,
   ``async def`` bodies, and the declared chaos drivers
   (:data:`repro.analysis.concspec.ROOT_QNAMES`).
2. **Context walk** — from each root, walk the call graph carrying the
   set of held locks (lock regions come from ``with <lock-named>:``
   markers; lock identity is ``module:Class.attr`` for instance locks
   and ``module:name`` for module-level locks).  Every read/write of a
   ``self.<attr>`` field or module global is recorded with the held
   set, the originating root, and whether the read sat in a branch
   test.  Functions no root reaches are walked once under the ``main``
   context so main-thread writers of root-read state are visible.
3. **Rules** — findings mint only for state on the explicit shared
   surface (:data:`repro.analysis.concspec.SHARED_SURFACE`); a field
   is *shared* when a concurrency root writes it, or a root reads it
   and anyone writes it.  Constructor writes are pre-publication and
   never count.

   * CON301 — shared field written while holding no lock.
   * CON302 — branch test reads a field (directly or through a local
     bound to it) and a later write in the same function has no lock
     in common with the test.
   * CON303 — inconsistent guarded-by sets across a field's access
     sites; a held lock spanning a blocking call; a held non-reentrant
     lock spanning a call that can re-acquire it.
   * CON304 — a blocking call (transitively) reachable from an async
     root.

Soundness caveats (DESIGN §13): lock identity is name-based per class
(two instances of one class are assumed to alias, separate locks with
one name are merged), the walk is context-insensitive beyond the held
set, and sharedness is an allowlist — state outside the surface is
assumed context-owned.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis import concspec as spec
from repro.analysis.callgraph import Program, receiver_hint

MAIN_CONTEXT = "main"


def _expr_dotted(expr) -> str:
    """Rebuild ``a.b.c`` from a lowered name/attr chain (else ``""``)."""
    parts: list[str] = []
    current = expr
    while current and current[0] == "attr":
        parts.append(current[2])
        current = current[1]
    if current and current[0] == "name":
        parts.append(current[1])
        return ".".join(reversed(parts))
    return ""


@dataclass
class _Access:
    kind: str            # "read" | "write"
    held: frozenset
    context: str         # root qname or MAIN_CONTEXT
    func: str            # accessing function qname
    path: str
    line: int


class _FunctionScan:
    """One linear pass over a function's IR: the event list the walk
    replays, plus local lock/blocking facts for transitive summaries.

    Events (source order)::

        ("acquire", lock_id, line)
        ("release", lock_id, line)
        ("read", field_key, line, in_test)
        ("write", field_key, line)
        ("call", short, hint, resolved_qname|None, full_dotted,
         bare, line)
    """

    def __init__(self, program: Program, ir: dict, path: str):
        self.program = program
        self.ir = ir
        self.module = ir["module"]
        self.cls = ir["cls"]
        self.path = path
        info = program.modules.get(self.module, {})
        self.module_vars = set(info.get("module_vars", ()))
        self.imports = dict(info.get("imports", {}))
        self.declared_globals = set(ir.get("globals", ()))
        self.locals: set[str] = set(ir["params"])
        self.var_types: dict[str, tuple] = {}
        if ir["cls"] and ir["params"] and \
                ir["params"][0] in ("self", "cls"):
            self.var_types[ir["params"][0]] = (self.module, ir["cls"])
        #: local name -> field keys its defining expression read
        #: (check-then-act through a temporary: ``v = self._memo.get(k)``)
        self.bindings: dict[str, frozenset] = {}
        self.events: list[tuple] = []
        self.acquires: set[str] = set()
        self.blocking: list[tuple] = []       # (origin, line)
        self.callees: set[str] = set()
        self.submitted: list[str] = []        # root qnames dispatched here
        for op in ir["ops"]:
            self._op(op)

    # -- ops ------------------------------------------------------------------

    def _op(self, op: list) -> None:
        kind = op[0]
        if kind == "assign":
            _, targets, expr, line = op
            reads = self._expr(expr, line)
            for target in targets:
                self._write_target(target, line, reads, expr)
        elif kind == "storesub":
            _, recv_hint, key_expr, value_expr, line = op
            self._expr(key_expr, line)
            self._expr(value_expr, line)
            field = self._hint_field(recv_hint)
            if field is not None:
                self.events.append(("write", field, line))
        elif kind in ("expr", "return"):
            self._expr(op[1], op[2])
        elif kind == "test":
            self._expr(op[1], op[2], in_test=True)
        elif kind == "raise":
            _, _exc, args, line, _handled = op
            for arg in args:
                self._expr(arg, line)
        elif kind == "lockenter":
            _, dotted, line = op
            lock = self._lock_id(dotted)
            if lock is not None:
                self.acquires.add(lock)
                self.events.append(("acquire", lock, line))
        elif kind == "lockexit":
            _, dotted, line = op
            lock = self._lock_id(dotted)
            if lock is not None:
                self.events.append(("release", lock, line))

    def _write_target(self, target: str, line: int, reads: set,
                      expr: list) -> None:
        if "." in target:
            base, attr = target.split(".", 1)
            if base == "self" and self.cls and "." not in attr:
                self.events.append(
                    ("write", ("attr", self.module, self.cls, attr),
                     line))
            return
        if target in self.declared_globals:
            self.events.append(
                ("write", ("global", self.module, target), line))
            return
        self.locals.add(target)
        if reads:
            self.bindings[target] = frozenset(reads)
        else:
            self.bindings.pop(target, None)
        self._track_type(target, expr)

    def _track_type(self, target: str, expr: list) -> None:
        if expr and expr[0] == "call":
            resolved = self.program.class_of_constructor(
                self.module, expr[1])
            if resolved is not None:
                self.var_types[target] = resolved
            else:
                self.var_types.pop(target, None)
        elif expr and expr[0] != "name":
            self.var_types.pop(target, None)

    def _hint_field(self, recv_hint: str) -> tuple | None:
        """Field key for a subscript-store receiver hint."""
        if not recv_hint:
            return None
        parts = recv_hint.split(".")
        if parts[0] == "self" and self.cls and len(parts) >= 2:
            return ("attr", self.module, self.cls, parts[1])
        if len(parts) == 1 and parts[0] in self.module_vars and \
                parts[0] not in self.locals:
            return ("global", self.module, parts[0])
        return None

    def _lock_id(self, dotted: str) -> str | None:
        if not dotted:
            return None
        last = dotted.rsplit(".", 1)[-1].lower()
        if not any(token in last for token in spec.LOCK_NAME_TOKENS):
            return None
        parts = dotted.split(".")
        if parts[0] in ("self", "cls") and self.cls and len(parts) == 2:
            return f"{self.module}:{self.cls}.{parts[1]}"
        return f"{self.module}:{dotted}"

    # -- expressions ----------------------------------------------------------

    def _expr(self, expr, line: int, in_test: bool = False) -> set:
        """Emit read/call events; return the field keys read."""
        reads: set = set()
        if not expr:
            return reads
        kind = expr[0]
        if kind == "name":
            name = expr[1]
            if in_test and name in self.bindings:
                for field in self.bindings[name]:
                    reads.add(field)
                    self.events.append(("read", field, line, True))
            if name in self.declared_globals or (
                    name in self.module_vars
                    and name not in self.locals):
                field = ("global", self.module, name)
                reads.add(field)
                self.events.append(("read", field, line, in_test))
        elif kind == "attr":
            base = expr[1]
            if base and base[0] == "name" and base[1] == "self" and \
                    self.cls:
                method = self._own_method(expr[2])
                if method is not None:
                    # Property getters (and methods used as values)
                    # execute code: traverse instead of recording a
                    # data read, so the lazy-provider pattern is
                    # visible through its property.
                    self.events.append(
                        ("call", expr[2], "self", method,
                         f"self.{expr[2]}", False, line))
                    self.callees.add(method)
                else:
                    field = ("attr", self.module, self.cls, expr[2])
                    reads.add(field)
                    self.events.append(("read", field, line, in_test))
            else:
                reads |= self._expr(base, line, in_test)
        elif kind == "sub":
            reads |= self._expr(expr[1], line, in_test)
            reads |= self._expr(expr[2], line, in_test)
        elif kind == "many":
            for part in expr[1]:
                reads |= self._expr(part, line, in_test)
        elif kind == "call":
            reads |= self._call(expr, in_test)
        return reads

    def _call(self, expr, in_test: bool) -> set:
        _, dotted, recv, args, kwargs, line = expr
        reads: set = set()
        short = dotted.rsplit(".", 1)[-1] if dotted else ""
        if recv is not None:
            reads |= self._expr(recv, line, in_test)
            if short in spec.MUTATOR_NAMES:
                field = self._recv_field(recv)
                if field is not None:
                    self.events.append(("write", field, line))
        for arg in args:
            reads |= self._expr(arg, line, in_test)
        for _kw, value in kwargs:
            reads |= self._expr(value, line, in_test)

        hint = receiver_hint(recv, dotted)
        qname = self._resolve(dotted)
        full_dotted = self._import_resolved(dotted)
        self.events.append(
            ("call", short, hint, qname, full_dotted,
             recv is None, line))
        if qname is not None:
            self.callees.add(qname)
        origin = spec.blocking_origin(short, hint, full_dotted,
                                      recv is None)
        if origin is not None:
            self.blocking.append((origin, line))
        self._note_dispatch(short, hint, args, kwargs)
        return reads

    def _note_dispatch(self, short: str, hint: str, args,
                       kwargs) -> None:
        """Record callables dispatched onto another execution context."""
        target = None
        lowered = hint.lower()
        executorish = any(token in lowered
                          for token in spec.EXECUTOR_RECEIVER_TOKENS)
        if short in spec.SUBMIT_NAMES and executorish and args:
            target = args[0]
        elif short in spec.MAP_NAMES and executorish and args:
            target = args[0]
        elif short in spec.THREAD_CONSTRUCTORS:
            for kw, value in kwargs:
                if kw == "target":
                    target = value
        elif short in spec.TASK_SPAWN_NAMES and args:
            target = args[0]
        elif short in spec.GROUP_SPAWN_NAMES and args:
            target = args[0]
        elif short in spec.EXECUTOR_RUN_NAMES and len(args) >= 2:
            # run_in_executor(executor, fn, *args): the callable is the
            # second argument, and it runs on a *thread*.
            target = args[1]
        if target is None:
            return
        # asyncio spawns usually wrap a call — create_task(self._f())
        # — so the spawned callee is the call's own dotted name.
        if target[0] == "call":
            dotted = target[1]
        else:
            dotted = _expr_dotted(target)
        qname = self._resolve(dotted)
        if qname is not None:
            self.submitted.append(qname)

    def _own_method(self, name: str) -> str | None:
        if not self.cls:
            return None
        info = self.program.class_info(self.module, self.cls)
        if info is not None and name in info["methods"]:
            return f"{self.module}:{self.cls}.{name}"
        return None

    def _recv_field(self, recv) -> tuple | None:
        if recv[0] == "attr" and recv[1] and recv[1][0] == "name" and \
                recv[1][1] == "self" and self.cls:
            return ("attr", self.module, self.cls, recv[2])
        if recv[0] == "name" and recv[1] in self.module_vars and \
                recv[1] not in self.locals:
            return ("global", self.module, recv[1])
        return None

    def _import_resolved(self, dotted: str) -> str:
        """Dotted name with its head import-expanded (``sleep`` →
        ``time.sleep`` after ``from time import sleep``)."""
        if not dotted:
            return dotted
        head, _, rest = dotted.partition(".")
        full = self.imports.get(head)
        if full is None:
            return dotted
        return f"{full}.{rest}" if rest else full

    def _resolve(self, dotted: str) -> str | None:
        """Callee qname (:meth:`Program.resolve_callee`)."""
        return self.program.resolve_callee(
            self.module, dotted, self.var_types, self.cls,
            spec.OPAQUE_METHOD_NAMES)


class ConcurrencyEngine:
    """Root walk, guarded-by inference, CON301–CON304 minting."""

    def __init__(self, program: Program, paths: dict):
        self.program = program
        self.paths = paths
        self.scans = {
            qname: _FunctionScan(program, ir, paths[ir["module"]])
            for qname, ir in program.functions.items()
        }
        self.reentrant = self._collect_reentrant_locks()
        self._closures: dict[str, tuple] = {}
        self.accesses: dict[tuple, list] = {}
        self._con302: dict[tuple, tuple] = {}
        self._findings: dict[str, object] = {}
        self._visited: set[str] = set()
        self.roots: list[tuple] = []          # (qname, kind)

    # -- setup ----------------------------------------------------------------

    def _collect_reentrant_locks(self) -> set:
        reentrant = set()
        for qname, ir in self.program.functions.items():
            for op in ir["ops"]:
                if op[0] != "assign" or not op[2] or op[2][0] != "call":
                    continue
                ctor = op[2][1].rsplit(".", 1)[-1]
                if ctor not in spec.REENTRANT_CONSTRUCTORS:
                    continue
                for target in op[1]:
                    if target.startswith("self.") and ir["cls"]:
                        attr = target.split(".", 1)[1]
                        reentrant.add(
                            f"{ir['module']}:{ir['cls']}.{attr}")
                    elif "." not in target:
                        reentrant.add(f"{ir['module']}:{target}")
        return reentrant

    def _discover_roots(self) -> list:
        roots: list[tuple] = []
        for qname, scan in sorted(self.scans.items()):
            for submitted in scan.submitted:
                roots.append((submitted, "task"))
            if scan.ir.get("is_async"):
                roots.append((qname, "async"))
            if qname in spec.ROOT_QNAMES:
                roots.append((qname, "driver"))
        seen = set()
        unique = []
        for root in roots:
            if root not in seen:
                seen.add(root)
                unique.append(root)
        return unique

    # -- transitive call facts ------------------------------------------------

    def _closure(self, qname: str, _stack: frozenset = frozenset()
                 ) -> tuple:
        """(acquired lock ids, blocking-call origin or None) for the
        whole call tree under *qname* (cycles contribute nothing new)."""
        cached = self._closures.get(qname)
        if cached is not None:
            return cached
        if qname in _stack:
            return (frozenset(), None)
        scan = self.scans.get(qname)
        if scan is None:
            return (frozenset(), None)
        acquires = set(scan.acquires)
        blocking = scan.blocking[0][0] if scan.blocking else None
        nested = _stack | {qname}
        for callee in sorted(scan.callees):
            sub_acquires, sub_blocking = self._closure(callee, nested)
            acquires |= sub_acquires
            if blocking is None and sub_blocking is not None:
                blocking = f"{sub_blocking} via " \
                           f"{callee.rsplit(':', 1)[-1]}"
        result = (frozenset(acquires), blocking)
        if not _stack:
            self._closures[qname] = result
        return result

    # -- the walk -------------------------------------------------------------

    def _walk(self, root_qname: str, root_kind: str) -> None:
        stack = [(root_qname, frozenset())]
        if root_kind == "driver":
            # Harness drivers dispatch their co-located generators
            # through module-level tables the IR cannot see; every
            # top-level function of the driver's module runs under the
            # driver's context.
            driver_module = root_qname.split(":", 1)[0]
            stack.extend(
                (qname, frozenset()) for qname in sorted(self.scans)
                if qname.split(":", 1)[0] == driver_module
            )
        seen: set[tuple] = set()
        while stack:
            qname, held = stack.pop()
            if (qname, held) in seen:
                continue
            seen.add((qname, held))
            self._visited.add(qname)
            scan = self.scans.get(qname)
            if scan is None:
                continue
            for callee, callee_held in self._replay(
                    scan, qname, held, root_qname, root_kind):
                stack.append((callee, callee_held))

    def _replay(self, scan: _FunctionScan, qname: str,
                entry_held: frozenset, context: str,
                root_kind: str) -> list:
        """Replay one function's events under *entry_held*; returns the
        (callee, held) continuations."""
        held = set(entry_held)
        last_test: dict[tuple, tuple] = {}
        out: list[tuple] = []
        in_ctor = qname.rsplit(".", 1)[-1] in spec.CONSTRUCTOR_NAMES
        for event in scan.events:
            kind = event[0]
            if kind == "acquire":
                held.add(event[1])
            elif kind == "release":
                held.discard(event[1])
            elif kind == "read":
                _, field, line, in_test = event
                self._record(field, "read", frozenset(held), context,
                             qname, scan.path, line)
                if in_test:
                    last_test[field] = (line, frozenset(held))
            elif kind == "write":
                _, field, line = event
                now = frozenset(held)
                self._record(field, "write", now, context, qname,
                             scan.path, line)
                test = last_test.get(field)
                if test is not None and not in_ctor and \
                        not (test[1] & now):
                    key = (field, qname)
                    self._con302.setdefault(
                        key, (scan.path, test[0], line, context))
            elif kind == "call":
                _, short, _hint, callee, _full, _bare, line = event
                now = frozenset(held)
                self._call_checks(scan, qname, short, callee, now,
                                  event, root_kind, context, line)
                if callee is not None:
                    out.append((callee, now))
        return out

    def _call_checks(self, scan: _FunctionScan, qname: str, short: str,
                     callee: str | None, held: frozenset, event: tuple,
                     root_kind: str, context: str, line: int) -> None:
        origin = spec.blocking_origin(short, event[2], event[4],
                                      event[5])
        sub_acquires: frozenset = frozenset()
        sub_blocking = None
        if callee is not None:
            sub_acquires, sub_blocking = self._closure(callee)
        effective = origin or sub_blocking
        if held and effective is not None:
            lock = sorted(held)[0]
            self._mint(
                spec.CON303, scan.path, line,
                f"lock {lock.rsplit(':', 1)[-1]} held across a "
                f"blocking call ({effective}) in "
                f"{qname.rsplit(':', 1)[-1]}",
                detail=f"reachable from {context}",
            )
        if held:
            for lock in sorted(held & sub_acquires):
                if lock in self.reentrant:
                    continue
                self._mint(
                    spec.CON303, scan.path, line,
                    f"non-reentrant lock {lock.rsplit(':', 1)[-1]} "
                    f"may be re-acquired while held via "
                    f"{short or callee} in {qname.rsplit(':', 1)[-1]}",
                    detail=f"reachable from {context}",
                )
        if root_kind == "async" and effective is not None:
            self._mint(
                spec.CON304, scan.path, line,
                f"blocking call ({effective}) reachable from async "
                f"root {context.rsplit(':', 1)[-1]} in "
                f"{qname.rsplit(':', 1)[-1]}",
            )

    def _record(self, field: tuple, kind: str, held: frozenset,
                context: str, func: str, path: str, line: int) -> None:
        if not spec.in_shared_surface(field):
            return
        self.accesses.setdefault(field, []).append(
            _Access(kind, held, context, func, path, line))

    # -- rules ----------------------------------------------------------------

    def _mint(self, rule, path: str, line: int, message: str,
              detail: str = "") -> None:
        finding = rule.finding(path, message, line=line, detail=detail)
        self._findings.setdefault(finding.fingerprint, finding)

    @staticmethod
    def _is_ctor_access(access: _Access) -> bool:
        return access.func.rsplit(".", 1)[-1] in spec.CONSTRUCTOR_NAMES

    def _eligible(self, field: tuple) -> bool:
        accesses = self.accesses.get(field, [])
        rooted = [a for a in accesses if a.context != MAIN_CONTEXT
                  and not self._is_ctor_access(a)]
        if not rooted:
            return False
        writes = [a for a in accesses if a.kind == "write"
                  and not self._is_ctor_access(a)]
        if not writes:
            return False
        if any(a.context != MAIN_CONTEXT for a in writes):
            return True
        return any(a.kind == "read" for a in rooted)

    def _field_rules(self) -> None:
        for field in sorted(self.accesses):
            if not self._eligible(field):
                continue
            label = spec.field_label(field).rsplit(":", 1)[-1]
            accesses = [a for a in self.accesses[field]
                        if not self._is_ctor_access(a)]
            writes = [a for a in accesses if a.kind == "write"]
            unlocked = [a for a in writes if not a.held]
            per_func: dict[str, _Access] = {}
            for access in unlocked:
                current = per_func.get(access.func)
                if current is None or access.line < current.line:
                    per_func[access.func] = access
            guards = sorted({
                lock.rsplit(":", 1)[-1]
                for a in accesses for lock in a.held
            })
            for func in sorted(per_func):
                access = per_func[func]
                roots = sorted({a.context for a in accesses
                                if a.context != MAIN_CONTEXT})
                suffix = (f" (guarded elsewhere by "
                          f"{', '.join(guards)})" if guards else "")
                self._mint(
                    spec.CON301, access.path, access.line,
                    f"shared {label} written without a lock in "
                    f"{func.rsplit(':', 1)[-1]}{suffix}",
                    detail="concurrent contexts: "
                           + ", ".join(roots[:4]),
                )
            if writes and not unlocked:
                held_sets = {a.held for a in writes if a.held}
                if len(held_sets) > 1 and \
                        not frozenset.intersection(*held_sets):
                    names = sorted({
                        lock.rsplit(":", 1)[-1]
                        for locks in held_sets for lock in locks
                    })
                    first = min(writes, key=lambda a: a.line)
                    self._mint(
                        spec.CON303, first.path, first.line,
                        f"shared {label} guarded by inconsistent "
                        f"locks ({', '.join(names)})",
                    )
            for key, info in sorted(self._con302.items()):
                c_field, func = key
                if c_field != field:
                    continue
                path, test_line, write_line, _context = info
                self._mint(
                    spec.CON302, path, write_line,
                    f"check-then-act on shared {label} in "
                    f"{func.rsplit(':', 1)[-1]}: the branch test and "
                    f"the dependent write share no lock",
                    detail=f"test at line {test_line}, write at line "
                           f"{write_line}",
                )

    # -- driver ---------------------------------------------------------------

    def run(self) -> list:
        self.roots = self._discover_roots()
        for qname, kind in self.roots:
            self._walk(qname, kind)
        for qname in sorted(self.scans):
            if qname not in self._visited:
                # The main pass records accesses but does not traverse:
                # anything a main-only function calls that matters was
                # either visited by a root or is itself walked here.
                self._replay(self.scans[qname], qname, frozenset(),
                             MAIN_CONTEXT, MAIN_CONTEXT)
        self._field_rules()
        return sorted(self._findings.values(),
                      key=lambda f: (f.location, f.line, f.rule_id))
