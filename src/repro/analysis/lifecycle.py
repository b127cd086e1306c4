"""Interprocedural async lifecycle & exception-flow analysis (LIF4xx).

Runs over the v4 callgraph IR (:mod:`repro.analysis.callgraph`) and
checks the service layer's lifecycle contracts:

* **LIF401** — every spawned task handle is awaited, retained, or
  parked on an owner that cancels/awaits it on its shutdown path;
* **LIF402** — no broad ``except`` region around an ``await``
  swallows ``CancelledError`` (a handler must re-raise it);
* **LIF403** — no ``await`` while holding a ``threading`` lock;
* **LIF404** — a deadline-carrying async function threads its
  :class:`~repro.resilience.service.Deadline` into every waiting
  callee's deadline slot (``deadline=``/``context=``/``until=``/
  ``at=``) and into ``wait_until`` itself;
* **LIF405** — admission/limiter slots and constructed async
  resources are released inside a ``finally`` region (or a context
  manager), so no exception path can skip the release.

Deadline flow is *compositional*: an entry point holds a deadline and
each hop is checked locally, so proving every deadline-carrying
function forwards its deadline proves the whole chain from
``OverloadShield`` down to the wire never drops it.

Soundness caveats (documented in DESIGN §15): opaque callables
(lambdas, injected handlers) are not followed; receiver types come
from constructor assignments, parameter annotations and dataclass
field annotations only; passing a resource as a call argument does
not count as an ownership transfer.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis import lifespec as spec
from repro.analysis.callgraph import Program, receiver_hint


def _derived(expr, names: set) -> bool:
    """Is *expr* deadline-derived under the known derived *names*?"""
    if not expr:
        return False
    kind = expr[0]
    if kind == "name":
        return expr[1] in names
    if kind == "attr":
        return expr[2] in spec.DEADLINE_ATTR_NAMES or \
            _derived(expr[1], names)
    if kind == "sub":
        return _derived(expr[1], names)
    if kind == "many":
        return any(_derived(part, names) for part in expr[1])
    if kind == "call":
        dotted = expr[1] or ""
        if spec.DEADLINE_CLASS_NAME in dotted.split("."):
            return True
        return dotted.rsplit(".", 1)[-1] in spec.DEADLINE_FACTORY_NAMES
    return False


def _escaping_names(expr, out: set) -> None:
    """Names whose *value* escapes via this expression (aliasing,
    returning, storing) — receiver/argument use does not count."""
    if not expr:
        return
    kind = expr[0]
    if kind == "name":
        out.add(expr[1])
    elif kind in ("attr", "sub"):
        _escaping_names(expr[1], out)
    elif kind == "many":
        for part in expr[1]:
            _escaping_names(part, out)


@dataclass
class _Call:
    """One call site with everything the rules need to judge it."""

    index: int
    short: str
    hint: str
    dotted: str
    qname: str | None
    has_recv: bool
    args: list
    kwargs: dict
    line: int
    fdepth: int


class _FunctionScan:
    """One pass over a function's ops: regions, calls, spawns, names."""

    def __init__(self, program: Program, ir: dict, path: str,
                 attr_types: dict):
        self.program = program
        self.ir = ir
        self.module = ir["module"]
        self.cls = ir["cls"]
        self.path = path
        self.attr_types = attr_types
        self.var_types: dict[str, tuple] = {}
        if self.cls and ir["params"] and \
                ir["params"][0] in ("self", "cls"):
            self.var_types[ir["params"][0]] = (self.module, self.cls)
        for param, ann in ir.get("param_annotations", {}).items():
            resolved = program.class_of_constructor(self.module, ann)
            if resolved is not None:
                self.var_types[param] = resolved

        self.deadline_names: set[str] = {
            p for p in ir["params"] if p in spec.DEADLINE_PARAM_NAMES}
        self.calls: list[_Call] = []
        self.spawns: list[tuple] = []     # (idx, dotted, targets, aw, ln)
        self.awaits: list[tuple] = []     # (line, locks, try_snapshot)
        self.reads: dict[str, list[int]] = {}
        self.escaped: set[str] = set()
        self.self_attrs: set[str] = set()
        self.handle_stores: list[tuple] = []   # (idx, attr, arg names)
        self.resources: dict[str, tuple] = {}  # local -> (ctor, line, i)
        self.releases: list[tuple] = []   # (idx, local, short, fdepth)
        self.acquires: list[tuple] = []   # (idx, short, hint, ln, fdep)
        self.pair_releases: list[tuple] = []   # (idx, hint, fdepth)
        self.ctx_managed: set[str] = set()
        self.callees: set[str] = set()
        self.direct_wait = False

        self._index = 0
        self._locks: list[str] = []
        self._tries: list[tuple] = []
        self._fdepth = 0
        for op in ir["ops"]:
            self._op(op)
            self._index += 1

    # -- ops ------------------------------------------------------------------

    def _op(self, op: list) -> None:
        kind = op[0]
        if kind == "assign":
            _, targets, expr, line = op
            self._expr(expr, line)
            escaping: set[str] = set()
            _escaping_names(expr, escaping)
            self.escaped |= escaping
            self._note_deadline(targets, expr)
            self._note_resource(targets, expr, line)
            for target in targets:
                if target.startswith("self.") and target.count(".") == 1:
                    attr = target.split(".", 1)[1]
                    self.self_attrs.add(attr)
                    if escaping:
                        self.handle_stores.append(
                            (self._index, attr, frozenset(escaping)))
        elif kind == "storesub":
            _, _recv_hint, key_expr, value_expr, line = op
            self._expr(key_expr, line)
            self._expr(value_expr, line)
            _escaping_names(value_expr, self.escaped)
        elif kind in ("expr", "test"):
            self._expr(op[1], op[2])
        elif kind == "return":
            self._expr(op[1], op[2])
            _escaping_names(op[1], self.escaped)
        elif kind == "raise":
            _, _exc, args, line, _handled = op
            for arg in args:
                self._expr(arg, line)
        elif kind == "lockenter":
            _, dotted, _line = op
            if spec.is_lockish(dotted):
                self._locks.append(dotted)
            self.ctx_managed.add(dotted)
        elif kind == "lockexit":
            _, dotted, _line = op
            if spec.is_lockish(dotted) and dotted in self._locks:
                self._locks.remove(dotted)
        elif kind == "alockenter":
            self.ctx_managed.add(op[1])
        elif kind == "awaitpoint":
            self.awaits.append(
                (op[1], tuple(self._locks), tuple(self._tries)))
        elif kind == "spawn":
            _, dotted, targets, awaited, line = op
            self.spawns.append(
                (self._index, dotted, list(targets), awaited, line))
        elif kind == "tryenter":
            _, handlers, _has_finally, _line = op
            self._tries.append(tuple(
                (frozenset(names), bool(reraises), hline)
                for names, reraises, hline in handlers))
        elif kind == "tryexit":
            if self._tries:
                self._tries.pop()
        elif kind == "finallyenter":
            self._fdepth += 1
        elif kind == "finallyexit":
            self._fdepth -= 1

    def _note_deadline(self, targets: list, expr) -> None:
        if _derived(expr, self.deadline_names):
            self.deadline_names.update(
                t for t in targets if "." not in t)

    def _note_resource(self, targets: list, expr, line: int) -> None:
        if not self.ir["is_async"] or not expr or expr[0] != "call":
            return
        ctor = (expr[1] or "").rsplit(".", 1)[-1]
        if ctor not in spec.RESOURCE_CONSTRUCTORS:
            return
        for target in targets:
            if "." not in target:
                self.resources[target] = (ctor, line, self._index)

    # -- expressions ----------------------------------------------------------

    def _expr(self, expr, line: int) -> None:
        if not expr:
            return
        kind = expr[0]
        if kind == "name":
            self.reads.setdefault(expr[1], []).append(self._index)
        elif kind == "attr":
            base = expr[1]
            if base and base[0] == "name" and base[1] == "self":
                self.self_attrs.add(expr[2])
            self._expr(base, line)
        elif kind == "sub":
            self._expr(expr[1], line)
            self._expr(expr[2], line)
        elif kind == "many":
            for part in expr[1]:
                self._expr(part, line)
        elif kind == "call":
            self._call(expr)

    def _call(self, expr) -> None:
        _, dotted, recv, args, kwargs, line = expr
        dotted = dotted or ""
        short = dotted.rsplit(".", 1)[-1]
        hint = receiver_hint(recv, dotted)
        qname = self._resolve(dotted)
        if qname is not None:
            self.callees.add(qname)
        if spec.WAIT_SINKS.get(short) is not None and \
                _sink_applies(short, hint, dotted):
            self.direct_wait = True
        call = _Call(self._index, short, hint, dotted, qname,
                     recv is not None, args,
                     {kw: value for kw, value in kwargs
                      if kw != "**"},
                     line, self._fdepth)
        self.calls.append(call)
        if recv is not None and recv[0] == "attr" and recv[1] and \
                recv[1][0] == "name" and recv[1][1] == "self":
            self.self_attrs.add(recv[2])
            if short in spec.HANDLE_STORE_NAMES:
                stored = {a[1] for a in args
                          if a and a[0] == "name"}
                if stored:
                    self.handle_stores.append(
                        (self._index, recv[2], frozenset(stored)))
        if recv is not None and recv[0] == "name":
            self.releases.append(
                (self._index, recv[1], short, self._fdepth))
        if short in spec.ACQUIRE_RELEASE_PAIRS:
            self.acquires.append(
                (self._index, short, hint, line, self._fdepth))
        if short == "release":
            self.pair_releases.append(
                (self._index, hint, self._fdepth))
        self._expr(recv, line)
        for arg in args:
            self._expr(arg, line)
        for _kw, value in kwargs:
            self._expr(value, line)

    def read_after(self, name: str, index: int) -> bool:
        return any(i > index for i in self.reads.get(name, ()))

    # -- resolution -----------------------------------------------------------

    def _resolve(self, dotted: str) -> str | None:
        """Callee qname: the declared type of ``self.<attr>`` for
        ``self.<attr>.<method>`` calls, then
        :meth:`Program.resolve_callee` (as CON3xx does).  The attribute
        step may go first: :meth:`Program.resolve` never resolves a
        three-part ``self.`` name, since ``self`` is neither an import
        nor a module-level name."""
        parts = dotted.split(".")
        if len(parts) == 3 and parts[0] == "self" and self.cls:
            typed = self.attr_types.get(
                (self.module, self.cls, parts[1]))
            if typed is not None:
                type_module, type_class = typed
                info = self.program.class_info(type_module, type_class)
                if info is not None and parts[2] in info["methods"]:
                    return f"{type_module}:{type_class}.{parts[2]}"
        return self.program.resolve_callee(
            self.module, dotted, self.var_types, self.cls,
            spec.OPAQUE_LIFECYCLE_NAMES)


def _sink_applies(short: str, hint: str, dotted: str) -> bool:
    token = spec.WAIT_SINKS[short][0]
    if token in (hint or "").lower():
        return True
    if short == "asleep":
        return True  # bare alias (``asleep = getattr(clock, ...)``)
    return dotted.startswith("asyncio.")


class LifecycleEngine:
    """Per-function scans plus the interprocedural waits closure."""

    def __init__(self, program: Program, paths: dict):
        self.program = program
        self.paths = paths
        self.attr_types = self._collect_attr_types()
        self.scans = {
            qname: _FunctionScan(program, ir, paths[ir["module"]],
                                 self.attr_types)
            for qname, ir in program.functions.items()
        }
        self.findings: list = []
        self._seen: set[str] = set()
        self._waits_memo: dict[str, bool] = {}

    # -- receiver typing ------------------------------------------------------

    def _collect_attr_types(self) -> dict:
        """(module, class, attr) -> (module, class) of the attribute,
        from dataclass field annotations and constructor assignments
        of annotated parameters / constructed instances."""
        types: dict = {}
        for module, info in self.program.modules.items():
            for cls, centry in info["classes"].items():
                for fname, ann in centry.get("field_types", ()):
                    resolved = self.program.class_of_constructor(
                        module, ann)
                    if resolved is not None:
                        types[(module, cls, fname)] = resolved
        for ir in self.program.functions.values():
            if not ir["cls"] or ir["name"] not in (
                    "__init__", "__post_init__"):
                continue
            annotations = ir.get("param_annotations", {})
            for op in ir["ops"]:
                if op[0] != "assign":
                    continue
                _, targets, expr, _line = op
                resolved = self._value_type(
                    ir["module"], expr, annotations)
                if resolved is None:
                    continue
                for target in targets:
                    if target.startswith("self.") and \
                            target.count(".") == 1:
                        attr = target.split(".", 1)[1]
                        types[(ir["module"], ir["cls"], attr)] = resolved
        return types

    def _value_type(self, module: str, expr, annotations: dict):
        if not expr:
            return None
        if expr[0] == "name":
            ann = annotations.get(expr[1])
            if ann:
                return self.program.class_of_constructor(module, ann)
            return None
        if expr[0] == "call":
            return self.program.class_of_constructor(module, expr[1])
        if expr[0] == "many":
            for part in expr[1]:
                found = self._value_type(module, part, annotations)
                if found is not None:
                    return found
        return None

    # -- the waits closure ----------------------------------------------------

    def _waits(self, qname: str,
               _stack: frozenset = frozenset()) -> bool:
        """Does *qname* transitively reach a wait/sleep/wire sink?"""
        memoized = self._waits_memo.get(qname)
        if memoized is not None:
            return memoized
        scan = self.scans.get(qname)
        if scan is None:
            return False
        if scan.direct_wait:
            self._waits_memo[qname] = True
            return True
        result = False
        for callee in scan.callees:
            if callee == qname or callee in _stack:
                continue
            if callee in self.scans and \
                    self._waits(callee, _stack | {qname}):
                result = True
                break
        if not _stack:
            self._waits_memo[qname] = result
        return result

    # -- rules ----------------------------------------------------------------

    def run(self) -> list:
        for qname in sorted(self.scans):
            scan = self.scans[qname]
            self._orphan_tasks(qname, scan)       # LIF401
            self._cancellation(qname, scan)       # LIF402 + LIF403
            if scan.ir["is_async"] and scan.deadline_names:
                self._deadline_flow(qname, scan)  # LIF404
            if scan.ir["is_async"]:
                self._releases(qname, scan)       # LIF405
        self.findings.sort(
            key=lambda f: (f.location, f.line or 0, f.rule_id))
        return self.findings

    def _mint(self, rule, path: str, line: int, message: str,
              detail: str = "") -> None:
        finding = rule.finding(path, message, line=line, detail=detail)
        if finding.fingerprint in self._seen:
            return
        self._seen.add(finding.fingerprint)
        self.findings.append(finding)

    # LIF401 ------------------------------------------------------------------

    def _orphan_tasks(self, qname: str, scan: _FunctionScan) -> None:
        fname = qname.split(":", 1)[1]
        for index, dotted, targets, awaited, line in scan.spawns:
            if awaited or "<return>" in targets:
                continue
            local_targets = [t for t in targets if "." not in t]
            owned = [t.split(".", 1)[1] for t in targets
                     if t.startswith("self.") and t.count(".") == 1]
            retained = False
            for target in local_targets:
                stored = [attr for sidx, attr, names
                          in scan.handle_stores
                          if sidx > index and target in names]
                if stored:
                    owned.extend(stored)
                elif scan.read_after(target, index):
                    retained = True
            if owned and scan.cls:
                missing = sorted(
                    attr for attr in owned
                    if not self._shutdown_covers(scan.module,
                                                 scan.cls, attr))
                for attr in missing:
                    self._mint(
                        spec.LIF401, scan.path, line,
                        f"{fname} parks a {dotted} handle on "
                        f"self.{attr} but no shutdown path "
                        f"({'/'.join(sorted(spec.SHUTDOWN_METHOD_NAMES))})"
                        " of the owner cancels or awaits it",
                    )
                continue
            if owned or retained:
                continue
            if local_targets:
                held = "/".join(local_targets)
                message = (f"{fname} spawns via {dotted} but the "
                           f"handle '{held}' is never awaited, "
                           "cancelled or stored afterwards")
            else:
                message = (f"{fname} spawns via {dotted} without "
                           "retaining the task handle")
            self._mint(spec.LIF401, scan.path, line, message)

    def _shutdown_covers(self, module: str, cls: str,
                         attr: str) -> bool:
        info = self.program.class_info(module, cls)
        if info is None:
            return False
        for method in info["methods"]:
            if method not in spec.SHUTDOWN_METHOD_NAMES:
                continue
            scan = self.scans.get(f"{module}:{cls}.{method}")
            if scan is not None and attr in scan.self_attrs:
                return True
        return False

    # LIF402 + LIF403 ---------------------------------------------------------

    def _cancellation(self, qname: str, scan: _FunctionScan) -> None:
        fname = qname.split(":", 1)[1]
        for line, locks, tries in scan.awaits:
            for lock in locks:
                self._mint(
                    spec.LIF403, scan.path, line,
                    f"{fname} awaits at line {line} while holding "
                    f"threading lock '{lock}' — the event loop parks "
                    "with the lock held",
                )
            for handlers in tries:
                rescues = any(
                    names & spec.CANCELLED_NAMES and reraises
                    for names, reraises, _hline in handlers)
                if rescues:
                    continue
                for names, reraises, hline in handlers:
                    if reraises or not (
                            names & spec.BROAD_HANDLER_NAMES):
                        continue
                    caught = "/".join(sorted(names))
                    self._mint(
                        spec.LIF402, scan.path, hline,
                        f"broad handler (except {caught}) in {fname} "
                        f"encloses the await at line {line} without "
                        "re-raising CancelledError",
                    )

    # LIF404 ------------------------------------------------------------------

    def _deadline_flow(self, qname: str, scan: _FunctionScan) -> None:
        fname = qname.split(":", 1)[1]
        entry = " (service entry point)" if spec.is_entry(qname) else ""
        for call in scan.calls:
            sink = spec.WAIT_SINKS.get(call.short)
            if sink is not None and _sink_applies(
                    call.short, call.hint, call.dotted):
                _token, dparam, didx = sink
                if dparam is None:
                    continue  # bounded primitive: exempt from demand
                arg = call.kwargs.get(dparam)
                if arg is None and didx is not None and \
                        len(call.args) > didx:
                    arg = call.args[didx]
                if arg is None or not _derived(
                        arg, scan.deadline_names):
                    self._mint(
                        spec.LIF404, scan.path, call.line,
                        f"deadline-carrying {fname}{entry} reaches "
                        f"{call.short} without a deadline-derived "
                        f"'{dparam}' argument",
                    )
                continue
            if call.qname is None or call.qname == qname:
                continue
            callee_ir = self.program.functions.get(call.qname)
            if callee_ir is None or not callee_ir["is_async"]:
                continue
            if not self._waits(call.qname):
                continue
            slot = self._deadline_param(callee_ir)
            if slot is None:
                continue
            pindex, pname = slot
            arg = call.kwargs.get(pname)
            if arg is None:
                bound = (call.has_recv and callee_ir["cls"]
                         and callee_ir["params"]
                         and callee_ir["params"][0] in ("self", "cls"))
                aindex = pindex - 1 if bound else pindex
                if 0 <= aindex < len(call.args):
                    arg = call.args[aindex]
            if arg is None or not _derived(arg, scan.deadline_names):
                callee_name = call.qname.split(":", 1)[1]
                self._mint(
                    spec.LIF404, scan.path, call.line,
                    f"deadline-carrying {fname}{entry} calls waiting "
                    f"{callee_name} without threading its deadline "
                    f"into '{pname}'",
                )

    @staticmethod
    def _deadline_param(callee_ir: dict) -> tuple | None:
        params = callee_ir["params"]
        for pindex, pname in enumerate(params):
            if pindex == 0 and pname in ("self", "cls"):
                continue
            if pname in spec.DEADLINE_PARAM_NAMES:
                return pindex, pname
        return None

    # LIF405 ------------------------------------------------------------------

    def _releases(self, qname: str, scan: _FunctionScan) -> None:
        fname = qname.split(":", 1)[1]
        for index, short, hint, line, _fdepth in scan.acquires:
            release = spec.ACQUIRE_RELEASE_PAIRS[short]
            later = [fdepth for ridx, rhint, fdepth
                     in scan.pair_releases
                     if ridx > index and rhint == hint]
            if not later:
                self._mint(
                    spec.LIF405, scan.path, line,
                    f"{fname} acquires a slot via {hint}.{short}() "
                    f"but never calls {hint}.{release}()",
                )
            elif not any(fdepth > 0 for fdepth in later):
                self._mint(
                    spec.LIF405, scan.path, line,
                    f"{fname} releases the {hint}.{short}() slot "
                    "outside any finally region — an exception path "
                    "skips the release",
                )
        for local, (ctor, line, index) in sorted(scan.resources.items()):
            if local in scan.escaped or local in scan.ctx_managed:
                continue
            close_names = spec.RESOURCE_CONSTRUCTORS[ctor]
            closes = [fdepth for ridx, rlocal, rshort, fdepth
                      in scan.releases
                      if ridx > index and rlocal == local
                      and rshort in close_names]
            if closes and any(fdepth > 0 for fdepth in closes):
                continue
            if closes:
                message = (f"{fname} closes {ctor} '{local}' outside "
                           "any finally region — an exception path "
                           "skips the close")
            else:
                message = (f"{fname} acquires {ctor} '{local}' with "
                           "no close on any path")
            self._mint(spec.LIF405, scan.path, line, message)
