"""Interprocedural taint-flow analysis over the repo's own source.

The analyzer proves (heuristically — see DESIGN.md §10 for the caveat
list) the paper's two trust-flow invariants:

* bytes from the other side of a trust boundary never reach script
  execution, playback or the network unverified (TNT201/TNT202), and a
  verification that was discarded by re-parsing does not count
  (TNT204);
* key material never flows into logs, ``repr`` output, exception text,
  findings reports or cache keys (TNT203).

Pipeline::

    sources --[extract IR per module]--> Program
            --[per-function label propagation + summaries]-->
            --[fixpoint over the call graph]-->
            --[reporting pass]--> findings

Per-function analysis is flow-sensitive in source order (two local
passes pick up loop-carried definitions), propagates labels through
assignments, attributes, containers, f-strings and calls, and records
a :class:`FunctionSummary` — which parameters flow to the return
value, which labels the return always carries, whether the return
passed a sanitizer, and which parameters reach which sink kinds.  The
global fixpoint iterates until no summary changes, then a final pass
mints findings with interprocedural flow traces in ``detail``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis import taintspec as spec
from repro.analysis.callgraph import Program, receiver_hint
from repro.analysis.taintspec import (
    REPARSED, SECRET, SINK_RULES, SINK_SECRET_OUT, SINK_TRIGGERS,
    TNT203, TNT204, UNTRUSTED, VERIFIED,
)

MAX_ROUNDS = 10
MAX_CHAIN = 8

#: labels -> origin strings; parameter markers are ``P0``, ``P1``, …
Labels = dict


def _is_param(label: str) -> bool:
    return label.startswith("P") and label[1:].isdigit()


def _merge(into: Labels, other: Labels) -> Labels:
    for label, origin in other.items():
        into.setdefault(label, origin)
    return into


@dataclass
class FunctionSummary:
    """What a caller needs to know about a callee.

    ``param_sinks`` holds ``(index, sink_kind)`` pairs only; the
    representative flow chain for each pair lives in a side table on
    the engine so summary equality (the fixpoint's termination test)
    stays small and stable.
    """

    returns_params: frozenset = frozenset()
    returns_labels: tuple = ()          # ((label, origin), ...) sorted
    sanitizes_return: bool = False
    param_sinks: tuple = ()             # ((index, kind), ...) sorted

    def sinks_for(self, index: int) -> tuple:
        return tuple(kind for i, kind in self.param_sinks
                     if i == index)


class _FunctionAnalysis:
    """Two-pass label propagation over one function's IR."""

    def __init__(self, engine: "TaintEngine", ir: dict, report: bool):
        self.engine = engine
        self.ir = ir
        self.report = report
        self.path = engine.paths[ir["module"]]
        self.untrusted_module = spec.module_is_untrusted(self.path)
        self.vars: dict[str, Labels] = {}
        self.var_types: dict[str, tuple] = {}
        self.return_labels: Labels = {}
        self.param_sinks: set = set()  # {(param index, sink kind)}
        self.short = ir["qname"].split(":", 1)[1]
        if ir["cls"] and ir["params"] and \
                ir["params"][0] in ("self", "cls"):
            self.var_types[ir["params"][0]] = (ir["module"], ir["cls"])

    # -- driver ---------------------------------------------------------------

    def run(self) -> FunctionSummary:
        for final in (False, True):
            self._reset_params()
            self.collect = final
            for op in self.ir["ops"]:
                self._op(op)
        returns_params = frozenset(
            int(label[1:]) for label in self.return_labels
            if _is_param(label)
        )
        returns_labels = tuple(sorted(
            (label, origin) for label, origin in self.return_labels.items()
            if label in spec.CONCRETE_LABELS and label != VERIFIED
        ))
        sanitizes = (VERIFIED in self.return_labels
                     and UNTRUSTED not in self.return_labels)
        param_sinks = tuple(sorted(self.param_sinks))
        return FunctionSummary(returns_params, returns_labels,
                               sanitizes, param_sinks)

    def _reset_params(self) -> None:
        for index, name in enumerate(self.ir["params"]):
            self.vars[name] = {f"P{index}": f"parameter {name!r}"}

    def _site(self, line: int) -> str:
        return f"{self.short} ({self.path}:{line})"

    # -- ops ------------------------------------------------------------------

    def _op(self, op: list) -> None:
        kind = op[0]
        if kind == "assign":
            _, targets, expr, line = op
            per_target = self._destructure(expr, len(targets))
            merged = self._eval(expr) if per_target is None else None
            for index, target in enumerate(targets):
                labels = merged if per_target is None \
                    else per_target[index]
                self.vars[target] = dict(labels)
                if target.startswith("self."):
                    self.engine.note_attr(
                        self.ir["module"], self.ir["cls"],
                        target.split(".", 1)[1], labels,
                    )
                self._track_type(target, expr)
        elif kind == "storesub":
            _, recv_hint, key_expr, value_expr, line = op
            key_labels = self._eval(key_expr)
            self._eval(value_expr)
            hint = recv_hint.rsplit(".", 1)[-1].lower()
            if any(token in hint for token in spec.CACHE_STORE_TOKENS):
                self._sink_hit(
                    SINK_SECRET_OUT, f"cache key of {recv_hint!r}",
                    key_labels, line,
                )
        elif kind == "expr":
            self._eval(op[1])
        elif kind == "return":
            _, expr, line = op
            if self.collect:
                _merge(self.return_labels, self._eval(expr))
            else:
                self._eval(expr)
        elif kind == "raise":
            _, exc, args, line, _handled = op
            labels: Labels = {}
            for arg in args:
                _merge(labels, self._eval(arg))
            self._sink_hit(
                SINK_SECRET_OUT, f"{exc or 'exception'} message text",
                labels, line,
            )

    def _destructure(self, expr: list, count: int) -> list | None:
        """Per-target labels for ``a, b = ...`` when the right side is a
        literal tuple (or a literal iterable of same-arity tuples, the
        ``for k, v in ((..), (..))`` shape); ``None`` when opaque —
        callers then fall back to merging everything into every target.
        """
        if count < 2 or not expr or expr[0] != "many":
            return None
        parts = expr[1]
        if len(parts) == count:
            return [self._eval(part) for part in parts]
        if len(parts) == 1 and parts[0] and parts[0][0] == "many":
            items = parts[0][1]
            if items and all(
                    item and item[0] == "many" and len(item[1]) == count
                    for item in items):
                columns: list[Labels] = [{} for _ in range(count)]
                for item in items:
                    for index, sub in enumerate(item[1]):
                        _merge(columns[index], self._eval(sub))
                return columns
        return None

    def _track_type(self, target: str, expr: list) -> None:
        if expr and expr[0] == "call":
            resolved = self.engine.program.class_of_constructor(
                self.ir["module"], expr[1],
            )
            if resolved is not None:
                self.var_types[target] = resolved
            else:
                self.var_types.pop(target, None)
        elif expr and expr[0] != "name":
            self.var_types.pop(target, None)

    # -- expressions ----------------------------------------------------------

    def _eval(self, expr: list) -> Labels:
        kind = expr[0]
        if kind == "const":
            return {}
        if kind == "name":
            return dict(self.vars.get(expr[1], {}))
        if kind == "attr":
            return self._eval_attr(expr)
        if kind == "sub":
            return self._eval(expr[1])
        if kind == "many":
            labels: Labels = {}
            for part in expr[1]:
                _merge(labels, self._eval(part))
            return labels
        if kind == "call":
            return self._eval_call(expr)
        return {}

    def _eval_attr(self, expr: list) -> Labels:
        _, base, attr = expr
        labels = self._eval(base)
        if base[0] == "name":
            qualified = f"{base[1]}.{attr}"
            if qualified in self.vars:
                _merge(labels, self.vars[qualified])
            if base[1] == "self" and self.ir["cls"]:
                _merge(labels, self.engine.attr_labels(
                    self.ir["module"], self.ir["cls"], attr))
        hint = (base[1] if base[0] == "name"
                else base[2] if base[0] == "attr" else "").lower()
        if attr in spec.SECRET_ATTRS and any(
                token in hint for token in spec.SECRET_BASE_TOKENS):
            labels.setdefault(SECRET, f"key attribute .{attr}")
        return labels

    def _eval_call(self, expr: list) -> Labels:
        _, dotted, recv, args, kwargs, line = expr
        recv_labels = self._eval(recv) if recv is not None else {}
        arg_labels = [self._eval(a) for a in args]
        kw_labels = [(kw, self._eval(value)) for kw, value in kwargs]
        short = dotted.rsplit(".", 1)[-1]
        recv_hint = receiver_hint(recv, dotted)
        qname = self.engine.program.resolve(
            self.ir["module"], dotted, self.var_types, self.ir["cls"],
        )

        every: Labels = {}
        _merge(every, recv_labels)
        for labels in arg_labels:
            _merge(every, labels)
        for _, labels in kw_labels:
            _merge(every, labels)

        # 1. sinks fire on what flows in, before the result is shaped
        for sink in spec.SINKS:
            if sink.matches(short, recv_hint, qname):
                self._sink_hit(sink.kind, sink.origin, every, line)

        # 2. sanitizers clear their arguments and bless the result
        for sanitizer in spec.SANITIZERS:
            if sanitizer.matches(short, recv_hint, qname):
                self._sanitize_vars(recv, args)
                return {VERIFIED: sanitizer.origin}
        if qname in spec.TRUSTED_WRAPPERS:
            return {VERIFIED: f"trusted wrapper {short}"}

        # 3. interprocedural: consume the callee's summary
        result: Labels | None = None
        if qname is not None:
            result = self._apply_summary(
                qname, recv, recv_labels, arg_labels, kw_labels,
                every, line, short,
            )

        # 4. sources mint labels on the result
        for source in spec.SOURCES + spec.SECRET_SOURCES:
            if source.untrusted_module_only and not self.untrusted_module:
                continue
            if source.matches(short, recv_hint, qname):
                if result is None:
                    result = dict(every)
                for label in source.labels:
                    result.setdefault(label, source.origin)

        # 5. re-parsing verified content discards the proof
        if short in spec.PARSE_NAMES and VERIFIED in every:
            if result is None:
                result = dict(every)
            result.pop(VERIFIED, None)
            result.setdefault(UNTRUSTED, "re-parse of verified content")
            result.setdefault(REPARSED, "re-parse of verified content")

        if result is not None:
            return result
        if short in spec.TAINT_STOPPERS:
            return {}
        return every  # unknown callee: conservative pass-through

    def _sanitize_vars(self, recv, args) -> None:
        """A successful verification clears its operands in place."""
        for target in ([recv] if recv is not None else []) + list(args):
            name = None
            if target[0] == "name":
                name = target[1]
            elif target[0] == "attr" and target[1][0] == "name":
                name = f"{target[1][1]}.{target[2]}"
            if name is not None and name in self.vars:
                cleaned = {
                    label: origin
                    for label, origin in self.vars[name].items()
                    if label not in (UNTRUSTED, REPARSED)
                }
                cleaned[VERIFIED] = "sanitized in place"
                self.vars[name] = cleaned

    def _apply_summary(self, qname: str, recv, recv_labels: Labels,
                       arg_labels: list, kw_labels: list,
                       every: Labels, line: int,
                       short: str) -> Labels | None:
        functions = self.engine.program.functions
        ir = functions.get(qname)
        if ir is None and f"{qname}.__init__" in functions:
            ir = functions[f"{qname}.__init__"]
            qname = f"{qname}.__init__"
            recv_labels = {}
            recv = None
        if ir is None:
            return None
        summary = self.engine.summaries.get(qname)
        if summary is None:
            return dict(every)

        offset = 1 if (ir["params"] and ir["params"][0] in
                       ("self", "cls") and recv is not None) else 0
        positional: list[Labels] = []
        if offset:
            positional.append(recv_labels)
        positional.extend(arg_labels)
        by_index = dict(enumerate(positional))
        for kw, labels in kw_labels:
            if kw in ir["params"]:
                by_index[ir["params"].index(kw)] = labels

        result: Labels = {}
        for index in summary.returns_params:
            _merge(result, by_index.get(index, {}))
        for label, origin in summary.returns_labels:
            result.setdefault(label, origin)
        if summary.sanitizes_return:
            result.pop(UNTRUSTED, None)
            result.pop(REPARSED, None)
            result.setdefault(VERIFIED, f"verified inside {short}")

        for index, labels in by_index.items():
            for kind in summary.sinks_for(index):
                self._consume_hit(kind, qname, index, labels, line,
                                  short)
        return result

    def _consume_hit(self, kind: str, callee_qname: str, index: int,
                     labels: Labels, line: int, callee: str) -> None:
        """A callee summary says param *i* reaches a sink; our arg is i."""
        callee_chain = self.engine.chain_for(callee_qname, index, kind)
        if len(callee_chain) >= MAX_CHAIN:
            return
        chain = (self._site(line),) + callee_chain
        trigger = SINK_TRIGGERS[kind]
        suppressed = trigger == UNTRUSTED and VERIFIED in labels
        if trigger in labels and not suppressed and self.report:
            self.engine.mint(
                kind, f"sink inside {callee}", labels, self.path,
                line, chain=chain,
            )
        self._record_param_flows(kind, labels, chain)

    def _sink_hit(self, kind: str, sink_origin: str, labels: Labels,
                  line: int) -> None:
        trigger = SINK_TRIGGERS[kind]
        suppressed = trigger == UNTRUSTED and VERIFIED in labels
        if trigger in labels and not suppressed and self.report:
            self.engine.mint(kind, sink_origin, labels, self.path, line,
                             chain=(self._site(line),))
        self._record_param_flows(kind, labels, (self._site(line),))

    def _record_param_flows(self, kind: str, labels: Labels,
                            chain: tuple) -> None:
        for label in labels:
            if _is_param(label):
                index = int(label[1:])
                self.param_sinks.add((index, kind))
                self.engine.note_chain(self.ir["qname"], index, kind,
                                       chain)


class TaintEngine:
    """Whole-program fixpoint plus finding collection."""

    def __init__(self, program: Program, paths: dict):
        self.program = program
        self.paths = paths  # module name -> display path
        self.summaries: dict[str, FunctionSummary] = {}
        self._attr_labels: dict[tuple, Labels] = {}
        self._chains: dict[tuple, tuple] = {}
        self._findings: dict[str, object] = {}
        self.rounds = 0

    # -- shared state ---------------------------------------------------------

    def note_chain(self, qname: str, index: int, kind: str,
                   chain: tuple) -> None:
        """Remember one representative flow chain per summary entry.

        Shortest chain wins (ties keep the first seen) so the reported
        trace stays minimal and the fixpoint result is deterministic.
        """
        key = (qname, index, kind)
        current = self._chains.get(key)
        if current is None or len(chain) < len(current):
            self._chains[key] = chain[:MAX_CHAIN]

    def chain_for(self, qname: str, index: int, kind: str) -> tuple:
        return self._chains.get((qname, index, kind), ())

    def note_attr(self, module: str, cls: str | None, attr: str,
                  labels: Labels) -> None:
        if cls is None:
            return
        table = self._attr_labels.setdefault((module, cls, attr), {})
        _merge(table, {k: v for k, v in labels.items()
                       if not _is_param(k)})

    def attr_labels(self, module: str, cls: str, attr: str) -> Labels:
        return dict(self._attr_labels.get((module, cls, attr), {}))

    # -- findings -------------------------------------------------------------

    def mint(self, kind: str, sink_origin: str, labels: Labels,
             path: str, line: int, chain: tuple = ()) -> None:
        trigger = SINK_TRIGGERS[kind]
        origin = labels.get(trigger, "tainted value")
        if trigger == UNTRUSTED and REPARSED in labels:
            rule = TNT204
            message = (f"re-parsed content (verification proof "
                       f"discarded) reaches {sink_origin}")
        elif kind == SINK_SECRET_OUT:
            rule = TNT203
            message = f"secret material ({origin}) reaches {sink_origin}"
        else:
            rule = SINK_RULES[kind]
            message = f"untrusted input ({origin}) reaches {sink_origin}"
        detail = " -> ".join(chain) if len(chain) > 1 else ""
        finding = rule.finding(path, message, line=line, detail=detail)
        self._findings.setdefault(finding.fingerprint, finding)

    # -- analysis -------------------------------------------------------------

    def run(self) -> list:
        order = sorted(self.program.functions)
        for round_index in range(MAX_ROUNDS):
            self.rounds = round_index + 1
            changed = False
            for qname in order:
                summary = _FunctionAnalysis(
                    self, self.program.functions[qname], report=False,
                ).run()
                if summary != self.summaries.get(qname):
                    self.summaries[qname] = summary
                    changed = True
            if not changed:
                break
        for qname in order:
            _FunctionAnalysis(
                self, self.program.functions[qname], report=True,
            ).run()
        self._check_key_dataclasses()
        return sorted(self._findings.values(),
                      key=lambda f: (f.location, f.line, f.rule_id))

    def _check_key_dataclasses(self) -> None:
        """Generated dataclass ``__repr__`` leaking key fields.

        This is the one secret flow the dataflow pass cannot see — the
        leak is in synthesized code — so it is checked structurally:
        a key-hinted dataclass must exclude secret component fields
        from its repr (``field(repr=False)``) or define its own.
        """
        for info in self.program.modules.values():
            for cls_name, cls in sorted(info["classes"].items()):
                if not cls["dataclass"] or cls["defines_repr"]:
                    continue
                lowered = cls_name.lower()
                if not any(token in lowered
                           for token in spec.SECRET_BASE_TOKENS):
                    continue
                for field_name, line in cls["plain_repr_fields"]:
                    if field_name in spec.SECRET_ATTRS or \
                            "secret" in field_name.lower():
                        finding = TNT203.finding(
                            info["path"],
                            f"dataclass {cls_name}.{field_name} is key "
                            "material but participates in the generated "
                            "__repr__; use field(repr=False) or a "
                            "redacting __repr__",
                            line=line,
                        )
                        self._findings.setdefault(finding.fingerprint,
                                                  finding)
