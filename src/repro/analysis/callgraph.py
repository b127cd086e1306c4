"""Program model for whole-repo dataflow: modules, functions, calls.

The taint engine needs three things the per-module LIN rules never did:

* a **module graph** — which file is which dotted module, and what each
  module's imports resolve to (chasing package ``__init__`` re-exports);
* a **function table** — every function and method under a stable
  qualified name (``repro.xkms.server:TrustServer.handle_xml``);
* a **compact IR** per function — assignments, calls, returns and
  raises in source order, with expressions reduced to the few shapes
  taint propagation cares about.

The IR is deliberately JSON-serializable (nested lists of strings and
ints) so :mod:`repro.analysis.interproc` can persist it keyed by
content hash and warm runs skip ``ast`` entirely.

IR expression forms::

    ["name", ident]
    ["const"]
    ["attr", expr, attrname]
    ["sub", expr, key_expr]
    ["many", [expr, ...]]              # unions: tuples, f-strings, binops
    ["call", dotted, recv_expr|None, [args], [[kw, expr], ...], line]

IR op forms::

    ["assign", [target, ...], expr, line]    # targets incl. "self.x"
    ["storesub", recv_hint, key_expr, value_expr, line]
    ["expr", expr, line]
    ["return", expr, line]
    ["raise", dotted, [arg exprs], line, in_handler_for]
    ["test", expr, line]                     # if/while condition reads
    ["lockenter", dotted, line]              # ``with <dotted>:`` region
    ["lockexit", dotted, line]
    ["alockenter", dotted, line]             # ``async with`` region
    ["alockexit", dotted, line]
    ["awaitpoint", line]                     # this statement awaits
    ["spawn", dotted, [target, ...], awaited, line]
    ["tryenter", [handler_meta, ...], has_finally, line]
    ["tryexit", line]                        # end of protected body
    ["finallyenter", line]
    ["finallyexit", line]

where ``handler_meta`` is ``[[caught names], bare_reraise, line]``
(``["*"]`` for a bare ``except``).  ``spawn`` marks task-spawn calls
(``create_task``/``ensure_future``/``gather``/``start_soon``) with the
assignment targets that retain the handle; it precedes the statement's
own ops.

Analyses ignore op kinds they don't know, so the v3 additions (branch
tests, with-region markers) were invisible to the taint engine and the
v4 additions (try/finally regions, await points, async-with regions,
spawn edges) are invisible to both taint and concurrency.
"""

from __future__ import annotations

import ast
import os

IR_VERSION = 4

#: Calls that put a coroutine in flight as a separate task.
SPAWN_CALL_NAMES = frozenset({
    "create_task", "ensure_future", "gather", "start_soon",
})

_BUILTIN_EXCEPTIONS = {
    "ArithmeticError", "AssertionError", "AttributeError", "BaseException",
    "BufferError", "EOFError", "Exception", "IOError", "IndexError",
    "KeyError", "LookupError", "MemoryError", "OSError", "OverflowError",
    "RecursionError", "RuntimeError", "StopIteration", "SystemError",
    "TypeError", "UnicodeDecodeError", "ValueError", "ZeroDivisionError",
}


def module_name_for_path(path: str) -> str:
    """Dotted module name for a source path (``src/`` layout aware)."""
    normalized = path.replace(os.sep, "/")
    parts = [p for p in normalized.split("/") if p and p != "."]
    if "src" in parts:
        parts = parts[parts.index("src") + 1:]
    elif "repro" in parts:
        parts = parts[parts.index("repro"):]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) or "<anonymous>"


def dotted_name(node: ast.expr) -> str:
    """``a.b.c`` for Name/Attribute chains, ``""`` otherwise."""
    parts: list[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return ""


# -- expression lowering ------------------------------------------------------


def _expr(node: ast.expr | None):
    if node is None:
        return ["const"]
    if isinstance(node, ast.Name):
        return ["name", node.id]
    if isinstance(node, ast.Constant):
        return ["const"]
    if isinstance(node, ast.Attribute):
        return ["attr", _expr(node.value), node.attr]
    if isinstance(node, ast.Subscript):
        return ["sub", _expr(node.value), _expr(node.slice)]
    if isinstance(node, ast.Call):
        dotted = dotted_name(node.func)
        recv = (_expr(node.func.value)
                if isinstance(node.func, ast.Attribute) else None)
        args = [_expr(a) for a in node.args]
        kwargs = [[kw.arg or "**", _expr(kw.value)] for kw in node.keywords]
        return ["call", dotted, recv, args, kwargs, node.lineno]
    if isinstance(node, ast.JoinedStr):
        parts = [_expr(v.value) for v in node.values
                 if isinstance(v, ast.FormattedValue)]
        return ["many", parts]
    if isinstance(node, ast.BinOp):
        return ["many", [_expr(node.left), _expr(node.right)]]
    if isinstance(node, ast.BoolOp):
        return ["many", [_expr(v) for v in node.values]]
    if isinstance(node, ast.Compare):
        return ["const"]  # comparisons yield booleans, not data
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return ["many", [_expr(e) for e in node.elts]]
    if isinstance(node, ast.Dict):
        parts = [_expr(k) for k in node.keys if k is not None]
        parts += [_expr(v) for v in node.values]
        return ["many", parts]
    if isinstance(node, ast.IfExp):
        return ["many", [_expr(node.body), _expr(node.orelse)]]
    if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
        parts = [_expr(node.elt)]
        parts += [_expr(gen.iter) for gen in node.generators]
        return ["many", parts]
    if isinstance(node, ast.DictComp):
        parts = [_expr(node.key), _expr(node.value)]
        parts += [_expr(gen.iter) for gen in node.generators]
        return ["many", parts]
    if isinstance(node, ast.Starred):
        return _expr(node.value)
    if isinstance(node, (ast.Await, ast.YieldFrom)):
        return _expr(node.value)
    if isinstance(node, ast.Yield):
        return _expr(node.value) if node.value else ["const"]
    if isinstance(node, ast.NamedExpr):
        return _expr(node.value)
    if isinstance(node, ast.Lambda):
        return ["const"]
    return ["const"]


def _test_expr(node: ast.expr):
    """Lower a branch condition with its *reads* kept visible.

    ``_expr`` folds comparisons to ``["const"]`` — their value is a
    boolean, not data, which is the right call for taint propagation.
    Check-then-act detection needs the operand reads instead, so
    ``test`` ops unwrap comparisons and boolean structure.
    """
    if isinstance(node, ast.Compare):
        parts = [node.left] + list(node.comparators)
        return ["many", [_test_expr(p) for p in parts]]
    if isinstance(node, ast.BoolOp):
        return ["many", [_test_expr(v) for v in node.values]]
    if isinstance(node, ast.UnaryOp):
        return _test_expr(node.operand)
    return _expr(node)


def _target_names(node: ast.expr) -> list[str]:
    """Assignment targets as flat variable names (``x``, ``self.x``)."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        dotted = dotted_name(node)
        return [dotted] if dotted.count(".") == 1 else []
    if isinstance(node, (ast.Tuple, ast.List)):
        names: list[str] = []
        for element in node.elts:
            names.extend(_target_names(element))
        return names
    if isinstance(node, ast.Starred):
        return _target_names(node.value)
    return []


def _awaits_in(node: ast.AST | None) -> bool:
    """Does *node* itself await?  Nested defs are separate functions
    (extracted on their own) and do not count."""
    if node is None:
        return False
    stack: list[ast.AST] = [node]
    while stack:
        current = stack.pop()
        if isinstance(current, ast.Await):
            return True
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(current))
    return False


def _collect_spawns(node: ast.AST | None, out: list,
                    under_await: bool = False) -> None:
    """Append ``(spawn_dotted, awaited)`` for task-spawn calls in *node*."""
    if node is None or isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        return
    if isinstance(node, ast.Await):
        _collect_spawns(node.value, out, True)
        return
    if isinstance(node, ast.Starred):
        _collect_spawns(node.value, out, under_await)
        return
    if isinstance(node, ast.Call):
        dotted = dotted_name(node.func)
        if dotted.rsplit(".", 1)[-1] in SPAWN_CALL_NAMES:
            out.append((dotted, under_await))
    for child in ast.iter_child_nodes(node):
        _collect_spawns(child, out)


def _reraises(body: list[ast.stmt]) -> bool:
    """Does the handler body re-raise via a bare ``raise``?"""
    stack: list[ast.AST] = list(body)
    while stack:
        current = stack.pop()
        if isinstance(current, ast.Raise) and current.exc is None:
            return True
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(current))
    return False


def _stmt_header(node: ast.stmt) -> tuple[list, list]:
    """A statement's own expressions (not nested statements) plus the
    names that retain values produced by them."""
    if isinstance(node, ast.Assign):
        targets: list[str] = []
        for target in node.targets:
            targets.extend(_target_names(target))
        return [node.value], targets
    if isinstance(node, ast.AnnAssign):
        headers = [node.value] if node.value is not None else []
        return headers, _target_names(node.target)
    if isinstance(node, ast.AugAssign):
        return [node.value], _target_names(node.target)
    if isinstance(node, ast.Return):
        headers = [node.value] if node.value is not None else []
        return headers, ["<return>"]
    if isinstance(node, ast.Expr):
        return [node.value], []
    if isinstance(node, ast.Raise):
        return [e for e in (node.exc, node.cause) if e is not None], []
    if isinstance(node, (ast.If, ast.While)):
        return [node.test], []
    if isinstance(node, (ast.For, ast.AsyncFor)):
        return [node.iter], _target_names(node.target)
    if isinstance(node, (ast.With, ast.AsyncWith)):
        targets: list[str] = []
        for item in node.items:
            if item.optional_vars is not None:
                targets.extend(_target_names(item.optional_vars))
        return [item.context_expr for item in node.items], targets
    if isinstance(node, ast.Assert):
        return [node.test], []
    return [], []


# -- statement lowering -------------------------------------------------------


class _OpLowerer:
    """Flatten one function body into the op list (source order)."""

    def __init__(self):
        self.ops: list = []
        # Builtin exception names caught by an enclosing ``try`` —
        # raising those is internal control flow, not an escape.
        self._caught: list[set[str]] = []

    def lower_body(self, body: list[ast.stmt]) -> list:
        for stmt in body:
            self._stmt(stmt)
        return self.ops

    def _stmt(self, node: ast.stmt) -> None:
        line = getattr(node, "lineno", 0)
        headers, retainers = _stmt_header(node)
        if isinstance(node, (ast.AsyncFor, ast.AsyncWith)) or \
                any(_awaits_in(header) for header in headers):
            self.ops.append(["awaitpoint", line])
        spawns: list = []
        for header in headers:
            _collect_spawns(header, spawns)
        for spawn_dotted, awaited in spawns:
            self.ops.append(
                ["spawn", spawn_dotted, retainers, awaited, line])
        if isinstance(node, ast.Assign):
            targets: list[str] = []
            subs: list[ast.Subscript] = []
            for target in node.targets:
                targets.extend(_target_names(target))
                if isinstance(target, ast.Subscript):
                    subs.append(target)
            if targets:
                self.ops.append(["assign", targets, _expr(node.value), line])
            for sub in subs:
                self.ops.append([
                    "storesub", dotted_name(sub.value),
                    _expr(sub.slice), _expr(node.value), line,
                ])
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = _target_names(node.target)
            if targets:
                self.ops.append(["assign", targets, _expr(node.value), line])
        elif isinstance(node, ast.AugAssign):
            targets = _target_names(node.target)
            if targets:
                union = ["many", [_expr(node.target), _expr(node.value)]]
                self.ops.append(["assign", targets, union, line])
        elif isinstance(node, ast.Return):
            self.ops.append(["return", _expr(node.value), line])
        elif isinstance(node, ast.Raise):
            self._raise(node, line)
        elif isinstance(node, ast.Expr):
            self.ops.append(["expr", _expr(node.value), line])
        elif isinstance(node, (ast.If, ast.While)):
            self.ops.append(["test", _test_expr(node.test), line])
            self.lower_body(node.body)
            self.lower_body(node.orelse)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            targets = _target_names(node.target)
            if targets:
                self.ops.append([
                    "assign", targets, ["many", [_expr(node.iter)]], line,
                ])
            else:
                self.ops.append(["expr", _expr(node.iter), line])
            self.lower_body(node.body)
            self.lower_body(node.orelse)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            is_async = isinstance(node, ast.AsyncWith)
            enter = "alockenter" if is_async else "lockenter"
            leave = "alockexit" if is_async else "lockexit"
            entered: list[str] = []
            for item in node.items:
                lowered = False
                if item.optional_vars is not None:
                    targets = _target_names(item.optional_vars)
                    if targets:
                        self.ops.append([
                            "assign", targets,
                            _expr(item.context_expr), line,
                        ])
                        lowered = True
                if not lowered:
                    self.ops.append(
                        ["expr", _expr(item.context_expr), line])
                dotted = dotted_name(item.context_expr)
                self.ops.append([enter, dotted, line])
                entered.append(dotted)
            self.lower_body(node.body)
            for dotted in reversed(entered):
                self.ops.append([leave, dotted, line])
        elif isinstance(node, ast.Try):
            caught: set[str] = set()
            for handler in node.handlers:
                caught.update(self._handler_names(handler.type))
            self.ops.append([
                "tryenter",
                [self._handler_meta(h) for h in node.handlers],
                bool(node.finalbody), line,
            ])
            self._caught.append(caught)
            self.lower_body(node.body)
            self._caught.pop()
            self.ops.append(["tryexit", line])
            for handler in node.handlers:
                if handler.name:
                    # The caught object's payload is opaque to us.
                    self.ops.append([
                        "assign", [handler.name], ["const"],
                        handler.lineno,
                    ])
                self.lower_body(handler.body)
            self.lower_body(node.orelse)
            if node.finalbody:
                self.ops.append(["finallyenter", line])
                self.lower_body(node.finalbody)
                self.ops.append(["finallyexit", line])
        elif isinstance(node, ast.Match):
            for case in node.cases:
                self.lower_body(case.body)
        # Nested defs/classes are lowered as their own functions by the
        # module extractor; pass/import/global/etc. carry no dataflow.

    @staticmethod
    def _handler_meta(handler: ast.ExceptHandler) -> list:
        """``[[caught names], bare_reraise, line]`` for a handler."""
        if handler.type is None:
            names = ["*"]
        else:
            parts = (handler.type.elts
                     if isinstance(handler.type, ast.Tuple)
                     else [handler.type])
            names = sorted({dotted_name(p).rsplit(".", 1)[-1]
                            for p in parts if dotted_name(p)})
        return [names, _reraises(handler.body), handler.lineno]

    @staticmethod
    def _handler_names(node: ast.expr | None) -> set[str]:
        if node is None:
            return set(_BUILTIN_EXCEPTIONS)  # bare except catches all
        names = set()
        for part in (node.elts if isinstance(node, ast.Tuple) else [node]):
            dotted = dotted_name(part)
            if dotted:
                names.add(dotted.rsplit(".", 1)[-1])
        return names

    def _raise(self, node: ast.Raise, line: int) -> None:
        if node.exc is None:
            return  # bare re-raise
        exc = node.exc
        dotted = ""
        args: list = []
        if isinstance(exc, ast.Call):
            dotted = dotted_name(exc.func)
            args = [_expr(a) for a in exc.args]
            args += [_expr(kw.value) for kw in exc.keywords]
        else:
            dotted = dotted_name(exc)
        short = dotted.rsplit(".", 1)[-1]
        handled = any(short in caught or "Exception" in caught
                      or "BaseException" in caught
                      for caught in self._caught)
        self.ops.append(["raise", dotted, args, line, handled])


# -- module extraction --------------------------------------------------------


def _annotation_name(node: ast.expr | None) -> str:
    """Best-effort dotted class name of a parameter/field annotation.

    ``X``, ``mod.X`` and the optional forms ``X | None`` /
    ``Optional[X]`` reduce to ``X``; anything fancier is opaque.
    """
    if node is None:
        return ""
    if isinstance(node, (ast.Name, ast.Attribute)):
        dotted = dotted_name(node)
        return "" if dotted == "None" else dotted
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return _annotation_name(node.left) or _annotation_name(node.right)
    if isinstance(node, ast.Subscript):
        if dotted_name(node.value).rsplit(".", 1)[-1] == "Optional":
            return _annotation_name(node.slice)
        return ""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value  # string annotation, verbatim
    return ""


def _function_ir(func: ast.FunctionDef | ast.AsyncFunctionDef,
                 module: str, cls: str | None) -> dict:
    # Keyword-only params come after the positional ones, so positional
    # argument-to-param mapping by index is unaffected.
    arg_nodes = (func.args.posonlyargs + func.args.args
                 + func.args.kwonlyargs)
    params = [a.arg for a in arg_nodes]
    annotations = {}
    for arg in arg_nodes:
        ann = _annotation_name(arg.annotation)
        if ann:
            annotations[arg.arg] = ann
    qname = (f"{module}:{cls}.{func.name}" if cls
             else f"{module}:{func.name}")
    declared_global = sorted({
        name for node in ast.walk(func)
        if isinstance(node, ast.Global) for name in node.names
    })
    return {
        "qname": qname,
        "module": module,
        "cls": cls,
        "name": func.name,
        "params": params,
        "param_annotations": annotations,
        "line": func.lineno,
        "is_async": isinstance(func, ast.AsyncFunctionDef),
        "globals": declared_global,
        "ops": _OpLowerer().lower_body(func.body),
    }


def _is_dataclass_decorated(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = (decorator.func if isinstance(decorator, ast.Call)
                  else decorator)
        if dotted_name(target).rsplit(".", 1)[-1] == "dataclass":
            return True
    return False


def _plain_repr_fields(node: ast.ClassDef) -> list:
    """Dataclass fields that participate in the generated ``__repr__``.

    A field escapes the repr only via ``field(repr=False)``; everything
    else (plain annotation, default value, ``field(...)`` without
    ``repr=False``) is listed with its line number.
    """
    fields = []
    for stmt in node.body:
        if not isinstance(stmt, ast.AnnAssign) or \
                not isinstance(stmt.target, ast.Name):
            continue
        value = stmt.value
        if isinstance(value, ast.Call) and \
                dotted_name(value.func).rsplit(".", 1)[-1] == "field":
            if any(kw.arg == "repr"
                   and isinstance(kw.value, ast.Constant)
                   and kw.value.value is False
                   for kw in value.keywords):
                continue
        fields.append([stmt.target.id, stmt.lineno])
    return fields


def _field_types(node: ast.ClassDef) -> list:
    """Dataclass field annotations as ``[name, dotted_type]`` pairs."""
    out = []
    for stmt in node.body:
        if not isinstance(stmt, ast.AnnAssign) or \
                not isinstance(stmt.target, ast.Name):
            continue
        ann = _annotation_name(stmt.annotation)
        if ann:
            out.append([stmt.target.id, ann])
    return out


def extract_module(source: str, path: str, visit=None) -> dict:
    """Parse one module into its cacheable program-model entry.

    The import table comes from one walk over every node of the tree;
    *visit*, when given, is called with each node of that walk, so a
    per-module rule pack can share it instead of walking again.
    """
    tree = ast.parse(source, filename=path)
    module = module_name_for_path(path)
    imports: dict[str, str] = {}
    functions: list[dict] = []
    classes: dict[str, dict] = {}

    # Imports anywhere in the file (function-local ones included —
    # scoping is flattened, which only ever *adds* resolvable names).
    for node in ast.walk(tree):
        if visit is not None:
            visit(node)
        if isinstance(node, ast.ImportFrom) and node.module and \
                node.level == 0:
            for alias in node.names:
                if alias.name == "*":
                    continue
                imports[alias.asname or alias.name] = \
                    f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                imports[alias.asname or alias.name.split(".")[0]] = \
                    alias.name if alias.asname else alias.name.split(".")[0]

    module_vars: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                module_vars.update(
                    n for n in _target_names(target) if "." not in n)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            module_vars.update(
                n for n in _target_names(node.target) if "." not in n)

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions.append(_function_ir(node, module, None))
            _extract_nested(node, module, None, functions)
        elif isinstance(node, ast.ClassDef):
            methods = []
            defines_repr = False
            for item in node.body:
                if isinstance(item, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                    methods.append(item.name)
                    if item.name in ("__repr__", "__str__"):
                        defines_repr = True
                    functions.append(_function_ir(item, module, node.name))
                    _extract_nested(item, module, node.name, functions)
            is_dataclass = _is_dataclass_decorated(node)
            classes[node.name] = {
                "methods": methods,
                "line": node.lineno,
                "dataclass": is_dataclass,
                "defines_repr": defines_repr,
                "plain_repr_fields": _plain_repr_fields(node)
                if is_dataclass else [],
                "field_types": _field_types(node)
                if is_dataclass else [],
            }

    return {
        "ir_version": IR_VERSION,
        "path": path,
        "module": module,
        "imports": imports,
        "module_vars": sorted(module_vars),
        "functions": functions,
        "classes": classes,
    }


def _extract_nested(func, module: str, cls: str | None,
                    out: list[dict]) -> None:
    """Nested defs become standalone functions (closures are opaque)."""
    for node in ast.walk(func):
        if node is func:
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.append(_function_ir(node, module, cls))


def receiver_hint(recv, dotted: str) -> str:
    """The name a method call's receiver goes by (``cache`` for
    ``self.cache.get(k)``), or ``""`` for a plain call."""
    if recv is None:
        return ""
    if recv[0] == "name":
        return recv[1]
    if recv[0] == "attr":
        return recv[2]
    if "." in dotted:
        return dotted.rsplit(".", 2)[-2]
    return ""


# -- the resolved program -----------------------------------------------------


class Program:
    """All extracted modules plus name-resolution over them."""

    def __init__(self, modules: list[dict]):
        self.modules = {m["module"]: m for m in modules}
        self.functions: dict[str, dict] = {}
        self.methods_by_name: dict[str, list[str]] = {}
        for info in modules:
            for func in info["functions"]:
                self.functions[func["qname"]] = func
                self.methods_by_name.setdefault(
                    func["name"], []).append(func["qname"])

    def class_info(self, module: str, cls: str) -> dict | None:
        info = self.modules.get(module)
        if info is None:
            return None
        return info["classes"].get(cls)

    def _chase(self, dotted: str, depth: int = 0) -> str:
        """Follow package re-exports (``repro.xmlcore.parse_element`` →
        ``repro.xmlcore.parser.parse_element``)."""
        if depth > 4:
            return dotted
        head, _, tail = dotted.rpartition(".")
        info = self.modules.get(head)
        if info is not None and tail in info["imports"]:
            return self._chase(info["imports"][tail], depth + 1)
        return dotted

    def resolve(self, module: str, dotted: str,
                var_types: dict[str, tuple] | None = None,
                current_class: str | None = None) -> str | None:
        """Resolve a call's dotted name to a function qname, if we can."""
        if not dotted:
            return None
        parts = dotted.split(".")
        head, rest = parts[0], parts[1:]
        var_types = var_types or {}

        if head in ("self", "cls") and current_class and len(rest) == 1:
            return self._method(module, current_class, rest[0])
        if head in var_types and len(rest) == 1:
            type_module, type_class = var_types[head]
            return self._method(type_module, type_class, rest[0])

        info = self.modules.get(module)
        full = None
        if info is not None and head in info["imports"]:
            full = self._chase(".".join([info["imports"][head]] + rest))
        elif info is not None and (
                f"{module}:{head}" in self.functions
                or head in info["classes"]):
            full = ".".join([module, head])
            if rest:
                full += "." + ".".join(rest)
        if full is None:
            return None

        # Longest module prefix wins: "repro.xmlcore.parser.parse_element"
        # splits into module + (Class.)?callable.
        segments = full.split(".")
        for cut in range(len(segments) - 1, 0, -1):
            candidate_module = ".".join(segments[:cut])
            if candidate_module not in self.modules:
                continue
            remainder = segments[cut:]
            if len(remainder) == 1:
                qname = f"{candidate_module}:{remainder[0]}"
                if qname in self.functions or \
                        remainder[0] in self.modules[
                            candidate_module]["classes"]:
                    return qname
            elif len(remainder) == 2:
                resolved = self._method(candidate_module, remainder[0],
                                        remainder[1])
                if resolved:
                    return resolved
        return None

    def _method(self, module: str, cls: str, name: str) -> str | None:
        info = self.class_info(module, cls)
        if info is not None and name in info["methods"]:
            return f"{module}:{cls}.{name}"
        return None

    def resolve_callee(self, module: str, dotted: str,
                       var_types: dict[str, tuple],
                       current_class: str | None,
                       opaque: frozenset) -> str | None:
        """Callee function qname for the whole-program walks.

        :meth:`resolve` first (a class maps to its ``__init__``); when
        that fails, the unique definition of the call's short name —
        filtered to modules *module* imports when several exist — unless
        the name is in the caller's *opaque* set.  This is how
        ``self.verifier.verify`` finds ``Verifier.verify``.
        """
        if not dotted:
            return None
        qname = self.resolve(module, dotted, var_types, current_class)
        if qname is not None:
            if qname in self.functions:
                return qname
            init = f"{qname}.__init__"
            return init if init in self.functions else None
        short = dotted.rsplit(".", 1)[-1]
        if short in opaque:
            return None
        candidates = self.methods_by_name.get(short, [])
        if len(candidates) == 1:
            return candidates[0]
        if len(candidates) > 1:
            visible = {module}
            for full in self.modules.get(module, {}).get(
                    "imports", {}).values():
                visible.add(full)
                visible.add(full.rsplit(".", 1)[0])
            filtered = [q for q in candidates
                        if q.split(":", 1)[0] in visible]
            if len(filtered) == 1:
                return filtered[0]
        return None

    def class_of_constructor(self, module: str, dotted: str
                             ) -> tuple | None:
        """(module, class) when *dotted* names a program class."""
        if not dotted or "." in dotted:
            resolved = None
            info = self.modules.get(module)
            if info is not None and dotted and \
                    dotted.split(".")[0] in info["imports"]:
                resolved = self._chase(
                    info["imports"][dotted.split(".")[0]]
                    + dotted[len(dotted.split(".")[0]):])
            if resolved is None:
                return None
            head, _, tail = resolved.rpartition(".")
            if head in self.modules and tail in \
                    self.modules[head]["classes"]:
                return (head, tail)
            return None
        info = self.modules.get(module)
        if info is None:
            return None
        if dotted in info["classes"]:
            return (module, dotted)
        if dotted in info["imports"]:
            chased = self._chase(info["imports"][dotted])
            head, _, tail = chased.rpartition(".")
            if head in self.modules and tail in \
                    self.modules[head]["classes"]:
                return (head, tail)
        return None
