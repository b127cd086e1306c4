"""Tree-walking interpreter for the ECMAScript subset.

Runs manifest scripts against a host environment (the player exposes
its API — local storage, presentation control, permission-gated
resources — as host objects).  Three hardening measures reflect the
threat model's "malicious application" concerns: a configurable
instruction budget (runaway-script protection), a fixed bound on the
depth of script calls (runaway recursion; the parser bounds nesting
within a script) and host access strictly limited to the objects the
engine chose to expose.
"""

from __future__ import annotations

import operator
from contextlib import contextmanager
from dataclasses import dataclass

from repro.errors import ScriptRuntimeError
from repro.markup.script_parser import parse_script

#: Deepest chain of script function calls.  Together with the parser's
#: ``MAX_DEPTH`` it keeps a script's recursion well inside Python's
#: stack, so a runaway recursion fails with a ScriptRuntimeError.
MAX_CALL_DEPTH = 64


class _Break(Exception):
    statement = "break"


class _Continue(Exception):
    statement = "continue"


class _Return(Exception):
    def __init__(self, value):
        self.value = value


@dataclass
class ScriptFunction:
    """A user-defined function closed over its defining environment."""

    params: list[str]
    body: tuple
    closure: "Environment"
    name: str = "<anonymous>"


class Environment:
    """Lexical scope chain."""

    def __init__(self, parent: "Environment | None" = None):
        self.parent = parent
        self.values: dict[str, object] = {}

    def declare(self, name: str, value) -> None:
        self.values[name] = value

    def lookup(self, name: str):
        scope: Environment | None = self
        while scope is not None:
            if name in scope.values:
                return scope.values[name]
            scope = scope.parent
        raise ScriptRuntimeError(f"{name!r} is not defined")

    def assign(self, name: str, value) -> None:
        scope: Environment | None = self
        while scope is not None:
            if name in scope.values:
                scope.values[name] = value
                return
            scope = scope.parent
        raise ScriptRuntimeError(f"{name!r} is not defined")


class HostObject:
    """A host-provided object exposed to scripts.

    Methods are plain callables; properties are plain values.  Scripts
    can only reach what the embedder registers here — the engine's
    access-control choke point.
    """

    def __init__(self, name: str, methods: dict | None = None,
                 properties: dict | None = None):
        self.name = name
        self.methods = dict(methods or {})
        self.properties = dict(properties or {})

    def get_member(self, name: str):
        if name in self.methods:
            return self.methods[name]
        if name in self.properties:
            return self.properties[name]
        raise ScriptRuntimeError(
            f"host object {self.name!r} has no member {name!r}"
        )

    def set_member(self, name: str, value) -> None:
        self.properties[name] = value


@dataclass
class ExecutionResult:
    """Outcome of running a script."""

    globals: dict[str, object]
    instructions: int
    return_value: object = None


class Interpreter:
    """Executes parsed scripts with an instruction budget.

    Args:
        host_objects: name → :class:`HostObject` bindings visible as
            globals.
        max_instructions: abort threshold (``ScriptRuntimeError``) —
            protects the player from runaway downloaded scripts.
    """

    def __init__(self, host_objects: dict[str, HostObject] | None = None,
                 max_instructions: int = 1_000_000,
                 include_stdlib: bool = True):
        self.globals = Environment()
        self.max_instructions = max_instructions
        self._instructions = 0
        self._calls = 0
        if include_stdlib:
            from repro.markup.script_stdlib import (
                STANDARD_FUNCTIONS, standard_globals,
            )
            for name, obj in standard_globals().items():
                self.globals.declare(name, obj)
            for name, function in STANDARD_FUNCTIONS.items():
                self.globals.declare(name, function)
        for name, obj in (host_objects or {}).items():
            self.globals.declare(name, obj)

    # -- public API ----------------------------------------------------------------

    def run(self, source: str) -> ExecutionResult:
        """Parse and execute *source* in the global environment."""
        with _script_errors():
            program = parse_script(source)
            self._instructions = 0
            self._exec_block(program[1], self.globals)
        return ExecutionResult(
            globals={
                k: v for k, v in self.globals.values.items()
                if not isinstance(v, HostObject) and not callable(v)
                or isinstance(v, ScriptFunction)
            },
            instructions=self._instructions,
        )

    def call_function(self, name: str, *args):
        """Invoke a script-defined global function from the host side
        (event dispatch: ``onKey``, ``onLoad`` ...)."""
        function = self.globals.lookup(name)
        with _script_errors():
            return self._invoke(function, list(args))

    # -- execution ------------------------------------------------------------------
    #
    # Every node costs one instruction, charged inline where the node is
    # entered (``self._instructions += 1`` and one compare against the
    # budget); only an overrun calls out, to :meth:`_overrun`.  A loop
    # iteration, a call and a function body's block cost one more each.
    # Kinds are tested in the order of how often they reach ``_exec``
    # and ``_eval``, and a function body's top-level ``return`` leaves
    # without raising (DESIGN §3.1).

    def _overrun(self):
        raise ScriptRuntimeError(
            f"instruction budget exceeded "
            f"({self.max_instructions}); runaway script aborted"
        )

    def _hoist(self, statements, env: Environment) -> None:
        # Function declarations are hoisted (ECMA-262 §10.1.3).
        for statement in statements:
            if statement[0] == "funcdecl":
                env.declare(statement[1],
                            ScriptFunction(statement[2], statement[3],
                                           env, name=statement[1]))

    def _exec_block(self, statements, env: Environment) -> None:
        self._hoist(statements, env)
        for statement in statements:
            if statement[0] != "funcdecl":
                self._exec(statement, env)

    def _exec(self, node, env: Environment) -> None:
        self._instructions += 1
        if self._instructions > self.max_instructions:
            self._overrun()
        kind = node[0]
        if kind == "exprstmt":
            self._eval(node[1], env)
        elif kind == "block":
            self._exec_block(node[1], env)
        elif kind == "var":
            env.declare(node[1], None if node[2] is None
                        else self._eval(node[2], env))
        elif kind == "for":
            _kind, init, condition, step, body = node
            loop_env = Environment(env)
            if init is not None:
                self._exec(init, loop_env)
            while condition is None \
                    or _truthy(self._eval(condition, loop_env)):
                self._instructions += 1
                if self._instructions > self.max_instructions:
                    self._overrun()
                try:
                    self._exec(body, loop_env)
                except _Break:
                    break
                except _Continue:
                    pass
                if step is not None:
                    self._exec(step, loop_env)
        elif kind == "continue":
            raise _Continue()
        elif kind == "if":
            if _truthy(self._eval(node[1], env)):
                self._exec(node[2], env)
            elif node[3] is not None:
                self._exec(node[3], env)
        elif kind == "while":
            while _truthy(self._eval(node[1], env)):
                self._instructions += 1
                if self._instructions > self.max_instructions:
                    self._overrun()
                try:
                    self._exec(node[2], env)
                except _Break:
                    break
                except _Continue:
                    continue
        elif kind == "return":
            raise _Return(None if node[1] is None
                          else self._eval(node[1], env))
        elif kind == "break":
            raise _Break()
        elif kind == "funcdecl":
            self._hoist((node,), env)
        else:
            raise ScriptRuntimeError(f"unknown statement kind {kind!r}")

    # -- evaluation ------------------------------------------------------------------

    def _eval(self, node, env: Environment):
        self._instructions += 1
        if self._instructions > self.max_instructions:
            self._overrun()
        kind = node[0]
        if kind == "name":
            return env.lookup(node[1])
        if kind == "num":
            return node[1]
        if kind == "binary":
            left = self._eval(node[2], env)
            right = self._eval(node[3], env)
            try:
                operation = _BINARY[node[1]]
            except KeyError:
                raise ScriptRuntimeError(
                    f"unknown operator {node[1]!r}") from None
            return operation(left, right)
        if kind == "assign":
            return self._eval_assign(node, env)
        if kind == "call":
            args = [self._eval(arg, env) for arg in node[2]]
            callee = node[1]
            if callee[0] == "member":
                return self._invoke(
                    self._get_member(self._eval(callee[1], env),
                                     callee[2]), args)
            return self._invoke(self._eval(callee, env), args)
        if kind == "postfix":
            return self._eval_postfix(node, env)
        if kind == "str":
            return node[1]
        if kind == "logical":
            left = self._eval(node[2], env)
            if node[1] == "&&":
                return self._eval(node[3], env) if _truthy(left) else left
            return left if _truthy(left) else self._eval(node[3], env)
        if kind == "index":
            return self._get_index(
                self._eval(node[1], env), self._eval(node[2], env),
            )
        if kind == "member":
            return self._get_member(self._eval(node[1], env), node[2])
        if kind == "unary":
            return self._eval_unary(node, env)
        if kind == "object":
            return {key: self._eval(value, env) for key, value in node[1]}
        if kind == "func":
            return ScriptFunction(node[1], node[2], env)
        if kind == "bool":
            return node[1]
        if kind == "array":
            return [self._eval(item, env) for item in node[1]]
        if kind == "null":
            return None
        if kind == "cond":
            if _truthy(self._eval(node[1], env)):
                return self._eval(node[2], env)
            return self._eval(node[3], env)
        raise ScriptRuntimeError(f"unknown expression kind {kind!r}")

    def _eval_unary(self, node, env):
        operand = self._eval(node[2], env)
        op = node[1]
        if op == "!":
            return not _truthy(operand)
        if op == "-":
            return -_number(operand)
        if op == "+":
            return _number(operand)
        if op == "typeof":
            if operand is None:
                return "object"
            if isinstance(operand, bool):
                return "boolean"
            if isinstance(operand, (int, float)):
                return "number"
            if isinstance(operand, str):
                return "string"
            if isinstance(operand, ScriptFunction) or callable(operand):
                return "function"
            return "object"
        raise ScriptRuntimeError(f"unknown unary operator {op!r}")

    def _eval_assign(self, node, env):
        _kind, target, op, value_node = node
        value = self._eval(value_node, env)
        if op != "=":
            current = self._eval(target, env)
            operation = _COMPOUND.get(op)
            if operation is None:
                raise ScriptRuntimeError(
                    f"unknown compound operator {op!r}")
            value = operation(current, value)
        if target[0] == "name":
            env.assign(target[1], value)
        elif target[0] == "member":
            obj = self._eval(target[1], env)
            self._set_member(obj, target[2], value)
        else:  # index
            obj = self._eval(target[1], env)
            index = self._eval(target[2], env)
            self._set_index(obj, index, value)
        return value

    def _eval_postfix(self, node, env):
        _kind, op, target = node
        current = _number(self._eval(target, env))
        updated = current + 1 if op == "++" else current - 1
        self._eval_assign(("assign", target, "=", ("num", updated)), env)
        return current

    def _invoke(self, function, args):
        self._instructions += 1
        if self._instructions > self.max_instructions:
            self._overrun()
        if isinstance(function, ScriptFunction):
            if self._calls >= MAX_CALL_DEPTH:
                raise ScriptRuntimeError(
                    f"call depth exceeded ({MAX_CALL_DEPTH}); "
                    "runaway recursion aborted"
                )
            env = Environment(function.closure)
            values = env.values
            count = len(args)
            for index, param in enumerate(function.params):
                values[param] = args[index] if index < count else None
            self._calls += 1
            try:
                # The body block, with the tick and hoisting _exec
                # would give it, run here so that a top-level return
                # needs no unwinding.
                self._instructions += 1
                if self._instructions > self.max_instructions:
                    self._overrun()
                statements = function.body[1]
                self._hoist(statements, env)
                for statement in statements:
                    kind = statement[0]
                    if kind == "return":
                        self._instructions += 1
                        if self._instructions > self.max_instructions:
                            self._overrun()
                        return (None if statement[1] is None
                                else self._eval(statement[1], env))
                    if kind != "funcdecl":
                        self._exec(statement, env)
            except _Return as ret:
                return ret.value
            except (_Break, _Continue) as signal:
                # A function body is not inside the caller's loop.
                raise ScriptRuntimeError(
                    f"{signal.statement!r} outside a loop"
                ) from None
            finally:
                self._calls -= 1
            return None
        if callable(function):
            from repro.errors import PermissionDeniedError
            try:
                return function(*args)
            except (ScriptRuntimeError, PermissionDeniedError):
                # Platform enforcement surfaces as-is; the embedder
                # decides what a denial means for the application.
                raise
            except Exception as exc:
                raise ScriptRuntimeError(
                    f"host call failed: {exc}"
                ) from exc
        raise ScriptRuntimeError(
            f"{type(function).__name__} is not callable"
        )

    # -- member / index access -----------------------------------------------------------

    def _get_member(self, obj, name: str):
        if isinstance(obj, HostObject):
            return obj.get_member(name)
        if isinstance(obj, dict):
            if name in obj:
                return obj[name]
            raise ScriptRuntimeError(f"object has no property {name!r}")
        if isinstance(obj, list):
            if name == "length":
                return float(len(obj))
            if name == "push":
                return obj.append
            raise ScriptRuntimeError(f"array has no property {name!r}")
        if isinstance(obj, str):
            if name == "length":
                return float(len(obj))
            raise ScriptRuntimeError(f"string has no property {name!r}")
        raise ScriptRuntimeError(
            f"cannot read property {name!r} of "
            f"{'null' if obj is None else type(obj).__name__}"
        )

    def _set_member(self, obj, name: str, value) -> None:
        if isinstance(obj, HostObject):
            obj.set_member(name, value)
        elif isinstance(obj, dict):
            obj[name] = value
        else:
            raise ScriptRuntimeError(
                f"cannot set property {name!r} on {type(obj).__name__}"
            )

    def _get_index(self, obj, index):
        if isinstance(obj, list):
            i = _integer(index)
            if not 0 <= i < len(obj):
                return None
            return obj[i]
        if isinstance(obj, dict):
            return obj.get(_stringify(index))
        if isinstance(obj, str):
            i = _integer(index)
            if not 0 <= i < len(obj):
                return None
            return obj[i]
        raise ScriptRuntimeError(
            f"cannot index {type(obj).__name__}"
        )

    def _set_index(self, obj, index, value) -> None:
        if isinstance(obj, list):
            i = _integer(index)
            if 0 <= i < len(obj):
                obj[i] = value
            elif i == len(obj):
                obj.append(value)
            else:
                raise ScriptRuntimeError(f"array index {i} out of range")
        elif isinstance(obj, dict):
            obj[_stringify(index)] = value
        else:
            raise ScriptRuntimeError(
                f"cannot index-assign {type(obj).__name__}"
            )


@contextmanager
def _script_errors():
    """Let only typed errors leave a script run.

    A ``break``, ``continue`` or ``return`` with nothing to leave would
    otherwise escape as the interpreter's private signal.  ``MAX_DEPTH``
    and ``MAX_CALL_DEPTH`` bound nesting and recursion one at a time; a
    script that combines deep nesting with deep recursion, or runs on
    an already deep host stack, can still reach Python's limit, and
    must fail as a script error all the same."""
    try:
        yield
    except (_Break, _Continue) as signal:
        raise ScriptRuntimeError(
            f"{signal.statement!r} outside a loop"
        ) from None
    except _Return:
        raise ScriptRuntimeError("'return' outside a function") from None
    except RecursionError:
        raise ScriptRuntimeError(
            "script nesting exceeds the interpreter's stack"
        ) from None


# -- coercion helpers -------------------------------------------------------


def _truthy(value) -> bool:
    if value is None:
        return False
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return value != 0
    if isinstance(value, str):
        return bool(value)
    return True


def _number(value) -> float:
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            raise ScriptRuntimeError(
                f"cannot convert {value!r} to a number"
            ) from None
    if value is None:
        return 0.0
    raise ScriptRuntimeError(
        f"cannot convert {type(value).__name__} to a number"
    )


def _integer(value) -> int:
    """*value* as an array or string index."""
    number = _number(value)
    try:
        return int(number)
    except (OverflowError, ValueError):
        raise ScriptRuntimeError(
            f"index {_stringify(number)} is not a finite number"
        ) from None


def _stringify(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if value.is_integer():
            return str(int(value))
        return repr(value)
    if isinstance(value, str):
        return value
    if isinstance(value, list):
        return ",".join(_stringify(v) for v in value)
    return str(value)


def _compare(left, right) -> int:
    if isinstance(left, str) and isinstance(right, str):
        return (left > right) - (left < right)
    a, b = _number(left), _number(right)
    return (a > b) - (a < b)


# -- binary operators ---------------------------------------------------------
#
# One function per operator.  When both operands are exactly ``float``
# (no ``bool``, ``int`` or subclass), ``_number`` would return them
# unchanged, so each function computes on them directly, a zero
# divisor excepted; the result is the one the coercing path gives, NaN
# included: ``_compare`` is 0 for a NaN operand, so ``<=`` and ``>=``
# are then true.


def _add(left, right):
    if type(left) is float and type(right) is float:
        return left + right
    if isinstance(left, str) or isinstance(right, str):
        return _stringify(left) + _stringify(right)
    return _number(left) + _number(right)


def _subtract(left, right):
    if type(left) is float and type(right) is float:
        return left - right
    return _number(left) - _number(right)


def _multiply(left, right):
    if type(left) is float and type(right) is float:
        return left * right
    return _number(left) * _number(right)


def _divide(left, right):
    if type(left) is float and type(right) is float and right:
        return left / right
    divisor = _number(right)
    if divisor == 0:
        raise ScriptRuntimeError("division by zero")
    return _number(left) / divisor


def _modulo(left, right):
    if type(left) is float and type(right) is float and right:
        return left % right
    divisor = _number(right)
    if divisor == 0:
        raise ScriptRuntimeError("modulo by zero")
    return _number(left) % divisor


def _less(left, right):
    if type(left) is float and type(right) is float:
        return left < right
    return _compare(left, right) < 0


def _greater(left, right):
    if type(left) is float and type(right) is float:
        return left > right
    return _compare(left, right) > 0


def _at_most(left, right):
    if type(left) is float and type(right) is float:
        return not left > right
    return _compare(left, right) <= 0


def _at_least(left, right):
    if type(left) is float and type(right) is float:
        return not left < right
    return _compare(left, right) >= 0


_BINARY = {
    "+": _add, "-": _subtract, "*": _multiply, "/": _divide,
    "%": _modulo, "==": operator.eq, "===": operator.eq,
    "!=": operator.ne, "!==": operator.ne, "<": _less, ">": _greater,
    "<=": _at_most, ">=": _at_least,
}
#: Compound assignment operators: the binary operator they apply.
_COMPOUND = {op + "=": _BINARY[op] for op in "+-*/%"}


def run_script(source: str,
               host_objects: dict[str, HostObject] | None = None,
               max_instructions: int = 1_000_000) -> ExecutionResult:
    """One-shot convenience: run *source* and return the result."""
    interpreter = Interpreter(host_objects, max_instructions)
    return interpreter.run(source)
