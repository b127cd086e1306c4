"""The script front end against pinned transcripts.

A seeded corpus of programs goes through :func:`tokenize`,
:func:`parse_script` and an :class:`Interpreter` with a small budget.
The transcript of every stage (tokens, AST, globals, instruction count,
host-call log, or the error type and message) is pinned by SHA-256.
The digests were recorded from the character-at-a-time lexer and the
recursive-descent parser that the single-pass scanner and the
table-driven parser replaced; the corpus holds no input whose outcome
was meant to change (non-decimal digits, nesting past the depth limit,
unbounded recursion), as those are pinned in ``test_script.py``.
A second corpus and sweep, at the end, pin the interpreter's fast
paths against the walker they replaced.
"""

from __future__ import annotations

import hashlib
import random
import re

import pytest

from repro.errors import ScriptRuntimeError
from repro.markup import (
    HostObject, Interpreter, ScriptFunction, tokenize,
)
from repro.markup.script_parser import parse_script

#: SHA-256 of :func:`corpus_transcript`.
CORPUS_SHA256 = (
    "eb3c1f54cb6e2dd5883a87baa56c13a27d6eeddd7235881826c822ad2289586c"
)
#: SHA-256 of :func:`sweep_transcript`.
SWEEP_SHA256 = (
    "c4e4017ff41f765bc63c8a94f135c760984da5cf9a9539e19f764c75cf7af499"
)

CORPUS_SEED = 20050902
GENERATED = 300
MUTATED = 300
#: Instruction budget of a corpus run: generated loops may not end.
BUDGET = 3000

#: Number-valued names, Unicode and ``$``/``_`` ones included.
NUMERIC = ("a", "b", "c", "i", "café", "Ωμέγα", "名前", "_u", "$d", "x1")
NAMES = NUMERIC + ("s", "o", "arr")
BINARY = ("+", "-", "*", "/", "%", "<", ">", "<=", ">=", "==", "!=",
          "===", "!==", "&&", "||")
ASSIGN = ("=", "+=", "-=", "*=", "/=", "%=")
UNARY = ("!", "-", "+", "typeof ")
STRINGS = ('"menu"', "'x'", '""', "''", '"a\\tb\\\\c"', "'it\\'s'",
           '"q\\"uote"', '"nul\\0end"', '"line\\nbreak\\r"', '"\\q\\z"',
           '"Grüße, 世界"', "'$_'")
NUMBERS = ("0", "1", "7", "42", "1.5", ".25", "3.", "100", "0.125", "12")
KEYS = ("k", "name", '"count"', "var", "if", "'x y'")
#: Characters a mutation may insert: no non-decimal digits, whose
#: outcome is meant to differ from the replaced lexer.
MUTATION_CHARS = "(){}[];,.=+-*/%<>!?:&|#@\"'\\ \t\n09aZé_$"


class ProgramGenerator:
    """Random programs over the whole grammar.

    Function bodies may call only host functions and functions declared
    before them, so no generated program recurses: every run ends at the
    budget or before it."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def pick(self, options):
        return options[self.rng.randrange(len(options))]

    def program(self) -> str:
        rng = self.rng
        lines = ["var " + ", ".join(f"{n} = {self.pick(NUMBERS)}"
                                    for n in NUMERIC) + ";",
                 "var arr = [1, 2, 3], o = {k: 1, name: 'o', count: 2},"
                 " s = 'str';"]
        functions: list[str] = []
        for k in range(rng.randint(0, 3)):
            params = ", ".join(self.pick(("p", "q", "r"))
                               for _ in range(rng.randint(0, 2)))
            body = self.block(2, functions, in_function=True,
                              in_loop=False)
            lines.append(f"function f{k}({params}) {body}")
            functions.append(f"f{k}")
        for _ in range(rng.randint(3, 10)):
            lines.append(self.statement(0, functions, in_function=False,
                                        in_loop=False))
        if rng.random() < 0.3:
            lines.insert(rng.randrange(len(lines) + 1),
                         "/* block\n   comment */")
        return "\n".join(lines) + self.pick(("", "\n", "\r\n", " // end"))

    def block(self, depth, functions, *, in_function, in_loop) -> str:
        statements = [self.statement(depth + 1, functions,
                                     in_function=in_function,
                                     in_loop=in_loop)
                      for _ in range(self.rng.randint(0, 3))]
        return "{ " + " ".join(statements) + " }"

    def statement(self, depth, functions, *, in_function, in_loop) -> str:
        rng = self.rng
        kinds = ["expr", "assign", "call", "postfix", "var", "empty"]
        if depth < 3:
            kinds += ["block", "if", "while", "for"]
        if in_function:
            kinds.append("return")
        if in_loop:
            kinds += ["break", "continue"]
        kind = self.pick(kinds)
        nested = dict(in_function=in_function)
        if kind == "expr":
            return self.expression(0, functions) + ";"
        if kind == "assign":
            return self.assignment(functions) + self.pick((";", ""))
        if kind == "call":
            return self.call(0, functions) + ";"
        if kind == "postfix":
            return self.target(functions) + self.pick(("++", "--")) + ";"
        if kind == "var":
            names = [self.pick(NAMES) for _ in range(rng.randint(1, 3))]
            return "var " + ", ".join(
                n if rng.random() < 0.2
                else f"{n} = {self.expression(1, functions)}"
                for n in names) + self.pick((";", ""))
        if kind == "empty":
            return ";"
        if kind == "block":
            return self.block(depth, functions, in_loop=in_loop, **nested)
        if kind == "if":
            text = (f"if ({self.expression(1, functions)}) "
                    + self.statement(depth + 1, functions, in_loop=in_loop,
                                     **nested))
            if rng.random() < 0.5:
                text += " else " + self.statement(
                    depth + 1, functions, in_loop=in_loop, **nested)
            return text
        if kind == "while":
            return (f"while (i < {rng.randint(1, 9)}) {{ i++; "
                    + self.statement(depth + 1, functions, in_loop=True,
                                     **nested) + " }")
        if kind == "for":
            init = self.pick(("var i = 0", "i = 0", ""))
            condition = self.pick(("i < 4", "", "i <= 2 && a"))
            step = self.pick(("i++", "i += 1", ""))
            body = self.statement(depth + 1, functions, in_loop=True,
                                  **nested)
            return f"for ({init}; {condition}; {step}) {body}"
        if kind == "return":
            return self.pick(("return;", "return ",
                              f"return {self.expression(1, functions)};"))
        return kind + self.pick((";", ""))

    def target(self, functions) -> str:
        return self.pick((self.pick(NAMES), "o.k", "o[\"count\"]",
                          "arr[0]", "arr[i]"))

    def assignment(self, functions) -> str:
        target = self.target(functions)
        value = self.expression(1, functions)
        if self.rng.random() < 0.15:
            value = f"{self.pick(NAMES)} = {value}"
        return f"{target} {self.pick(ASSIGN)} {value}"

    def call(self, depth, functions) -> str:
        callee = self.pick(("player.log", "Math.floor", "Math.max",
                            "String.toUpperCase", "parseInt", "arr.push",
                            "(function (p) { return p; })")
                           + tuple(functions))
        args = ", ".join(self.expression(depth + 1, functions)
                         for _ in range(self.rng.randint(
                             callee[0] in "MSp", 2)))
        return f"{callee}({args})"

    def expression(self, depth, functions) -> str:
        rng = self.rng
        if depth >= 3 or rng.random() < 0.3:
            return self.atom()
        kind = self.pick(("binary", "binary", "unary", "cond", "paren",
                          "array", "object", "func", "member", "index",
                          "call"))
        inner = depth + 1
        if kind == "binary":
            return (f"{self.expression(inner, functions)} "
                    f"{self.pick(BINARY)} {self.expression(inner, functions)}")
        if kind == "unary":
            return self.pick(UNARY) + self.expression(inner, functions)
        if kind == "cond":
            return (f"{self.expression(inner, functions)} ? "
                    f"{self.expression(inner, functions)} : "
                    f"{self.expression(inner, functions)}")
        if kind == "paren":
            if rng.random() < 0.2:
                return f"({self.assignment(functions)})"
            return f"({self.expression(inner, functions)})"
        if kind == "array":
            return "[" + ", ".join(self.expression(inner, functions)
                                   for _ in range(rng.randint(0, 3))) + "]"
        if kind == "object":
            return "{" + ", ".join(
                f"{self.pick(KEYS)}: {self.expression(inner, functions)}"
                for _ in range(rng.randint(0, 2))) + "}"
        if kind == "func":
            return (f"function ({self.pick(('', 'p', 'p, q'))}) "
                    f"{{ return {self.expression(inner, functions)}; }}")
        if kind == "member":
            return self.pick(("o.k", "o.name", "arr.length", "s.length",
                              "Math.PI", "o.count", "o.k", "arr.length",
                              "o.missing", "player.log"))
        if kind == "index":
            return self.pick(("arr", "o", "s")) + "[" + self.pick(
                ("0", "1", "i", '"k"', "'name'", "-1", "9")) + "]"
        return self.call(inner, functions)

    def atom(self) -> str:
        return self.pick((self.pick(NUMERIC), self.pick(NUMBERS),
                          self.pick(STRINGS), "true", "false", "null",
                          self.pick(NUMERIC), self.pick(NUMBERS),
                          self.pick(NAMES), "i"))


def mutate(rng: random.Random, source: str) -> str:
    """*source* with one random edit: mostly malformed afterwards."""
    if not source:
        return source
    at = rng.randrange(len(source))
    edit = rng.randrange(5)
    if edit == 0:
        return source[:at]
    if edit == 1:
        return source[:at] + source[at + 1:]
    if edit == 2:
        return source[:at] + rng.choice(MUTATION_CHARS) + source[at:]
    if edit == 3:
        return source[:at] + source[at + 1:at + 2] + source[at:at + 1] + \
            source[at + 2:]
    lines = source.split("\n")
    index = rng.randrange(len(lines))
    return "\n".join(lines[:index] + [lines[index]] + lines[index:])


#: Hand-written cases: the unit tests' snippets, Unicode identifiers,
#: every escape, the line count through an escaped newline, and one
#: malformed input per parser error message.
SNIPPETS = (
    'var x = 1.5; // comment\ns = "hi\\n";',
    "a /* multi\nline */ b",
    "var r = 1 + 2 * 3 - 4 / 2;",
    "var r = (1 + 2) * 3;",
    "var r = 1 < 2 && 3 > 2 || false;",
    'var a = 7 % 3;\nvar b = "n=" + 42;\nvar c = "x" + true;\n'
    "var d = -5 + +3;",
    'var r = "";\nfor (var i = 0; i < 5; i++) {\n  if (i == 2) continue;\n'
    "  if (i == 4) break;\n  r = r + i;\n}\nvar w = 0;\n"
    "while (w < 10) { w += 3; }",
    "function fib(n) { if (n < 2) return n; return fib(n-1)+fib(n-2); }\n"
    "var f10 = fib(10);\nfunction make(start) {\n"
    "  return function(step) { start += step; return start; };\n}\n"
    "var acc = make(100);\nacc(5);\nvar v = acc(10);",
    "var a = [10, 20, 30];\na.push(40);\na[0] = a[1] + a.length;\n"
    'var o = {name: "disc", "count": 2};\no.count++;\n'
    'var keyed = o["name"];',
    'var t = typeof 3 == "number" ? "yes" : "no";\nvar u = typeof "s";\n'
    "var v = typeof null;\nvar w = typeof f;\nfunction f() {}",
    "var café = 1; var Ωμέγα = café + 1; var 名前 = \"名\" + Ωμέγα;\n"
    "var _$ = $x = 3; var a٣ = 2;",
    "var n = ٣ + 1; var m = 1٣;",
    "var s = 'a\\tb\\nc\\rd\\\\e\\'f\\\"g\\0h\\qi';",
    'var s = "a\\\nb";\nvar t = 1;\nbad @',
    'var s = "one\ntwo";',
    'var s = "open',
    'var s = "trailing\\',
    "/* never closed\n\n",
    "x = 1 /* one */ + /* two\n */ 2; y = x;",
    "var x = 1.2.3; var y = 1..2; var z = .5 + 5.;",
    "1 = 2;",
    "f() = 3;",
    "(a + b)++;",
    "var = 3;",
    "var x = ;\n",
    "if (x {",
    "function () {}",
    "o = {1: 2};",
    "o = {a 1};",
    "o = {a: 1",
    "a.1 = 2;",
    "{ var x = 1;",
    "while (true",
    "for (var i = 0 i < 3; i++) {}",
    "for (;;) { break; }",
    "x = new Thing();",
    "var x = 1 ? 2;",
    "var x = [1, 2;",
    "f(1 2);",
    "return",
    "a += b -= c *= d /= e %= 2;",
    "a === b !== c == d != e <= f >= g < h > i;",
    "!a || -b && +c || typeof d;",
    "x = y ? z ? 1 : 2 : w ? 3 : 4;",
    "a.b.c[d][e](f)(g).h = 1;",
    "var e = \"\" + '' + \"\";",
    "\t\r\n  \n",
    "",
    "#",
    "var x = 1 & 2;",
    "var x = 1 | 2;",
    "player.log(\"menu:\" + (1 + 2));",
    "function outer() { function inner() { return 1; } return inner(); }\n"
    "var r = outer();",
    "var i = 0; while (true) { i++; if (i > 3) break; }",
    "for (var k = 0; k < 2; k++) { continue; }",
    "var o = {}; o.x = 1; o['y'] = 2; var n = o.x + o.y;",
    "var a = []; a[0] = 1; a[1] = 2; a[5] = 3;",
)


def render(value, seen=()) -> str:
    """A stable text form of a script value (no object addresses)."""
    if isinstance(value, ScriptFunction):
        return f"<function {value.name}({','.join(value.params)})>"
    if isinstance(value, HostObject):
        return f"<host {value.name}>"
    if isinstance(value, (list, dict)):
        if id(value) in seen:
            return "<cycle>"
        seen = (*seen, id(value))
        if isinstance(value, list):
            return "[" + ",".join(render(v, seen) for v in value) + "]"
        return "{" + ",".join(f"{k!r}:{render(v, seen)}"
                              for k, v in value.items()) + "}"
    if callable(value):
        return "<builtin>"
    return repr(value)


def describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def run_logged(source: str, budget: int) -> tuple[str, list[str]]:
    """Run *source* with a logging ``player`` host; return the outcome
    (globals and instruction count, or the error) and the host-call log."""
    log: list[str] = []
    player = HostObject("player", methods={
        "log": lambda *args: log.append(",".join(render(a) for a in args)),
    })
    interpreter = Interpreter({"player": player}, max_instructions=budget)
    try:
        result = interpreter.run(source)
    except Exception as exc:
        return describe(exc), log
    return f"{render(result.globals)} #{result.instructions}", log


def stage_transcript(source: str) -> list[str]:
    parts = [source]
    try:
        parts.append(repr([(t.kind, t.value, t.line)
                           for t in tokenize(source)]))
    except Exception as exc:
        parts.append(describe(exc))
    try:
        parts.append(repr(parse_script(source)))
    except Exception as exc:
        parts.append(describe(exc))
        return parts
    outcome, log = run_logged(source, BUDGET)
    return parts + [outcome, repr(log)]


def corpus() -> list[str]:
    rng = random.Random(CORPUS_SEED)
    generator = ProgramGenerator(rng)
    programs = [generator.program() for _ in range(GENERATED)]
    mutated = [mutate(rng, rng.choice(programs)) for _ in range(MUTATED)]
    return list(SNIPPETS) + programs + mutated


def digest(parts) -> str:
    """SHA-256 of *parts*, object addresses blanked: a script can print
    an object whose Python repr holds one."""
    text = re.sub(r" at 0x[0-9a-f]+", " at 0x", "\x00".join(parts))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def corpus_transcript() -> list[str]:
    return [part for source in corpus() for part in stage_transcript(source)]


#: Scripts whose every budget trip point is checked: host calls between
#: ticks, loops with break/continue, calls and closures.
SWEEP_SCRIPTS = (
    "var acc = 17;\n"
    "function step(x, k) { return (x * 31 + k) % 1000003; }\n"
    "acc = step(acc, 1);\nplayer.log(\"a:\" + acc);\n"
    "for (var i = 0; i < 3; i = i + 1) { acc = step(acc, i); }\n"
    "player.log(\"b:\" + acc);\nacc = step(acc, 7);\n"
    "player.log(\"menu:\" + acc);\n",
    "var n = 0; var seen = [];\n"
    "while (n < 6) { n++; if (n % 2 == 0) continue;"
    " seen.push(n); player.log(n); if (n > 4) break; }\n",
    "function make(k) { return function (x) { player.log(x + k);"
    " return x * k; }; }\n"
    "var f = make(3); var g = make(5); var r = f(g(2)) + g(1);\n"
    "var o = {k: r, list: [r, -r, !r]}; o.k += 1; player.log(o.k);\n",
)


def sweep_transcript() -> list[str]:
    parts = []
    for source in SWEEP_SCRIPTS:
        outcome, full_log = run_logged(source, 10_000)
        total = int(outcome.rsplit("#", 1)[1])
        for budget in range(total + 2):
            outcome, log = run_logged(source, budget)
            parts += [str(budget), outcome, repr(log)]
        parts.append(repr(full_log))
    return parts


# -- the pins ---------------------------------------------------------------


def test_corpus_transcript_matches_the_replaced_front_end():
    assert digest(corpus_transcript()) == CORPUS_SHA256


def test_budget_trip_points_match_the_replaced_front_end():
    assert digest(sweep_transcript()) == SWEEP_SHA256


@pytest.mark.parametrize("source", SWEEP_SCRIPTS)
def test_budget_trip_points_are_prefixes_of_the_full_run(source):
    full, full_log = run_logged(source, 10_000)
    total = int(full.rsplit("#", 1)[1])
    previous: list[str] = []
    for budget in range(total):
        outcome, log = run_logged(source, budget)
        assert outcome == ("ScriptRuntimeError: instruction budget "
                           f"exceeded ({budget}); runaway script aborted")
        assert log == full_log[:len(log)]
        assert len(log) >= len(previous)
        previous = log
    assert run_logged(source, total) == (full, full_log)


def _kinds(node, into: set) -> None:
    if isinstance(node, tuple) and node and isinstance(node[0], str):
        into.add(node[0])
    if isinstance(node, (tuple, list)):
        for child in node:
            _kinds(child, into)


def test_corpus_covers_every_token_and_node_kind():
    token_kinds: set[str] = set()
    puncts: set[str] = set()
    node_kinds: set[str] = set()
    for source in corpus():
        try:
            tokens = tokenize(source)
            _kinds(parse_script(source), node_kinds)
        except Exception:
            continue
        token_kinds.update(t.kind for t in tokens)
        puncts.update(t.value for t in tokens if t.kind == "punct")
    assert token_kinds == {"number", "string", "name", "keyword", "punct",
                           "eof"}
    assert puncts == {
        "===", "!==", "==", "!=", "<=", ">=", "&&", "||", "+=", "-=",
        "*=", "/=", "%=", "++", "--", "+", "-", "*", "/", "%", "<", ">",
        "=", "(", ")", "{", "}", "[", "]", ",", ";", ".", "!", "?", ":",
    }
    assert node_kinds >= {
        "program", "var", "assign", "if", "while", "for", "return",
        "break", "continue", "exprstmt", "block", "funcdecl", "binary",
        "logical", "unary", "call", "member", "index", "name", "num",
        "str", "bool", "null", "array", "object", "func", "cond",
        "postfix",
    }


# -- the walker's fast paths -----------------------------------------------
#
# A second corpus and sweep aim at the interpreter's own shortcuts, a
# float operator that skips the coercions and a function body whose
# top-level ``return`` leaves without unwinding, and at the operands,
# assignment targets and calls around them, literal and not.  Both
# were recorded from the walker that dispatched every node through
# ``_eval``/``_exec``, which let a ``break`` or ``continue`` at a
# function body's top level act on the caller's loop.  The two
# ``FUNCTIONS`` entries in :data:`REPINNED` pinned that; they now fail
# as at top level ("'break' outside a loop", as ECMA-262 makes it a
# syntax error) and were re-pinned.  Without them the transcript is
# the recorded one (:data:`FAST_PATH_UNCHANGED_SHA256`).

#: SHA-256 of :func:`fast_path_transcript`.
FAST_PATH_SHA256 = (
    "45ee51d2f6135ad2b2e4bf23eddba3371f8c99c851e58702b141c07d38c34f0a"
)
#: SHA-256 of :func:`fast_path_transcript` without the REPINNED
#: entries, as recorded from the dispatching walker.
FAST_PATH_UNCHANGED_SHA256 = (
    "7b983860aa0a0d57a52be64c8e4505bb51a02dc50194feaa9f9c1d965de67d93"
)
#: SHA-256 of :func:`fast_path_sweep_transcript`.
FAST_PATH_SWEEP_SHA256 = (
    "cbcb17b5679b788fb29a38cbb3f3d95e127833d0799caa9e284d3b704e130df9"
)

#: Binary operands of every type, bound to names: floats, ``-0``, NaN
#: and ±Infinity (spelled ``+"nan"`` and ``±"inf"``), a host-returned
#: ``int`` and ``bool``, strings, null, an array, an object and (the
#: ``host`` global itself) a host object.
NAMED_OPERANDS = {
    "f": "1.5", "z": "0", "nz": "-0", "nan": '+"nan"', "inf": '+"inf"',
    "ninf": '-"inf"', "hi": "host.int()", "h0": "host.zero()",
    "hb": "host.bool()", "hn": "host.no()", "s": '"2"', "e": '""',
    "n": "null", "arr": "[1, 2]", "o": "{k: 1}",
}
OPERAND_PRELUDE = "var " + ", ".join(
    f"{name} = {value}" for name, value in NAMED_OPERANDS.items()) + ";"
#: The same types written as literals, where the language has one.
LITERAL_OPERANDS = ("2", "0", "1.5", '"2"', '"b"', '""', "true", "false",
                    "null")
OPERANDS = (*NAMED_OPERANDS, "host", *LITERAL_OPERANDS)

#: Assignment targets: declared and undeclared names, dict, host,
#: string and null members, present and missing; in-range,
#: appending, out-of-range and non-finite array indexes, dict keys,
#: and indexes into values that take none.
ASSIGN_TARGETS = ("x", "u", "o.k", "o.missing", "host.p", "host.q",
                  "s.x", "n.x", "u.x", "arr[0]", "arr[2]", "arr[9]",
                  "arr[-1]", "arr[nan]", 'o["k"]', "o[1]", 'o["zz"]',
                  "s[0]", "u[0]", "x.y.z")
ASSIGN_VALUES = ("2", "f", '"v"', "null", "u")
POSTFIX_TARGETS = ("x", "u", "o.k", "o.missing", "host.p", "arr[1]",
                   'o["zz"]', "s[0]")
ASSIGN_PRELUDE = ('var x = 1, f = 1.5, s = "str", n = null, '
                  "arr = [1, 2], o = {k: 1}, nan = +\"nan\";")

#: Calls with literal and non-literal arguments, to host and script
#: functions, with missing and extra arguments, and to callees that
#: cannot be called; an argument that fails is evaluated before the
#: callee that would.
CALLS = (
    'player.log(1, "a", null, true, false, 0)',
    "player.log(f, f + 1, [f], {k: f}, -f, g(f))",
    "player.log()",
    "Math.max(1, f, host.int())",
    'parseInt("42")',
    "host.int() + host.bool()",
    "g(1)", "g(1, 2, 3)", "g()", "g(f, 2)",
    "f(1)", "s()", "n()", "o()", "arr()", "host()", "o.k()",
    "host.p()", "(1)()", '"x"()', "u(1)", "u.x()", "o.missing()",
    "f(u)", "u(v)", "host.boom()", "host.boom(1)", "Math.nope()",
    "(function (p, q) { return p + q; })(1, 2)",
)
CALL_PRELUDE = ('var f = 2.5, s = "s", n = null, arr = [1], o = {k: 1};'
                " function g(a, b) { player.log(a, b); return a; }")

#: Function bodies: hoisted inner functions, a top-level ``return``,
#: ``return`` nested in ``if``/``for``/``while`` and in a bare block, a
#: bare ``return``, no ``return``, dead code after a ``return``, a
#: ``break`` or ``continue`` called from inside the caller's loop,
#: recursion and closures; each is followed by ``call_function``
#: calls on the same interpreter.
FUNCTIONS = (
    ("function f(x) { function g() { return h(x) + 1; } return g();"
     " function h(y) { return y * 2; } }\nvar r = f(3);",
     [("f", (1.0,)), ("f", ("a",))]),
    ("function f(x) { var y = x + 1; return y; player.log(\"dead\"); }\n"
     "var r = f(1);", [("f", (2.0,)), ("f", ())]),
    ("function f(x) { if (x > 1) { return 1; } else if (x < 0) return -1;"
     " return 0; }\nvar r = [f(2), f(-3), f(0)];",
     [("f", (5.0,)), ("f", (-5.0,)), ("f", (None,))]),
    ("function f(n) { for (var i = 0; i < 5; i++) { if (i == n) return i;"
     " } return -1; }\nvar r = [f(2), f(9)];", [("f", (4.0,))]),
    ("function f(n) { var i = 0; while (true) { i++; if (i > n) return i;"
     " } }\nvar r = f(3);", [("f", (0.0,)), ("f", (10.0,))]),
    ("function f() { { { return 7; } } }\nvar r = f();", [("f", ())]),
    ("function f() { player.log(\"a\"); return; player.log(\"b\"); }\n"
     "var r = f();", [("f", ())]),
    ("function f(p) { player.log(p); }\nvar r = f(1);",
     [("f", ("x",)), ("f", ())]),
    ("function f() { }\nvar r = f();", [("f", ())]),
    ("function f() { return; }\nvar r = f();", [("f", ())]),
    ("function f() { break; }\n"
     "for (var i = 0; i < 3; i++) { f(); player.log(i); }\nvar r = i;",
     [("f", ())]),
    ("function f() { continue; }\n"
     "var i = 0; while (i < 3) { i++; f(); player.log(i); }",
     [("f", ())]),
    ("function fact(n) { if (n < 2) return 1; return n * fact(n - 1); }\n"
     "var r = fact(6);", [("fact", (5.0,)), ("fact", (70.0,))]),
    ("function mk() { var c = 0; return function () { c++; return c; }; }"
     "\nvar k = mk(); var r = [k(), k()];", [("k", ()), ("mk", ())]),
    ("function f(a, a) { return a; }\nvar r = [f(1), f(1, 2)];",
     [("f", (3.0, 4.0))]),
    ("var r = 1;\nreturn r;", [("r", ())]),
    ("var r = 1;", [("missing", ()), ("r", ()), ("player", ())]),
    ("function f() { return g(); }\nfunction g() { return u; }\n"
     "var r = 0;", [("f", ())]),
)

#: The FUNCTIONS entries re-pinned since the recording (see above).
REPINNED = (
    "function f() { break; }\n"
    "for (var i = 0; i < 3; i++) { f(); player.log(i); }\nvar r = i;",
    "function f() { continue; }\n"
    "var i = 0; while (i < 3) { i++; f(); player.log(i); }",
)

#: Scripts whose every budget is checked across ``run`` and the
#: ``call_function`` calls that follow it on the same interpreter.
FAST_PATH_SWEEP = (
    ('var f = 1.5, s = "2", n = null, hi = host.int(), hb = host.bool();'
     '\nvar nan = +"nan", inf = +"inf", nz = -0;\n'
     "player.log(f + 1, 1 + f, s + 1, 2 * s, hi - 1, hb * 2, n + 1);\n"
     "player.log(nan <= 1, 1 >= nan, nan < f, inf > f, nz == 0, f / 2,"
     ' 7 % f, s < "3", "a" + null, f === 1.5, hi != 3);\n'
     "var m = Math.max(f, 3, hi); player.log(m, 2, \"x\", null, true);\n",
     []),
    ("var o = {k: 1}, arr = [1, 2, 3], i = 0;\n"
     'o.k += 2; o["k"] *= 3; arr[0] -= 1; arr[i] /= 2; arr[3] = 9;\n'
     'host.p += 1; host.q = "x"; i++; o.k--; arr[1]++;\n'
     "player.log(o.k, arr, host.p, i);\n"
     "for (var j = 0; j < 3; j++) { i += j; arr[j] %= 2; player.log(i); }\n",
     []),
    ("function outer(x) {\n"
     "  function inner(y) { return y * 2; }\n"
     "  var a = inner(x) + later(x);\n"
     "  function later(z) { if (z > 2) { return z; } return -z; }\n"
     "  if (a > 10) return a;\n"
     "  for (var k = 0; k < 3; k++) { if (k == x) return k; }\n"
     "  while (a < 100) { a = a * 3; if (a > 50) return a; }\n"
     "  return;\n"
     "}\n"
     'function bare() { player.log("bare"); return; }\n'
     'function none(p) { player.log("none", p); }\n'
     "var r1 = outer(1), r2 = outer(5), r3 = bare(), r4 = none(7);\n"
     "player.log(r1, r2, r3, r4);\n",
     [("outer", (2.0,)), ("none", ("x",)), ("bare", ()),
      ("outer", (3.0,))]),
)


def session(log: list[str], budget: int) -> Interpreter:
    """An interpreter with a logging ``player`` and a ``host`` whose
    methods return Python ``int`` and ``bool`` values."""
    player = HostObject("player", methods={
        "log": lambda *args: log.append(",".join(render(a) for a in args)),
    })
    host = HostObject("host", methods={
        "int": lambda: 3, "zero": lambda: 0, "bool": lambda: True,
        "no": lambda: False, "boom": lambda *args: {}["boom"],
    }, properties={"p": 1.0})
    return Interpreter({"player": player, "host": host},
                       max_instructions=budget)


def run_session(source: str, calls, budget: int
                ) -> tuple[bool, str, list[str]]:
    """Run *source*, then each ``call_function`` of *calls*, on one
    interpreter; return whether all succeeded, the outcome of each
    step up to the first failure, and the host-call log."""
    log: list[str] = []
    interpreter = session(log, budget)
    steps = []
    try:
        result = interpreter.run(source)
        steps.append(f"{render(result.globals)} #{result.instructions}")
        for name, args in calls:
            steps.append(render(interpreter.call_function(name, *args)))
    except Exception as exc:
        steps.append(describe(exc))
        ok = False
    else:
        ok = True
    host = interpreter.globals.values["host"]
    steps.append(render(host.properties))
    return ok, " | ".join(steps), log


def binary_transcript() -> list[str]:
    """Every binary operator over every pair of operand forms, each
    expression run alone on an interpreter that holds the operands."""
    parts = []
    for op in BINARY:
        log: list[str] = []
        interpreter = session(log, BUDGET)
        interpreter.run(OPERAND_PRELUDE)
        for left in OPERANDS:
            for right in OPERANDS:
                source = f"var r = {left} {op} {right};"
                try:
                    result = interpreter.run(source)
                    outcome = (f"{render(result.globals['r'])}"
                               f" #{result.instructions}")
                except Exception as exc:
                    outcome = describe(exc)
                parts += [source, outcome]
        parts.append(repr(log))
    return parts


def fast_path_transcript(functions=FUNCTIONS) -> list[str]:
    parts = binary_transcript()
    cases = []
    for target in ASSIGN_TARGETS:
        for op in ASSIGN:
            for value in ASSIGN_VALUES:
                cases.append(f"{ASSIGN_PRELUDE}\n{target} {op} {value};")
        cases.append(f"{ASSIGN_PRELUDE}\nx = {target} = 5;")
    for target in POSTFIX_TARGETS:
        for op in ("++", "--"):
            cases.append(f"{ASSIGN_PRELUDE}\nvar r = {target}{op};")
    cases += [f"{CALL_PRELUDE}\nvar r = {call};" for call in CALLS]
    for source in cases:
        parts += [source, *map(str, run_session(source, [], BUDGET))]
    for source, calls in functions:
        parts += [source, repr(calls),
                  *map(str, run_session(source, calls, BUDGET))]
    return parts


def fast_path_sweep_transcript() -> list[str]:
    """Each sweep script at every budget from 0 to one past the
    smallest that runs it and all its calls to the end."""
    parts = []
    for source, calls in FAST_PATH_SWEEP:
        for budget in range(10_000):
            ok, outcome, log = run_session(source, calls, budget)
            parts += [str(budget), outcome, repr(log)]
            if ok:
                break
        assert ok, outcome
        parts += [*map(str, run_session(source, calls, budget + 1))]
    return parts


def test_fast_path_corpus_matches_the_dispatching_walker():
    assert digest(fast_path_transcript()) == FAST_PATH_SHA256


def test_only_the_repinned_entries_changed():
    kept = [entry for entry in FUNCTIONS if entry[0] not in REPINNED]
    assert len(kept) == len(FUNCTIONS) - len(REPINNED)
    assert digest(fast_path_transcript(kept)) == FAST_PATH_UNCHANGED_SHA256


@pytest.mark.parametrize("source", REPINNED)
def test_break_and_continue_do_not_leave_a_function(source):
    statement = "break" if "break;" in source else "continue"
    assert run_session(source, [], BUDGET) == (
        False,
        f"ScriptRuntimeError: '{statement}' outside a loop | {{'p':1.0}}",
        [],
    )
    # The same from a host call, and inside a loop of the function's
    # own it still leaves only that loop.
    log: list[str] = []
    interpreter = session(log, BUDGET)
    interpreter.run(f"function g() {{ {statement}; }}\n"
                    "function h() { for (var i = 0; i < 3; i++) {"
                    f" if (i == 1) {statement}; player.log(i); }}"
                    " return 7; }")
    with pytest.raises(ScriptRuntimeError,
                       match=f"'{statement}' outside a loop"):
        interpreter.call_function("g")
    assert interpreter.call_function("h") == 7.0


def test_fast_path_budgets_match_the_dispatching_walker():
    assert digest(fast_path_sweep_transcript()) == FAST_PATH_SWEEP_SHA256
