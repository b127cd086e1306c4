"""ECMAScript-subset lexer, parser and interpreter."""

import pytest

from repro.errors import ScriptRuntimeError, ScriptSyntaxError
from repro.markup import (
    HostObject, Interpreter, Token, run_script, tokenize,
)
from repro.markup.script_interp import MAX_CALL_DEPTH
from repro.markup.script_parser import MAX_DEPTH, parse_script


# -- lexer -------------------------------------------------------------------

def test_tokenize_basics():
    tokens = tokenize('var x = 1.5; // comment\ns = "hi\\n";')
    kinds = [(t.kind, t.value) for t in tokens if t.kind != "eof"]
    assert ("keyword", "var") in kinds
    assert ("number", "1.5") in kinds
    assert ("string", "hi\n") in kinds


def test_tokenize_errors():
    with pytest.raises(ScriptSyntaxError):
        tokenize('var s = "unterminated')
    with pytest.raises(ScriptSyntaxError):
        tokenize("/* unterminated")
    with pytest.raises(ScriptSyntaxError):
        tokenize("var x = #;")


def test_numbers_are_decimal_digits_only():
    # Unicode decimal digits are numbers; other digits are not.
    assert tokenize("\u0663")[0] == Token("number", "\u0663", 1)
    assert run_script("var x = \u0663 + 1;").globals["x"] == 4.0
    for source in ("var x = \u00b2;", "var x = 1\u00b2;",
                   "var x = .\u00b2;", "var x = \u2460;"):
        with pytest.raises(ScriptSyntaxError,
                           match="unexpected character .* at line 1"):
            run_script(source)


def test_block_comments_and_lines():
    tokens = tokenize("a /* multi\nline */ b")
    names = [t.value for t in tokens if t.kind == "name"]
    assert names == ["a", "b"]
    assert tokens[1].line == 2  # b is on line 2


# -- parser --------------------------------------------------------------------

def test_parse_errors_report_line():
    with pytest.raises(ScriptSyntaxError, match="line"):
        parse_script("var x = ;\n")
    with pytest.raises(ScriptSyntaxError):
        parse_script("if (x {")
    with pytest.raises(ScriptSyntaxError):
        parse_script("1 = 2;")
    with pytest.raises(ScriptSyntaxError):
        parse_script("function () {}")  # declarations need names


@pytest.mark.parametrize("source", [
    "var x = " + "(" * 3000 + "1" + ")" * 3000 + ";",
    "{" * 3000 + "}" * 3000,
    "var x = " + " + ".join(["1"] * 5000) + ";",
    "var x = " + "!" * 3000 + "true;",
    "var x = a" + ".b" * 3000 + ";",
    "x" + " = x" * 3000 + ";",
    "var x = " + "a ? b : " * 3000 + "c;",
    "if (a) x; " + "else if (a) x; " * 3000,
])
def test_nesting_is_bounded(source):
    with pytest.raises(ScriptSyntaxError,
                       match=f"nesting deeper than {MAX_DEPTH} levels"):
        run_script(source)


def test_nesting_up_to_the_bound_parses_and_runs():
    depth = MAX_DEPTH // 4
    result = run_script("var x = " + "(" * depth + "1" + ")" * depth
                        + " + " + " + ".join(["1"] * depth) + ";")
    assert result.globals["x"] == depth + 1.0


def test_operator_precedence():
    result = run_script("var r = 1 + 2 * 3 - 4 / 2;")
    assert result.globals["r"] == 5.0
    result = run_script("var r = (1 + 2) * 3;")
    assert result.globals["r"] == 9.0
    result = run_script("var r = 1 < 2 && 3 > 2 || false;")
    assert result.globals["r"] is True


# -- interpreter -----------------------------------------------------------------

def test_arithmetic_and_strings():
    g = run_script("""
        var a = 7 % 3;
        var b = "n=" + 42;
        var c = "x" + true;
        var d = -5 + +3;
    """).globals
    assert g["a"] == 1.0
    assert g["b"] == "n=42"
    assert g["c"] == "xtrue"
    assert g["d"] == -2.0


def test_control_flow():
    g = run_script("""
        var r = "";
        for (var i = 0; i < 5; i++) {
            if (i == 2) continue;
            if (i == 4) break;
            r = r + i;
        }
        var w = 0;
        while (w < 10) { w += 3; }
    """).globals
    assert g["r"] == "013"
    assert g["w"] == 12.0


def test_functions_recursion_closures():
    g = run_script("""
        function fib(n) { if (n < 2) return n; return fib(n-1)+fib(n-2); }
        var f10 = fib(10);
        function make(start) {
            return function(step) { start += step; return start; };
        }
        var acc = make(100);
        acc(5);
        var v = acc(10);
    """).globals
    assert g["f10"] == 55.0
    assert g["v"] == 115.0


def test_arrays_and_objects():
    g = run_script("""
        var a = [10, 20, 30];
        a.push(40);
        a[0] = a[1] + a.length;
        var o = {name: "disc", "count": 2};
        o.count++;
        var keyed = o["name"];
    """).globals
    assert g["a"] == [24.0, 20.0, 30.0, 40.0]
    assert g["o"]["count"] == 3.0
    assert g["keyed"] == "disc"


def test_ternary_and_typeof():
    g = run_script("""
        var t = typeof 3 == "number" ? "yes" : "no";
        var u = typeof "s";
        var v = typeof null;
        var w = typeof f;
        function f() {}
    """).globals
    assert g["t"] == "yes"
    assert g["u"] == "string"
    assert g["v"] == "object"
    assert g["w"] == "function"


def test_runtime_errors():
    with pytest.raises(ScriptRuntimeError, match="not defined"):
        run_script("missing = 1;")
    with pytest.raises(ScriptRuntimeError, match="division by zero"):
        run_script("var x = 1 / 0;")
    with pytest.raises(ScriptRuntimeError, match="not callable"):
        run_script("var x = 5; x();")
    with pytest.raises(ScriptRuntimeError):
        run_script("var o = null; o.member;")


def test_instruction_budget_stops_runaway():
    from repro.threat import RUNAWAY_SCRIPT
    with pytest.raises(ScriptRuntimeError, match="budget"):
        run_script(RUNAWAY_SCRIPT, max_instructions=5_000)


def test_call_depth_is_bounded():
    with pytest.raises(ScriptRuntimeError, match="call depth exceeded"):
        run_script("function f(n) { return f(n + 1); } f(0);")
    result = run_script(
        "function down(n) { if (n == 0) return 0; return 1 + down(n - 1); }"
        f" var d = down({MAX_CALL_DEPTH - 1});")
    assert result.globals["d"] == MAX_CALL_DEPTH - 1
    with pytest.raises(ScriptRuntimeError, match="call depth exceeded"):
        run_script(
            "function down(n) { if (n == 0) return 0;"
            f" return 1 + down(n - 1); }} var d = down({MAX_CALL_DEPTH});")


def test_call_depth_is_released_after_an_error():
    interp = Interpreter()
    with pytest.raises(ScriptRuntimeError, match="call depth"):
        interp.run("function f(n) { return f(n + 1); } f(0);")
    assert interp.run("function g() { return 1; } var r = g();") \
        .globals["r"] == 1.0


def test_deep_nesting_times_deep_recursion_fails_typed():
    body = "{ " * 60 + "r = f(n - 1);" + " }" * 60
    with pytest.raises(ScriptRuntimeError,
                       match="exceeds the interpreter's stack") as excinfo:
        run_script("var r = 0; function f(n) {"
                   f" if (n > 0) {body} return 0; }}"
                   f" f({MAX_CALL_DEPTH - 1});")
    assert excinfo.value.__cause__ is None


@pytest.mark.parametrize("source,message", [
    ("return 1;", "'return' outside a function"),
    ("break;", "'break' outside a loop"),
    ("continue;", "'continue' outside a loop"),
    ("function f() { break; } f();", "'break' outside a loop"),
])
def test_control_flow_with_nothing_to_leave_fails_typed(source, message):
    with pytest.raises(ScriptRuntimeError, match=message):
        run_script(source)


def test_non_finite_index_fails_typed():
    huge = "1" + "0" * 400
    for source in (f"var a = [1]; var x = a[{huge}];",
                   f"var a = [1]; var x = a[{huge} - {huge}];",
                   f"var a = [1]; a[{huge}] = 2;",
                   f"var x = 'abc'[{huge}];"):
        with pytest.raises(ScriptRuntimeError, match="not a finite number"):
            run_script(source)


def test_budget_counts_across_scripts():
    interp = Interpreter(max_instructions=100)
    interp.run("var a = 1;")
    with pytest.raises(ScriptRuntimeError):
        interp.run("for (var i = 0; i < 1000; i++) { a += 1; }")


def test_host_object_interaction():
    calls = []
    host = HostObject("sys", methods={
        "ping": lambda: calls.append("ping") or "pong",
        "add": lambda a, b: a + b,
    }, properties={"version": 2.0})
    g = run_script("""
        var p = sys.ping();
        var s = sys.add(1, 2) + sys.version;
        sys.flag = true;
    """, {"sys": host}).globals
    assert g["p"] == "pong"
    assert g["s"] == 5.0
    assert host.properties["flag"] is True
    assert calls == ["ping"]


def test_host_object_unknown_member():
    host = HostObject("sys")
    with pytest.raises(ScriptRuntimeError, match="no member"):
        run_script("sys.nothing();", {"sys": host})


def test_host_exception_wrapped():
    def boom():
        raise RuntimeError("backend failure")
    host = HostObject("sys", methods={"boom": boom})
    with pytest.raises(ScriptRuntimeError, match="host call failed"):
        run_script("sys.boom();", {"sys": host})


def test_call_function_from_host():
    interp = Interpreter()
    interp.run("""
        var total = 0;
        function onEvent(amount) { total += amount; return total; }
    """)
    assert interp.call_function("onEvent", 10.0) == 10.0
    assert interp.call_function("onEvent", 5.0) == 15.0


def test_host_globals_excluded_from_result():
    host = HostObject("sys")
    result = run_script("var x = 1;", {"sys": host})
    assert "sys" not in result.globals
    assert result.globals == {"x": 1.0}


def test_stdlib_math():
    g = run_script("""
        var a = Math.floor(3.7);
        var b = Math.max(1, 9, 4);
        var c = Math.abs(0 - 5);
        var d = Math.round(2.5);
        var e = Math.sqrt(49);
        var p = Math.PI > 3.14 && Math.PI < 3.15;
        var r1 = Math.random();
        var r2 = Math.random();
        var inRange = r1 >= 0 && r1 < 1 && r2 >= 0 && r2 < 1;
    """).globals
    assert g["a"] == 3.0
    assert g["b"] == 9.0
    assert g["c"] == 5.0
    assert g["d"] == 3.0
    assert g["e"] == 7.0
    assert g["p"] is True
    assert g["inRange"] is True


def test_stdlib_math_random_deterministic():
    first = run_script("var r = Math.random();").globals["r"]
    second = run_script("var r = Math.random();").globals["r"]
    assert first == second  # seeded per interpreter: replayable


def test_stdlib_string():
    g = run_script("""
        var s = "Disc Player";
        var up = String.toUpperCase(s);
        var part = String.substring(s, 5, 11);
        var at = String.charAt(s, 0);
        var idx = String.indexOf(s, "Play");
        var parts = String.split("a,b,c", ",");
        var n = String.length(s);
        var rep = String.replace(s, "Disc", "BD");
    """).globals
    assert g["up"] == "DISC PLAYER"
    assert g["part"] == "Player"
    assert g["at"] == "D"
    assert g["idx"] == 5.0
    assert g["parts"] == ["a", "b", "c"]
    assert g["n"] == 11.0
    assert g["rep"] == "BD Player"


def test_stdlib_parse_functions():
    g = run_script("""
        var i = parseInt("42abc");
        var h = parseInt("ff", 16);
        var neg = parseInt("-7");
        var f = parseFloat("3.5km");
    """).globals
    assert g["i"] == 42.0
    assert g["h"] == 255.0
    assert g["neg"] == -7.0
    assert g["f"] == 3.5


def test_parse_int_no_digits():
    with pytest.raises(ScriptRuntimeError):
        run_script('parseInt("xyz");')


def test_stdlib_can_be_disabled():
    interp = Interpreter(include_stdlib=False)
    with pytest.raises(ScriptRuntimeError, match="not defined"):
        interp.run("Math.floor(1.5);")


def test_stdlib_not_leaked_into_globals():
    result = run_script("var x = 1;")
    assert "Math" not in result.globals
    assert "parseInt" not in result.globals
