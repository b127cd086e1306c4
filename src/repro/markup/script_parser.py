"""Table-driven parser for the ECMAScript subset.

Produces a small AST of tuples ``(node_kind, ...)`` — compact, easy to
walk, trivially hashable for tests.

The parser reads the scanner's plain token arrays (tags, values,
lines; see :func:`repro.markup.script_lexer.scan`).  A statement
dispatches on its first tag through one table; a binary expression is
parsed by precedence climbing over one precedence table (DESIGN §3.1).
Nesting is bounded by :data:`MAX_DEPTH`, so a hostile script fails
with a :class:`ScriptSyntaxError` instead of exhausting the stack of
the parser or, later, of the interpreter.
"""

from __future__ import annotations

from repro.errors import ScriptSyntaxError
from repro.markup.script_lexer import KEYWORDS, scan

# AST node kinds (first tuple element):
#   program(stmts) var(name, expr|None) assign(target, op, expr)
#   if(cond, then, else|None) while(cond, body) for(init, cond, step, body)
#   return(expr|None) break() continue() exprstmt(expr) block(stmts)
#   funcdecl(name, params, body)
#   binary(op, l, r) logical(op, l, r) unary(op, x) call(callee, args)
#   member(obj, name) index(obj, expr) name(n) num(v) str(v) bool(v)
#   null() array(items) object(pairs) func(params, body) cond(c, a, b)
#   postfix(op, target)

#: Deepest nesting a script may use.  Each nested statement or
#: expression is one level, and so is each operator, call, member or
#: index suffix and prefix operator chained inside one expression, as
#: each adds one level to the AST the interpreter walks recursively.
MAX_DEPTH = 100

#: Binary operators: precedence (higher binds tighter) and node kind.
#: All are left-associative.
_BINARY = {
    "||": (1, "logical"),
    "&&": (2, "logical"),
    "===": (3, "binary"), "!==": (3, "binary"),
    "==": (3, "binary"), "!=": (3, "binary"),
    "<=": (4, "binary"), ">=": (4, "binary"),
    "<": (4, "binary"), ">": (4, "binary"),
    "+": (5, "binary"), "-": (5, "binary"),
    "*": (6, "binary"), "/": (6, "binary"), "%": (6, "binary"),
}
_PREFIX = frozenset(("!", "-", "+", "typeof"))
_ASSIGN_OPS = frozenset(("=", "+=", "-=", "*=", "/=", "%="))
_TARGETS = frozenset(("name", "member", "index"))
#: Tokens that end an expression which is a lone name, number or string.
_LEAF_ENDS = frozenset((",", ")", ";", "]"))


class Parser:
    def __init__(self, source: str):
        self._tags, self._values, self._lines = scan(source)
        self._pos = 0
        self._depth = 0

    # -- token helpers -------------------------------------------------------------

    def _found(self, pos: int) -> str:
        return repr(self._values[pos] or self._tags[pos])

    def _expect(self, tag: str) -> str:
        """Consume a token tagged *tag* and return its value."""
        pos = self._pos
        if self._tags[pos] != tag:
            raise ScriptSyntaxError(
                f"expected {tag} but found {self._found(pos)} "
                f"at line {self._lines[pos]}"
            )
        self._pos = pos + 1
        return self._values[pos]

    def _accept(self, tag: str) -> None:
        if self._tags[self._pos] == tag:
            self._pos += 1

    def _nest(self) -> int:
        """Enter one more level of nesting; return the old depth."""
        depth = self._depth
        if depth >= MAX_DEPTH:
            raise ScriptSyntaxError(
                f"nesting deeper than {MAX_DEPTH} levels "
                f"at line {self._lines[self._pos]}"
            )
        self._depth = depth + 1
        return depth

    # -- entry -----------------------------------------------------------------------

    def parse_program(self) -> tuple:
        statements = []
        tags = self._tags
        while tags[self._pos] != "eof":
            statements.append(self._statement())
        return ("program", statements)

    # -- statements ---------------------------------------------------------------------

    def _statement(self) -> tuple:
        depth = self._nest()
        handler = _STATEMENTS.get(self._tags[self._pos])
        if handler is None:
            statement = ("exprstmt", self._expression(assign=True))
            self._accept(";")
        else:
            self._pos += 1  # the keyword or punctuator that chose it
            statement = handler(self)
        self._depth = depth
        return statement

    def _empty(self) -> tuple:
        return ("block", [])

    def _block(self) -> tuple:
        self._expect("{")
        return self._block_rest()

    def _block_rest(self) -> tuple:
        tags = self._tags
        statements = []
        while True:
            tag = tags[self._pos]
            if tag == "}":
                self._pos += 1
                return ("block", statements)
            if tag == "eof":
                raise ScriptSyntaxError("unterminated block")
            statements.append(self._statement())

    def _var(self) -> tuple:
        tags = self._tags
        declarations = []
        while True:
            name = self._expect("name")
            initializer = None
            if tags[self._pos] == "=":
                self._pos += 1
                initializer = self._expression()
            declarations.append(("var", name, initializer))
            if tags[self._pos] != ",":
                break
            self._pos += 1
        self._accept(";")
        if len(declarations) == 1:
            return declarations[0]
        return ("block", declarations)

    def _function_declaration(self) -> tuple:
        name = self._expect("name")
        params, body = self._function_rest()
        return ("funcdecl", name, params, body)

    def _if(self) -> tuple:
        condition = self._condition()
        then = self._statement()
        otherwise = None
        if self._tags[self._pos] == "else":
            self._pos += 1
            otherwise = self._statement()
        return ("if", condition, then, otherwise)

    def _while(self) -> tuple:
        condition = self._condition()
        return ("while", condition, self._statement())

    def _condition(self) -> tuple:
        self._expect("(")
        condition = self._expression()
        self._expect(")")
        return condition

    def _for(self) -> tuple:
        self._expect("(")
        tags = self._tags
        init = None
        tag = tags[self._pos]
        if tag == ";":
            self._pos += 1
        elif tag == "var":
            self._pos += 1
            init = self._var()  # consumes the ';'
        else:
            init = ("exprstmt", self._expression(assign=True))
            self._accept(";")
        condition = None
        if tags[self._pos] != ";":
            condition = self._expression()
        self._expect(";")
        step = None
        if tags[self._pos] != ")":
            step = ("exprstmt", self._expression(assign=True))
        self._expect(")")
        return ("for", init, condition, step, self._statement())

    def _return(self) -> tuple:
        value = None
        if self._tags[self._pos] not in (";", "}"):
            value = self._expression()
        self._accept(";")
        return ("return", value)

    def _jump(self) -> tuple:
        kind = self._tags[self._pos - 1]
        self._accept(";")
        return (kind,)

    def _function_rest(self) -> tuple[list[str], tuple]:
        self._expect("(")
        tags = self._tags
        params: list[str] = []
        if tags[self._pos] != ")":
            while True:
                params.append(self._expect("name"))
                if tags[self._pos] != ",":
                    break
                self._pos += 1
        self._expect(")")
        return params, self._block()

    # -- expressions -------------------------------------------------------------------

    def _expression(self, assign: bool = False) -> tuple:
        """A conditional expression; with *assign*, also a chain of
        assignments (``a = b += c``), which associates to the right.

        A lone name, number or string that a ``,`` ``)`` ``;`` or ``]``
        ends (an argument, a subscript, a returned or initial value) is
        returned as its leaf at once, wherever :meth:`_nest` would let
        the expression in."""
        tags = self._tags
        pos = self._pos
        tag = tags[pos]
        if (tag == "name" or tag == "number" or tag == "string") \
                and tags[pos + 1] in _LEAF_ENDS and self._depth < MAX_DEPTH:
            self._pos = pos + 1
            if tag == "name":
                return ("name", self._values[pos])
            if tag == "number":
                return ("num", float(self._values[pos]))
            return ("str", self._values[pos])
        depth = self._nest()
        expr = self._binary()
        if tags[self._pos] == "?":
            self._pos += 1
            then = self._expression()
            self._expect(":")
            expr = ("cond", expr, then, self._expression())
        if assign:
            chain = []
            while tags[self._pos] in _ASSIGN_OPS:
                if expr[0] not in _TARGETS:
                    raise ScriptSyntaxError(
                        "invalid assignment target "
                        f"at line {self._lines[self._pos]}"
                    )
                chain.append((expr, tags[self._pos]))
                self._pos += 1
                self._nest()
                expr = self._expression()
            for target, op in reversed(chain):
                expr = ("assign", target, op, expr)
        self._depth = depth
        return expr

    def _binary(self) -> tuple:
        """Operands joined by binary operators, by precedence climbing
        over :data:`_BINARY` with explicit operand and operator stacks."""
        tags = self._tags
        left = self._unary()
        entry = _BINARY.get(tags[self._pos])
        if entry is None:
            return left
        operands = [left]
        operators: list[tuple[int, str, str]] = []
        depth = self._depth
        while True:
            # Fold every pending operator that binds at least as tightly
            # as the next one; the end of the expression binds loosest.
            precedence = 0 if entry is None else entry[0]
            while operators and operators[-1][0] >= precedence:
                _, kind, op = operators.pop()
                right = operands.pop()
                operands[-1] = (kind, op, operands[-1], right)
            if entry is None:
                self._depth = depth
                return operands[0]
            operators.append((precedence, entry[1], tags[self._pos]))
            self._pos += 1
            self._nest()
            operands.append(self._unary())
            entry = _BINARY.get(tags[self._pos])

    def _unary(self) -> tuple:
        """Prefix operators applied to a postfix expression: a primary,
        its member, index and call suffixes and one ``++``/``--``."""
        tags = self._tags
        depth = self._depth
        prefixes = []
        while tags[self._pos] in _PREFIX:
            prefixes.append(tags[self._pos])
            self._pos += 1
            self._nest()
        expr = self._primary()
        while True:
            tag = tags[self._pos]
            if tag == "(":
                self._pos += 1
                self._nest()
                expr = ("call", expr, self._list(")"))
            elif tag == ".":
                self._pos += 1
                self._nest()
                expr = ("member", expr, self._expect("name"))
            elif tag == "[":
                self._pos += 1
                self._nest()
                index = self._expression()
                self._expect("]")
                expr = ("index", expr, index)
            else:
                break
        if tag == "++" or tag == "--":
            if expr[0] not in _TARGETS:
                raise ScriptSyntaxError(
                    "invalid increment target "
                    f"at line {self._lines[self._pos]}"
                )
            self._pos += 1
            expr = ("postfix", tag, expr)
        for op in reversed(prefixes):
            expr = ("unary", op, expr)
        self._depth = depth
        return expr

    def _list(self, close: str) -> list:
        """Comma-separated expressions up to *close* (already past the
        opening bracket)."""
        items = []
        tags = self._tags
        if tags[self._pos] != close:
            while True:
                items.append(self._expression())
                if tags[self._pos] != ",":
                    break
                self._pos += 1
        self._expect(close)
        return items

    def _primary(self) -> tuple:
        pos = self._pos
        tag = self._tags[pos]
        if tag == "name":
            self._pos = pos + 1
            return ("name", self._values[pos])
        if tag == "number":
            self._pos = pos + 1
            return ("num", float(self._values[pos]))
        if tag == "string":
            self._pos = pos + 1
            return ("str", self._values[pos])
        if tag == "(":
            self._pos = pos + 1
            expr = self._expression(assign=True)
            self._expect(")")
            return expr
        if tag == "true" or tag == "false":
            self._pos = pos + 1
            return ("bool", tag == "true")
        if tag == "null":
            self._pos = pos + 1
            return ("null",)
        if tag == "function":
            self._pos = pos + 1
            params, body = self._function_rest()
            return ("func", params, body)
        if tag == "[":
            self._pos = pos + 1
            return ("array", self._list("]"))
        if tag == "{":
            self._pos = pos + 1
            return ("object", self._object())
        raise ScriptSyntaxError(
            f"unexpected token {self._found(pos)} at line {self._lines[pos]}"
        )

    def _object(self) -> list:
        tags = self._tags
        pairs = []
        if tags[self._pos] != "}":
            while True:
                pos = self._pos
                self._pos = pos + 1
                tag = tags[pos]
                if tag != "name" and tag != "string" and tag not in KEYWORDS:
                    raise ScriptSyntaxError(
                        f"bad object key at line {self._lines[pos]}"
                    )
                self._expect(":")
                pairs.append((self._values[pos], self._expression()))
                if tags[self._pos] != ",":
                    break
                self._pos += 1
        self._expect("}")
        return pairs


#: Statement parsers by the tag of the statement's first token; any
#: other token starts an expression statement.
_STATEMENTS = {
    ";": Parser._empty,
    "{": Parser._block_rest,
    "var": Parser._var,
    "function": Parser._function_declaration,
    "if": Parser._if,
    "while": Parser._while,
    "for": Parser._for,
    "return": Parser._return,
    "break": Parser._jump,
    "continue": Parser._jump,
}


def parse_script(source: str) -> tuple:
    """Parse *source* into a program AST."""
    return Parser(source).parse_program()
