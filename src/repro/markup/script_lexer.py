"""Lexer for the ECMAScript subset used in manifest Code parts.

The paper's prototype scripts applications in ECMAScript (§8.1); this
lexer/parser/interpreter triple implements the practical core of
ECMA-262 third edition that disc applications need: variables,
functions, control flow, arithmetic/logic, strings, arrays and host
object calls.

One compiled scanner regex reads the source in a single pass
(DESIGN §3.1).  Only string escapes and block comments leave the fast
path; an input the regex cannot tokenize ends in a catch-all
alternative that names the first character it could not read.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.errors import ScriptSyntaxError

KEYWORDS = {
    "var", "function", "return", "if", "else", "while", "for", "break",
    "continue", "true", "false", "null", "new", "typeof",
}

_ESCAPES = {
    "n": "\n", "t": "\t", "r": "\r", "\\": "\\", "'": "'", '"': '"',
    "0": "\0",
}

# One alternative per token class; blanks and line comments capture
# nothing, so their match has no ``lastgroup``.  Numbers are decimal
# digits only (``\d`` is ``str.isdecimal``), so every number token is
# one ``float()`` accepts.  A word is ``[\w$]`` characters (``\w`` is
# ``str.isalnum`` or ``_``) that do not start with a digit; one that
# starts with a non-ASCII character must start with a letter, which
# the scanner checks outside the regex.  A ``/`` followed by ``*`` is
# a comment or, unterminated, an error; a ``.`` followed by a digit
# starts a number.
_SCANNER = re.compile(r"""
    [ \t\r]+
  | //[^\n]*
  | (?P<comment>/\*[\s\S]*?\*/)
  | (?P<punct>===|!==|==|!=|<=|>=|&&|\|\||\+=|-=|\*=|/=|%=|\+\+|--
             |[-+*%<>=(){}\[\],;!?:]|/(?!\*)|\.(?!\d))
  | (?P<word>[A-Za-z_$][\w$]*)
  | (?P<newline>\n)
  | (?P<number>\d+(?:\.\d*)?|\.\d+)
  | (?P<string>"[^"\\\n]*(?:\\[\s\S][^"\\\n]*)*"
              |'[^'\\\n]*(?:\\[\s\S][^'\\\n]*)*')
  | (?P<uword>[^\W\d][\w$]*)
  | (?P<bad>/\*|[\s\S])
""", re.VERBOSE)

_ESCAPE = re.compile(r"\\([\s\S])")

#: Token kinds whose tag is the kind itself; any other tag is a
#: keyword or a punctuator, and is the token's value.
_KIND_TAGS = frozenset(("name", "number", "string", "eof"))


@dataclass(frozen=True)
class Token:
    kind: str          # "number" | "string" | "name" | "keyword" | "punct" | "eof"
    value: str
    line: int


def _unescape(match: re.Match) -> str:
    return _ESCAPES.get(match[1], match[1])


def _string_error(source: str, pos: int, line: int) -> ScriptSyntaxError:
    """The error for the string opening at *pos*, which the scanner
    could not close."""
    pos += 1
    while pos < len(source):
        char = source[pos]
        if char == "\n":
            return ScriptSyntaxError(f"newline in string at line {line}")
        if char == "\\":
            if pos + 1 >= len(source):
                return ScriptSyntaxError(f"bad escape at line {line}")
            pos += 1
        pos += 1
    return ScriptSyntaxError(f"unterminated string at line {line}")


def scan(source: str) -> tuple[list[str], list[str], list[int]]:
    """Tokenize *source* into three parallel arrays: tags, values and
    lines.

    A token's tag is its kind for names, numbers, strings and the final
    ``eof``, and its text for keywords and punctuators, so the parser
    dispatches on one string.  Raises :class:`ScriptSyntaxError` with
    the line of the first character that is not a token.
    """
    tags: list[str] = []
    values: list[str] = []
    lines: list[int] = []
    line = 1
    for match in _SCANNER.finditer(source):
        group = match.lastgroup
        if group is None:
            continue
        text = match.group()
        if group == "punct":
            tag = text
        elif group == "word":
            tag = text if text in KEYWORDS else "name"
        elif group == "newline":
            line += 1
            continue
        elif group == "number":
            tag = "number"
        elif group == "string":
            tag = "string"
            text = text[1:-1]
            if "\\" in text:
                text = _ESCAPE.sub(_unescape, text)
        elif group == "comment":
            line += text.count("\n")
            continue
        elif group == "uword" and text[0].isalpha():
            tag = "name"
        elif text == "/*":
            raise ScriptSyntaxError(f"unterminated comment at line {line}")
        elif text in "'\"":
            raise _string_error(source, match.start(), line)
        else:
            raise ScriptSyntaxError(
                f"unexpected character {text[0]!r} at line {line}"
            )
        tags.append(tag)
        values.append(text)
        lines.append(line)
    tags.append("eof")
    values.append("")
    lines.append(line)
    return tags, values, lines


def tokenize(source: str) -> list[Token]:
    """Tokenize *source*, raising :class:`ScriptSyntaxError` with line info."""
    tags, values, lines = scan(source)
    return [
        Token(tag if tag in _KIND_TAGS
              else "keyword" if tag in KEYWORDS else "punct", value, line)
        for tag, value, line in zip(tags, values, lines)
    ]
