"""Lexer for the ECMAScript subset used in manifest Code parts.

The paper's prototype scripts applications in ECMAScript (§8.1); this
lexer/parser/interpreter triple implements the practical core of
ECMA-262 third edition that disc applications need: variables,
functions, control flow, arithmetic/logic, strings, arrays and host
object calls.

One compiled scanner regex reads the source in a single pass
(DESIGN §3.1): ``findall`` hands back each token's text as a plain
string, and the token's first character tags it.  Only string escapes
and block comments leave the fast path; an input the regex cannot
tokenize ends in a catch-all alternative that names the first
character it could not read.
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

# Blanks and line comments match outside the one capturing group, so
# ``findall`` gives them as empty strings; the blanks after a token are
# consumed with it.  Every other alternative is a token, read whole:
# a block comment, a punctuator, a word, a newline, a number, a string,
# a word that starts with a non-ASCII character, or the catch-all.
# Numbers are decimal digits only (``\d`` is ``str.isdecimal``), so
# every number token is one ``float()`` accepts.  A word is ``[\w$]``
# characters (``\w`` is ``str.isalnum`` or ``_``) that do not start with
# a digit; one that starts with a non-ASCII character must start with a
# letter, which the scanner checks outside the regex.  A ``/`` followed
# by ``*`` is a comment or, unterminated, an error; a ``.`` followed by
# a digit starts a number.
_SCANNER = re.compile(r"""
    [ \t\r]+
  | //[^\n]*
  | ( /\*[\s\S]*?\*/
    | ===|!==|==|!=|<=|>=|&&|\|\||\+=|-=|\*=|/=|%=|\+\+|--
    | [-+*%<>=(){}\[\],;!?:]|/(?!\*)|\.(?!\d)
    | [A-Za-z_$][\w$]*
    | \n
    | \d+(?:\.\d*)?|\.\d+
    | "[^"\\\n]*(?:\\[\s\S][^"\\\n]*)*"
    | '[^'\\\n]*(?:\\[\s\S][^'\\\n]*)*'
    | [^\W\d][\w$]*
    | /\*|[\s\S]
    )[ \t\r]*
""", re.VERBOSE)

_ESCAPE = re.compile(r"\\([\s\S])")

#: Punctuators; with the keywords, the tokens whose text is their tag.
_PUNCTUATORS = frozenset((
    "===", "!==", "==", "!=", "<=", ">=", "&&", "||", "+=", "-=", "*=",
    "/=", "%=", "++", "--", "-", "+", "*", "%", "<", ">", "=", "(", ")",
    "{", "}", "[", "]", ",", ";", "!", "?", ":", "/", ".",
))
_TAGS = {text: text for text in KEYWORDS | _PUNCTUATORS}
#: Any other token by its first ASCII character: a name, a number, a
#: string, a newline or a block comment.  A token that starts with a
#: non-ASCII character is a name or a number when that character is a
#: letter or a decimal digit.
_LEADS = {
    **dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZ"
                    "abcdefghijklmnopqrstuvwxyz_$", "name"),
    **dict.fromkeys("0123456789.", "number"),
    '"': "string", "'": "string", "\n": "newline", "/": "comment",
}

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


def _string_error(source: str, line: int) -> ScriptSyntaxError:
    """The error for the first string of *source* that the scanner
    could not close, at *line*."""
    pos = next(match.start(1) for match in _SCANNER.finditer(source)
               if match[1] in ("'", '"')) + 1
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
    for text in _SCANNER.findall(source):
        tag = _TAGS.get(text)
        if tag is None:
            if not text:            # blanks or a line comment
                continue
            lead = text[0]
            tag = _LEADS.get(lead)
            if tag == "string":
                if len(text) == 1:  # an opening quote it could not close
                    raise _string_error(source, line)
                text = text[1:-1]
                if "\\" in text:
                    text = _ESCAPE.sub(_unescape, text)
            elif tag == "newline":
                line += 1
                continue
            elif tag == "comment":
                if text == "/*":
                    raise ScriptSyntaxError(
                        f"unterminated comment at line {line}"
                    )
                line += text.count("\n")
                continue
            elif tag is None:
                if lead.isalpha():
                    tag = "name"
                elif lead.isdecimal():
                    tag = "number"
                else:
                    raise ScriptSyntaxError(
                        f"unexpected character {lead!r} at line {line}"
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
