"""Tokenizer for the ``.ssm`` model format.

One master pattern with a named group per token kind (the "Writing a
Tokenizer" recipe in Python's ``re`` documentation) skips the blanks and
``#`` comments in front of a token and matches the token; the name of the
group that matched is its kind.  The last groups match only where the text
is wrong and turn into `LexError`s.  Tokens carry a character offset, not a
line and column: `position` computes those, and only for a diagnostic.
"""

from __future__ import annotations

import re
from typing import Iterator, NamedTuple

_BODY = r'[^"\\\n]*(?:\\[nt"\\][^"\\\n]*)*'  # string characters and valid escapes
_TOKEN = re.compile(
    r"(?:[ \t\r\n]+|#[^\n]*)*"
    r"(?:(?P<ARROW>=>)"
    r"|(?P<PUNCT>[{}\[\]=,&!])"
    rf'|(?P<STRING>"{_BODY}")'
    rf'|(?P<OPEN>"){_BODY}'  # a string that stops short of its closing quote
    r"|(?P<FLOAT>\d+\.\d+)"
    r"|(?P<DOT>\d+\.)"  # a number that ends in its decimal point
    r"|(?P<INT>\d+)"
    r"|(?P<IDENT>\w+)"  # may start on a non-decimal digit such as ``²``: checked below
    r"|(?P<EOF>\Z)"
    r"|(?P<BAD>.))"
)
_ESCAPE = re.compile(r"\\(.)")
_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}


class LexError(Exception):
    def __init__(self, message: str, offset: int):
        super().__init__(message)
        self.message = message
        self.offset = offset


class Token(NamedTuple):
    kind: str  # IDENT STRING INT FLOAT PUNCT ARROW EOF
    value: str
    offset: int


def position(text: str, offset: int) -> tuple[int, int]:
    """1-based line and column of the character at ``offset`` in ``text``."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def tokenize(text: str) -> Iterator[Token]:
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        offset = m.start(kind)
        value = m[kind]
        if kind == "STRING":
            value = value[1:-1]
            if "\\" in value:
                value = _ESCAPE.sub(lambda e: _ESCAPES[e[1]], value)
        elif kind == "BAD" or (kind == "IDENT" and not (value[0].isalpha() or value[0] == "_")):
            raise LexError(f"unexpected character {value[0]!r}", offset)
        elif kind == "DOT":
            raise LexError(f"malformed number {value!r}", offset)
        elif kind == "OPEN":
            end = m.end()
            if not text.startswith("\\", end):
                raise LexError("unterminated string", offset)
            escape = text[end + 1 : end + 2]
            if escape in ("", "\n"):
                raise LexError("unterminated escape", end)
            # A non-printable character (VT, U+2028, ...) is shown escaped, so
            # that the diagnostic stays on one line.
            shown = "\\" + escape if escape.isprintable() else repr(escape)[1:-1]
            raise LexError(f"unknown escape {shown}", end)
        yield Token(kind, value, offset)
        if kind == "EOF":
            return
