"""Tokenizer for the ``.ssm`` model format.

`scan` cuts the text with one `re.split` over `_SCAN`, all in C, and gives
two columns, token texts and kinds (told by the first character), or None
on a lexical error.  `_SCAN` has one capture group, so the tokens are every
other piece of the split; its catch-all ``.`` comes last and catches each
character that starts no valid token.  Such a token has a kind that the
first character does not tell, or it is a lone ``"``: a quote that opens no
complete string (unterminated, or with an unknown escape).  STRING texts
keep their quotes, so only an IDENT can equal a keyword and only a PUNCT a
punctuation mark; `string_value` decodes them.  `tokenize` is the exact
reference, run only for diagnostics: one master pattern with a named group
per kind (the "Writing a Tokenizer" recipe in Python's ``re`` docs) yields
`Token`s with a character offset, or raises `LexError`; `position` turns an
offset into a line and column.

Both patterns skip the blanks and ``#`` comments in front of a token, then
match at every position (EOF at the end of the text, a catch-all ``.``
last), so a match never backtracks into a run of ``#``, which would take
time exponential in its length.  `_SCAN`'s gap has no alternation inside
its repeat: blanks, then comments each with the blanks after it, which
splits a generated case file about 15 % faster.  Possessive quantifiers and
atomic groups would save more, but Python 3.10, which this package
supports, cannot compile them (they came in 3.11).
"""

from __future__ import annotations

import re
from operator import itemgetter
from typing import Iterator, NamedTuple, Optional

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
# `_TOKEN`'s valid alternatives, in its order, then its BAD.  Its DOT reads
# here as an INT and a ``.``, its OPEN as a lone ``"``: both errors, as is an
# IDENT on a digit such as ``²``, all caught by `scan`.
_SCAN = re.compile(
    r"[ \t\r\n]*(?:#[^\n]*[ \t\r\n]*)*"
    rf'(=>|[{{}}\[\]=,&!]|"{_BODY}"|\d+\.\d+|\d+|\w+|\Z|.)'
)
_FIRST = {  # a token's kind by its first character, for ASCII; "=>" is a PUNCT
    **dict.fromkeys("{}[]=,&!", "PUNCT"), '"': "STRING", **dict.fromkeys("0123456789", "NUM"),
    **{c: "IDENT" for c in map(chr, range(128)) if c.isalpha() or c == "_"},
}
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


def string_value(raw: str) -> str:
    """The text of a STRING token without its quotes and with escapes decoded."""
    value = raw[1:-1]
    return _ESCAPE.sub(lambda e: _ESCAPES[e[1]], value) if "\\" in value else value


def scan(text: str) -> Optional[tuple[list[str], list[str]]]:
    """The texts and kinds (IDENT, STRING, NUM, PUNCT) of the tokens of
    ``text`` and a final ``("", "EOF")``, or None where `tokenize` raises."""
    values = _SCAN.split(text)[1::2]
    del values[values.index("") :]  # the end of the text matches once or twice
    if '"' in values:  # a quote that opens no complete string
        return None
    kinds = list(map(_FIRST.get, map(itemgetter(0), values)))
    if None in kinds:  # a non-ASCII start, or a character that starts no token
        kinds = [kind or ("NUM" if v[0].isdecimal() else "IDENT" if v[0].isalpha() else "")
                 for kind, v in zip(kinds, values)]
        if "" in kinds:
            return None
    return values + [""], kinds + ["EOF"]


def tokenize(text: str) -> Iterator[Token]:
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        offset = m.start(kind)
        value = m[kind]
        if kind == "STRING":
            value = string_value(value)
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
