"""Tokenizer for the ``.ssm`` model format: one pattern, `_SCAN`.

`scan` cuts the text with one `re.split` over `_SCAN`, all in C, and gives
two columns, token texts and kinds (told by the first character), or None
on a lexical error.  `_SCAN` has one capture group, so the tokens are every
other piece of the split; its catch-all ``.`` comes last and catches each
character that starts no valid token.  Such a token has a kind that the
first character does not tell, or it is a lone ``"``: a quote that opens no
complete string (unterminated, or with an unknown escape).  STRING texts
keep their quotes, so only an IDENT can equal a keyword and only a PUNCT a
punctuation mark; `string_value` decodes them.

`locate` runs only for diagnostics: one `_SCAN.finditer` pass gives the
character offset of each token, and names the first lexical error by the
first token that `scan` refuses.  A lone ``"`` is an unterminated string
(at the quote), or an unterminated or unknown escape (at the backslash
where the string's body stops); an INT right before a ``.`` is a malformed
number; any other such token is an unexpected character.  `position` turns
an offset into a line and column.

The pattern skips the blanks and ``#`` comments in front of a token, then
matches at every position (EOF at the end of the text, the catch-all
last), so a match never backtracks into a run of ``#``, which would take
time exponential in its length.  The gap has no alternation inside its
repeat: blanks, then comments each with the blanks after it, which splits a
generated case file about 15 % faster.  Possessive quantifiers and atomic
groups would save more, but Python 3.10, which this package supports,
cannot compile them (they came in 3.11).
"""

from __future__ import annotations

import re
from operator import itemgetter
from typing import Optional

_BODY = r'[^"\\\n]*(?:\\[nt"\\][^"\\\n]*)*'  # string characters and valid escapes
_STRING_BODY = re.compile(_BODY)  # where a lone quote's string stops, for its diagnostic
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


def position(text: str, offset: int) -> tuple[int, int]:
    """1-based line and column of the character at ``offset`` in ``text``."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def string_value(raw: str) -> str:
    """The text of a STRING token without its quotes and with escapes decoded."""
    value = raw[1:-1]
    return _ESCAPE.sub(lambda e: _ESCAPES[e[1]], value) if "\\" in value else value


def scan(text: str) -> Optional[tuple[list[str], list[str]]]:
    """The texts and kinds (IDENT, STRING, NUM, PUNCT) of the tokens of
    ``text`` and a final ``("", "EOF")``, or None on a lexical error (see `locate`)."""
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


def locate(text: str) -> tuple[list[int], Optional[tuple[str, int]]]:
    """The offsets of the tokens of ``text`` up to its EOF, and None; where
    `scan` gives None, up to its first lexical error, and that error's
    message and offset."""
    offsets: list[int] = []
    for m in _SCAN.finditer(text):
        value, offset = m[1], m.start(1)
        offsets.append(offset)
        if not value:
            break
        first = value[0]
        if value == '"':
            end = _STRING_BODY.match(text, offset + 1).end()
            if not text.startswith("\\", end):
                return offsets, ("unterminated string", offset)
            escape = text[end + 1 : end + 2]
            if escape in ("", "\n"):
                return offsets, ("unterminated escape", end)
            # A non-printable character (VT, U+2028, ...) is shown escaped, so
            # that the diagnostic stays on one line.
            shown = "\\" + escape if escape.isprintable() else repr(escape)[1:-1]
            return offsets, (f"unknown escape {shown}", end)
        if first.isdecimal():
            if "." not in value and text.startswith(".", m.end()):
                return offsets, (f"malformed number {value + '.'!r}", offset)
        elif first not in _FIRST and not first.isalpha():
            return offsets, (f"unexpected character {first!r}", offset)
    return offsets, None


# The benchmark's tracer (perfbench/tracing.py) wraps the diagnostic pass
# under this name, as its layer ``modelfile.lexer.tokenize``.
tokenize = locate
