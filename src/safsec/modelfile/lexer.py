"""Tokenizer for the ``.ssm`` model format: one pattern, `_scan`'s, compiled
on first use.

`scan` cuts the text with one `findall` of it, all in C, and gives two
columns: the token texts, and their kinds as one string of one-letter codes
(`KIND_NAMES`), or None on a lexical error.  The first character tells a
token's kind: one `str.translate` of the tokens' joined first characters
gives the codes, and only a non-ASCII first character is told by its
Unicode class.  The pattern's catch-all ``.`` comes last and catches each
character that starts no valid token, whose code is ``?``, and a lone
``"``: a quote that opens no complete string (unterminated, or with an
unknown escape); `scan` refuses both.  STRING texts keep their quotes, so
only an IDENT can equal a keyword and only a PUNCT a punctuation mark;
`string_value` decodes them.

`locate` runs only for diagnostics: one `finditer` pass gives the
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
from functools import cache
from operator import itemgetter
from typing import Optional

BODY = r'[^"\\\n]*(?:\\[nt"\\][^"\\\n]*)*'  # string characters and valid escapes
# The one pattern, compiled on first use: a file that the fast path reads needs no tokens.
_scan = cache(lambda: re.compile(r"[ \t\r\n]*(?:#[^\n]*[ \t\r\n]*)*"
                                 rf'(=>|[{{}}\[\]=,&!]|"{BODY}"|\d+\.\d+|\d+|\w+|\Z|.)'))
# A token's kind code by its first character, for ASCII: IDENT, STRING, NUM,
# PUNCT ("=>" is one), and ``?`` for a character that starts no token.
_CODES = str.maketrans({chr(c): "?" for c in range(128)} | {
    **dict.fromkeys("{}[]=,&!", "P"), '"': "S", **dict.fromkeys("0123456789", "N"),
    **{c: "I" for c in map(chr, range(128)) if c.isalpha() or c == "_"}})
# The name of each kind code, for diagnostics; "E" is the final EOF token.
KIND_NAMES = {"I": "IDENT", "S": "STRING", "N": "NUM", "P": "PUNCT", "E": "EOF"}
_ESCAPE = re.compile(r"\\(.)")
_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}


def position(text: str, offset: int) -> tuple[int, int]:
    """1-based line and column of the character at ``offset`` in ``text``."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def string_value(raw: str) -> str:
    """The text of a STRING token without its quotes and with escapes decoded."""
    value = raw[1:-1]
    return _ESCAPE.sub(lambda e: _ESCAPES[e[1]], value) if "\\" in value else value


def scan(text: str) -> Optional[tuple[list[str], str]]:
    """The texts of the tokens of ``text`` and a final ``""``, and their kind
    codes ending in ``E``, or None on a lexical error (see `locate`)."""
    values = _scan().findall(text)
    del values[values.index("") :]  # the end of the text matches once or twice
    if '"' in values:  # a quote that opens no complete string
        return None
    kinds = "".join(map(itemgetter(0), values)).translate(_CODES)
    if not kinds.isascii():  # a non-ASCII start, which translate leaves as it is
        kinds = "".join(k if k.isascii() else "N" if k.isdecimal() else "I" if k.isalpha()
                        else "?" for k in kinds)
    if "?" in kinds:  # a character that starts no token
        return None
    values.append("")
    return values, kinds + "E"


def locate(text: str) -> tuple[list[int], Optional[tuple[str, int]]]:
    """The offsets of the tokens of ``text`` up to its EOF, and None; where
    `scan` gives None, up to its first lexical error, and that error's
    message and offset."""
    offsets: list[int] = []
    for m in _scan().finditer(text):
        value, offset = m[1], m.start(1)
        offsets.append(offset)
        if not value:
            break
        first = value[0]
        if value == '"':
            end = re.compile(BODY).match(text, offset + 1).end()  # where the string stops
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
        elif first.translate(_CODES) == "?" or not (first.isascii() or first.isalpha()):
            return offsets, (f"unexpected character {first!r}", offset)
    return offsets, None


# The benchmark's tracer (perfbench/tracing.py) wraps the diagnostic pass
# under this name, as its layer ``modelfile.lexer.tokenize``.
tokenize = locate
