"""Tokenizer for the ``.ssm`` model format: one pattern, `_scan`'s, compiled
on first use.

`tokenize` reads the text in one `finditer` pass of it and gives three
columns: the token texts, their kinds as one string of one-letter codes
(`KIND_NAMES`), and their character offsets.  The first character tells a
token's kind: one `str.translate` of the tokens' joined first characters
gives the codes, and only a non-ASCII first character is told by its
Unicode class.  The pattern's catch-all ``.`` comes last and catches each
character that starts no valid token, whose code is ``?``, and a lone
``"``: a quote that opens no complete string (unterminated, or with an
unknown escape).  STRING texts keep their quotes, so only an IDENT can
equal a keyword and only a PUNCT a punctuation mark; `string_value` decodes
them.

The first such token names the first lexical error.  A lone ``"`` is an
unterminated string (at the quote), or an unterminated or unknown escape
(at the backslash where the string's body stops); a ``.`` right after an
INT is a malformed number (at the INT); any other is an unexpected
character.  `position` turns an offset into a line and column.

The pattern skips the blanks and ``#`` comments in front of a token, then
matches at every position (EOF at the end of the text, the catch-all
last), so a match never backtracks into a run of ``#``, which would take
time exponential in its length.
"""

from __future__ import annotations

import re
from functools import cache
from itertools import islice
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


def tokenize(text: str, start: int = 0) -> tuple[list[str], str, list[int],
                                                 Optional[tuple[str, int]]]:
    """The tokens of ``text`` from ``start`` on: their texts with a final
    ``""``, their kind codes ending in ``E``, their offsets, and None.  At
    the first lexical error, the columns stop before the token that starts
    it, and the last item is its message and offset."""
    values: list[str] = []
    offsets: list[int] = []
    for m in _scan().finditer(text, start):
        value = m[1]
        values.append(value)
        offsets.append(m.start(1))
        if not value:  # the end of the text matches once or twice
            break
    # Each token's code by its first character; the final EOF has none.
    kinds = "".join(map(itemgetter(0), islice(values, len(values) - 1))).translate(_CODES)
    if not kinds.isascii():  # a non-ASCII start, which translate leaves as it is
        kinds = "".join(k if k.isascii() else "N" if k.isdecimal() else "I" if k.isalpha()
                        else "?" for k in kinds)
    bad = kinds.find("?")
    if '"' in values:  # a quote that opens no complete string
        quote = values.index('"')
        bad = quote if bad < 0 else min(bad, quote)
    if bad < 0:
        return values, kinds + "E", offsets, None
    value, offset = values[bad], offsets[bad]
    if value == '"':
        end = re.compile(BODY).match(text, offset + 1).end()  # where the string stops
        if not text.startswith("\\", end):
            error = ("unterminated string", offset)
        elif (escape := text[end + 1 : end + 2]) in ("", "\n"):
            error = ("unterminated escape", end)
        else:
            # A non-printable character (VT, U+2028, ...) is shown escaped, so
            # that the diagnostic stays on one line.
            shown = "\\" + escape if escape.isprintable() else repr(escape)[1:-1]
            error = (f"unknown escape {shown}", end)
    elif (value == "." and kinds[bad - 1 : bad] == "N" and "." not in values[bad - 1]
          and offsets[bad - 1] + len(values[bad - 1]) == offset):
        bad -= 1
        error = (f"malformed number {values[bad] + '.'!r}", offsets[bad])
    else:
        error = (f"unexpected character {value[0]!r}", offset)
    return values[:bad], kinds[:bad], offsets[:bad], error
