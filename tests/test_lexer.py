"""The ``.ssm`` tokenizer: exact error positions, agreement of the
master-pattern reference tokenizer with the character-by-character one
except for four pinned fixes, and agreement of `lexer.tokenize` with the
master-pattern one."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safsec.modelfile import parse, parser
from safsec.modelfile.lexer import KIND_NAMES, position, string_value, tokenize

from oracles import LexError, NaiveLexError, naive_tokenize
from oracles import tokenize as reference_tokenize

# Token characters, every character class the lexer treats differently, and
# the characters behind the four deviations (``²``, ``\\`` + newline, ``#``,
# ``\\`` + a non-printable character).
PIECES = list("{}[]=,&!") + ["=>", '"', "\\", ".", "0", "7", "٣", "²", "a", "Z", "_", "n",
                             "t", "é", " ", "#", "\t", "\r", "\n", "\x0b", "\u2028"]


def lex(text):
    """New lexer: tokens as (kind, value, (line, column)) and the error, if any."""
    tokens = []
    try:
        for tok in reference_tokenize(text):
            tokens.append((tok.kind, tok.value, position(text, tok.offset)))
    except LexError as exc:
        return tokens, (exc.message, position(text, exc.offset))
    return tokens, None


def naive_lex(text):
    tokens = []
    try:
        for tok in naive_tokenize(text):
            tokens.append((tok.kind, tok.value, (tok.line, tok.column)))
    except NaiveLexError as exc:
        return tokens, (exc.message, (exc.line, exc.column))
    return tokens, None


def deviation(text, old, new):
    """Which of the four known fixes explains ``old != new`` (None: none does)."""
    (old_tokens, old_error), (new_tokens, new_error) = old, new
    k = 0
    while k < min(len(old_tokens), len(new_tokens)) and old_tokens[k] == new_tokens[k]:
        k += 1
    if old_error is None and new_error is None and k == len(old_tokens) - 1 == len(new_tokens) - 1:
        last_line = text.rsplit("\n", 1)[-1]
        (_, _, (line, column)), (_, _, new_position) = old_tokens[k], new_tokens[k]
        if last_line[column - 1 : column] == "#" and new_position == (line, len(last_line) + 1):
            return "EOF after a final comment"
    if (old_tokens == new_tokens and new_error is not None and old_error is not None
            and old_error == ("unknown escape \\\n", new_error[1])
            and new_error[0] == "unterminated escape"):
        return "backslash before a newline"
    if old_tokens == new_tokens and old_error and new_error and old_error[1] == new_error[1]:
        char = old_error[0][-1]
        if (old_error[0] == "unknown escape \\" + char and not char.isprintable()
                and new_error[0] == "unknown escape " + char.encode("unicode_escape").decode()):
            return "non-printable character after a backslash"
    # The reference lexer read a number (or a malformed one) with a
    # non-decimal digit in it; the new one stops with an error inside it.
    if k < len(old_tokens):
        kind, lexeme, (line, column) = old_tokens[k]
    elif old_error is not None and old_error[0].startswith("malformed number '"):
        kind, lexeme, (line, column) = "FLOAT", old_error[0][18:-1], old_error[1]
    else:
        return None
    span = [(line, c) for c in range(column, column + len(lexeme))]
    if (kind in ("INT", "FLOAT") and any(c.isdigit() and not c.isdecimal() for c in lexeme)
            and new_error is not None and new_error[1] in span
            and all(pos in span for _, _, pos in new_tokens[k:])):
        return "number with a non-decimal digit"
    return None


@settings(max_examples=3000, deadline=None)
@given(st.lists(st.sampled_from(PIECES), max_size=24).map("".join))
def test_agrees_with_reference_lexer_but_for_four_fixes(text):
    old, new = naive_lex(text), lex(text)
    assert old == new or deviation(text, old, new), (old, new)


class TestDeviationsFromReference:
    def test_superscript_digit_is_an_unexpected_character(self):
        text = 'fmea "F" { row R1 function = "f" mode = erroneous severity = ² }'
        column = text.index("²") + 1
        assert ("INT", "²") in [tok[:2] for tok in naive_lex(text)[0]]
        assert lex(text)[1] == ("unexpected character '²'", (1, column))
        (diag,) = parse(text).diagnostics
        assert (diag.message, diag.line, diag.column) == ("unexpected character '²'", 1, column)

    @pytest.mark.parametrize("text, column", [("5²", 2), ("x ²5", 3), ("½", 1)])
    def test_non_decimal_digit_in_a_number_or_starting_a_word(self, text, column):
        assert lex(text)[1] == (f"unexpected character {text[column - 1]!r}", (1, column))

    def test_identifiers_continue_and_numbers_run_on_any_decimal_digit(self):
        assert lex("a²½ ٣.٣ ٣") == ([("IDENT", "a²½", (1, 1)), ("FLOAT", "٣.٣", (1, 5)),
                                    ("INT", "٣", (1, 9)), ("EOF", "", (1, 10))], None)

    def test_backslash_before_newline_is_an_unterminated_escape(self):
        text = 'adt "a\\\n'
        assert naive_lex(text)[1] == ("unknown escape \\\n", (1, 7))
        assert lex(text)[1] == ("unterminated escape", (1, 7))
        (diag,) = parse(text).diagnostics
        assert str(diag) == "1:7: error: unterminated escape"

    @pytest.mark.parametrize("char, shown", [("\x0b", "\\x0b"), ("\x1c", "\\x1c"),
                                             ("\x85", "\\x85"), ("\u2028", "\\u2028")])
    def test_non_printable_escape_is_shown_escaped(self, char, shown):
        text = f'adt "a\\{char}b" {{}}'
        assert naive_lex(text)[1] == (f"unknown escape \\{char}", (1, 7))
        assert lex(text)[1] == (f"unknown escape {shown}", (1, 7))
        (diag,) = parse(text).diagnostics
        assert str(diag).splitlines() == [f"1:7: error: unknown escape {shown}"]

    def test_eof_after_final_comment_is_at_end_of_line(self):
        text = 'adt "t" {\n  attack "x"\n# end'
        assert naive_lex(text)[0][-1] == ("EOF", "", (3, 1))
        assert lex(text)[0][-1] == ("EOF", "", (3, 6))
        (diag,) = parse(text).diagnostics
        assert str(diag) == "3:6: error: expected '}', got 'EOF'"


@pytest.mark.parametrize("text, message, line, column", [
    ('gsn "a\\', "unterminated escape", 1, 7),
    ('gsn "m" {\n  goal G "a\\qb"\n}', "unknown escape \\q", 2, 12),
    ('gsn "m" {\n  goal G "a\\ b"\n}', "unknown escape \\ ", 2, 12),
    ('gsn "m" {\n  goal G "a\\\x0cb"\n}', "unknown escape \\x0c", 2, 12),
    ('gsn "m" {\n  goal G "a\\\u2029b"\n}', "unknown escape \\u2029", 2, 12),
    ("fta \"t\" {\n  top 1.\n}", "malformed number '1.'", 2, 7),
    ("fta \"t\" {\n  top 1.2.3\n}", "unexpected character '.'", 2, 10),
    ('gsn "m" {\n  goal G "x" ?\n}', "unexpected character '?'", 2, 14),
    ('gsn "m" {\n  goal G "x" \x0b\n}', "unexpected character '\\x0b'", 2, 14),
    ('gsn "m" {\n  goal G "x\n}', "unterminated string", 2, 10),
    ('gsn "m" {\n  goal G "x', "unterminated string", 2, 10),
])
def test_lex_error_positions(text, message, line, column):
    (diag,) = parse(text).diagnostics
    assert (diag.message, diag.line, diag.column) == (message, line, column)


def test_escapes_are_decoded_only_where_valid():
    (tok, _) = reference_tokenize(r'"a\n\t\"\\b\\n"')
    assert (tok.kind, tok.value, tok.offset) == ("STRING", 'a\n\t"\\b\\n', 0)


def test_position_counts_characters_from_one():
    text = "ab\n\ncé\n"
    assert [position(text, i) for i in range(len(text) + 1)] == [
        (1, 1), (1, 2), (1, 3), (2, 1), (3, 1), (3, 2), (3, 3), (4, 1)]


SCAN_PIECES = PIECES + ["gsn", "goal", "under", "AND", "12", "3.5", "12.", "٣.٣", '"x\\n"',
                        "# c\n", "#", "=>", "\n"]


def reference_columns(text):
    """`tokenize`'s result read off the reference tokenizer: the decoded
    texts, the coarse kinds and the offsets of the tokens before the first
    lexical error, and that error's message and offset."""
    tokens, error = [], None
    try:
        tokens.extend(reference_tokenize(text))
    except LexError as exc:
        error = (exc.message, exc.offset)
    coarse = {"INT": "NUM", "FLOAT": "NUM", "ARROW": "PUNCT"}
    return ([tok.value for tok in tokens], [coarse.get(tok.kind, tok.kind) for tok in tokens],
            [tok.offset for tok in tokens], error)


@settings(max_examples=3000, deadline=None)
@given(st.lists(st.sampled_from(SCAN_PIECES), max_size=24).map("".join), st.integers(0, 30))
def test_tokenize_agrees_with_the_reference(text, start):
    values, kinds, offsets, error = tokenize(text)
    assert ([string_value(v) if k == "S" else v for v, k in zip(values, kinds)],
            [KIND_NAMES[k] for k in kinds], offsets, error) == reference_columns(text)
    # From an offset on, it reads as if the text before it were blanks.
    start = min(start, len(text))
    assert tokenize(text, start) == tokenize(" " * start + text[start:])


@pytest.mark.parametrize("text, error", [
    ("12.", ("malformed number '12.'", 0)),
    ("٣.", ("malformed number '٣.'", 0)),
    ("1.2.3", ("unexpected character '.'", 3)),
    ("²5", ("unexpected character '²'", 0)),
    ("5²", ("unexpected character '²'", 1)),
    ('x "', ("unterminated string", 2)),
    ('"a\\', ("unterminated escape", 2)),
    ('"a\\\n', ("unterminated escape", 2)),
    ('"a\\\u2028', ("unknown escape \\u2028", 2)),
    ("# c\n# d\n  ?", ("unexpected character '?'", 10)),
    (" \t\r\n12.", ("malformed number '12.'", 4)),
])
def test_tokenize_names_each_lexical_error(text, error):
    assert tokenize(text)[3] == reference_columns(text)[3] == error


@pytest.mark.parametrize("text", ['gsn "m" {\n  goal G1 "a" under\n}\n',  # a syntax error
                                  'fta "t" {\n  top 1.\n}\n'])  # a lexical error
def test_a_parse_with_an_error_lexes_once(monkeypatch, text):
    starts = []

    def counted(text, start=0):
        starts.append(start)
        return tokenize(text, start)

    monkeypatch.setattr(parser, "tokenize", counted)
    (diag,) = parse(text).diagnostics
    assert starts == [0]


@pytest.mark.parametrize("text", ["# c\n?", '#x\n"abc', "# c\n12.", "# c\n²", "a  ?"])
def test_lex_error_after_a_comment_or_blanks(text):
    with pytest.raises(LexError) as exc:
        list(reference_tokenize(text))
    (diag,) = parse(text).diagnostics
    assert (diag.message, (diag.line, diag.column)) == (exc.value.message,
                                                       position(text, exc.value.offset))


def test_many_hashes_before_an_error_do_not_backtrack():
    text = "#" * 200_000 + "\n?"
    start = time.perf_counter()
    (diag,) = parse(text).diagnostics
    assert time.perf_counter() - start < 1
    assert str(diag) == "2:1: error: unexpected character '?'"


@pytest.mark.parametrize("text, message", [
    ('gsn "m" {', "1:10: error: expected gsn node or security_link, got 'EOF'"),
    ('gsn "m" { goal G1 "" under "" }', "1:28: error: expected 'IDENT', got 'STRING'"),
    ('requirement R kind = safety trace = T { clause a b }',
     "1:50: error: expected 'ARROW', got 'b'"),
    ('gsn "m" { goal G1 "x" { defeaters outruled = 3.5 total = 4 } }',
     "1:46: error: expected 'INT', got '3.5'"),
])
def test_messages_name_token_kinds(text, message):
    (diag,) = parse(text).diagnostics
    assert str(diag) == message
