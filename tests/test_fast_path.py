"""`parser.parse` reads a record per regex match; the token parser is its oracle.

`parser.fast_parse` either gives up (None) or returns the document that
`parser.Parser` builds from the same text; `parse` runs the token parser
only where the fast path gives up, so every diagnostic comes from it.
"""

import importlib.util
import random
import re
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safsec.model import AddCounterAction, AttackDefenseTree, Scenario, adt_preorder
from safsec.modelfile import parser
from safsec.modelfile.parser import Parser, fast_parse, parse
from safsec.modelfile.printer import print_document

from conftest import load_bundled
from generators import random_document
from test_cli_contract import mutated_model
from test_cli_golden import EXTRA, HAZARDS, SIDE_FILES

BUNDLED = ("airbag.ssm", "servertheft.ssm", "building.ssm", "building_revised.ssm")
WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _adt(root) -> list:
    return [(len(n.children), n.counter is not None, n.actor, n.label, n.refinement,
             n.attributes, n.impact) for n in adt_preorder(root)]


def shape(document) -> str:
    """``document`` as text that tells ``1`` from ``1.0`` and that no deep
    ADT makes recursive (``==`` on a 1,200-deep tree overflows the stack)."""
    out = []
    for block in document.blocks:
        if isinstance(block, AttackDefenseTree):
            out.append((block.name, _adt(block.root)))
        elif isinstance(block, Scenario):
            out.append((block._replace(actions=()), [
                (action.at_label, _adt(action.node)) if isinstance(action, AddCounterAction)
                else action for action in block.actions]))
        else:
            out.append(block)
    return repr(out)


def check(text: str) -> bool:
    """Whether the fast path reads ``text``; either way `parse` gives the
    token parser's document and diagnostics."""
    fast, token, result = fast_parse(text), Parser(text).parse(), parse(text)
    if fast is not None:
        assert token.ok, [str(d) for d in token.diagnostics]
        assert shape(fast) == shape(token.document)
    assert result.diagnostics == token.diagnostics
    assert (result.document is None) == (token.document is None)
    if result.ok:
        assert shape(result.document) == shape(token.document)
    return fast is not None


def _workloads():
    """The benchmark's generators (its dataclasses need the module registered)."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# --- the oracle --------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(st.randoms(use_true_random=False))
def test_printed_random_documents_take_the_fast_path(rng):
    assert check(print_document(random_document(rng)))


@settings(max_examples=60, deadline=None)
@given(mutated_model())
def test_the_contract_mutations_agree(case):
    check(case[1])


# Edits of a text as a character or a line: blanks removed or added, two
# lines joined, comments, stray marks, digits and letters put in.
PIECES = [" ", "\n", "\r\n", "\t", "#", "# }\n", "}", "{", '"', "\\", "=", ",", ".", "!", "&",
          "[", "]", "0", "1", "a", "_", "é", "²", "٣", "\x0b", "attack", "counter"]


@st.composite
def edited(draw, texts: list[str]) -> str:
    text = draw(st.sampled_from(texts))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(text)))
        kind = draw(st.sampled_from(["cut", "insert", "join", "blanks"]))
        if kind == "cut":
            text = text[:at] + text[at + draw(st.integers(1, 3)):]
        elif kind == "insert":
            text = text[:at] + draw(st.sampled_from(PIECES)) + text[at:]
        elif kind == "join":  # a line and the next, with no blank between
            lines = text.split("\n")
            i = draw(st.integers(0, len(lines) - 1)) if len(lines) > 1 else 0
            text = "\n".join(lines[:i] + ["".join(line.strip(" ") if j else line for j, line
                                                   in enumerate(lines[i:i + 2]))] + lines[i + 2:])
        else:
            runs = [m.span() for m in re.finditer(r"[ \t\r\n]+", text)]
            if runs:
                start, stop = draw(st.sampled_from(runs))
                text = text[:start] + draw(st.sampled_from(["", " ", "\n\n  "])) + text[stop:]
    return text


SOURCES = [load_bundled(name) for name in BUNDLED] + [EXTRA]


@settings(max_examples=300, deadline=None)
@given(edited(SOURCES))
def test_edited_files_agree(text):
    check(text)


def test_the_bundled_files_and_golden_inputs_agree():
    for name in BUNDLED:
        assert check(load_bundled(name)), name
    assert check(EXTRA)
    assert check(HAZARDS)
    for name, text in SIDE_FILES.items():
        if name.endswith(".ssm"):
            check(text)


def test_files_shaped_like_the_benchmarks_take_the_fast_path(tmp_path):
    workloads, rng = _workloads(), random.Random(1)
    for layout, goals in (("chain", 64), ("bushy", 144)):
        workloads.assurance_case(rng, str(tmp_path), layout, goals, 200, layout)
        assert check((tmp_path / f"{layout}.ssm").read_text(encoding="utf-8")), layout
    workloads.malformed(rng, str(tmp_path), str(tmp_path / "chain.ssm"))  # the 1,200-deep ADT
    assert check((tmp_path / "bad.deep.ssm").read_text(encoding="utf-8"))
    data = str(Path(parser.__file__).parent.parent / "data")
    workloads.airbag_copies(str(tmp_path), data, 3)
    assert check((tmp_path / "airbags.ssm").read_text(encoding="utf-8"))


def test_parse_runs_the_token_parser_only_where_the_fast_path_gives_up(monkeypatch):
    texts = []

    class Counted(Parser):
        def __init__(self, text: str, start: int = 0):
            texts.append((text, start))
            super().__init__(text, start)

    monkeypatch.setattr(parser, "Parser", Counted)
    good, bad = load_bundled("airbag.ssm"), 'gsn "m" {'
    assert parse(good).ok and texts == []
    assert not parse(bad).ok and texts == [(bad, 0)]
    # The token parser starts where the last block that the fast path read ends.
    late = good + 'fta "Late" {\n  top T\n  gate T XOR [A]\n  event A\n}\n'
    texts.clear()
    assert not parse(late).ok and texts == [(late, len(good.rstrip()))]


# --- edge cases: each gives the token parser's document or diagnostics --------

LONG = "9" * 4301  # past ``sys.get_int_max_str_digits()``
GSN = 'gsn "G" {{\n  goal G1 "a"{}\n}}\n'
ADT = 'adt "A" {{\n  attack OR "root" {{\n{}\n  }}\n}}\n'
SCENARIO = ('scenario "S" {{\n  gsn = "G"\n  adt = "A"\n  thresholds min_belief = 0.8 '
            'max_disbelief = 0.2 max_uncertainty = 0.1\n  max_rounds = {}\n}}\n')
EDGES = {
    "long total": (GSN.format(f" {{\n    defeaters outruled = 1 total = {LONG}\n  }}"), False),
    "long severity": ('fmea "F" {\n  row R function = "f" mode = erroneous severity = '
                      f'{LONG} occurrence = 1 detection = 1\n}}\n', False),
    "long max_rounds": (SCENARIO.format(LONG), False),
    "overflowing attr": (ADT.format(f'    attack "x" {{\n      attr cost = 1{"0" * 400}\n    }}'),
                         False),
    "attr 1.": (ADT.format('    attack "x" {\n      attr cost = 1.\n    }'), False),
    "attr 12abc": (ADT.format('    attack "x" {\n      attr cost = 12abc\n    }'), False),
    "attrcost": (ADT.format('    attack "x" {\n      attrcost = 1\n    }'), False),
    "duplicate defeaters": (GSN.format(" {\n    defeaters outruled = 1 total = 2\n"
                                       "    defeaters outruled = 3 total = 4\n  }"), True),
    "two impacts": (ADT.format('    impact = low\n    attack "x"\n    impact = high'), True),
    "two roots": ('adt "A" {\n  attack "x"\n  attack "y"\n}\n', False),
    "a counter as root": ('adt "A" {\n  counter attack "x"\n}\n', False),
    "a counter as added node": (load_bundled("airbag.ssm").replace(
        'Airbag" defense', 'Airbag" counter defense'), False),
    "second counter": (ADT.format('    attack "x" {\n      counter defense "c"\n'
                                  '      counter defense "d"\n    }'), False),
    "CRLF": (load_bundled("airbag.ssm").replace("\n", "\r\n"), True),
    "escaped quotes": (GSN.format('\n  goal G2 "say \\"hi\\"\\n\\t\\\\" under G1'), True),
    "non-ASCII label": (GSN.format('\n  goal G2 "Türschloss ✓ 中" under G1'), True),
    "non-ASCII identifier": (GSN.format('\n  goal Ünter "b" under G1'), False),
    "undefined parent": (GSN.format("\n  goal G2 \"b\" under G9"), False),
    # One word made of two: the token parser reads "Airbagdefeaters" and
    # "unassessedset_policy", where a pattern could split them.
    "joined attribute lines": (load_bundled("airbag.ssm").replace("Airbag\n    defeaters",
                                                                  "Airbagdefeaters", 1), False),
    "joined actions": (load_bundled("airbag.ssm").replace(
        "set_policy unassessed", "set_policy unassessedset_policy unassessed"), False),
    "undeclared child": ('fta "T" {\n  top T\n  gate T OR [A, B]\n  event A\n}\n', False),
    "undeclared top": ('fta "T" {\n  top X\n  gate T OR [A]\n  event A\n}\n', False),
}


@pytest.mark.parametrize("name", EDGES)
def test_edge_cases_agree(name):
    text, fast = EDGES[name]
    assert check(text) is fast


# The bundled airbag case, which the fast path reads, then a block that it
# gives up on: the token parser reads from there on, and `parse` gives what
# it gives on the whole text.
AIRBAG, TREE = load_bundled("airbag.ssm"), 'fta "T" {\n  top T\n  event T\n}\n'
LATE = {
    "syntax error": AIRBAG + 'fta "Late" {\n  top T\n  gate T XOR [A]\n  event A\n}\n'
                    + GSN.format('\n  goal G2 "b" under G9'),
    "lexical error": AIRBAG + 'fta "Late" {\n  top 1.\n}\n' + TREE,
    "comment in a node record": AIRBAG + 'gsn "G" {\n  goal G0 "top"\n  goal G1 "a" # note\n'
                                '    under G0\n}\n' + TREE,
    "text that starts no block": AIRBAG + 'goal G1 "a"\n' + TREE,
}


@pytest.mark.parametrize("name", LATE)
def test_blocks_after_those_the_fast_path_reads_agree(name):
    text = LATE[name]
    assert not check(text)
    assert parse(text).ok is (name == "comment in a node record")


# A record of each block kind, in a file that has one: a comment line after
# its first word sends that block down the token path.
NOTED = {"gsn": (AIRBAG, "strategy S1"), "adt": (AIRBAG, 'attack OR "Trigger'),
         "fta": (load_bundled("servertheft.ssm"), "gate AD AND"), "fmea": (EXTRA, "row V2"),
         "requirement": (load_bundled("building.ssm"), "clause !Auth"),
         "scenario": (AIRBAG, "set_policy attribute")}


@pytest.mark.parametrize("kind", NOTED)
def test_a_comment_inside_a_record_of_each_block_kind_takes_the_token_path(kind):
    plain, record = NOTED[kind]
    first, rest = record.split(" ", 1)
    noted = plain.replace(record, f"{first}\n    # note\n    {rest}", 1)
    assert noted != plain and not check(noted)
    assert shape(parse(noted).document) == shape(parse(plain).document)


def test_the_last_defeaters_and_impact_win_on_the_fast_path():
    (gsn,) = fast_parse(EDGES["duplicate defeaters"][0]).blocks
    assert gsn.nodes[0].defeaters == (3, 4)
    (adt,) = fast_parse(EDGES["two impacts"][0]).blocks
    assert adt.root.impact.value == "high"


# --- no catastrophic backtracking --------------------------------------------

RUNS = {"comment lines": "#\n" * 50_000, "hashes": "#" * 100_000, "blanks": " \n" * 50_000}


@pytest.mark.parametrize("run", RUNS)
@pytest.mark.parametrize("where", ["between records", "inside a record", "unclosed"])
def test_long_runs_of_comments_and_blanks_parse_fast(run, where):
    gap = RUNS[run] + "\n"
    if where == "between records":
        text = f'gsn "G" {{\n  goal G1 "a"\n{gap}  goal G2 "b" under G1\n}}\n{gap}'
    elif where == "inside a record":
        text = (f'gsn "G" {{\n  goal G1 {gap}"a" {{\n    defeaters outruled = 1 {gap}'
                'total = 2\n  }\n}\n')
    else:
        text = f'adt "A" {{\n  attack "x" {{\n    attr cost = 1\n{gap}'
    start = time.perf_counter()
    check(text)
    assert time.perf_counter() - start < 1.0
