"""The machine-output writer against its oracle, ``json.dumps(sort_keys=True, indent=2)``.

``cli._dumps`` pops each value off one explicit stack and writes its text
once, in output order.  A container of scalars is written by one join.
Rows, two or more plain dicts with the same keys whose values are scalars
or plain dicts of scalars with the same keys, are written a column at a
time; any other container pushes its items.  A cut-set family is written
as its canonical rows, the lists of its sets' names in
``fta.canonical_order``.  Every value it writes must come out byte for byte
as the standard library's indenting encoder writes it, given a ``default``
that turns a family into those rows.  The CLI writes that text as ASCII
bytes, so a non-ASCII label must arrive escaped.
"""

import contextlib
import io
import json
import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from click.testing import CliRunner

from safsec.cli import _dumps, main
from safsec.fta import CutSets, cut_sets
from safsec.model import FaultTree


class Record(dict):
    pass


class Row(list):
    pass


# Scalar subclasses: the writer encodes only the exact types itself and hands
# these to ``json.dumps``, which writes them by their base type.
class Count(int):
    def __repr__(self):
        return "Count()"


class Ratio(float):
    def __repr__(self):
        return "Ratio()"


class Name(str):
    def __repr__(self):
        return "Name()"


def oracle(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2)


# Characters that JSON escapes or that look like its syntax.
TRICKY = st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\n", "\t", " ", "é",
                          "\U0001f600", "\u2028", "]", "[", ",", "}", ":", "a", "Z"])
STRINGS = st.text(TRICKY, max_size=6) | st.text(max_size=4)
NUMBERS = (st.integers() | st.integers(min_value=2**64) | st.integers(max_value=-2**64)
           | st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e300]))
SCALARS = st.none() | st.booleans() | NUMBERS | STRINGS
SUBCLASSED = (st.integers().map(Count) | st.floats().map(Ratio)
              | st.sampled_from([math.nan, math.inf, -math.inf]).map(Ratio) | STRINGS.map(Name))


def containers(children):
    items = st.lists(children, max_size=5)
    fields = st.dictionaries(STRINGS, children, max_size=5)
    return (items | items.map(tuple) | items.map(Row)
            | fields | fields.map(Record) | st.lists(STRINGS, max_size=5))


VALUES = st.recursive(SCALARS, containers, max_leaves=40)


@settings(max_examples=400, deadline=None)
@given(VALUES)
def test_writer_matches_indenting_encoder(value):
    assert _dumps(value) == oracle(value)


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(STRINGS, VALUES, max_size=6))
def test_payload_dict_matches_indenting_encoder(payload):
    assert _dumps(payload) == oracle(payload)


@pytest.mark.parametrize("value", [[], {}, (), Row(), Record(), [[]], {"a": {}}, [[], [()]],
                                   {"": [{"": []}]}, [{}, {}], {"a": [{}, {}, {}]}])
def test_empty_containers_at_every_depth(value):
    assert _dumps(value) == oracle(value)


# One payload of each command's shape, as the CLI builds it (tuples included).
SHAPES = {
    "validate": {"command": "validate", "ok": False,
                 "diagnostics": ["error: goal 'G1' has no parent \"x\"", "warning: é"]},
    "fta cutsets": {"command": "fta cutsets", "tree": "T", "minimal": True,
                    "cut_sets": [("A", "B"), ("C",), ("D\\", "E\n")]},
    "fmea rpn": {"command": "fmea rpn", "table": "F", "rows": [
        {"id": "R1", "function": "f", "mode": "erroneous", "severity": 9, "occurrence": 3,
         "detection": 2, "rpn": 54}]},
    "gsn confidence": {"command": "gsn confidence", "model": "M", "warnings": [], "goals": {
        "G1": {"outruled": 14, "total": 18, "verdict": "acceptable_risk",
               "aggregate": {"belief": 0.7, "disbelief": 0.2, "uncertainty": 0.1},
               "reported": {"belief": 0.7000000000000001, "disbelief": 0.2,
                            "uncertainty": 0.09999999999999998}},
        "G2": {"outruled": 0, "total": 0, "verdict": None,
               "aggregate": {"belief": 0.0, "disbelief": 0.0, "uncertainty": 1.0},
               "reported": {"belief": 0.0, "disbelief": 0.0, "uncertainty": 1.0}}}},
    "adt eval": {"command": "adt eval", "adt": "A", "attribute": "cost", "root": math.inf,
                 "verdict": None, "values": {"root": {"label": "steal", "value": math.inf},
                                             "root.0": {"label": "pick", "value": 5.0}}},
    "conflicts": {"command": "conflicts", "candidates": [["R1", "R2"]], "contradictions": [
        {"pair": ["R1", "R2"], "assignment": {"In0": True, "In1": False},
         "conflicted_signal": "Lock", "involved_requirements": ["R1", "R2"],
         "fired_clauses": ["In0 => A0", "!In1 & A0 => Lock"]}]},
    "conflicts, none": {"command": "conflicts", "candidates": [], "contradictions": []},
    "process run": {"command": "process run", "scenario": "S", "note": "n", "status": "accepted",
                    "initial": {"belief": 0.5, "disbelief": 0.25, "uncertainty": 0.25},
                    "final": {"belief": 1, "disbelief": 0, "uncertainty": 0},
                    "rounds": [{"round": 1, "action": "add_counter", "verdict": "acceptable_risk",
                                "triple": {"belief": 1, "disbelief": 0, "uncertainty": 0}}]},
}


@pytest.mark.parametrize("payload", SHAPES.values(), ids=SHAPES)
def test_command_payload_shapes(payload):
    assert _dumps(payload) == oracle(payload)


@settings(max_examples=300, deadline=None)
@given(st.recursive(SCALARS | SUBCLASSED, containers, max_leaves=20))
def test_scalar_subclasses_match_indenting_encoder(value):
    assert _dumps(value) == oracle(value)


@pytest.mark.parametrize("value", [Count(7), Count(-2**70), Ratio(0.1), Ratio(-0.0),
                                   Ratio(math.nan), Ratio(math.inf), Ratio(-math.inf),
                                   Name('q"\u2028'), True, False, None])
def test_each_scalar_beside_a_container(value):
    for payload in ({"a": value, "b": [value, {}]}, [[value], value, {"c": value, "d": []}]):
        assert _dumps(payload) == oracle(payload)


# Rows of one table: dicts that share their keys, each key's cells drawn in
# one of the shapes below; in some tables, rows with their keys inserted in
# another order and ``Record``s among them.
CELLS = (SCALARS | SUBCLASSED | st.sampled_from([[], {}, (), Row(), Record()])
         | containers(SCALARS | SUBCLASSED))
# Cells of one scalar kind, ints with bools among them, floats with NaN and
# the infinities, or scalars of mixed kinds.
SCALAR_CELLS = st.sampled_from([
    STRINGS, st.integers(), st.integers() | st.booleans(),
    st.floats() | st.sampled_from([math.nan, math.inf, -math.inf]), st.none() | STRINGS, SCALARS])


@st.composite
def dict_cells(draw):
    """Cells that are dicts of scalars with one key order, like the triples
    of a GSN goal; in some columns, one now and then has its keys in
    another order, is empty or is a ``Record``."""
    keys = draw(st.lists(STRINGS, unique=True, min_size=1, max_size=4))
    same = st.fixed_dictionaries({key: draw(SCALAR_CELLS) for key in keys})
    if draw(st.booleans()):
        return same
    reordered = same.flatmap(lambda cell: st.permutations(list(cell.items())).map(dict))
    return same | reordered | st.sampled_from([{}, Record()]) | same.map(Record)


# How the cells of one column are drawn.
COLUMNS = SCALAR_CELLS | dict_cells() | st.just(CELLS)


@st.composite
def tables(draw):
    keys = draw(st.lists(STRINGS, unique=True, max_size=5))
    columns = {key: draw(COLUMNS) for key in keys}
    odd = draw(st.booleans())
    rows = []
    for _ in range(draw(st.integers(min_value=2, max_value=8))):
        row = {key: draw(cells) for key, cells in columns.items()}
        if odd and draw(st.booleans()):
            row = dict(draw(st.permutations(list(row.items()))))
            row = Record(row) if draw(st.booleans()) else row
        rows.append(row)
    return rows


@settings(max_examples=300, deadline=None)
@given(tables())
def test_rows_that_share_keys_match_indenting_encoder(rows):
    assert _dumps(rows) == oracle(rows)
    assert _dumps({"rows": rows, "nested": [rows, {"again": rows}]}) == oracle(
        {"rows": rows, "nested": [rows, {"again": rows}]})


@settings(max_examples=300, deadline=None)
@given(tables())
def test_rows_by_name_match_indenting_encoder(rows):
    payload = {"goals": {f"G{i}": row for i, row in enumerate(rows)}, "n": len(rows)}
    assert _dumps(payload) == oracle(payload)


@settings(max_examples=200, deadline=None)
@given(VALUES, st.integers(min_value=2, max_value=6))
def test_a_value_met_many_times_matches_indenting_encoder(value, times):
    payload = {"many": [value] * times, "deeper": [[value, {"v": value}], value]}
    assert _dumps(payload) == oracle(payload)


def test_one_container_in_many_places():
    inner = ["x", {"y": [1, 2.5, None]}, []]
    row = {"list": inner, "empty": {}, "flag": True}
    payload = {"rows": [row] * 50 + [inner] * 3, "deeper": [[row, [row, inner]], {"z": row}]}
    assert _dumps(payload) == oracle(payload)
    assert _dumps([inner] * 4) == oracle([inner] * 4)


MIXED = [1, "a", None, True, False, 1.5, math.nan, -math.inf, Count(3), Ratio(0.5), Name("n"),
         [], {}, (), [1, "b"], {"a": 1}, (2, None), Row([3]), Record(x=[1])]


@pytest.mark.parametrize("value", [
    MIXED,
    {str(i): item for i, item in enumerate(MIXED)},
    [{"k": item, "same": 0} for item in MIXED],
    [MIXED, MIXED[::-1], MIXED[3:]],
    [[item] for item in MIXED],
], ids=["list", "dict", "rows", "lists", "singletons"])
def test_mixed_columns(value):
    assert _dumps(value) == oracle(value)


def test_a_deep_nest_does_not_raise():
    """5,000 levels of alternating dicts and lists, far past the recursion
    limit: the expected text is built level by level here."""
    value, depth = 0, 5000
    for level in reversed(range(depth)):
        value = {"k": value} if level % 2 else [value]
    heads, tails = [], []
    for level in range(depth):
        inner = "\n" + "  " * (level + 1)
        heads.append(inner.join(("{", '"k": ') if level % 2 else ("[", "")))
        tails.append("\n" + "  " * level + ("}" if level % 2 else "]"))
    assert _dumps(value) == "".join(heads) + "0" + "".join(reversed(tails))


def test_a_nest_with_a_sibling_at_each_level():
    value = "end"
    for level in range(400):
        value = {"k": value, "n": level} if level % 2 else [level, value]
    assert _dumps(value) == oracle(value)


def test_a_nest_with_a_sibling_at_each_level_takes_linear_time():
    """3,000 levels that alternate ``[level, inner]`` and ``{"k": inner,
    "n": level}`` are written in well under a second: each level is met
    once.  ``json.dumps`` recurses too deep here, so the expected text is
    built level by level, outermost first."""
    value, depth = "end", 3000
    for level in range(depth):
        value = {"k": value, "n": level} if level % 2 else [level, value]
    heads, tails = [], []
    for level in reversed(range(depth)):
        newline = "\n" + "  " * len(heads)
        inner = newline + "  "
        if level % 2:
            heads.append(f'{{{inner}"k": ')
            tails.append(f',{inner}"n": {level}{newline}}}')
        else:
            heads.append(f"[{inner}{level},{inner}")
            tails.append(f"{newline}]")
    start = time.perf_counter()
    text = _dumps(value)
    assert time.perf_counter() - start < 1
    assert text == "".join(heads) + '"end"' + "".join(reversed(tails))


# --- cut-set families ------------------------------------------------------------


def rows(family):
    """A family's canonical rows, read off its masks alone."""
    return sorted(tuple(e for i, e in enumerate(family.events) if mask >> i & 1)
                  for mask in family.masks)


def family_oracle(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2, default=rows)


WIDE = CutSets.of([{f"w{i}", f"W{j}"} for i in range(3) for j in range(12)] + [{"é", "\u2028"}])
HOLDS_EMPTY_SET = CutSets({0, 1, 6}, ("a", "b\"", "c"))
SINGLE_EVENT = cut_sets(FaultTree("T", "A", (), frozenset("A")))
FAMILIES = st.sets(st.frozensets(STRINGS, max_size=4), max_size=6).map(CutSets.of)


@pytest.mark.parametrize("value", [
    [WIDE, 1, [WIDE]],
    {"a": WIDE, "b": {"c": [HOLDS_EMPTY_SET, "x"]}},
    [{"cut_sets": WIDE, "n": 1}, {"cut_sets": SINGLE_EVENT, "n": 2}],
    {"empty": CutSets(set(), ()), "no sets": CutSets(set(), ("a",)), "one empty set": CutSets({0}, ())},
    {"command": "fta cutsets", "cut_sets": SINGLE_EVENT, "minimal": True, "tree": "T"},
    SINGLE_EVENT,
], ids=["in a list", "in a dict", "two in one column", "empty", "single event", "alone"])
def test_families(value):
    assert _dumps(value) == family_oracle(value)


@settings(max_examples=300, deadline=None)
@given(st.recursive(SCALARS | FAMILIES, containers, max_leaves=12))
def test_families_anywhere_match_indenting_encoder(value):
    assert _dumps(value) == family_oracle(value)


# --- the bytes the CLI writes ------------------------------------------------------

LOCK = """adt "Türschloss ✓" {
  attack OR "Türschloss ✓" {
    attack "Schlüssel kopieren" {
      attr probability = 0.25
    }
    attack "Fenster — öffnen" {
      attr probability = 0.5
    }
  }
}
"""


def test_machine_output_of_non_ascii_labels_is_the_indenting_encoders_bytes(tmp_path):
    # The CLI writes the JSON as ASCII bytes to the binary stream, so every
    # non-ASCII character must arrive escaped, as json.dumps writes it.
    model = tmp_path / "lock.ssm"
    model.write_text(LOCK, encoding="utf-8")
    result = CliRunner().invoke(main, ["--format", "machine", "adt", "eval", str(model),
                                       "--adt", "Türschloss ✓",
                                       "--attribute", "probability"])
    assert result.exit_code == 0, result.output
    payload = {
        "adt": "Türschloss ✓", "attribute": "probability", "command": "adt eval",
        "root": 0.5, "verdict": None, "values": {
            "root": {"label": "Türschloss ✓", "value": 0.5},
            "root.0": {"label": "Schlüssel kopieren", "value": 0.25},
            "root.1": {"label": "Fenster — öffnen", "value": 0.5}}}
    expected = (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode("ascii")
    assert result.stdout_bytes == expected


def test_a_stdout_without_a_binary_stream_gets_the_same_text(tmp_path):
    # A caller that redirects sys.stdout to an io.StringIO has no binary
    # stream to take the bytes, so the JSON goes to it as text.
    model = tmp_path / "lock.ssm"
    model.write_text(LOCK, encoding="utf-8")
    argv = ["--format", "machine", "adt", "eval", str(model), "--adt", "Türschloss ✓",
            "--attribute", "probability"]
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        main(argv, standalone_mode=False)
    assert captured.getvalue() == CliRunner().invoke(main, argv).stdout
