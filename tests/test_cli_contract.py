"""The CLI's exit-code contract on mutated bundled models and side files.

Every command, in both formats, on a bundled ``.ssm`` file after a few
random edits, must end with exit 0, 1 or 2 and never with an uncaught
exception.  Exit 2 comes with one line on stderr: an ``error:`` line, or
``validate``'s line (``file: error: ...``) for the first error in a block
the command reads, since analyses refuse a block that does not validate.  A
file that does not parse gets one ``file:line:col`` diagnostic per line
instead.  Exit 1 is a finding: ``validate`` with errors, ``conflicts`` with
a contradiction or ``process run`` running out of rounds.  Machine output
that is JSON (every command but ``derive`` and ``export``) must read as
``json.dumps(payload, sort_keys=True, indent=2)`` writes it.

The edits drop, duplicate or move lines, point a GSN node's parent at
another node (parent cycles), add a gate to a gate's inputs (gate cycles),
empty an ADT refinement, push numbers out of range and break a line at a
blank with a ``#`` comment line, which sends the block down the token path.
Besides the bundled files, ``hazards.ssm`` from the goldens gives an FMEA
table and derivation from fault-tree and FMEA solutions.  The ``--verdicts``
and ``--policy`` files get edits of their own: a dropped ``=``, an unknown
key or value, a non-finite threshold and bytes that are not UTF-8.  Deeper
nesting is left out: parsing, validation, printing and DOT export walk an
ADT of any depth, but ADT evaluation (``adt eval``, ``process run``) still
recurses over it and overflows, from about 500 levels.
"""

import json
import re
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from safsec.cli import main
from safsec.modelfile import parse

from conftest import load_bundled
from test_cli_golden import HAZARDS

BUNDLED = ("airbag.ssm", "servertheft.ssm", "building.ssm", "building_revised.ssm")
TEXTS = {**{name: load_bundled(name) for name in BUNDLED}, "hazards.ssm": HAZARDS}
SOURCES = {name: text.splitlines() for name, text in TEXTS.items()}
MODEL = "model.ssm"
VERDICTS = "verdicts.txt"
POLICY = "policy.txt"

GSN_NODE = re.compile(r"^(\s*(?:goal|strategy|solution|context)\s+(\w+)\s+\"[^\"]*\")(.*)$")
GATE = re.compile(r"^(\s*gate\s+(\w+)\s+(?:AND|OR)\s+\[)(.*)(\].*)$")
REFINED = re.compile(r"^(\s*(?:attack|defense)\s+(?:AND|OR)\s+\"[^\"]*\")\s*\{\s*$")
NUMBER = re.compile(r"(?<=[=\s])-?\d+(?:\.\d+)?(?=\s|$)")
GAP = re.compile(r'"(?:[^"\\]|\\.)*"|(?<=\S)[ \t]+(?=\S)')  # a string, or a blank between tokens
PARSE_DIAGNOSTIC = re.compile(rf"{re.escape(MODEL)}:\d+:\d+: error: ")
OUT_OF_RANGE = ("-1", "-0.5", "0", "1.5", "2", "1000000", "99999999999999999999")


def commands(name: str) -> list[list[str]]:
    """Every command over the source file ``name``'s blocks (argv after --format)."""
    doc = parse(TEXTS[name]).document
    out = [["validate", MODEL], ["conflicts", MODEL], ["conflicts", MODEL, "--wide-candidates"]]
    for tree in doc.ftas:
        out += [["fta", "cutsets", MODEL, "--tree", tree],
                ["fta", "cutsets", MODEL, "--tree", tree, "--minimal"]]
    for table in doc.fmeas:
        out.append(["fmea", "rpn", MODEL, "--table", table])
    for model in doc.gsns:
        out += [["gsn", "confidence", MODEL, "--model", model],
                ["gsn", "confidence", MODEL, "--model", model, "--verdicts", VERDICTS],
                ["derive", "adt", MODEL, "--gsn", model]]
    for adt in doc.adts:
        out += [["adt", "eval", MODEL, "--adt", adt, "--attribute", attribute]
                for attribute in ("cost", "probability", "time", "time_sequential")]
        out.append(["adt", "eval", MODEL, "--adt", adt, "--attribute", "probability",
                    "--policy", POLICY])
    for scenario in doc.scenarios:
        out.append(["process", "run", MODEL, "--scenario", scenario])
    for model in {**doc.gsns, **doc.adts, **doc.ftas}:
        out.append(["export", "dot", MODEL, "--model", model])
    return out


COMMANDS = {name: commands(name) for name in TEXTS}


def _emptied(lines: list[str], j: int) -> list[str]:
    """``lines`` with the children of the AND/OR node opened on line ``j`` removed."""
    depth, end = 0, len(lines) - 1
    for i in range(j, len(lines)):
        depth += lines[i].count("{") - lines[i].count("}")
        if depth == 0:
            end = i
            break
    return lines[:j] + [REFINED.match(lines[j]).group(1) + " { }"] + lines[end + 1:]


AIRBAG = SOURCES["airbag.ssm"]
EMPTIED_AIRBAG = "\n".join(_emptied(AIRBAG, AIRBAG.index('  attack OR "Attack Airbag" {'))) + "\n"
# A fault tree down the token path: a comment line inside a gate's record.
NOTED_TREE = TEXTS["servertheft.ssm"].replace("gate AD AND", "gate AD\n    # note\n    AND")


@st.composite
def mutation(draw, lines: list[str]) -> list[str]:
    """``lines`` after one random edit (unchanged when the edit has no target)."""
    lines = list(lines)
    kind = draw(st.sampled_from(
        ["drop", "duplicate", "move", "parent", "gate", "empty", "number", "comment"]))
    if not lines:
        return lines
    i = draw(st.integers(0, len(lines) - 1))
    if kind == "drop":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(draw(st.integers(0, len(lines))), lines[i])
    elif kind == "move":
        lines.insert(draw(st.integers(0, len(lines) - 1)), lines.pop(i))
    elif kind == "parent":
        nodes = [(j, m) for j, m in enumerate(map(GSN_NODE.match, lines)) if m]
        if nodes:
            j, m = draw(st.sampled_from(nodes))
            parent = draw(st.sampled_from([n.group(2) for _, n in nodes]))
            rest = re.sub(r"^\s*under\s+\w+", "", m.group(3))
            lines[j] = f"{m.group(1)} under {parent}{rest}"
    elif kind == "gate":
        gates = [(j, m) for j, m in enumerate(map(GATE.match, lines)) if m]
        if gates:
            j, m = draw(st.sampled_from(gates))
            extra = draw(st.sampled_from([g.group(2) for _, g in gates]))
            lines[j] = f"{m.group(1)}{m.group(3)}, {extra}{m.group(4)}"
    elif kind == "empty":
        refined = [j for j, line in enumerate(lines) if REFINED.match(line)]
        if refined:
            lines = _emptied(lines, draw(st.sampled_from(refined)))
    elif kind == "comment":  # a comment line inside a record
        gaps = [(j, m.start()) for j, line in enumerate(lines) if not line.lstrip().startswith("#")
                for m in GAP.finditer(line) if m[0].isspace()]
        if gaps:
            j, at = draw(st.sampled_from(gaps))
            lines[j:j + 1] = [lines[j][:at], "    # note", "    " + lines[j][at:].lstrip()]
    else:
        numbered = [j for j, line in enumerate(lines) if NUMBER.search(line)]
        if numbered:
            j = draw(st.sampled_from(numbered))
            value = draw(st.sampled_from(OUT_OF_RANGE))
            lines[j] = NUMBER.sub(value, lines[j], count=1)
    return lines


@st.composite
def mutated_model(draw) -> tuple[str, str]:
    name = draw(st.sampled_from(list(SOURCES)))
    lines = SOURCES[name]
    for _ in range(draw(st.integers(1, 3))):
        lines = draw(mutation(lines))
    return name, "\n".join(lines) + "\n"


SIDE_FILES = {
    VERDICTS: "Airbag Attack = unacceptable_risk\n",
    POLICY: "attribute = probability\nop = <=\nthreshold = 0.1\n",
}
SIDE_EDITS = ("drop =", "unknown key", "unknown value", "non-finite threshold", "non-UTF-8")


@st.composite
def edited_side_file(draw, text: str, edit: str) -> bytes:
    """``text`` after ``edit`` on one of its lines (or at one byte, for non-UTF-8)."""
    lines = text.splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    key, _, value = lines[i].partition("=")
    word = draw(st.sampled_from(["bogus", "Nope", "", "=", "#x"]))
    if edit == "drop =":
        lines[i] = key + value
    elif edit == "unknown key":
        lines[i] = f"{word} ={value}"
    elif edit == "unknown value":
        lines[i] = f"{key}= {word}"
    elif edit == "non-finite threshold":
        lines.insert(i, f"threshold = {draw(st.sampled_from(['nan', 'inf', '-inf', '1e999']))}")
    data = ("\n".join(lines) + "\n").encode()
    if edit == "non-UTF-8":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"])) + data[at:]
    return data


@pytest.fixture(scope="module")
def workdir(tmp_path_factory) -> Path:
    directory = tmp_path_factory.mktemp("contract")
    for name, text in SIDE_FILES.items():
        (directory / name).write_text(text, encoding="utf-8")
    return directory


# Command -> (is its machine payload a finding, text that marks a finding).
FINDINGS = {
    "validate": (lambda p: not p["ok"], ": error: "),
    "conflicts": (lambda p: bool(p["contradictions"]), "CONTRADICTION"),
    "process run": (lambda p: p["status"] == "exhausted", "status: exhausted"),
}


def check_contract(argv: list[str], fmt: str, result) -> None:
    where = f"{fmt} {' '.join(argv)}: exit {result.exit_code}\n{result.output}"
    assert result.exception is None or isinstance(result.exception, SystemExit), where
    assert result.exit_code in (0, 1, 2), where
    if result.exit_code == 2:
        lines = result.stderr.splitlines()
        assert lines, where
        if not all(PARSE_DIAGNOSTIC.match(line) for line in lines):
            assert len(lines) == 1 and lines[0].startswith(("error: ", f"{MODEL}: error: ")), where
    elif result.exit_code == 1:
        command = argv[0] if argv[0] in FINDINGS else " ".join(argv[:2])
        assert command in FINDINGS, where
        is_finding, marker = FINDINGS[command]
        if fmt == "machine":
            assert is_finding(json.loads(result.stdout)), where
        else:
            assert marker in result.stdout, where
    if fmt == "machine" and result.exit_code in (0, 1) and argv[0] not in ("derive", "export"):
        canonical = json.dumps(json.loads(result.stdout), sort_keys=True, indent=2) + "\n"
        assert result.stdout == canonical, where


@settings(max_examples=60, deadline=None)
@given(mutated_model())
# A childless refinement once ended ``adt eval`` and ``process run`` in a
# TypeError from an empty ``reduce``.
@example(("airbag.ssm", EMPTIED_AIRBAG))
@example(("servertheft.ssm", NOTED_TREE))
def test_every_command_keeps_the_exit_code_contract(workdir, case):
    name, text = case
    (workdir / MODEL).write_text(text, encoding="utf-8")
    runner = CliRunner()
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(workdir)
        for argv in COMMANDS[name]:
            for fmt in ("text", "machine"):
                result = runner.invoke(main, ["--format", fmt, *argv],
                                       env={"SAFSEC_COLOR": "0"})
                check_contract(argv, fmt, result)


@pytest.mark.parametrize("side", sorted(SIDE_FILES))
@pytest.mark.parametrize("edit", SIDE_EDITS)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_a_bad_side_file_keeps_the_exit_code_contract(tmp_path_factory, side, edit, data):
    directory = tmp_path_factory.mktemp("side")
    for name, text in SIDE_FILES.items():
        (directory / name).write_text(text, encoding="utf-8")
    (directory / side).write_bytes(data.draw(edited_side_file(SIDE_FILES[side], edit)))
    runner = CliRunner()
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(directory)
        for name in BUNDLED:
            (directory / MODEL).write_text(load_bundled(name), encoding="utf-8")
            for argv in (argv for argv in COMMANDS[name] if side in argv):
                for fmt in ("text", "machine"):
                    result = runner.invoke(main, ["--format", fmt, *argv],
                                           env={"SAFSEC_COLOR": "0"})
                    check_contract(argv, fmt, result)
