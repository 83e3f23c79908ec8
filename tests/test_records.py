"""Which classes in ``src/safsec`` are dataclasses, and how the tuple records behave.

Each dataclass costs about 1 ms of code generation when ``safsec`` is
imported, and a frozen dataclass is built several times slower than a
``NamedTuple``.  The dataclasses that remain are listed here, so that a new
one is a reviewed decision.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

from safsec.conflicts import ContradictionWitness
from safsec.model import (Actor, AdtNode, Clause, DefeaterCount, FailureMode, FmeaRow, GsnNode,
                          GuideWord, HazardMeta, Impact, Literal, NodeKind, Refinement,
                          SecurityLink, VoterMeta)

SRC = Path(__file__).resolve().parent.parent / "src" / "safsec"

DATACLASSES = {
    "adteval.AttributeDomain", "adteval.VerdictPolicy",
    "confidence.GoalOpinion",
    "conflicts.RuleSet",
    "model.ConfidenceTriple", "model.GsnModel", "model.FaultTree", "model.FmeaTable",
    "model.AttackDefenseTree", "model.Clause", "model.Requirement", "model.Thresholds",
    "model.AddCounterAction", "model.SetDefeatersAction", "model.Scenario", "model.Document",
    "model.Diagnostic",
    "modelfile.parser.ParseResult",
    "process.RoundEntry", "process.Transcript",
}


def _is_dataclass_decorator(node: ast.expr) -> bool:
    if isinstance(node, ast.Call):
        node = node.func
    return (isinstance(node, ast.Name) and node.id == "dataclass") or (
        isinstance(node, ast.Attribute) and node.attr == "dataclass")


def declared_dataclasses() -> set[str]:
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any(map(_is_dataclass_decorator,
                                                          node.decorator_list)):
                found.add(f"{module}.{node.name}")
    return found


def test_only_the_listed_classes_are_dataclasses():
    assert declared_dataclasses() == DATACLASSES


def test_the_guard_sees_each_spelling_of_the_decorator():
    tree = ast.parse("@dataclass\nclass A: pass\n@dataclass(frozen=True)\nclass B: pass\n"
                     "@dataclasses.dataclass\nclass C: pass\n@other\nclass D: pass\n")
    assert [any(map(_is_dataclass_decorator, c.decorator_list)) for c in tree.body] == [
        True, True, True, False]


def _records():
    count = DefeaterCount(1, 2)
    hazard = HazardMeta(Impact.HIGH, GuideWord.DELAY, "T")
    voter = VoterMeta(("a", "b"), 1, "T")
    leaf = AdtNode(Actor.DEFENSE, "d", attributes=(("cost", 2.0),))
    return [
        count, hazard, voter,
        GsnNode("G1", NodeKind.GOAL, "top", None, count, hazard, voter, "F", "M"),
        SecurityLink("G1", "A", 0.5),
        FmeaRow("R1", "f", FailureMode.ERRONEOUS, 9, 3, 2, "e", "c"),
        leaf,
        AdtNode(Actor.ATTACK, "a", Refinement.OR, (leaf,), leaf, (("cost", 1.0),), Impact.LOW),
    ]


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_a_tuple_record_is_immutable_and_compares_by_value(record):
    assert not dataclasses.is_dataclass(record)
    kind = type(record)
    for field in kind._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None
    twin = kind(*record)
    assert twin is not record and twin == record and hash(twin) == hash(record)
    first = record._fields[0]
    assert record._replace(**{first: "other"}) != record
    assert record._replace(**{first: getattr(record, first)}) == record


def test_a_witness_is_an_immutable_tuple_record_with_a_dict_assignment():
    fired = (Clause((Literal("In"),), Literal("X")),)
    witness = ContradictionWitness({"In": True}, "X", ("A",), fired)
    assert not dataclasses.is_dataclass(witness)
    for field in witness._fields:
        with pytest.raises(AttributeError):
            setattr(witness, field, None)
    twin = ContradictionWitness(*witness)
    assert twin == witness and twin._replace(conflicted_signal="Y") != witness
    with pytest.raises(TypeError):  # the assignment is a dict
        hash(witness)


def test_hashing_a_deep_adt_node_raises_recursion_error():
    """A tuple's own hash would recurse in C until the process crashes."""
    node = AdtNode(Actor.ATTACK, "x")
    for _ in range(5_000):
        node = AdtNode(Actor.ATTACK, "x", Refinement.AND, (node,))
    with pytest.raises(RecursionError):
        hash(node)
