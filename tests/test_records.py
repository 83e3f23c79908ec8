"""How the records of ``src/safsec`` behave, and that none is a dataclass.

A dataclass writes and compiles its methods when ``safsec`` is imported,
about 1 ms a class.  The frozen records subclass ``model.Record``, which
reads a class's fields once; the records a file holds many of are
``NamedTuple`` classes.  Both refuse assignment, compare and hash by their
fields, and offer ``_replace``, ``_fields`` and ``_field_defaults``.
``DATACLASSES`` lists the dataclasses left, so that a new one is a reviewed
decision.
"""

import ast
import dataclasses
import re
from functools import cached_property
from pathlib import Path

import pytest

from safsec.adteval import PROBABILITY, AttributeDomain, VerdictPolicy
from safsec.confidence import GoalOpinion, SecurityVerdict
from safsec.conflicts import ContradictionWitness, RuleSet
from safsec.model import (Actor, AddCounterAction, AdtNode, AttackDefenseTree, Clause,
                          ConfidenceTriple, DefeaterCount, Diagnostic, Document, FailureMode,
                          FaultTree, FmeaRow, FmeaTable, GateOp, GsnModel, GsnNode, GuideWord,
                          HazardMeta, Impact, Literal, NodeKind, Record, Refinement, Requirement,
                          RequirementKind, Scenario, SecurityLink, SetDefeatersAction, Thresholds,
                          VoterMeta)
from safsec.modelfile.parser import ParseResult
from safsec.process import RoundEntry, Transcript

SRC = Path(__file__).resolve().parent.parent / "src" / "safsec"

DATACLASSES: set[str] = set()


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


# --- the frozen records: each former dataclass, and a change to its fields ---

_TRIPLE = ConfidenceTriple(0.5, 0.25, 0.25)
_COUNT = DefeaterCount(1, 2)
_CLAUSE = Clause((Literal("In"), Literal("Lock", False)), Literal("Open"))
_NODE = GsnNode("G1", NodeKind.GOAL, "top", defeaters=_COUNT)
_GSN = GsnModel("M", (_NODE, GsnNode("S1", NodeKind.SOLUTION, "proof", "G1")),
                (SecurityLink("G1", "A", 0.5),))
_FTA = FaultTree("T", "top", (("top", GateOp.AND, ("a", "b")),), frozenset({"a", "b"}))
_ADT = AttackDefenseTree("A", AdtNode(Actor.ATTACK, "x", attributes=(("cost", 1.0),)))
_POLICY = VerdictPolicy(False, "probability", "<=", 0.5)
_ENTRY = RoundEntry(1, "set_policy unassessed", SecurityVerdict.NO_ASSESSMENT, _TRIPLE)

RECORDS = [
    (PROBABILITY, {"attribute_key": "p"}),
    (_POLICY, {"threshold": 0.25, "prob_or": "noisy_or"}),
    (GoalOpinion(_COUNT, _TRIPLE, _TRIPLE, SecurityVerdict.ACCEPTABLE_RISK), {"verdict": None}),
    (RuleSet((_CLAUSE,), ("R1",), ("In", "Lock")), {"owners": ("R2",)}),
    (_TRIPLE, {"belief": 0.25, "uncertainty": 0.5}),
    (_GSN, {"name": "N"}),
    (_FTA, {"top": "a"}),
    (FmeaTable("F", (FmeaRow("R1", "f", FailureMode.ERRONEOUS, 9, 3, 2),)), {"rows": ()}),
    (_ADT, {"name": "B"}),
    (_CLAUSE, {"head": Literal("Open", False)}),
    (Requirement("R1", RequirementKind.SAFETY, "Door", (_CLAUSE,), frozenset({"In"})),
     {"inputs": frozenset()}),
    (Thresholds(0.8, 0.2, 0.1), {"max_uncertainty": 0.05}),
    (AddCounterAction("x", AdtNode(Actor.DEFENSE, "d")), {"at_label": "y"}),
    (SetDefeatersAction("G1", _COUNT), {"count": DefeaterCount(2, 2)}),
    (Scenario("S", "M", "A", Thresholds(0.8, 0.2, 0.1), 3, (_POLICY,)), {"max_rounds": 4}),
    (Document((_GSN, _FTA, _ADT)), {"blocks": (_FTA,)}),
    (Diagnostic("bad", "warning", 3, 4, "gsn M"), {"line": None, "column": None}),
    (ParseResult(Document(()), [Diagnostic("bad")]), {"document": None}),
    (_ENTRY, {"round": 2}),
    (Transcript(_TRIPLE, (_ENTRY,), "accepted"), {"status": "exhausted"}),
]
FORMER_DATACLASSES = {
    AttributeDomain, VerdictPolicy, GoalOpinion, RuleSet, ConfidenceTriple, GsnModel, FaultTree,
    FmeaTable, AttackDefenseTree, Clause, Requirement, Thresholds, AddCounterAction,
    SetDefeatersAction, Scenario, Document, Diagnostic, ParseResult, RoundEntry, Transcript,
}
IDS = [type(record).__name__ for record, _ in RECORDS]


def _values(record) -> list:
    return [getattr(record, name) for name in record._fields]


def _hashable(record) -> bool:
    return not any(isinstance(value, (list, dict)) for value in _values(record))


def test_the_samples_cover_every_former_dataclass():
    assert {type(record) for record, _ in RECORDS} == FORMER_DATACLASSES
    assert all(issubclass(kind, Record) for kind in FORMER_DATACLASSES)


@pytest.mark.parametrize("record, change", RECORDS, ids=IDS)
def test_a_record_is_frozen(record, change):
    assert not dataclasses.is_dataclass(record)
    for name in (*record._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)


@pytest.mark.parametrize("record, change", RECORDS, ids=IDS)
def test_a_record_compares_and_hashes_by_its_fields_and_type(record, change):
    kind = type(record)
    fresh = kind(*_values(record))
    for name, value in vars(kind).items():  # fill every cached index of the record
        if isinstance(value, cached_property):
            getattr(record, name)
    assert fresh is not record and fresh == record and not fresh != record
    other = record._replace(**change)
    assert other != record and not other == record
    kin = type("Kin", (kind,), {})(*_values(record))  # a subclass with equal fields
    assert kin != record and record != kin
    assert record != tuple(_values(record))
    if _hashable(record):
        assert hash(fresh) == hash(record)
        assert len({record, fresh, other}) == 2
    else:
        with pytest.raises(TypeError):
            hash(record)


@pytest.mark.parametrize("record, change", RECORDS, ids=IDS)
def test_replace_fields_and_defaults(record, change):
    kind = type(record)
    assert kind._fields == tuple(kind.__annotations__)
    assert set(kind._field_defaults) <= set(kind._fields)
    changed = record._replace(**change)
    assert type(changed) is kind
    assert _values(changed) == [change.get(name, getattr(record, name)) for name in kind._fields]
    assert record._replace() == record
    required = {name: getattr(record, name) for name in kind._fields
                if name not in kind._field_defaults}
    assert kind(**required) == record._replace(**kind._field_defaults)
    with pytest.raises(TypeError):
        record._replace(no_such_field=1)


@pytest.mark.parametrize("record, change", RECORDS, ids=IDS)
def test_a_record_reprs_as_its_call(record, change):
    fields = ", ".join(f"{name}={getattr(record, name)!r}" for name in record._fields)
    assert repr(record) == f"{type(record).__name__}({fields})"
    assert re.fullmatch(rf"{type(record).__name__}\({record._fields[0]}=.*\)", repr(record))


def test_the_record_forms_that_code_relies_on():
    assert Diagnostic._fields == ("message", "severity", "line", "column", "context")
    assert Diagnostic._field_defaults == {"severity": "error", "line": None, "column": None,
                                          "context": ""}
    assert repr(Diagnostic("m", line=3)) == (
        "Diagnostic(message='m', severity='error', line=3, column=None, context='')")
    assert Thresholds(max_uncertainty=0.1, min_belief=0.8, max_disbelief=0.2) == Thresholds(
        0.8, 0.2, 0.1)
    assert VerdictPolicy() == VerdictPolicy(False, "probability", "<=", 0.0, "max")


@pytest.mark.parametrize("args, kwargs", [
    ((0.5, 0.5), {}),  # a field missing
    ((0.5, 0.25, 0.25, 0.0), {}),  # one value too many
    ((0.5, 0.25, 0.25), {"belief": 0.5}),  # a field given twice
    ((0.5, 0.25), {"doubt": 0.25}),  # an unknown field
])
def test_a_call_that_a_function_would_refuse_raises_type_error(args, kwargs):
    with pytest.raises(TypeError):
        ConfidenceTriple(*args, **kwargs)


@pytest.mark.parametrize("values, error", [
    ((0.5, 0.25, 0.5), ValueError),  # the sum is not 1
    ((1.5, -0.25, -0.25), ValueError),  # out of [0, 1]
    ((float("nan"), 0.5, 0.5), ValueError),
    ((True, False, False), TypeError),  # a bool is not a number here
    (("0.5", 0.25, 0.25), TypeError),
])
def test_a_confidence_triple_still_refuses_bad_values(values, error):
    with pytest.raises(error):
        ConfidenceTriple(*values)
    with pytest.raises(error):
        _TRIPLE._replace(**dict(zip(ConfidenceTriple._fields, values)))


def test_a_bad_verdict_policy_is_refused_through_replace_too():
    with pytest.raises(ValueError, match="comparison must be"):
        _POLICY._replace(op="<")


# --- the tuple records ---------------------------------------------------------

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
