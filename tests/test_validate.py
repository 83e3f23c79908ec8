import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safsec.adteval import UNASSESSED, VerdictPolicy
from safsec.model import (
    Actor,
    AddCounterAction,
    AdtNode,
    AttackDefenseTree,
    DefeaterCount,
    Document,
    FaultTree,
    GateOp,
    GsnModel,
    GsnNode,
    GuideWord,
    HazardMeta,
    Impact,
    NodeKind,
    Refinement,
    Scenario,
    SecurityLink,
    SetDefeatersAction,
    Thresholds,
    VoterMeta,
    sort_key,
)
from safsec.process import run_process
from safsec.validate import validate_block, validate_model

from conftest import parse_bundled
from generators import random_document

GOAL = NodeKind.GOAL


def gsn(*nodes, links=(), name="M"):
    return Document((GsnModel(name=name, nodes=tuple(nodes), security_links=tuple(links)),))


def test_airbag_model_is_clean(airbag_doc):
    assert validate_model(airbag_doc) == []


def test_multiple_roots():
    doc = gsn(GsnNode("G1", GOAL, "a"), GsnNode("G2", GOAL, "b"))
    diags = validate_model(doc)
    assert any("multiple roots" in d.message for d in diags)


def test_every_repeat_of_a_kind_and_name_is_an_error():
    # Equal blocks too: only the first block of each kind and name is left alone.
    def tree():
        return FaultTree("T", "E", (), frozenset({"E"}))

    model = GsnModel("T", (GsnNode("G1", GOAL, "a"),))
    doc = Document((tree(), model, tree(), tree()))
    assert [validate_block(b, doc) != [] for b in doc.blocks] == [False, False, True, True]
    assert [str(d) for d in validate_model(doc)] == ["error: duplicate fta name 'T' [fta T]"] * 2


def test_voter_threshold_exceeds_signals():
    doc = gsn(
        GsnNode("G1", GOAL, "a"),
        GsnNode(
            "S1",
            NodeKind.SOLUTION,
            "v",
            parent="G1",
            voter=VoterMeta(signals=("A", "B"), threshold=3, trace="X"),
        ),
    )
    diags = validate_model(doc)
    assert any("threshold" in d.message and "exceeds" in d.message for d in diags)


def test_annotations_rejected_on_wrong_kinds():
    doc = gsn(
        GsnNode("G1", GOAL, "a"),
        GsnNode(
            "C1",
            NodeKind.CONTEXT,
            "ctx",
            parent="G1",
            voter=VoterMeta(signals=("A",), threshold=1, trace="X"),
        ),
    )
    assert any("only on solutions" in d.message for d in validate_model(doc))


def test_parent_cycle_detected():
    doc = gsn(
        GsnNode("G1", GOAL, "a"),
        GsnNode("G2", GOAL, "b", parent="G3"),
        GsnNode("G3", GOAL, "c", parent="G2"),
    )
    assert any("cycle" in d.message for d in validate_model(doc))


def test_multiple_security_links_per_goal_rejected():
    doc = gsn(
        GsnNode("G1", GOAL, "a"),
        links=[SecurityLink("G1", "A1", 1.0), SecurityLink("G1", "A2", 1.0)],
    )
    assert any("multiple security links" in d.message for d in validate_model(doc))


def test_unresolved_fta_ref():
    doc = gsn(
        GsnNode("G1", GOAL, "a"),
        GsnNode("S1", NodeKind.SOLUTION, "s", parent="G1", fta_ref="missing"),
    )
    assert any("unresolved fta_ref" in d.message for d in validate_model(doc))


def test_fta_unreachable_and_cycle():
    cyclic = Document(
        (
            FaultTree(
                name="T",
                top="G0",
                gates=(("G0", GateOp.OR, ("G1",)), ("G1", GateOp.OR, ("G0",))),
                basic_events=frozenset(),
            ),
        )
    )
    assert any("cycle" in d.message for d in validate_model(cyclic))

    orphan = Document(
        (
            FaultTree(
                name="T",
                top="G0",
                gates=(("G0", GateOp.OR, ("A",)),),
                basic_events=frozenset({"A", "B"}),
            ),
        )
    )
    assert any("unreachable" in d.message for d in validate_model(orphan))


def test_validation_order_independent():
    nodes = [
        GsnNode("G1", GOAL, "a"),
        GsnNode("G2", GOAL, "b"),  # second root
        GsnNode(
            "S1",
            NodeKind.SOLUTION,
            "v",
            parent="G1",
            voter=VoterMeta(signals=("A",), threshold=4, trace="X"),
        ),
    ]
    rng = random.Random(7)
    baseline = validate_model(gsn(*nodes))
    for _ in range(10):
        shuffled = nodes[:]
        rng.shuffle(shuffled)
        assert validate_model(gsn(*shuffled)) == baseline


def errors(*blocks):
    """(message, context) of every diagnostic of a document of ``blocks``."""
    return [(d.message, d.context) for d in validate_model(Document(blocks))]


@pytest.mark.parametrize("seed", range(20))
def test_validate_model_is_the_sorted_concatenation_of_validate_block(seed):
    document = random_document(random.Random(seed))
    blocks = [d for b in document.blocks for d in validate_block(b, document)]
    assert validate_model(document) == sorted(blocks, key=sort_key)


@pytest.mark.parametrize("name", ["airbag.ssm", "servertheft.ssm", "building.ssm",
                                  "building_revised.ssm"])
def test_every_bundled_block_is_clean(name):
    document = parse_bundled(name)
    assert [validate_block(b, document) for b in document.blocks] == [[]] * len(document.blocks)


# Inputs that once reached an engine check, which validation has replaced.


@pytest.mark.parametrize("refinement", [Refinement.AND, Refinement.OR])
def test_refined_adt_node_without_children_names_the_node(refinement):
    empty = AdtNode(actor=Actor.ATTACK, label="empty", refinement=refinement)
    root = AdtNode(
        actor=Actor.ATTACK,
        label="root",
        refinement=Refinement.OR,
        children=(AdtNode(Actor.ATTACK, "a", attributes=(("cost", 1.0),)), empty),
    )
    assert errors(AttackDefenseTree("t", root)) == [
        (f"{refinement.value} node 'empty' has no children", "adt t")]


def test_two_security_links_on_one_goal():
    model = GsnModel(
        name="M",
        nodes=(
            GsnNode("G0", GOAL, "root", defeaters=DefeaterCount(14, 18)),
            GsnNode("G1", GOAL, "sub", parent="G0", defeaters=DefeaterCount(0, 0)),
        ),
        security_links=(SecurityLink("G0", "A", 2.0), SecurityLink("G0", "B", 1.0)),
    )
    assert errors(model) == [("multiple security links on goal 'G0'", "gsn M/security_link 'B'")]


def test_unknown_solution_ancestor():
    hazard = HazardMeta(Impact.LOW, GuideWord.TRIGGER, "Item")
    model = GsnModel(
        name="Item",
        nodes=(
            GsnNode("G1", GOAL, "hazard", hazard=hazard),
            GsnNode("ST", NodeKind.STRATEGY, "a", parent="missing"),
            GsnNode("S2", NodeKind.STRATEGY, "b", parent="ST"),
            GsnNode("S1", NodeKind.SOLUTION, "fta done", parent="ST"),
        ),
    )
    assert errors(model) == [("unknown parent node 'missing'", "gsn Item/ST")]


def test_fault_tree_cycle_names_a_gate_on_it():
    cyclic = FaultTree(
        name="FT",
        top="Y",
        gates=(("Y", GateOp.OR, ("A", "Z")), ("Z", GateOp.AND, ("Y", "B"))),
        basic_events=frozenset("AB"),
    )
    assert errors(cyclic) == [("cycle through gate 'Y'", "fta FT")]


# Scenario rounds, checked against the state the earlier rounds leave.

LINKED = GsnModel(
    name="m",
    nodes=(GsnNode("G1", GOAL, "root", defeaters=DefeaterCount(1, 2)),
           GsnNode("C1", NodeKind.CONTEXT, "ctx", parent="G1")),
    security_links=(SecurityLink("G1", "a", 1.0),),
)
# Attack "x", countered by defense "d".
COUNTERED = AttackDefenseTree("a", AdtNode(
    Actor.ATTACK, "x", attributes=(("probability", 0.5),),
    counter=AdtNode(Actor.DEFENSE, "d", attributes=(("probability", 0.8),)),
))


def scenario(*actions, gsn_name="m", adt_name="a"):
    return Scenario("s", gsn_name, adt_name, Thresholds(0.9, 0.1, 0.1), 5, actions)


def counter(at_label, label, actor=Actor.ATTACK, refinement=Refinement.LEAF):
    return AddCounterAction(at_label, AdtNode(actor, label, refinement))


def test_unknown_scenario_blocks():
    assert errors(LINKED, COUNTERED, scenario(UNASSESSED, gsn_name="nope", adt_name="b")) == [
        ("unknown adt 'b'", "scenario s"), ("unknown gsn model 'nope'", "scenario s")]


def test_a_counter_may_counter_a_countermeasure_or_an_earlier_rounds_node():
    rounds = scenario(counter("d", "bypass"), counter("bypass", "guard", Actor.DEFENSE))
    assert errors(LINKED, COUNTERED, rounds) == []


def test_unknown_counter_target_names_the_round():
    rounds = scenario(UNASSESSED, counter("guard", "bypass"),
                      counter("bypass", "guard", Actor.DEFENSE))
    assert errors(LINKED, COUNTERED, rounds) == [("unknown adt node 'guard'", "scenario s/round 2")]


def test_a_counter_is_checked_as_an_adt_node():
    rounds = scenario(counter("d", "bypass", refinement=Refinement.AND))
    assert errors(LINKED, COUNTERED, rounds) == [
        ("AND node 'bypass' has no children", "scenario s/round 1")]


@pytest.mark.parametrize("goal, outruled, total, message", [
    ("C1", 1, 2, "set_defeaters target 'C1' is not a goal of gsn 'm'"),
    ("nope", 1, 2, "set_defeaters target 'nope' is not a goal of gsn 'm'"),
    ("G1", 3, 2, "outruled defeaters (3) exceed total (2)"),
])
def test_set_defeaters_round(goal, outruled, total, message):
    count = DefeaterCount(outruled, total)
    rounds = scenario(UNASSESSED, SetDefeatersAction(goal, count))
    assert errors(LINKED, COUNTERED, rounds) == [(message, "scenario s/round 2")]


def test_scenario_gsn_root_must_be_a_goal():
    strategy_root = GsnModel("m", (GsnNode("S0", NodeKind.STRATEGY, "s"),
                                   GsnNode("G1", GOAL, "g", parent="S0")))
    assert errors(strategy_root, COUNTERED, scenario(UNASSESSED)) == [
        ("root node 'S0' of gsn 'm' is not a goal", "scenario s")]


@pytest.mark.parametrize("gsn_name, adt_name, message", [
    ("nope", "a", "unknown gsn model 'nope'"),
    ("m", "b", "unknown adt 'b'"),
])
def test_an_unknown_gsn_or_adt_replays_no_round(gsn_name, adt_name, message):
    rounds = scenario(counter("d", "bypass", refinement=Refinement.AND),
                      SetDefeatersAction("C1", DefeaterCount(1, 2)),
                      gsn_name=gsn_name, adt_name=adt_name)
    assert errors(LINKED, COUNTERED, rounds) == [(message, "scenario s")]


def test_a_tree_that_fails_its_node_checks_is_not_folded():
    # process run refuses such a tree before its first round, so no round
    # reads a leaf: "x" lacks cost, but only the node check is reported.
    bare_and = AdtNode(Actor.ATTACK, "bare", Refinement.AND)
    adt = AttackDefenseTree("a", AdtNode(Actor.ATTACK, "r", Refinement.OR,
                                         children=(AdtNode(Actor.ATTACK, "x"), bare_and)))
    cost = VerdictPolicy(attribute="cost", op="<=", threshold=1.0)
    assert errors(LINKED, adt, scenario(cost)) == [("AND node 'bare' has no children", "adt a")]
    # The same for a counter, and for every round after it.
    bypass = AdtNode(Actor.ATTACK, "bypass", Refinement.OR,
                     children=(AdtNode(Actor.ATTACK, "y"), bare_and))
    rounds = scenario(AddCounterAction("d", bypass), cost)
    assert errors(LINKED, COUNTERED, rounds) == [
        ("AND node 'bare' has no children", "scenario s/round 1")]


@pytest.mark.parametrize("max_rounds, ran, diags", [
    (1, [1], []),
    (0, [], [("max_rounds must be positive", "scenario s")]),
    (-1, [], [("max_rounds must be positive", "scenario s")]),
])
def test_only_rounds_up_to_max_rounds_are_checked(max_rounds, ran, diags):
    rounds = Scenario("s", "m", "a", Thresholds(0.9, 0.1, 0.1), max_rounds,
                      (UNASSESSED, counter("nope", "bypass")))
    assert errors(LINKED, COUNTERED, rounds) == diags
    transcript = run_process(Document((LINKED, COUNTERED, rounds)), rounds)
    assert [e.round for e in transcript.entries] == ran


# The validator against ``run_process`` on random rounds.  Labels come from a
# small pool, so a counter can land on a countermeasure, on a node an earlier
# round added, or on a node countered before.

LABELS = ("x", "y", "z", "d")
VALUES = st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0])
SOME_ATTRIBUTES = st.dictionaries(st.sampled_from(["probability", "cost", "time"]), VALUES,
                                  max_size=3)
# A tree whose every leaf has every attribute passes its ``set_policy`` rounds.
ALL_ATTRIBUTES = st.fixed_dictionaries({k: VALUES for k in ("probability", "cost", "time")})


@st.composite
def well_formed_nodes(draw, actor: Actor, depth: int, attributes=SOME_ATTRIBUTES) -> AdtNode:
    """A node that validates: an AND/OR node has one or two children of its
    actor, and a counter has the opposite actor."""
    refinement = draw(st.sampled_from(Refinement)) if depth else Refinement.LEAF
    children = () if refinement is Refinement.LEAF else tuple(draw(st.lists(
        well_formed_nodes(actor, depth - 1, attributes), min_size=1, max_size=2)))
    counter = None
    if depth:
        counter = draw(st.none() | well_formed_nodes(actor.opposite, depth - 1, attributes))
    return AdtNode(actor, draw(st.sampled_from(LABELS)), refinement, children, counter,
                   tuple(draw(attributes).items()))


POLICIES = st.just(UNASSESSED) | st.builds(
    VerdictPolicy, attribute=st.sampled_from(["probability", "cost", "time", "time_sequential",
                                              "colour"]),
    op=st.sampled_from(["<=", ">="]), threshold=st.sampled_from([0.0, 0.5, 10.0]),
    prob_or=st.sampled_from(["max", "noisy_or"]))
ROUNDS = st.one_of(
    st.builds(AddCounterAction, st.sampled_from(LABELS + ("nope",)),
              st.sampled_from(Actor).flatmap(lambda actor: well_formed_nodes(actor, 1))),
    POLICIES,
    st.builds(SetDefeatersAction, st.sampled_from(["G1", "G2", "C1", "nope"]),
              st.builds(DefeaterCount, st.integers(0, 5), st.integers(0, 5))),
)
TWO_GOALS = GsnModel(
    name="m",
    nodes=(GsnNode("G1", GOAL, "root", defeaters=DefeaterCount(1, 2)),
           GsnNode("G2", GOAL, "sub", parent="G1"),
           GsnNode("C1", NodeKind.CONTEXT, "ctx", parent="G1")),
    security_links=(SecurityLink("G1", "a", 1.0),),
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([ALL_ATTRIBUTES, SOME_ATTRIBUTES]).flatmap(
    lambda attributes: well_formed_nodes(Actor.ATTACK, 3, attributes)),
    st.lists(ROUNDS, min_size=1, max_size=6), st.data())
def test_the_validator_refuses_the_round_that_run_process_refuses(root, actions, data):
    # The uncertainty never reaches 0, so every round up to max_rounds runs.
    max_rounds = data.draw(st.integers(1, len(actions) + 1), label="max_rounds")
    rounds = Scenario("s", "m", "a", Thresholds(1.0, 0.0, 0.0), max_rounds, tuple(actions))
    adt = AttackDefenseTree("a", root)
    document = Document((TWO_GOALS, adt, rounds))
    assert validate_block(TWO_GOALS, document) == validate_block(adt, document) == []
    found = []
    for diag in validate_block(rounds, document):
        head, _, round_no = diag.context.rpartition(" ")
        assert head == "scenario s/round"
        found.append((int(round_no), diag.message))
    if not found:
        assert len(run_process(document, rounds).entries) == min(max_rounds, len(actions))
        return
    round_no, message = min(found)
    with pytest.raises(ValueError) as refused:
        run_process(document, rounds)
    assert str(refused.value) == f"round {round_no}: {message}"
