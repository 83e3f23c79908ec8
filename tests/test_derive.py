import re
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import naive_derive_adt
from safsec.derive import (
    derive_adt,
    fmea_attack_subtree,
    fta_attack_subtree,
    severity_to_impact,
    voter_attack_subtree,
)
from safsec.model import (
    Actor,
    DefeaterCount,
    Document,
    FailureMode,
    FaultTree,
    FmeaRow,
    FmeaTable,
    GateOp,
    GsnModel,
    GsnNode,
    GuideWord,
    HazardMeta,
    Impact,
    NodeKind,
    Refinement,
    VoterMeta,
)
from safsec.validate import validate_model

GOAL, SOLUTION, STRATEGY = NodeKind.GOAL, NodeKind.SOLUTION, NodeKind.STRATEGY


def voter(*signals, threshold):
    return VoterMeta(signals=tuple(signals), threshold=threshold, trace="V")


class TestVoterSubtree:
    def test_2_of_2_trigger(self):
        frag = voter_attack_subtree(voter("Gyro", "Crash", threshold=2), GuideWord.TRIGGER)
        assert frag.refinement is Refinement.OR
        labels = [c.label for c in frag.children]
        assert labels == ["tamper voter V", "spoof Gyro, Crash"]
        spoof = frag.children[1]
        assert spoof.refinement is Refinement.AND
        assert [c.label for c in spoof.children] == ["spoof Gyro", "spoof Crash"]

    def test_1_of_2_trigger_has_plain_leaves(self):
        frag = voter_attack_subtree(voter("S1", "S2", threshold=1), GuideWord.TRIGGER)
        assert [c.label for c in frag.children] == [
            "tamper voter V",
            "spoof S1",
            "spoof S2",
        ]
        assert all(c.refinement is Refinement.LEAF for c in frag.children)

    def test_stopping_is_denial_of_service_leaf(self):
        frag = voter_attack_subtree(voter("S1", "S2", threshold=2), GuideWord.STOPPING)
        assert frag.refinement is Refinement.LEAF
        assert frag.label == "deny_service voter V"

    def test_other_guide_words_rejected(self):
        with pytest.raises(ValueError, match="defined for trigger/stopping only, got disclosure"):
            voter_attack_subtree(voter("S1", threshold=1), GuideWord.DISCLOSURE)

    @pytest.mark.parametrize("n,m", [(3, 2), (5, 3), (6, 1), (4, 4)])
    def test_subset_count(self, n, m):
        meta = voter(*(f"S{i}" for i in range(n)), threshold=m)
        frag = voter_attack_subtree(meta, GuideWord.TRIGGER)
        # One tamper leaf plus C(n, m) subset fragments.
        assert len(frag.children) == 1 + comb(n, m)

    def test_signal_bound(self):
        meta = voter(*(f"S{i}" for i in range(13)), threshold=2)
        with pytest.raises(ValueError, match="bound"):
            voter_attack_subtree(meta, GuideWord.TRIGGER)


class TestFtaSubtree:
    def test_single_cut_set_becomes_and(self):
        t = FaultTree(
            name="F",
            top="Y",
            gates=(("Y", GateOp.AND, ("B", "C")),),
            basic_events=frozenset("BC"),
        )
        frag = fta_attack_subtree(t)
        assert frag.refinement is Refinement.AND
        assert [c.label for c in frag.children] == ["trigger B", "trigger C"]

    def test_multiple_cut_sets_or_over_ands(self):
        t = FaultTree(
            name="F",
            top="Y",
            gates=(("Y", GateOp.OR, ("A", "BC")), ("BC", GateOp.AND, ("B", "C"))),
            basic_events=frozenset("ABC"),
        )
        frag = fta_attack_subtree(t)
        assert frag.refinement is Refinement.OR
        assert [c.label for c in frag.children] == ["trigger A", "trigger B, C"]


class TestFmeaSubtree:
    def test_loss_of_function(self):
        table = FmeaTable(
            name="T",
            rows=(
                FmeaRow(
                    id="r1",
                    function="brake",
                    failure_mode=FailureMode.LOSS_OF_FUNCTION,
                    severity=5,
                    occurrence=1,
                    detection=1,
                ),
            ),
        )
        (frag,) = fmea_attack_subtree(table)
        assert frag.refinement is Refinement.OR
        assert [c.label for c in frag.children] == [
            "deny_service brake",
            "tamper brake",
        ]
        assert frag.impact is Impact.MEDIUM

    def test_erroneous_high_severity(self):
        table = FmeaTable(
            name="T",
            rows=(
                FmeaRow(
                    id="r1",
                    function="steer",
                    failure_mode=FailureMode.ERRONEOUS,
                    severity=9,
                    occurrence=1,
                    detection=1,
                ),
            ),
        )
        (frag,) = fmea_attack_subtree(table)
        assert frag.refinement is Refinement.LEAF
        assert frag.label == "tamper steer"
        assert frag.impact is Impact.HIGH

    def test_empty_table(self):
        assert fmea_attack_subtree(FmeaTable(name="T", rows=())) == []

    @pytest.mark.parametrize(
        "severity,expected",
        [(1, Impact.LOW), (3, Impact.LOW), (4, Impact.MEDIUM), (7, Impact.MEDIUM), (8, Impact.HIGH), (10, Impact.HIGH)],
    )
    def test_severity_banding(self, severity, expected):
        assert severity_to_impact(severity) is expected


class TestDeriveAdt:
    def test_airbag_derivation(self, airbag_doc):
        model = airbag_doc.gsns["Airbag"]
        tree = derive_adt(model, airbag_doc.ftas, airbag_doc.fmeas)
        root = tree.root
        assert root.label == "Attack Airbag"
        assert root.refinement is Refinement.OR
        assert root.actor is Actor.ATTACK
        by_label = {c.label: c for c in root.children}
        assert set(by_label) == {"Stop Airbag", "Trigger Airbag"}

        stop = by_label["Stop Airbag"]
        assert stop.impact is Impact.LOW
        assert [c.label for c in stop.children] == ["deny_service voter Airbag"]

        trigger = by_label["Trigger Airbag"]
        assert trigger.impact is Impact.HIGH
        (defeat,) = trigger.children
        assert [c.label for c in defeat.children] == [
            "tamper voter Airbag",
            "spoof Gyroscope, CrashDetector",
        ]

    def test_voter_cross_cuts_all_branches(self, airbag_doc):
        # The voter hangs under the trigger hazard only, yet attacks on it
        # appear in both branches because it is traced to the same component.
        model = airbag_doc.gsns["Airbag"]
        tree = derive_adt(model)

        def labels(node):
            yield node.label
            for child in node.children:
                yield from labels(child)

        for branch in tree.root.children:
            assert any("voter Airbag" in l for l in labels(branch))

    def test_deterministic(self, airbag_doc):
        model = airbag_doc.gsns["Airbag"]
        assert derive_adt(model) == derive_adt(model)

    def test_hazard_without_solutions_becomes_leaf(self):
        model = GsnModel(
            name="Pump",
            nodes=(
                GsnNode(
                    "G1",
                    GOAL,
                    "no overpressure",
                    hazard=HazardMeta(Impact.HIGH, GuideWord.TRIGGER, "Pump"),
                ),
            ),
        )
        tree = derive_adt(model)
        (branch,) = tree.root.children
        assert branch.refinement is Refinement.LEAF
        assert branch.label == "Trigger Pump"
        assert branch.impact is Impact.HIGH

    def test_no_hazards_is_an_error(self):
        model = GsnModel(name="Empty", nodes=(GsnNode("G1", GOAL, "safe"),))
        with pytest.raises(ValueError, match="nothing to derive"):
            derive_adt(model)

    def test_fta_solution_attaches_under_its_hazard(self):
        fault_tree = FaultTree(
            name="FT",
            top="Y",
            gates=(("Y", GateOp.AND, ("B", "C")),),
            basic_events=frozenset("BC"),
        )
        model = GsnModel(
            name="Item",
            nodes=(
                GsnNode("G0", GOAL, "root"),
                GsnNode(
                    "G1",
                    GOAL,
                    "hazard",
                    parent="G0",
                    hazard=HazardMeta(Impact.LOW, GuideWord.TRIGGER, "Item"),
                ),
                GsnNode("ST", STRATEGY, "by analysis", parent="G1"),
                GsnNode("S1", SOLUTION, "fta done", parent="ST", fta_ref="FT"),
            ),
        )
        tree = derive_adt(model, {"FT": fault_tree}, {})
        (branch,) = tree.root.children
        (frag,) = branch.children
        assert [c.label for c in frag.children] == ["trigger B", "trigger C"]

    def test_parent_cycle_is_an_error(self):
        # The one structural check derivation keeps: S1 hangs under a loop,
        # so no walk down from a top reaches it.  Validation reports the
        # cycle in the same words.
        hazard = HazardMeta(Impact.LOW, GuideWord.TRIGGER, "Item")
        model = GsnModel(
            name="Item",
            nodes=(
                GsnNode("G1", GOAL, "hazard", hazard=hazard),
                GsnNode("ST", STRATEGY, "a", parent="S2"),
                GsnNode("S2", STRATEGY, "b", parent="ST"),
                GsnNode("S1", SOLUTION, "fta done", parent="ST"),
            ),
        )
        with pytest.raises(ValueError, match="^gsn 'Item': cycle through node 'S1'$"):
            derive_adt(model)

    def test_impact_preserved_per_branch(self, airbag_doc):
        model = airbag_doc.gsns["Airbag"]
        tree = derive_adt(model)
        verb = {GuideWord.STOPPING: "Stop", GuideWord.TRIGGER: "Trigger"}
        hazard_impacts = {
            f"{verb[g.hazard.mechanism]} {g.hazard.trace}": g.hazard.impact
            for g in model.goals()
            if g.hazard is not None
        }
        for branch in tree.root.children:
            assert branch.impact is hazard_impacts[branch.label]


# Blocks that the random models' solutions reference: fault trees with one
# and with two minimal cut sets, and FMEA tables with rows of every failure
# mode and with none.
FAULT_TREES = {
    "F1": FaultTree("F1", "Y", (("Y", GateOp.AND, ("B", "C")),), frozenset("BC")),
    "F2": FaultTree("F2", "Y", (("Y", GateOp.OR, ("A", "BC")), ("BC", GateOp.AND, ("B", "C"))),
                    frozenset("ABC")),
}
FMEA_TABLES = {
    "T1": FmeaTable("T1", tuple(FmeaRow(f"r{i}", f"f{i}", mode, 2 + 3 * i, 1, 1)
                                for i, mode in enumerate(FailureMode))),
    "T0": FmeaTable("T0", ()),
}
TRACES = ["X", "Y"]


@st.composite
def derivable_models(draw):
    """GSN models whose every solution reaches a top: each node's parent is
    None or an id declared before it.  Goals may carry hazards (of voter
    mechanisms and of another), strategies sit between them, solutions
    carry voters whose traces match a hazard's or miss (``Z``), ``fta_ref``
    and ``fmea_ref``, and a goal id may be declared again, hazard and all."""
    nodes: list[GsnNode] = []
    for i in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from([GOAL, GOAL, STRATEGY, SOLUTION, SOLUTION]))
        parent = draw(st.sampled_from([None, *dict.fromkeys(n.id for n in nodes)]))
        if kind is GOAL:
            goal_ids = [n.id for n in nodes if n.kind is GOAL]
            repeat = goal_ids and draw(st.booleans())
            hazard = draw(st.none() | st.builds(
                HazardMeta, st.sampled_from(list(Impact)),
                st.sampled_from([GuideWord.TRIGGER, GuideWord.STOPPING, GuideWord.DISCLOSURE]),
                st.sampled_from(TRACES)))
            node_id = draw(st.sampled_from(goal_ids)) if repeat else f"G{i}"
            nodes.append(GsnNode(node_id, kind, "t", parent=parent, hazard=hazard))
        elif kind is STRATEGY:
            nodes.append(GsnNode(f"ST{i}", kind, "t", parent=parent))
        else:
            signals = draw(st.lists(st.sampled_from(["s1", "s2", "s3"]), min_size=1,
                                    max_size=3, unique=True))
            voter = draw(st.none() | st.builds(
                VoterMeta, st.just(tuple(signals)), st.integers(1, len(signals)),
                st.sampled_from([*TRACES, "Z"])))
            nodes.append(GsnNode(f"S{i}", kind, "t", parent=parent, voter=voter,
                                 fta_ref=draw(st.sampled_from([None, *FAULT_TREES])),
                                 fmea_ref=draw(st.sampled_from([None, *FMEA_TABLES]))))
    return GsnModel("M", tuple(nodes))


def hazard_goal(node_id, mechanism, trace="X", parent=None):
    return GsnNode(node_id, GOAL, "t", parent=parent,
                   hazard=HazardMeta(Impact.HIGH, mechanism, trace))


# A hazard goal id declared twice, with a voter traced to it and FTA and
# FMEA solutions under its first declaration through a strategy.
REPEATED_HAZARD = GsnModel("M", (
    hazard_goal("G0", GuideWord.TRIGGER),
    GsnNode("ST", STRATEGY, "t", parent="G0"),
    GsnNode("S1", SOLUTION, "t", parent="ST", fta_ref="F2", fmea_ref="T1"),
    GsnNode("S2", SOLUTION, "t", parent="G0", voter=VoterMeta(("s1", "s2"), 1, "X")),
    hazard_goal("G0", GuideWord.STOPPING, parent="ST"),
))


class TestDeriveMatchesNaive:
    @settings(max_examples=300, deadline=None)
    @given(derivable_models())
    @example(REPEATED_HAZARD)
    def test_derivation_matches_the_goal_by_solution_scan(self, model):
        try:
            expected = naive_derive_adt(model, FAULT_TREES, FMEA_TABLES)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                derive_adt(model, FAULT_TREES, FMEA_TABLES)
            return
        assert derive_adt(model, FAULT_TREES, FMEA_TABLES) == expected

    def test_each_declaration_of_a_repeated_hazard_goal_gets_one_copy(self):
        # Both declarations get the fragments anchored at the id, and each
        # gets the voter fragment of its own mechanism, once.
        trigger, stop = derive_adt(REPEATED_HAZARD, FAULT_TREES, FMEA_TABLES).root.children
        anchored = ["trigger F2", "disable f0", "tamper f1", "trigger f2",
                    "deny_service sub-function of f3"]
        assert [c.label for c in trigger.children] == [*anchored, "defeat voter X"]
        assert [c.label for c in stop.children] == [*anchored, "deny_service voter X"]

    def test_a_solution_under_a_strategy_loop_raises(self):
        # S1's nearest hazard goal, G1, hangs under the A/B loop, so S1 is on
        # no walk down from a top, and derivation refuses it as the
        # validator does.
        model = GsnModel("Loop", (
            hazard_goal("G0", GuideWord.TRIGGER),
            GsnNode("A", STRATEGY, "t", parent="B"),
            GsnNode("B", STRATEGY, "t", parent="A"),
            hazard_goal("G1", GuideWord.TRIGGER, parent="A"),
            GsnNode("S1", SOLUTION, "t", parent="G1", fmea_ref="T1"),
        ))
        with pytest.raises(ValueError, match="^gsn 'Loop': cycle through node 'S1'$"):
            derive_adt(model, {}, FMEA_TABLES)
        messages = [d.message for d in validate_model(Document((model, FMEA_TABLES["T1"])))]
        assert "cycle through node 'S1'" in messages
