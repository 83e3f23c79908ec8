"""Scripted assessment rounds driven by a scenario block."""

import pytest

from safsec import process
from safsec.adteval import UNASSESSED, VerdictPolicy
from safsec.confidence import SecurityVerdict
from safsec.model import (
    Actor,
    AddCounterAction,
    AdtNode,
    AttackDefenseTree,
    Document,
    GsnModel,
    GsnNode,
    DefeaterCount,
    NodeKind,
    Refinement,
    Scenario,
    SecurityLink,
    SetDefeatersAction,
    Thresholds,
    adt_walk,
)
from safsec.process import (
    TRANSCRIPT_NOTE,
    apply_round,
    attach_counter,
    rounds,
    run_process,
    set_defeaters,
)


def node_by_label(tree, label):
    for _, node in tree.walk():
        if node.label == label:
            return node
    raise AssertionError(f"no node labelled {label!r}")


def simple_document(thresholds, actions, max_rounds=5):
    model = GsnModel(
        name="m",
        nodes=(
            GsnNode(
                id="G1",
                kind=NodeKind.GOAL,
                text="root",
                defeaters=DefeaterCount(14, 18),
            ),
        ),
        security_links=(SecurityLink(goal_id="G1", adt_name="a", weight=2.0),),
    )
    adt = AttackDefenseTree(
        name="a",
        root=AdtNode(
            actor=Actor.ATTACK,
            label="break in",
            attributes=(("probability", 0.3),),
        ),
    )
    scenario = Scenario(
        name="s",
        gsn_name="m",
        adt_name="a",
        thresholds=thresholds,
        max_rounds=max_rounds,
        actions=tuple(actions),
    )
    return Document((model, adt, scenario)), scenario


class TestAirbagScenario:
    def test_transcript(self, airbag_doc):
        scenario = airbag_doc.scenarios["Airbag Hardening"]
        transcript = run_process(airbag_doc, scenario)
        assert transcript.status == "accepted"
        assert transcript.initial_triple.rounded() == (0.23, 0.07, 0.70)
        verdicts = [e.verdict for e in transcript.entries]
        assert verdicts == [
            SecurityVerdict.NO_ASSESSMENT,
            SecurityVerdict.UNACCEPTABLE_RISK,
            SecurityVerdict.ACCEPTABLE_RISK,
        ]
        assert transcript.entries[1].triple.rounded() == (0.23, 0.73, 0.03)
        assert transcript.final_triple.rounded() == (0.90, 0.07, 0.03)

    def test_round_numbers_and_descriptions(self, airbag_doc):
        scenario = airbag_doc.scenarios["Airbag Hardening"]
        transcript = run_process(airbag_doc, scenario)
        assert [e.round for e in transcript.entries] == [1, 2, 3]
        assert transcript.entries[0].action == "set_policy unassessed"
        assert "0.1" in transcript.entries[1].action
        assert "plausibility checks" in transcript.entries[2].action

    def test_deterministic(self, airbag_doc):
        scenario = airbag_doc.scenarios["Airbag Hardening"]
        assert run_process(airbag_doc, scenario) == run_process(airbag_doc, scenario)

    def test_inputs_not_mutated(self, airbag_doc):
        scenario = airbag_doc.scenarios["Airbag Hardening"]
        before = airbag_doc.adts["Airbag Attack"]
        run_process(airbag_doc, scenario)
        assert airbag_doc.adts["Airbag Attack"] == before
        assert node_by_label(before, "tamper voter Airbag").counter is None


class TestAcceptanceAndExhaustion:
    def test_immediate_acceptance_runs_no_rounds(self):
        # Lax thresholds hold before any action is applied.
        doc, scenario = simple_document(
            Thresholds(0.0, 1.0, 1.0), [UNASSESSED]
        )
        transcript = run_process(doc, scenario)
        assert transcript.status == "accepted"
        assert transcript.entries == ()
        assert transcript.final_triple == transcript.initial_triple

    def test_exhausted_when_no_action_helps(self):
        doc, scenario = simple_document(
            Thresholds(0.99, 0.01, 0.01),
            [UNASSESSED] * 3,
        )
        transcript = run_process(doc, scenario)
        assert transcript.status == "exhausted"
        assert len(transcript.entries) == 3

    def test_max_rounds_truncates_actions(self):
        doc, scenario = simple_document(
            Thresholds(0.99, 0.01, 0.01),
            [UNASSESSED] * 4,
            max_rounds=2,
        )
        transcript = run_process(doc, scenario)
        assert transcript.status == "exhausted"
        assert len(transcript.entries) == 2

    def test_updates_do_not_compound_across_rounds(self):
        # Repeating the same action must keep producing the same triple.
        doc, scenario = simple_document(
            Thresholds(0.99, 0.01, 0.01),
            [VerdictPolicy(attribute="probability", op="<=", threshold=0.5)] * 3,
        )
        transcript = run_process(doc, scenario)
        triples = {e.triple for e in transcript.entries}
        assert len(triples) == 1

    def test_set_policy_can_select_noisy_or(self):
        leaf = AdtNode(actor=Actor.ATTACK, label="way", attributes=(("probability", 0.3),))
        two_ways = AdtNode(
            actor=Actor.ATTACK,
            label="break in",
            refinement=Refinement.OR,
            children=(leaf, leaf),
        )
        outcomes = {}
        for prob_or in ("max", "noisy_or"):
            policy = VerdictPolicy(
                attribute="probability", op="<=", threshold=0.4, prob_or=prob_or
            )
            doc, scenario = simple_document(
                Thresholds(0.99, 0.01, 0.01), [policy]
            )
            doc = Document((doc.blocks[0], AttackDefenseTree("a", two_ways), scenario))
            (entry,) = run_process(doc, scenario).entries
            outcomes[prob_or] = (entry.action, entry.verdict)
        # max keeps the worst single way (0.3); noisy-OR combines both (0.51).
        assert outcomes == {
            "max": ("set_policy probability <= 0.4", SecurityVerdict.ACCEPTABLE_RISK),
            "noisy_or": (
                "set_policy probability <= 0.4 noisy_or",
                SecurityVerdict.UNACCEPTABLE_RISK,
            ),
        }

    def test_the_transcript_note_says_updates_do_not_compound(self):
        assert "compound" in TRANSCRIPT_NOTE

    def test_rounds_stop_at_the_bound(self):
        # Counting stops at max_rounds, so a bound below one runs no round.
        actions = [UNASSESSED, AddCounterAction("x", AdtNode(Actor.DEFENSE, "d")), UNASSESSED]
        for max_rounds, ran in [(-5, 0), (-1, 0), (0, 0), (1, 1), (3, 3), (9, 3)]:
            _, scenario = simple_document(Thresholds(0.99, 0.01, 0.01), actions, max_rounds)
            assert list(rounds(scenario)) == list(enumerate(actions[:ran], start=1))


class TestErrors:
    def test_unknown_counter_target_names_the_round(self):
        doc, scenario = simple_document(
            Thresholds(0.99, 0.01, 0.01),
            [
                UNASSESSED,
                AddCounterAction(
                    at_label="no such node",
                    node=AdtNode(actor=Actor.DEFENSE, label="d"),
                ),
            ],
        )
        with pytest.raises(ValueError, match="round 2"):
            run_process(doc, scenario)

    def test_defeaters_on_non_goal_rejected(self):
        model = GsnModel(
            name="m",
            nodes=(
                GsnNode(id="G1", kind=NodeKind.GOAL, text="root"),
                GsnNode(id="C1", kind=NodeKind.CONTEXT, text="ctx", parent="G1"),
            ),
        )
        with pytest.raises(ValueError, match="not a goal"):
            set_defeaters(model, "C1", DefeaterCount(1, 2))

    def test_set_defeaters_replaces_count(self):
        model = GsnModel(
            name="m",
            nodes=(GsnNode(id="G1", kind=NodeKind.GOAL, text="root"),),
        )
        updated = set_defeaters(model, "G1", DefeaterCount(3, 4))
        assert updated.node("G1").defeaters == DefeaterCount(3, 4)
        assert model.node("G1").defeaters is None

    def test_set_defeaters_refuses_a_count_that_aggregation_hides(self):
        # G1's 5/3 plus G2's 0/4 aggregates to 5/7, which is a valid count.
        model = GsnModel(
            name="m",
            nodes=(GsnNode(id="G1", kind=NodeKind.GOAL, text="root"),
                   GsnNode(id="G2", kind=NodeKind.GOAL, text="sub", parent="G1",
                           defeaters=DefeaterCount(0, 4))),
        )
        with pytest.raises(ValueError, match=r"^outruled defeaters \(5\) exceed total \(3\)$"):
            set_defeaters(model, "G1", DefeaterCount(5, 3))


class TestApplyRound:
    def test_each_action_changes_only_its_own_part(self):
        doc, _ = simple_document(Thresholds(0.99, 0.01, 0.01), [])
        model, adt = doc.gsns["m"], doc.adts["a"]
        policy = VerdictPolicy(attribute="probability", op="<=", threshold=0.5)
        assert apply_round(policy, model, adt, UNASSESSED) == (model, adt, policy)
        guard = AdtNode(Actor.DEFENSE, "guard")
        same, countered, kept = apply_round(AddCounterAction("break in", guard), model, adt, policy)
        assert (same, countered.root.counter, kept) == (model, guard, policy)
        count = DefeaterCount(1, 2)
        revised, same, kept = apply_round(SetDefeatersAction("G1", count), model, adt, policy)
        assert (revised.node("G1").defeaters, same, kept) == (count, adt, policy)


class TestAttachCounter:
    def leaf_tree(self):
        return AttackDefenseTree(
            name="a",
            root=AdtNode(
                actor=Actor.ATTACK,
                label="top",
                refinement=Refinement.OR,
                children=(AdtNode(actor=Actor.ATTACK, label="pick lock"),),
            ),
        )

    def test_attaches_at_matching_label(self):
        counter = AdtNode(actor=Actor.DEFENSE, label="better lock")
        updated = attach_counter(self.leaf_tree(), "pick lock", counter)
        assert node_by_label(updated, "pick lock").counter == counter

    def test_rejects_same_actor(self):
        counter = AdtNode(actor=Actor.ATTACK, label="oops")
        with pytest.raises(ValueError, match="opposite actor"):
            attach_counter(self.leaf_tree(), "pick lock", counter)

    def test_rejects_second_counter(self):
        counter = AdtNode(actor=Actor.DEFENSE, label="better lock")
        once = attach_counter(self.leaf_tree(), "pick lock", counter)
        with pytest.raises(ValueError, match="already"):
            attach_counter(once, "pick lock", counter)

    def test_unknown_label(self):
        counter = AdtNode(actor=Actor.DEFENSE, label="d")
        with pytest.raises(ValueError, match="unknown"):
            attach_counter(self.leaf_tree(), "no such", counter)

    def test_counters_a_countermeasure(self):
        defense = AdtNode(actor=Actor.DEFENSE, label="d")
        countered = AttackDefenseTree("a", AdtNode(actor=Actor.ATTACK, label="x", counter=defense))
        bypass = AdtNode(actor=Actor.ATTACK, label="bypass")
        updated = attach_counter(countered, "d", bypass)
        assert updated.root.counter == AdtNode(actor=Actor.DEFENSE, label="d", counter=bypass)
        assert updated.root.label == "x"

    def test_rebuilds_only_the_targets_ancestors(self):
        a, c = AdtNode(Actor.ATTACK, "a"), AdtNode(Actor.ATTACK, "c")
        b = AdtNode(Actor.ATTACK, "b", Refinement.OR, children=(c,))
        d = AdtNode(Actor.DEFENSE, "d")
        root = AdtNode(Actor.ATTACK, "root", Refinement.AND, children=(a, b), counter=d)
        guard = AdtNode(Actor.DEFENSE, "guard")
        updated = attach_counter(AttackDefenseTree("t", root), "c", guard)
        new_a, new_b = updated.root.children
        assert new_a is a and updated.root.counter is d
        assert new_b.children == (AdtNode(Actor.ATTACK, "c", counter=guard),)

    def test_children_come_before_the_countermeasure(self):
        # The first node labelled "x" in preorder: root's child, not the one
        # under root's countermeasure.
        under_counter = AdtNode(Actor.DEFENSE, "d", Refinement.OR,
                                children=(AdtNode(Actor.DEFENSE, "x"),))
        root = AdtNode(Actor.ATTACK, "root", Refinement.OR,
                       children=(AdtNode(Actor.ATTACK, "x"),), counter=under_counter)
        guard = AdtNode(Actor.DEFENSE, "guard")
        updated = attach_counter(AttackDefenseTree("t", root), "x", guard)
        assert updated.root.children[0].counter == guard
        assert updated.root.counter is under_counter

    def test_the_walk_stops_at_the_target(self, monkeypatch):
        # root(a(b, c), d): "b" is entered third in preorder, "d" last.
        b, c = AdtNode(Actor.ATTACK, "b"), AdtNode(Actor.ATTACK, "c")
        a = AdtNode(Actor.ATTACK, "a", Refinement.AND, children=(b, c))
        d = AdtNode(Actor.ATTACK, "d")
        tree = AttackDefenseTree("t", AdtNode(Actor.ATTACK, "root", Refinement.OR,
                                              children=(a, d)))
        seen = []

        def counted_walk(root):
            for event in adt_walk(root):
                seen.append(event)
                yield event

        monkeypatch.setattr(process, "adt_walk", counted_walk)
        guard = AdtNode(Actor.DEFENSE, "guard")
        full = list(adt_walk(tree.root))
        for label in ("root", "a", "b", "c", "d"):
            seen.clear()
            updated = attach_counter(tree, label, guard)
            assert node_by_label(updated, label).counter is guard
            target = next(i for i, (_, node, entering) in enumerate(full)
                          if entering and node.label == label)
            assert seen == full[:target + 1], label

    def test_attaches_ten_thousand_levels_down(self):
        node = AdtNode(Actor.ATTACK, "bottom")
        for i in range(10_000):
            node = AdtNode(Actor.ATTACK, f"level {i}", Refinement.OR, children=(node,))
        guard = AdtNode(Actor.DEFENSE, "guard")
        updated = attach_counter(AttackDefenseTree("deep", node), "bottom", guard)
        (bottom,) = [n for _, n in updated.walk() if n.label == "bottom"]
        assert bottom.counter is guard
