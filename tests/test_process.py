"""Scripted assessment rounds driven by a scenario block."""

import functools
import math
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from safsec import adteval, process
from safsec.adteval import PROBABILITY, UNASSESSED, VerdictPolicy, evaluate, refined_value
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
from safsec.process import TRANSCRIPT_NOTE, Replay, rounds, run_process, set_defeaters

import oracles
from oracles import apply_round, attach_counter, naive_run_process
from test_validate import ALL_ATTRIBUTES, LABELS, SOME_ATTRIBUTES, well_formed_nodes


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


def replay_round(action, model, adt, policy):
    """``apply_round`` through a :class:`Replay` that starts at ``policy``."""
    replay = Replay(model, adt)
    replay.policy = policy
    replay.apply(action)
    return replay.model, replay.adt, replay.policy


def replay_attach(tree, at_label, counter):
    """``attach_counter`` through a :class:`Replay`'s label index."""
    replay = Replay(GsnModel("m", ()), tree)
    replay.apply(AddCounterAction(at_label, counter))
    return replay.adt


class TestApplyRound:
    @pytest.mark.parametrize("apply_round", [apply_round, replay_round], ids=["naive", "replay"])
    def test_each_action_changes_only_its_own_part(self, apply_round):
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


@pytest.fixture(params=[attach_counter, replay_attach], ids=["walk", "replay"])
def attach(request):
    return request.param


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

    def test_attaches_at_matching_label(self, attach):
        counter = AdtNode(actor=Actor.DEFENSE, label="better lock")
        updated = attach(self.leaf_tree(), "pick lock", counter)
        assert node_by_label(updated, "pick lock").counter == counter

    def test_rejects_same_actor(self, attach):
        counter = AdtNode(actor=Actor.ATTACK, label="oops")
        with pytest.raises(ValueError, match="opposite actor"):
            attach(self.leaf_tree(), "pick lock", counter)

    def test_rejects_second_counter(self, attach):
        counter = AdtNode(actor=Actor.DEFENSE, label="better lock")
        once = attach(self.leaf_tree(), "pick lock", counter)
        with pytest.raises(ValueError, match="already"):
            attach(once, "pick lock", counter)

    def test_unknown_label(self, attach):
        counter = AdtNode(actor=Actor.DEFENSE, label="d")
        with pytest.raises(ValueError, match="unknown"):
            attach(self.leaf_tree(), "no such", counter)

    def test_counters_a_countermeasure(self, attach):
        defense = AdtNode(actor=Actor.DEFENSE, label="d")
        countered = AttackDefenseTree("a", AdtNode(actor=Actor.ATTACK, label="x", counter=defense))
        bypass = AdtNode(actor=Actor.ATTACK, label="bypass")
        updated = attach(countered, "d", bypass)
        assert updated.root.counter == AdtNode(actor=Actor.DEFENSE, label="d", counter=bypass)
        assert updated.root.label == "x"

    def test_rebuilds_only_the_targets_ancestors(self, attach):
        a, c = AdtNode(Actor.ATTACK, "a"), AdtNode(Actor.ATTACK, "c")
        b = AdtNode(Actor.ATTACK, "b", Refinement.OR, children=(c,))
        d = AdtNode(Actor.DEFENSE, "d")
        root = AdtNode(Actor.ATTACK, "root", Refinement.AND, children=(a, b), counter=d)
        guard = AdtNode(Actor.DEFENSE, "guard")
        updated = attach(AttackDefenseTree("t", root), "c", guard)
        new_a, new_b = updated.root.children
        assert new_a is a and updated.root.counter is d
        assert new_b.children == (AdtNode(Actor.ATTACK, "c", counter=guard),)

    def test_children_come_before_the_countermeasure(self, attach):
        # The first node labelled "x" in preorder: root's child, not the one
        # under root's countermeasure.
        under_counter = AdtNode(Actor.DEFENSE, "d", Refinement.OR,
                                children=(AdtNode(Actor.DEFENSE, "x"),))
        root = AdtNode(Actor.ATTACK, "root", Refinement.OR,
                       children=(AdtNode(Actor.ATTACK, "x"),), counter=under_counter)
        guard = AdtNode(Actor.DEFENSE, "guard")
        updated = attach(AttackDefenseTree("t", root), "x", guard)
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

        monkeypatch.setattr(oracles, "adt_walk", counted_walk)
        guard = AdtNode(Actor.DEFENSE, "guard")
        full = list(adt_walk(tree.root))
        for label in ("root", "a", "b", "c", "d"):
            seen.clear()
            updated = attach_counter(tree, label, guard)
            assert node_by_label(updated, label).counter is guard
            target = next(i for i, (_, node, entering) in enumerate(full)
                          if entering and node.label == label)
            assert seen == full[:target + 1], label

    def test_attaches_ten_thousand_levels_down(self, attach):
        node = AdtNode(Actor.ATTACK, "bottom")
        for i in range(10_000):
            node = AdtNode(Actor.ATTACK, f"level {i}", Refinement.OR, children=(node,))
        guard = AdtNode(Actor.DEFENSE, "guard")
        updated = attach(AttackDefenseTree("deep", node), "bottom", guard)
        (bottom,) = [n for _, n in updated.walk() if n.label == "bottom"]
        assert bottom.counter is guard


class TestReplayIndex:
    """One replay's label index across rounds, against the walk to each label."""

    @staticmethod
    def both(tree, *counters):
        """The tree after each ``(label, counter)`` through the walk and the replay."""
        walked, replay = tree, Replay(GsnModel("m", ()), tree)
        for label, counter in counters:
            walked = attach_counter(walked, label, counter)
            replay.apply(AddCounterAction(label, counter))
        return walked, replay.adt

    def test_a_label_inside_an_earlier_counter(self):
        guard = AdtNode(Actor.DEFENSE, "guard", Refinement.OR,
                        children=(AdtNode(Actor.DEFENSE, "inner"),))
        bypass = AdtNode(Actor.ATTACK, "bypass")
        walked, replayed = self.both(TestAttachCounter().leaf_tree(), ("pick lock", guard),
                                     ("inner", bypass))
        assert walked == replayed
        assert replayed.root.children[0].counter.children[0].counter.label == "bypass"

    def test_a_label_in_a_child_and_in_the_new_counter(self):
        # "x" is under the target and in its new counter: the child comes first.
        target = AdtNode(Actor.ATTACK, "t", Refinement.OR, children=(AdtNode(Actor.ATTACK, "x"),))
        guard = AdtNode(Actor.DEFENSE, "g", Refinement.OR, children=(AdtNode(Actor.DEFENSE, "x"),))
        walked, replayed = self.both(AttackDefenseTree("a", target), ("t", guard),
                                     ("x", AdtNode(Actor.DEFENSE, "d")))
        assert walked == replayed
        assert replayed.root.children[0].counter.label == "d"

    def test_a_new_counter_earlier_in_preorder_takes_the_label(self):
        # "x" sits in the second child; a counter on the first child holds
        # another "x", which then comes first in preorder.
        root = AdtNode(Actor.ATTACK, "r", Refinement.OR,
                       children=(AdtNode(Actor.ATTACK, "a"), AdtNode(Actor.ATTACK, "x")))
        guard = AdtNode(Actor.DEFENSE, "g", Refinement.OR, children=(AdtNode(Actor.DEFENSE, "x"),))
        walked, replayed = self.both(AttackDefenseTree("t", root), ("a", guard),
                                     ("x", AdtNode(Actor.ATTACK, "bypass")))
        assert walked == replayed
        assert replayed.root.children[0].counter.children[0].counter.label == "bypass"
        assert replayed.root.children[1].counter is None

    def test_a_refused_counter_leaves_the_tree(self):
        replay = Replay(GsnModel("m", ()), TestAttachCounter().leaf_tree())
        replay.apply(AddCounterAction("pick lock", AdtNode(Actor.DEFENSE, "lock")))
        before = replay.adt
        for label, actor, message in [("pick lock", Actor.DEFENSE, "already carries"),
                                      ("lock", Actor.DEFENSE, "opposite actor"),
                                      ("nope", Actor.ATTACK, "unknown adt node")]:
            with pytest.raises(ValueError, match=message):
                replay.apply(AddCounterAction(label, AdtNode(actor, "extra")))
            assert replay.adt is before


# The replay against the whole-model oracle on random scenarios.  Labels come
# from a small pool, so counters land on countermeasures, on nodes an earlier
# round added, and on labels that a child subtree and a new counter share.

NESTED = (GsnNode("G1", NodeKind.GOAL, "root", defeaters=DefeaterCount(1, 2)),
          GsnNode("S1", NodeKind.STRATEGY, "split", parent="G1"),
          GsnNode("G2", NodeKind.GOAL, "sub", parent="S1"),
          GsnNode("G3", NodeKind.GOAL, "subsub", parent="G2", defeaters=DefeaterCount(2, 3)),
          GsnNode("C1", NodeKind.CONTEXT, "ctx", parent="G1"))
LINKS = {  # the root linked to the scenario's ADT, to another one, or not at all
    "root": (SecurityLink("G1", "a", 1.5),),
    "other adt": (SecurityLink("G1", "b", 2.0),),
    "subgoal": (SecurityLink("G2", "a", 1.0),),
    "none": (),
}
ASSESSED = st.builds(
    VerdictPolicy, attribute=st.sampled_from(["probability", "cost", "time", "time_sequential"]),
    op=st.sampled_from(["<=", ">="]), threshold=st.sampled_from([0.0, 0.5, 1.0, 10.0]),
    prob_or=st.sampled_from(["max", "noisy_or"]))
DOMAIN_POLICIES = st.just(UNASSESSED) | ASSESSED | st.just(VerdictPolicy(attribute="colour"))
ACTIONS = st.one_of(
    st.builds(AddCounterAction, st.sampled_from(LABELS + ("nope",)),
              st.sampled_from(Actor).flatmap(lambda actor: well_formed_nodes(actor, 2))),
    DOMAIN_POLICIES,
    st.builds(SetDefeatersAction, st.sampled_from(["G1", "G2", "G3", "G3", "C1", "nope"]),
              st.builds(DefeaterCount, st.integers(0, 6), st.integers(0, 6))),
)


def outcome(run, document, scenario):
    """The transcript's repr, whose floats are exact, or the refusal's message."""
    try:
        return repr(run(document, scenario))
    except ValueError as exc:
        return f"refused: {exc}"


def leaf(actor, label):
    return AdtNode(actor, label, attributes=(("probability", 0.5), ("cost", 3.0), ("time", 1.0)))


# Counters on "y" and then "d" and "z": the new counter holds a "d" that
# comes before the root's child "d" in preorder, and a "z" that comes after
# the one under "y".  Rounds 2 and 6 set G3's defeaters twice; max_rounds
# drops the last round.
EVERY_KIND = dict(
    root=AdtNode(Actor.ATTACK, "x", Refinement.AND, children=(
        AdtNode(Actor.ATTACK, "y", Refinement.OR, children=(leaf(Actor.ATTACK, "z"),)),
        leaf(Actor.ATTACK, "d"))),
    actions=[VerdictPolicy(attribute="probability", threshold=0.5, prob_or="noisy_or"),
             SetDefeatersAction("G3", DefeaterCount(3, 3)),
             AddCounterAction("y", AdtNode(Actor.DEFENSE, "d", Refinement.OR,
                                           children=(leaf(Actor.DEFENSE, "z"),))),
             AddCounterAction("d", leaf(Actor.ATTACK, "b")),
             AddCounterAction("z", leaf(Actor.DEFENSE, "g")),
             SetDefeatersAction("G3", DefeaterCount(1, 4)),
             VerdictPolicy(attribute="time_sequential", op=">=", threshold=1.0),
             SetDefeatersAction("G2", DefeaterCount(2, 2))],
    max_rounds=7, thresholds=Thresholds(1.0, 0.0, 0.0))


@settings(max_examples=400, deadline=None)
@given(root=st.sampled_from([ALL_ATTRIBUTES, SOME_ATTRIBUTES]).flatmap(
           lambda attributes: well_formed_nodes(Actor.ATTACK, 3, attributes)),
       link=st.sampled_from(sorted(LINKS)), actions=st.lists(ACTIONS, min_size=1, max_size=8),
       max_rounds=st.integers(1, 9),
       thresholds=st.sampled_from([Thresholds(1.0, 0.0, 0.0), Thresholds(0.3, 0.7, 0.3),
                                   Thresholds(0.0, 1.0, 0.5)]))
@example(link="root", **EVERY_KIND)
@example(link="other adt", **EVERY_KIND)
@example(link="none", **EVERY_KIND)
def test_the_replay_matches_the_whole_model_replay(root, link, actions, max_rounds, thresholds):
    scenario = Scenario("s", "m", "a", thresholds, max_rounds, tuple(actions))
    document = Document((GsnModel("m", NESTED, LINKS[link]), AttackDefenseTree("a", root),
                         scenario))
    assert outcome(run_process, document, scenario) == outcome(naive_run_process, document,
                                                               scenario)


def test_the_example_runs_every_round_it_describes():
    scenario = Scenario("s", "m", "a", EVERY_KIND["thresholds"], EVERY_KIND["max_rounds"],
                        tuple(EVERY_KIND["actions"]))
    document = Document((GsnModel("m", NESTED, LINKS["root"]),
                         AttackDefenseTree("a", EVERY_KIND["root"]), scenario))
    assert [e.action for e in run_process(document, scenario).entries] == [
        "set_policy probability <= 0.5 noisy_or", "set_defeaters G3 3/3",
        "add_counter 'd' at 'y'", "add_counter 'b' at 'd'", "add_counter 'g' at 'z'",
        "set_defeaters G3 1/4", "set_policy time_sequential >= 1"]
    replay = Replay(document.gsns["m"], document.adts["a"])
    for action in EVERY_KIND["actions"][2:5]:
        replay.apply(action)
    y, d = replay.adt.root.children
    assert y.children[0].counter.label == "g" and y.counter.children[0].counter is None
    assert y.counter.counter.label == "b" and d.counter is None


@settings(max_examples=200, deadline=None)
@given(well_formed_nodes(Actor.ATTACK, 3, ALL_ATTRIBUTES),
       st.lists(st.tuples(st.sampled_from(LABELS), well_formed_nodes(Actor.DEFENSE, 2,
                                                                     ALL_ATTRIBUTES)),
                max_size=5),
       st.lists(ASSESSED, min_size=1, max_size=4))
def test_every_fold_gives_evaluates_root_value(root, counters, policies):
    # Counters land between folds in changing domains; every fold must give
    # evaluate's root value to the bit.
    replay = Replay(GsnModel("m", ()), AttackDefenseTree("a", root))
    for i in range(max(len(counters), len(policies))):
        if i < len(counters):
            try:
                replay.apply(AddCounterAction(*counters[i]))
            except ValueError:
                pass
        domain = policies[i % len(policies)].domain()
        assert repr(replay.root_value(domain)) == repr(evaluate(replay.adt, domain)["root"])


def test_min_and_max_are_reduced_in_c_in_reduces_order():
    # Signed zeros and NaN tell the orders apart.
    node = AdtNode(Actor.ATTACK, "r", Refinement.OR, children=(AdtNode(Actor.ATTACK, "x"),))
    for combine in (min, max):
        domain = replace(PROBABILITY, or_combine=combine)
        for values in ([0.0, -0.0], [-0.0, 0.0], [math.nan, 1.0], [1.0, math.nan, 0.5],
                       [2.0, 2.0, -1.0, math.nan]):
            expected = functools.reduce(combine, values)
            assert repr(refined_value(node, domain, values)) == repr(expected), (combine, values)


# The work one replay does on the ladder: n leaves under one OR, one
# set_policy, then one add_counter per leaf, with thresholds never met.  The
# whole-model replay evaluates every leaf and walks to every target in each
# round, about n squared of each.

def ladder(n, *extra_rounds):
    leaves = tuple(AdtNode(Actor.ATTACK, f"leaf {i}",
                           attributes=(("probability", (i % 9 + 1) / 10), ("cost", float(i))))
                   for i in range(n))
    adt = AttackDefenseTree("a", AdtNode(Actor.ATTACK, "root", Refinement.OR, children=leaves))
    guards = [AddCounterAction(f"leaf {i}", AdtNode(Actor.DEFENSE, f"guard {i}", attributes=(
        ("probability", (i % 7 + 2) / 10), ("cost", 2.0)))) for i in range(n)]
    actions = (VerdictPolicy(attribute="probability", op="<=", threshold=0.5), *guards,
               *extra_rounds)
    model = GsnModel("m", (GsnNode("G1", NodeKind.GOAL, "top", defeaters=DefeaterCount(1, 4)),),
                     (SecurityLink("G1", "a", 1.0),))
    scenario = Scenario("s", "m", "a", Thresholds(1.0, 0.0, 0.0), len(actions), actions)
    return Document((model, adt, scenario)), scenario


def count_work(monkeypatch):
    """Each leaf_value call by (label, attribute), and the adt_walk events."""
    calls, events = Counter(), []
    leaf_value = adteval.leaf_value

    def counted_leaf_value(node, domain):
        calls[node.label, domain.key] += 1
        return leaf_value(node, domain)

    def counted_walk(root):
        for event in adt_walk(root):
            events.append(event)
            yield event

    monkeypatch.setattr(adteval, "leaf_value", counted_leaf_value)
    monkeypatch.setattr(process, "adt_walk", counted_walk)
    return calls, events


def test_a_ladder_replay_folds_each_leaf_once_and_walks_each_node_once(monkeypatch):
    n = 200
    document, scenario = ladder(n)
    expected = naive_run_process(document, scenario)
    calls, events = count_work(monkeypatch)
    transcript = run_process(document, scenario)
    assert repr(transcript) == repr(expected)
    assert len(transcript.entries) == n + 1
    assert max(calls.values()) == 1 and len(calls) == 2 * n  # every leaf and guard, once
    assert len(events) <= 2 * (n + 1) + 2 * n


def test_a_folded_domain_and_a_defeater_round_fold_nothing_again(monkeypatch):
    n = 50
    cost = VerdictPolicy(attribute="cost", op="<=", threshold=1.0)
    probability = VerdictPolicy(attribute="probability", op="<=", threshold=0.9)
    document, scenario = ladder(n, cost, SetDefeatersAction("G1", DefeaterCount(3, 4)),
                                probability, SetDefeatersAction("G1", DefeaterCount(4, 4)))
    expected = naive_run_process(document, scenario)
    calls, _ = count_work(monkeypatch)
    assert repr(run_process(document, scenario)) == repr(expected)
    assert max(calls.values()) == 1 and len(calls) == 4 * n  # each leaf once per domain


def test_a_counter_chain_folds_each_leaf_once(monkeypatch):
    # Each round counters the last round's countermeasure, so each rebuilds
    # the whole chain; every node above the new one keeps its own value.
    actions = [VerdictPolicy(attribute="probability", op="<=", threshold=0.5)]
    for i in range(20):
        actor = Actor.DEFENSE if i % 2 == 0 else Actor.ATTACK
        counter = AdtNode(actor, f"c{i}", attributes=(("probability", 0.5),))
        actions.append(AddCounterAction("break in" if i == 0 else f"c{i - 1}", counter))
    document, scenario = simple_document(Thresholds(1.0, 0.0, 0.0), actions, max_rounds=21)
    expected = naive_run_process(document, scenario)
    calls, _ = count_work(monkeypatch)
    assert repr(run_process(document, scenario)) == repr(expected)
    assert max(calls.values()) == 1 and len(calls) == 21
