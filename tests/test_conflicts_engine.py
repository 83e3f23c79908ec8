"""The bit-parallel contradiction search agrees with the per-assignment oracle.

``naive_find_contradictions`` forward chains one input assignment at a time
with the rescanning loop.  The bitmask search must return the same witness
list: same witnesses, in ascending pattern order, with the same conflicted
signal, involved requirements and firing order.
"""

import time

from hypothesis import given, settings
from hypothesis import strategies as st

from generators import random_rule_set, requirements_from_rules
from oracles import naive_find_contradictions, naive_forward_chain, replay
from safsec.conflicts import (
    MAX_INPUTS,
    RuleSet,
    find_contradictions,
    forward_chain,
)
from safsec.model import Clause, Literal


def clause(body, head):
    return Clause(tuple(Literal(s, p) for s, p in body), Literal(*head))


def rule_set(rules, inputs):
    """Rules as ``(requirement id, body, head)``; inputs in the given order."""
    return RuleSet(
        tuple(clause(b, h) for _, b, h in rules),
        tuple(rid for rid, _, _ in rules),
        tuple(inputs),
    )


def assert_same(rules):
    """Witness lists equal element by element; ``fired_clauses`` is a tuple,
    so its order is compared too, and each assignment's keys are in input
    order."""
    got = find_contradictions(rules)
    assert got == naive_find_contradictions(rules)
    assert all(list(w.input_assignment) == list(rules.inputs) for w in got)
    return got


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 9))
def test_witnesses_match_oracle(rng, max_signals):
    # random_rule_set draws bodies over every signal, so rules may be cyclic.
    clauses, inputs = random_rule_set(rng, max_signals=max_signals)
    assert_same(RuleSet.from_requirements(requirements_from_rules(clauses, inputs)))


@settings(max_examples=12, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(9, 14))
def test_wide_rule_sets_match_oracle(rng, n_inputs):
    # 9-14 inputs, in shuffled order: masks of 64 to 2,048 bytes, and input
    # values from both the table for inputs 0-7 and the memo for the rest.
    inputs = [f"In{i}" for i in range(n_inputs)]
    rng.shuffle(inputs)
    derived = [f"D{i}" for i in range(rng.randint(1, 4))]
    rules = [
        (
            rng.choice(["", "R1", "R2"]),
            [(rng.choice(inputs + derived), rng.random() < 0.5)
             for _ in range(rng.randint(0, 3))],
            (rng.choice(derived), rng.random() < 0.5),
        )
        for _ in range(rng.randint(1, 10))
    ]
    assert_same(rule_set(rules, inputs))


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False))
def test_hand_built_rule_sets_match_oracle(rng):
    # Heads on input signals, unsorted inputs, empty requirement ids and body
    # signals nothing supplies: cases RuleSet.from_requirements never builds.
    signals = [f"S{i}" for i in range(6)] + ["Nowhere"]
    inputs = rng.sample(signals[:6], rng.randint(0, 4))
    rules = [
        (
            rng.choice(["", "R1", "R2"]),
            [(rng.choice(signals), rng.random() < 0.5) for _ in range(rng.randint(0, 3))],
            (rng.choice(signals[:6]), rng.random() < 0.5),
        )
        for _ in range(rng.randint(0, 8))
    ]
    assert_same(rule_set(rules, inputs))


@settings(max_examples=300, deadline=None)
@given(st.randoms(use_true_random=False))
def test_forward_chain_matches_rescanning_loop(rng):
    clauses, inputs = random_rule_set(rng, max_signals=8)
    rules = RuleSet.from_requirements(requirements_from_rules(clauses, inputs)).clauses
    signals = {lit.signal for c in clauses for lit in (c.head, *c.body)} | set(inputs)
    # Any facts, including both polarities of one signal and derived signals.
    facts = {(s, p) for s in signals for p in (True, False) if rng.random() < 0.3}
    assert forward_chain(rules, facts) == naive_forward_chain(rules, facts)
    assert forward_chain(iter(rules), facts) == naive_forward_chain(rules, facts)


class TestEdgeCases:
    def test_no_inputs(self):
        rules = rule_set([("A", [], ("X", True)), ("B", [], ("X", False))], [])
        (witness,) = assert_same(rules)
        assert witness.input_assignment == {}
        assert witness.conflicted_signal == "X" and replay(rules, witness)
        assert assert_same(rule_set([("A", [], ("X", True))], [])) == []

    def test_empty_bodies_fire_under_every_assignment(self):
        got = assert_same(
            rule_set([("A", [], ("X", True)), ("B", [("In", True)], ("X", False))], ["In"])
        )
        assert [w.input_assignment for w in got] == [{"In": True}]
        assert [str(c) for c in got[0].fired_clauses] == [
            str(clause([], ("X", True))),
            str(clause([("In", True)], ("X", False))),
        ]

    def test_literal_repeated_in_one_body(self):
        got = assert_same(
            rule_set(
                [("A", [("In", True), ("In", True)], ("X", True)), ("B", [], ("X", False))],
                ["In"],
            )
        )
        assert [w.input_assignment for w in got] == [{"In": True}]

    def test_body_signal_never_supplied(self):
        rules = rule_set(
            [("A", [("In", True), ("Ghost", True)], ("X", True)), ("B", [], ("X", False))],
            ["In"],
        )
        assert assert_same(rules) == []

    def test_rule_with_derived_head_still_fires(self):
        # Both A rules derive X; the second still fires and is reported.
        got = assert_same(
            rule_set(
                [
                    ("A", [("In", True)], ("X", True)),
                    ("A2", [], ("X", True)),
                    ("B", [("In", True)], ("X", False)),
                ],
                ["In"],
            )
        )
        assert len(got) == 1
        assert len(got[0].fired_clauses) == 3
        assert got[0].involved_requirements == ("A", "A2", "B")

    def test_one_clause_owned_twice_names_both_owners(self):
        # Equal clauses from two requirements are two rules, told apart by index.
        got = assert_same(
            rule_set(
                [("A", [("In", True)], ("X", True)), ("B", [("In", True)], ("X", True)),
                 ("C", [], ("X", False))],
                ["In"],
            )
        )
        assert got[0].involved_requirements == ("A", "B", "C")
        assert len(got[0].fired_clauses) == 3

    def test_empty_requirement_id_is_not_involved(self):
        got = assert_same(
            rule_set([("", [("In", True)], ("X", True)), ("B", [], ("X", False))], ["In"])
        )
        assert got[0].involved_requirements == ("B",)
        assert len(got[0].fired_clauses) == 2

    def test_firing_order_follows_passes(self):
        # Listed last-to-first, so each link of the chain needs its own pass.
        got = assert_same(
            rule_set(
                [
                    ("A", [("Y", True)], ("X", True)),
                    ("A", [("In", True)], ("Y", True)),
                    ("B", [("In", True)], ("X", False)),
                ],
                ["In"],
            )
        )
        assert [c.head.signal for c in got[0].fired_clauses] == ["Y", "X", "X"]


def door_pair(n, contradictory):
    """Two requirements over n inputs both driving Lock through 4-link chains.

    Safety derives Lock from In00; security derives !Lock from !In00
    (consistent) or from In01 (contradictory: the 2**(n-2) assignments with
    In00 and In01 true are witnesses).  Side clauses use the other inputs.
    """
    ins = [f"In{i:02d}" for i in range(n)]
    trigger = (ins[1], True) if contradictory else (ins[0], False)
    rules = []
    for rid, start, chain, head in (
        ("Safety", (ins[0], True), "A", ("Lock", True)),
        ("Security", trigger, "B", ("Lock", False)),
    ):
        links = [start] + [(f"{chain}{i}", True) for i in range(4)] + [head]
        rules += [(rid, [a], b) for a, b in zip(links, links[1:])][::-1]
    rules += [
        ("Side", [(ins[j], True), (ins[(j + 1) % n], False)], (f"N{j}", True))
        for j in range(2, n)
    ]
    return rule_set(rules, ins)


class TestScale:
    """Bounds that a per-assignment search, or a witness extraction doing a
    2**n-bit operation per witness, does not meet."""

    def test_consistent_pair_at_the_input_bound(self):
        rules = door_pair(MAX_INPUTS, contradictory=False)
        start = time.perf_counter()
        assert find_contradictions(rules) == []
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"{MAX_INPUTS}-input consistent pair took {elapsed:.1f}s"

    def test_contradictory_pair_witnesses(self):
        rules = door_pair(18, contradictory=True)
        start = time.perf_counter()
        witnesses = find_contradictions(rules)
        elapsed = time.perf_counter() - start
        assert len(witnesses) == 2**16
        assert elapsed < 15.0, f"65,536 witnesses took {elapsed:.1f}s"
        patterns = [
            sum(w.input_assignment[s] << i for i, s in enumerate(rules.inputs))
            for w in witnesses
        ]
        assert patterns == sorted(patterns)
        assert all(w.conflicted_signal == "Lock" for w in witnesses)
        assert all(len(w.fired_clauses) >= 10 for w in witnesses)

    def test_small_pairs_match_oracle(self):
        for n in range(2, 8):
            for contradictory in (False, True):
                assert_same(door_pair(n, contradictory))
        assert len(find_contradictions(door_pair(7, contradictory=True))) == 2**5

    def test_pairs_past_eight_inputs_match_oracle(self):
        # Side clauses on the high inputs give the witnesses many fired sets.
        for n in (9, 11, 13):
            assert len(assert_same(door_pair(n, contradictory=True))) == 2 ** (n - 2)


def test_witnesses_of_one_fired_set_share_its_tuples():
    # Lock-down without auth against release on fire, beside 9 inputs no
    # rule reads: all 2**9 witnesses fire the same two rules.
    spare = [f"Spare{i}" for i in range(9)]
    rules = rule_set(
        [("EmergencyDoor", [("SigFire", True)], ("DoorLock", False)),
         ("SecurityLock", [("Auth", False)], ("DoorLock", True))],
        ["Auth", "SigFire", *spare],
    )
    # The family builds each witness when read: a list holds them alive, so
    # that no two assignment dicts share an id by reusing freed memory.
    got = list(assert_same(rules))
    assert len(got) == 2**9
    assert len({id(w.involved_requirements) for w in got}) == 1
    assert len({id(w.fired_clauses) for w in got}) == 1
    assert got[0].involved_requirements == ("EmergencyDoor", "SecurityLock")
    assert len({id(w.input_assignment) for w in got}) == len(got)
    assert len({tuple(w.input_assignment.items()) for w in got}) == len(got)
