"""Requirement contradiction search against a truth-table oracle."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safsec.conflicts import (
    MAX_INPUTS,
    RuleSet,
    check_pair,
    conflict_candidates,
    find_contradictions,
    forward_chain,
)
from safsec.model import Clause, Literal, Requirement, RequirementKind

from generators import random_rule_set, requirements_from_rules
from oracles import brute_force_contradictory_assignments, naive_conflict_candidates, replay


def req(rid, clauses, inputs, kind=RequirementKind.SAFETY):
    return Requirement(
        id=rid,
        kind=kind,
        trace="Door",
        clauses=tuple(clauses),
        inputs=frozenset(inputs),
    )


def clause(body, head):
    return Clause(
        body=tuple(Literal(s, p) for s, p in body),
        head=Literal(*head),
    )


class TestDoorScenario:
    """An emergency-release rule against a lock-down rule."""

    def fire_req(self):
        return req("EmergencyDoor", [clause([("SigFire", True)], ("DoorLock", False))], ["SigFire"])

    def lock_req(self, guarded=False):
        body = [("Auth", False)]
        if guarded:
            body.append(("SigFire", False))
        return req(
            "SecurityLock",
            [clause(body, ("DoorLock", True))],
            ["Auth"],
            kind=RequirementKind.SECURITY,
        )

    def test_unguarded_pair_conflicts_on_fire_without_auth(self):
        witnesses = check_pair(self.fire_req(), self.lock_req())
        assert witnesses
        assignments = [w.input_assignment for w in witnesses]
        assert {"Auth": False, "SigFire": True} in assignments
        for w in witnesses:
            assert w.conflicted_signal == "DoorLock"
            assert w.involved_requirements == ("EmergencyDoor", "SecurityLock")

    def test_guarded_pair_is_consistent(self):
        assert check_pair(self.fire_req(), self.lock_req(guarded=True)) == ()

    def test_witness_replays(self):
        rules = RuleSet.from_requirements([self.fire_req(), self.lock_req()])
        for w in find_contradictions(rules):
            assert replay(rules, w)


class TestCandidates:
    @pytest.mark.parametrize("wide", [False, True])
    def test_each_requirement_is_indexed_once(self, wide):
        calls = []

        class Counted(Requirement):
            def head_signals(self):
                calls.append(self.id)
                return Requirement.head_signals(self)

            def all_signals(self):
                calls.append(self.id)
                return Requirement.all_signals(self)

        reqs = [Counted(f"R{i}", RequirementKind.SAFETY, "Door", (clause([], ("X", True)),))
                for i in range(6)]
        assert len(conflict_candidates(reqs, wide=wide)) == 15
        assert sorted(calls) == [r.id for r in reqs]

    def test_shared_head_signal_pairs(self):
        a = req("A", [clause([], ("X", True))], [])
        b = req("B", [clause([], ("X", False))], [])
        c = req("C", [clause([], ("Y", True))], [])
        assert conflict_candidates([a, b, c]) == [("A", "B")]

    def test_wide_mode_matches_body_signals_too(self):
        a = req("A", [clause([("X", True)], ("Y", True))], ["X"])
        b = req("B", [clause([], ("X", False))], [])
        assert conflict_candidates([a, b]) == []
        assert conflict_candidates([a, b], wide=True) == [("A", "B")]

    def test_all_pairs_when_everything_shares_a_head(self):
        reqs = [req(f"R{i}", [clause([], ("Z", True))], []) for i in range(3)]
        assert len(conflict_candidates(reqs)) == 3


SIGNALS = ["A", "B", "C", "D", "E", "F"]
literals = st.builds(Literal, st.sampled_from(SIGNALS), st.booleans())
requirements = st.builds(
    Requirement,
    id=st.sampled_from(["R1", "R2", "R3", "R4", "R5"]),
    kind=st.sampled_from(list(RequirementKind)),
    trace=st.just("T"),
    clauses=st.lists(st.builds(Clause, st.lists(literals, max_size=3).map(tuple), literals),
                     max_size=3).map(tuple),
    inputs=st.frozensets(st.sampled_from(SIGNALS), max_size=3),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(requirements, max_size=12), st.booleans())
def test_candidates_match_the_all_pairs_oracle(reqs, wide):
    assert conflict_candidates(reqs, wide=wide) == naive_conflict_candidates(reqs, wide=wide)


@pytest.mark.parametrize("wide", [False, True])
def test_candidates_of_unrelated_requirements_are_fast(wide):
    # 4,000 requirements with their own signals, and one pair that shares one.
    reqs = [req(f"R{i}", [clause([(f"in{i}", True)], (f"out{i}", True))], [f"in{i}"])
            for i in range(4000)]
    reqs.append(req("S", [clause([], ("out7", False))], []))
    start = time.perf_counter()
    pairs = conflict_candidates(reqs, wide=wide)
    elapsed = time.perf_counter() - start
    assert pairs == [("R7", "S")]
    assert elapsed < 1.0, f"4,001 requirements took {elapsed:.2f} s"


class TestForwardChain:
    def test_chains_through_intermediate_signals(self):
        rules = RuleSet.from_requirements(
            [
                req(
                    "R",
                    [
                        clause([("A", True)], ("B", True)),
                        clause([("B", True)], ("C", True)),
                    ],
                    ["A"],
                )
            ]
        )
        derived, fired = forward_chain(rules.clauses, {("A", True)})
        assert ("C", True) in derived
        assert [c.head.signal for c in fired] == ["B", "C"]

    def test_literal_facts_chain_like_tuples(self):
        clauses = [clause([("A", True)], ("B", True)), clause([("B", True)], ("C", False))]
        derived, fired = forward_chain(clauses, {Literal("A")})
        assert (derived, fired) == forward_chain(clauses, {("A", True)})
        assert derived == {("A", True), ("B", True), ("C", False)}
        assert fired == clauses

    def test_negative_atoms_are_not_assumed(self):
        # !A in a body is only satisfied when (A, False) is an explicit fact.
        rules = RuleSet.from_requirements(
            [req("R", [clause([("A", False)], ("B", True))], ["A"])]
        )
        derived, _ = forward_chain(rules.clauses, set())
        assert ("B", True) not in derived

    def test_empty_body_always_fires(self):
        rules = RuleSet.from_requirements([req("R", [clause([], ("B", True))], [])])
        derived, fired = forward_chain(rules.clauses, set())
        assert ("B", True) in derived
        assert len(fired) == 1


class TestRuleSet:
    def test_head_status_wins_over_input_declaration(self):
        r = req("R", [clause([], ("X", True))], ["X", "Y"])
        rules = RuleSet.from_requirements([r])
        assert rules.inputs == ("Y",)

    def test_inputs_are_sorted_union(self):
        r1 = req("R1", [], ["B", "A"])
        r2 = req("R2", [], ["C", "A"])
        assert RuleSet.from_requirements([r1, r2]).inputs == ("A", "B", "C")

    def test_input_bound_enforced(self):
        names = [f"S{i:02d}" for i in range(MAX_INPUTS + 1)]
        rules = RuleSet.from_requirements([req("R", [], names)])
        with pytest.raises(ValueError, match="enumeration bound"):
            find_contradictions(rules)


class TestOracleEquivalence:
    def test_contradictory_assignments_match_truth_table(self):
        for seed in range(300):
            rng = random.Random(seed)
            clauses, inputs = random_rule_set(rng)
            reqs = requirements_from_rules(clauses, inputs)
            rules = RuleSet.from_requirements(reqs)
            witnesses = find_contradictions(rules)
            oracle_clauses = [
                (
                    [(lit.signal, lit.positive) for lit in c.body],
                    (c.head.signal, c.head.positive),
                )
                for c in clauses
            ]
            expected = brute_force_contradictory_assignments(
                oracle_clauses, list(rules.inputs)
            )
            got = [w.input_assignment for w in witnesses]
            assert sorted(got, key=sorted_items) == sorted(
                expected, key=sorted_items
            ), seed

    def test_every_witness_replays(self):
        # Replay fires the witness's clauses in order and derives both
        # polarities of its conflicted signal; a witness short of its last
        # clause, or naming a signal never derived, does not replay.
        for seed in range(100):
            rng = random.Random(seed)
            clauses, inputs = random_rule_set(rng)
            rules = RuleSet.from_requirements(
                requirements_from_rules(clauses, inputs)
            )
            for w in find_contradictions(rules):
                assert replay(rules, w), seed
                assert not replay(rules, w._replace(fired_clauses=w.fired_clauses[:-1])), seed
                assert not replay(rules, w._replace(conflicted_signal="no such signal")), seed


def sorted_items(assignment):
    return tuple(sorted(assignment.items()))
