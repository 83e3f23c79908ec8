import random

from generators import random_fault_tree
from oracles import brute_force_minimal_cut_sets

from safsec.fta import canonical_order, cut_sets, minimal_cut_sets
from safsec.model import FaultTree, GateOp


def tree(top, gates, events):
    return FaultTree(
        name="T",
        top=top,
        gates=tuple(gates),
        basic_events=frozenset(events),
    )


SERVER_THEFT = tree(
    "Y",
    [
        ("Y", GateOp.OR, ("AD", "BC", "A", "EF")),
        ("AD", GateOp.AND, ("A", "D")),
        ("BC", GateOp.AND, ("B", "C")),
        ("EF", GateOp.AND, ("E", "F")),
    ],
    "ABCDEF",
)


class TestCutSets:
    def test_servertheft_expansion(self):
        assert cut_sets(SERVER_THEFT) == {
            frozenset("AD"),
            frozenset("BC"),
            frozenset("A"),
            frozenset("EF"),
        }

    def test_single_event(self):
        assert cut_sets(tree("A", [], ["A"])) == {frozenset("A")}

    def test_and_over_or(self):
        # Expected values recomputed by brute force over all 2^3 subsets.
        t = tree(
            "Y",
            [("Y", GateOp.AND, ("G1", "C")), ("G1", GateOp.OR, ("A", "B"))],
            "ABC",
        )
        assert cut_sets(t) == {frozenset("AC"), frozenset("BC")}
        assert cut_sets(t) == brute_force_minimal_cut_sets(t)

    def test_repeated_event_under_and_collapses(self):
        t = tree("Y", [("Y", GateOp.AND, ("A", "A"))], ["A"])
        assert cut_sets(t) == {frozenset("A")}


class TestMinimalCutSets:
    def test_servertheft(self):
        assert minimal_cut_sets(SERVER_THEFT) == {
            frozenset("A"),
            frozenset("BC"),
            frozenset("EF"),
        }

    def test_subsumption(self):
        t = tree(
            "Y",
            [("Y", GateOp.OR, ("A", "AB")), ("AB", GateOp.AND, ("A", "B"))],
            "AB",
        )
        assert minimal_cut_sets(t) == {frozenset("A")}

    def test_canonical_order(self):
        assert canonical_order(minimal_cut_sets(SERVER_THEFT)) == [
            ("A",),
            ("B", "C"),
            ("E", "F"),
        ]

    def test_antichain_on_random_trees(self):
        rng = random.Random(11)
        for _ in range(200):
            mcs = minimal_cut_sets(random_fault_tree(rng))
            for a in mcs:
                for b in mcs:
                    assert not (a < b)

    def test_oracle_equivalence(self):
        rng = random.Random(42)
        for _ in range(300):
            t = random_fault_tree(rng)
            assert minimal_cut_sets(t) == brute_force_minimal_cut_sets(t)

    def test_every_cut_set_contains_a_minimal_one(self):
        rng = random.Random(5)
        for _ in range(100):
            t = random_fault_tree(rng)
            mcs = minimal_cut_sets(t)
            for cs in cut_sets(t):
                assert any(m <= cs for m in mcs)
