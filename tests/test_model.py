import pytest

from safsec.model import (
    Clause,
    ConfidenceTriple,
    DefeaterCount,
    Document,
    FaultTree,
    GateOp,
    GsnModel,
    GsnNode,
    GuideWord,
    Literal,
    NodeKind,
    VoterMeta,
)


class TestConfidenceTriple:
    def test_valid(self):
        t = ConfidenceTriple(0.4, 0.56, 0.04)
        assert t.rounded() == (0.4, 0.56, 0.04)

    def test_sum_must_be_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            ConfidenceTriple(0.5, 0.5, 0.5)

    def test_component_bounds(self):
        with pytest.raises(ValueError):
            ConfidenceTriple(1.2, -0.2, 0.0)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            ConfidenceTriple(float("nan"), 0.5, 0.5)


class TestDefeaterCount:
    def test_valid(self):
        assert DefeaterCount(3, 5).problems == []

    def test_outruled_exceeding_total(self):
        assert DefeaterCount(6, 5).problems

    def test_addition(self):
        assert DefeaterCount(10, 20) + DefeaterCount(15, 40) == DefeaterCount(25, 60)


class TestVoterMeta:
    def test_threshold_bounds(self):
        ok = VoterMeta(signals=("A", "B"), threshold=2, trace="X")
        assert ok.problems == []
        bad = VoterMeta(signals=("A", "B"), threshold=3, trace="X")
        assert any("exceeds signal count" in p for p in bad.problems)


def test_guide_words_closed():
    assert len(GuideWord) == 10
    with pytest.raises(ValueError):
        GuideWord("overflow")


def test_clause_str():
    c = Clause(body=(Literal("SigFire"),), head=Literal("DoorLock", positive=False))
    assert str(c) == "SigFire => !DoorLock"
    fact = Clause(body=(), head=Literal("On"))
    assert str(fact) == "=> On"


def test_clause_text_is_rendered_once_outside_equality():
    used = Clause(body=(Literal("A"), Literal("B", positive=False)), head=Literal("C"))
    fresh = Clause(body=(Literal("A"), Literal("B", positive=False)), head=Literal("C"))
    assert str(used) is used.text is str(used) == "A & !B => C"
    assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)


class TestStructuralIndexes:
    NODES = (
        GsnNode("G1", NodeKind.GOAL, "first"),
        GsnNode("S1", NodeKind.STRATEGY, "s", parent="G1"),
        GsnNode("G1", NodeKind.GOAL, "second", parent="S1"),
        GsnNode("G2", NodeKind.GOAL, "g2", parent="G1"),
    )

    def test_node_lookup_first_declaration_wins(self):
        model = GsnModel("M", self.NODES)
        assert model.node("G1").text == "first"
        with pytest.raises(KeyError):
            model.node("nope")

    def test_gate_lookup_first_declaration_wins(self):
        tree = FaultTree(
            "T",
            "G",
            (("G", GateOp.AND, ("a",)), ("G", GateOp.OR, ("b",))),
            frozenset({"a", "b"}),
        )
        assert tree.gate("G") == (GateOp.AND, ("a",))
        assert tree.gate("a") is None

    def test_indexes_leave_equality_and_hash_alone(self):
        used, fresh = GsnModel("M", self.NODES), GsnModel("M", self.NODES)
        used.node("G1"), used.roots()
        assert used == fresh and hash(used) == hash(fresh)
        doc, other = Document((used,)), Document((fresh,))
        assert doc.gsns["M"] is used
        assert doc == other and hash(doc) == hash(other)

    def test_document_later_block_of_a_name_wins(self):
        first, second = GsnModel("M", self.NODES[:1]), GsnModel("M", self.NODES[:2])
        doc = Document((first, second))
        assert doc.gsns == {"M": second}
        assert doc.ftas == {}
        with pytest.raises(TypeError):
            doc.gsns["X"] = first  # the index is read-only
