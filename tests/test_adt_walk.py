"""One explicit-stack walk over attack-defense trees.

``model.adt_walk`` names each node by its place, which shares its parent's.
The walk drives the printer (trees and ``add_counter`` nodes), DOT export,
which numbers the nodes ``n0``, ``n1``, ... in preorder, and the replay's
label index.  ``model.adt_preorder`` keeps a stack of bare nodes, in the
walk's entry order, for ``adt eval`` and the node checks of
``AdtNode.problems``, which read each node once.  Each must match the
version it replaced (kept in ``oracles.py``) on random trees, and each must
handle chains deeper than Python's recursion limit, of children and of
counters.  At 10,000 levels the walk, the
validator and a replay's counter round must each hold under 20 MB; a walk
that kept spelled paths held about 100 MB.
"""

import sys
import tracemalloc

import pytest
from click.testing import CliRunner
from hypothesis import given, settings

from safsec.cli import main
from safsec.dot import adt_to_dot
from safsec.model import (
    Actor,
    AddCounterAction,
    AdtNode,
    AttackDefenseTree,
    Document,
    GsnModel,
    Refinement,
    Scenario,
    Thresholds,
    adt_preorder,
    adt_walk,
    sort_key,
)
from safsec.modelfile import parse, print_document
from safsec.modelfile.printer import HEADER
from safsec.process import Replay
from safsec.validate import validate_model

from oracles import (
    generator_adt_problems,
    recursive_adt_diagnostics,
    recursive_adt_lines,
    recursive_adt_to_dot,
    recursive_adt_walk,
)
from conftest import load_bundled
from test_cli import BAD_ROUNDS, BAD_ROUNDS_REFUSED, COUNTERED_DEFENSE
from test_modelfile import adt_nodes

DEPTH = 1_500  # printed text and DOT grow with the square of the depth


class TestMatchesTheRecursiveWalkers:
    @settings(max_examples=60, deadline=None)
    @given(adt_nodes())
    def test_walk_validate_print_and_dot(self, root):
        tree = AttackDefenseTree(name="t", root=root)
        assert list(adt_preorder(root)) == [node for _, node in recursive_adt_walk(tree)]
        assert validate_model(Document((tree,))) == sorted(
            recursive_adt_diagnostics(tree), key=sort_key
        )
        assert adt_to_dot(tree) == recursive_adt_to_dot(tree)

        scenario = Scenario("s", "g", "t", Thresholds(0.8, 0.2, 0.1), 3,
                            (AddCounterAction(at_label="x", node=root),))
        node_lines = recursive_adt_lines(root, 1)
        expected = [
            HEADER, "", 'adt "t" {', *node_lines, "}", "",
            'scenario "s" {', '  gsn = "g"', '  adt = "t"',
            "  thresholds min_belief = 0.8 max_disbelief = 0.2 max_uncertainty = 0.1",
            "  max_rounds = 3",
            '  add_counter at = "x" ' + node_lines[0].lstrip(), *node_lines[1:], "}",
        ]
        assert print_document(Document((tree, scenario))) == "\n".join(expected) + "\n"

    def test_events_nest(self):
        leaf = AdtNode(Actor.DEFENSE, "d")
        root = AdtNode(Actor.ATTACK, "r", Refinement.AND,
                       children=(AdtNode(Actor.ATTACK, "a"), AdtNode(Actor.ATTACK, "b")),
                       counter=leaf)
        top, a, b, c = (), ((), 0), ((), 1), ((), "c")
        assert [(place, entering) for place, _, entering in adt_walk(root)] == [
            (top, True), (a, True), (a, False), (b, True),
            (b, False), (c, True), (c, False), (top, False),
        ]
        # A walk from a place extends it; the places below share it.
        events = list(adt_walk(root, a))
        assert [place for place, _, _ in events] == [a, (a, 0), (a, 0), (a, 1), (a, 1),
                                                     (a, "c"), (a, "c"), a]
        assert events[1][0][0] is a


class TestOneLoopNodeChecks:
    """``AdtNode.problems`` and ``adt_preorder`` against the generator over
    ``adt_walk``'s entering nodes that they replaced."""

    @settings(max_examples=200, deadline=None)
    @given(adt_nodes())
    def test_problems_match_the_generator_checks(self, root):
        assert root.problems == generator_adt_problems(root)

    def test_a_tree_that_breaks_every_invariant(self):
        attack, defense = Actor.ATTACK, Actor.DEFENSE
        twice = (("cost", 1.0), ("time", 2.0), ("cost", 3.0), ("time", 4.0), ("skill", 5.0))
        root = AdtNode(attack, "root", Refinement.LEAF, children=(
            AdtNode(attack, "and", Refinement.AND, attributes=twice),
            AdtNode(defense, "other", Refinement.OR, children=(AdtNode(attack, "leaf"),)),
            AdtNode(attack, "fine", attributes=(("cost", 1.0),)),
        ), counter=AdtNode(attack, "same", counter=AdtNode(defense, "ok")))
        assert root.problems == generator_adt_problems(root) == [
            "node 'root' has children but no AND/OR refinement",
            "refinement child 'other' of 'root' has mismatching actor",
            "countermeasure of 'root' must have opposite actor",
            "AND node 'and' has no children",
            "duplicate attribute 'cost' on 'and'",
            "duplicate attribute 'time' on 'and'",
            "refinement child 'leaf' of 'other' has mismatching actor",
        ]

    @settings(max_examples=100, deadline=None)
    @given(adt_nodes())
    def test_preorder_is_the_walks_entering_nodes(self, root):
        entering = [node for _, node, entering in adt_walk(root) if entering]
        assert list(map(id, adt_preorder(root))) == list(map(id, entering))

    @pytest.mark.parametrize("via", ["child", "counter"])
    def test_preorder_of_a_ten_thousand_deep_chain(self, via):
        root = deep_chain(via, 10_000).root
        entering = [node for _, node, entering in adt_walk(root) if entering]
        assert list(map(id, adt_preorder(root))) == list(map(id, entering))
        assert len(entering) == 10_001


def deep_chain(via: str, depth: int = DEPTH) -> AttackDefenseTree:
    """``depth`` levels above a leaf; each level's only child, or its counter, is the next."""
    node = AdtNode(Actor.ATTACK, "bottom", attributes=(("cost", 1.0),))
    for i in reversed(range(depth)):
        if via == "child":
            node = AdtNode(Actor.ATTACK, f"level {i}", Refinement.OR, children=(node,))
        else:
            node = AdtNode(node.actor.opposite, f"level {i}", counter=node)
    return AttackDefenseTree("deep", node)


@pytest.mark.parametrize("via", ["child", "counter"])
class TestDeeperThanTheRecursionLimit:
    def test_walk(self, via):
        assert sys.getrecursionlimit() < DEPTH
        labels = [node.label for node in adt_preorder(deep_chain(via).root)]
        assert labels == [f"level {i}" for i in range(DEPTH)] + ["bottom"]

    def test_validate(self, via):
        assert validate_model(Document((deep_chain(via),))) == []

    def test_print_reparses_to_the_same_chain(self, via):
        tree = deep_chain(via)
        result = parse(print_document(Document((tree,))))
        assert result.ok and not result.diagnostics
        # A loop, not ``==``: comparing two trees recurses.
        old, new = tree.root, result.document.adts["deep"].root
        for _ in range(DEPTH):
            fields = ("actor", "label", "refinement", "attributes", "impact")
            assert [getattr(new, f) for f in fields] == [getattr(old, f) for f in fields]
            assert (len(new.children), new.counter is None) == (len(old.children), old.counter is None)
            old, new = (old.children[0], new.children[0]) if via == "child" else (old.counter, new.counter)
        assert (new.label, new.attributes, new.children, new.counter) == ("bottom", (("cost", 1.0),), (), None)

    def test_dot(self, via):
        lines = adt_to_dot(deep_chain(via)).splitlines()
        # Two header lines, one line per node, then one per edge, deepest
        # first, and the closing brace.
        nodes, edges = lines[2:DEPTH + 3], lines[DEPTH + 3:-1]
        assert [line.split(" [", 1)[0] for line in nodes] == [f'  "n{i}"' for i in range(DEPTH + 1)]
        style = "" if via == "child" else " [style=dotted]"
        assert edges == [f'  "n{i - 1}" -> "n{i}"{style};' for i in range(DEPTH, 0, -1)]
        assert lines[-1] == "}"


def traced_peak(run) -> int:
    """The most memory, in bytes, that ``run()`` holds at once, by ``tracemalloc``."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("via", ["child", "counter"])
class TestTenThousandLevelsInLinearMemory:
    """A place shares its parent's, so a walk over a chain of depth d holds
    O(d) memory; spelled paths would hold O(d²), about 100 MB here."""

    DEPTH = 10_000
    LIMIT = 20_000_000

    def test_walk(self, via):
        root = deep_chain(via, self.DEPTH).root
        counts = {True: 0, False: 0}

        def run():
            for _, _, entering in adt_walk(root):
                counts[entering] += 1

        assert traced_peak(run) < self.LIMIT
        assert counts == {True: self.DEPTH + 1, False: self.DEPTH + 1}

    def test_validate(self, via):
        document = Document((deep_chain(via, self.DEPTH),))
        found = []
        assert traced_peak(lambda: found.extend(validate_model(document))) < self.LIMIT
        assert found == []

    def test_replay_counters_the_bottom(self, via):
        tree = deep_chain(via, self.DEPTH)
        bottom = tree.root
        while bottom.children or bottom.counter:
            bottom = bottom.children[0] if via == "child" else bottom.counter
        guard = AdtNode(bottom.actor.opposite, "guard")
        replay = Replay(GsnModel("m", ()), tree)
        assert traced_peak(lambda: replay.apply(AddCounterAction("bottom", guard))) < self.LIMIT
        node, depth = replay.adt.root, 0
        while node.label != "bottom":
            node, depth = (node.children[0] if via == "child" else node.counter), depth + 1
        assert (depth, node.counter) == (self.DEPTH, guard)


def test_cli_validates_a_ten_thousand_deep_chain(tmp_path):
    depth = 10_000
    text = ('adt "deep" {\n' + "".join(f'attack OR "level {i}" {{\n' for i in range(depth))
            + 'attack "bottom"\n' + "}\n" * (depth + 1))
    model = tmp_path / "deep.ssm"
    model.write_text(text, encoding="utf-8")
    result = CliRunner().invoke(main, ["validate", str(model)])
    assert (result.exit_code, result.output) == (0, "ok\n")


def _refuse(name: str):
    def method(self, *args):
        raise AssertionError(f"AdtNode.{name} called")
    return method


def test_no_cli_path_hashes_compares_or_reprs_a_node(tmp_path, monkeypatch):
    """``AdtNode``'s generated ``__hash__``, ``__eq__`` and ``__repr__``
    recurse, so no command may call them: each command's result must stay
    the same when they raise."""
    files = {"airbag.ssm": load_bundled("airbag.ssm"), "countered.ssm": COUNTERED_DEFENSE,
             "rounds.ssm": BAD_ROUNDS}
    for via in ("child", "counter"):
        files[f"deep-{via}.ssm"] = print_document(Document((deep_chain(via),)))
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    per_file = {
        "airbag.ssm": [["adt", "eval", "--adt", "Airbag Attack", "--attribute", "probability"],
                       ["process", "run", "--scenario", "Airbag Hardening"],
                       ["derive", "adt", "--gsn", "Airbag"],
                       ["export", "dot", "--model", "Airbag Attack"]],
        "countered.ssm": [["adt", "eval", "--adt", "A", "--attribute", "probability"],
                          ["process", "run", "--scenario", "S"], ["derive", "adt", "--gsn", "M"],
                          ["export", "dot", "--model", "A"]],
        "rounds.ssm": [["adt", "eval", "--adt", "A", "--attribute", "probability"],
                       *(["process", "run", "--scenario", s] for s in BAD_ROUNDS_REFUSED),
                       ["derive", "adt", "--gsn", "M"], ["export", "dot", "--model", "A"]],
        "deep-child.ssm": [["export", "dot", "--model", "deep"]],
        "deep-counter.ssm": [["export", "dot", "--model", "deep"]],
    }
    runs = [["--format", fmt, *command[:2], str(tmp_path / name), *command[2:]]
            for fmt in ("text", "machine") for name, commands in per_file.items()
            for command in [["validate"], *commands]]

    def outcomes():
        runner = CliRunner()
        results = [runner.invoke(main, argv, catch_exceptions=False) for argv in runs]
        return [(r.exit_code, r.stdout, r.stderr) for r in results]

    expected = outcomes()
    assert {code for code, _, _ in expected} == {0, 1, 2}
    for name in ("__hash__", "__eq__", "__repr__"):
        monkeypatch.setattr(AdtNode, name, _refuse(name))
    with pytest.raises(AssertionError, match="__hash__"):
        hash(AdtNode(Actor.ATTACK, "x"))
    assert outcomes() == expected
