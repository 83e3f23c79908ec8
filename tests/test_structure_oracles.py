"""Indexed GSN and fault-tree passes agree with the naive oracles.

:func:`safsec.model.post_order`, the walk they all fold over, is checked
first against plain recursive reachability on random graphs.  The models
are random and deliberately malformed: ids drawn from a small pool collide,
parents may be unknown, and parent pointers or gate children may form cycles
(through goals, or through non-goal nodes only).  Wherever the naive oracle
returns, the indexed code must give the same answer; where the recursive
oracle never returns (a goal whose subtree is a cycle), the indexed
aggregation must raise ``ValueError`` instead.

Every test here walks in-process under `deadline`, re-armed for each
Hypothesis example, so that a walk which loses its cycle guard fails the
test instead of hanging the run.
"""

import signal
from contextlib import contextmanager

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (naive_gsn_structure_problems, naive_has_cycle, naive_on_cycle, naive_reach,
                     naive_subtree_counts)
from safsec.confidence import aggregate_gsn
from safsec.model import (
    DefeaterCount,
    Document,
    FaultTree,
    GateOp,
    GsnModel,
    GsnNode,
    NodeKind,
    post_order,
)
from safsec.validate import validate_model

POOL = ["a", "b", "c", "d", "e", "f", "g"]


@contextmanager
def deadline(seconds: float = 5.0):
    """Raise ``TimeoutError`` in the body if it runs longer than ``seconds``;
    as a decorator, each call of the function gets its own deadline."""
    if not hasattr(signal, "setitimer"):  # no interval timers on Windows
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"still walking after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@st.composite
def graphs(draw):
    """Roots and a children function over ids from ``POOL``.  A child list
    may repeat an id and name ids without children of their own, and cycles
    are allowed."""
    ids = draw(st.lists(st.sampled_from(POOL), unique=True, max_size=len(POOL)))
    kids = {node: draw(st.lists(st.sampled_from(POOL), max_size=4)) for node in ids}
    roots = draw(st.lists(st.sampled_from(POOL), max_size=4))
    return roots, lambda node: kids.get(node, [])


@settings(max_examples=300, deadline=None)
@given(graphs())
@example((["a"], lambda node: {"a": ["b", "b"], "b": []}.get(node, [])))
@example((["a", "c"], lambda node: {"a": ["b"], "b": ["a"]}.get(node, [])))
@example((["c", "a"], lambda node: {"a": ["b"], "b": ["a"]}.get(node, [])))
@deadline()
def test_post_order_matches_naive_reachability(graph):
    roots, children = graph
    reachable = set(roots) | naive_reach(roots, children)
    on_cycle = {node for node in reachable if node in naive_reach([node], children)}
    if on_cycle:
        with pytest.raises(ValueError) as exc:
            list(post_order(roots, children, "thing"))
        assert str(exc.value) in {f"cycle through thing {node!r}" for node in on_cycle}
        return
    order = list(post_order(roots, children, "thing"))
    assert len(order) == len(set(order))
    assert set(order) == reachable
    position = {node: i for i, node in enumerate(order)}
    assert all(position[child] < position[node] for node in order for child in children(node))


@deadline()
def test_post_order_needs_no_recursion():
    # Far deeper than the interpreter's recursion limit.
    depth = 10_000

    def step(node: str) -> list[str]:
        return [str(int(node) + 1)] if int(node) < depth - 1 else []

    assert list(post_order(["0"], step, "link")) == [str(i) for i in reversed(range(depth))]

    def loop(node: str) -> list[str]:
        return [str((int(node) + 1) % depth)]

    with pytest.raises(ValueError, match="^cycle through link '0'$"):
        list(post_order(["0"], loop, "link"))


IDS = ["A", "B", "C", "D", "E", "F"]
KINDS = list(NodeKind)


@st.composite
def gsn_nodes(draw):
    kind = draw(st.sampled_from(KINDS))
    total = draw(st.integers(0, 6))
    defeaters = None
    if kind is NodeKind.GOAL and draw(st.booleans()):
        defeaters = DefeaterCount(draw(st.integers(0, total)), total)
    return GsnNode(
        id=draw(st.sampled_from(IDS)),
        kind=kind,
        text="t",
        parent=draw(st.sampled_from([None, "missing", *IDS])),
        defeaters=defeaters,
    )


def gsn(*spec: tuple) -> GsnModel:
    """Model from (id, kind, parent[, outruled, total]) tuples."""
    nodes = []
    for node_id, kind, parent, *counts in spec:
        defeaters = DefeaterCount(*counts) if counts else None
        nodes.append(GsnNode(node_id, kind, "t", parent=parent, defeaters=defeaters))
    return GsnModel("M", tuple(nodes))


G, S, C = NodeKind.GOAL, NodeKind.STRATEGY, NodeKind.CONTEXT
GOAL_CYCLE = gsn(("A", G, "B", 1, 2), ("B", G, "A"))
NON_GOAL_CYCLE = gsn(("R", G, None, 1, 1), ("A", S, "B"), ("B", C, "A"), ("G", G, "A", 2, 3))
DUPLICATES = gsn(("R", G, None, 1, 2), ("A", G, "R", 1, 1), ("A", G, "R", 3, 4), ("B", S, "A"))
UNKNOWN_PARENT = gsn(("R", G, None), ("A", G, "missing", 2, 2))
# A goal reaches the cycle only through a duplicate declaration of A.
CYCLE_VIA_DUPLICATE = gsn(("R", G, None), ("A", S, "R"), ("A", S, "B"), ("B", S, "A"))
# X's first declaration closes a cycle with Y; its second hangs under R.  The
# validator follows each id's first declaration, so it reports both
# declarations of X and the one of Y.
CYCLE_BEFORE_DUPLICATE = gsn(("R", G, None), ("X", S, "Y"), ("Y", S, "X"), ("X", S, "R"))


@settings(max_examples=200, deadline=None)
@given(st.lists(gsn_nodes(), min_size=1, max_size=9))
@example([*GOAL_CYCLE.nodes])
@example([*NON_GOAL_CYCLE.nodes])
@example([*DUPLICATES.nodes])
@example([*UNKNOWN_PARENT.nodes])
@example([*CYCLE_VIA_DUPLICATE.nodes])
@example([*CYCLE_BEFORE_DUPLICATE.nodes])
@deadline()
def test_gsn_passes_match_naive_oracles(nodes):
    model = GsnModel("M", tuple(nodes))

    structural = sorted(
        d.message
        for d in validate_model(Document((model,)))
        if d.message.startswith(("duplicate node id", "cycle through node"))
    )
    assert structural == sorted(naive_gsn_structure_problems(model))

    try:
        expected = naive_subtree_counts(model)
    except RecursionError:
        with pytest.raises(ValueError, match="cycle through node"):
            aggregate_gsn(model)
        return
    got = aggregate_gsn(model)
    assert {g: (op.count.outruled, op.count.total) for g, op in got.items()} == expected


@deadline()
def test_examples_cover_each_malformation():
    assert "cycle through node 'A'" in naive_gsn_structure_problems(GOAL_CYCLE)
    with pytest.raises(ValueError):
        aggregate_gsn(GOAL_CYCLE)
    # A non-goal cycle that no goal reaches is reported but not aggregated.
    assert "cycle through node 'G'" in naive_gsn_structure_problems(NON_GOAL_CYCLE)
    assert aggregate_gsn(NON_GOAL_CYCLE)["R"].count == DefeaterCount(1, 1)
    assert aggregate_gsn(DUPLICATES)["R"].count == DefeaterCount(3, 4)
    with pytest.raises(ValueError):
        aggregate_gsn(CYCLE_VIA_DUPLICATE)
    cycles = ["cycle through node 'X'", "cycle through node 'X'", "cycle through node 'Y'"]
    naive = naive_gsn_structure_problems(CYCLE_BEFORE_DUPLICATE)
    assert sorted(m for m in naive if m.startswith("cycle")) == cycles
    diags = validate_model(Document((CYCLE_BEFORE_DUPLICATE,)))
    assert sorted(d.message for d in diags if d.message.startswith("cycle")) == cycles


@st.composite
def fault_trees(draw):
    events = ["e1", "e2", "e3"]
    gate_ids = ["G0", "G1", "G2", "G3"]
    gates = draw(
        st.lists(
            st.tuples(
                st.sampled_from(gate_ids),
                st.sampled_from(list(GateOp)),
                st.lists(st.sampled_from(gate_ids + events), min_size=1, max_size=3).map(tuple),
            ),
            min_size=1,
            max_size=6,
        )
    )
    return FaultTree("T", gates[0][0], tuple(gates), frozenset(events))


@settings(max_examples=200, deadline=None)
@given(fault_trees())
@example(FaultTree("T", "G0", (("G0", GateOp.OR, ("G0",)),), frozenset()))
@example(
    FaultTree(
        "T",
        "G0",
        (
            ("G0", GateOp.AND, ("e1",)),
            ("G1", GateOp.OR, ("G0",)),
            ("G0", GateOp.OR, ("G1",)),  # ignored: a duplicate id's first gate wins
        ),
        frozenset({"e1"}),
    )
)
@deadline()
def test_fault_tree_cycle_check_matches_per_gate_dfs(tree):
    messages = [d.message for d in validate_model(Document((tree,)))]
    cycles = [m for m in messages if m.startswith("cycle through gate")]
    assert len(cycles) == naive_has_cycle(tree)
    for message in cycles:
        assert naive_on_cycle(tree, message.split("'")[1])
    gate_ids = [gid for gid, _, _ in tree.gates]
    duplicates = sorted({g for g in gate_ids if gate_ids.count(g) > 1})
    assert [m for m in messages if m.startswith("duplicate gate")] == [
        f"duplicate gate {g!r}" for g in duplicates
    ]


def chain(n: int) -> GsnModel:
    nodes = [GsnNode("G0", G, "t", defeaters=DefeaterCount(1, 2))]
    nodes += [
        GsnNode(f"G{i}", G, "t", parent=f"G{i - 1}", defeaters=DefeaterCount(1, 2))
        for i in range(1, n)
    ]
    return GsnModel("chain", tuple(nodes))


@deadline()
def test_deep_chain_needs_no_recursion():
    # Far deeper than the interpreter's recursion limit.
    model = chain(10_000)
    opinions = aggregate_gsn(model)
    assert opinions["G0"].count == DefeaterCount(10_000, 20_000)
    assert opinions["G9999"].count == DefeaterCount(1, 2)
    assert validate_model(Document((model,))) == []
