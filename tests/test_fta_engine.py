"""The memoised, stack-based cut-set expansion agrees with the naive oracles.

Random trees share gates, repeat children and redeclare gate ids (the first
declaration wins, as in ``FaultTree.gate``).  Where the recursive oracle
returns, raw families must be identical and minimal families must match the
brute-force minimal cut sets; where it never returns (a gate cycle), the
engine must raise ``ValueError`` instead.

The canonical order, which ``canonical_rows`` builds from the masks and the
CLI writes from, must equal the sort of the sets' sorted name tuples, and
``fta cutsets`` must print exactly ``json.dumps`` of those rows and one
``{a, b}`` line per row.
"""

import json
import math
import random
import time

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

import safsec.fta
import safsec.model
import safsec.validate
from conftest import load_bundled
from generators import random_fault_tree
from oracles import brute_force_minimal_cut_sets, naive_cut_sets
from safsec.cli import main
from safsec.fta import CutSets, canonical_order, canonical_rows, cut_sets, minimal_cut_sets, minimize
from safsec.model import FaultTree, GateOp, post_order

EVENTS = ["e0", "e1", "e2", "e3", "e4"]
OPS = list(GateOp)


def tree(top, gates, events=EVENTS):
    return FaultTree("T", top, tuple(gates), frozenset(events))


@st.composite
def dag_fault_trees(draw):
    """Acyclic first declarations (children have higher indices), then
    redeclarations of the same ids that may point anywhere."""
    n = draw(st.integers(1, 6))
    first = []
    for g in range(n):
        pool = EVENTS + [f"G{i}" for i in range(g + 1, n)]
        kids = draw(st.lists(st.sampled_from(pool), max_size=4))
        first.append((f"G{g}", draw(st.sampled_from(OPS)), tuple(kids)))
    ids = [gid for gid, _, _ in first]
    redeclared = draw(
        st.lists(
            st.tuples(
                st.sampled_from(ids),
                st.sampled_from(OPS),
                st.lists(st.sampled_from(ids + EVENTS), max_size=3).map(tuple),
            ),
            max_size=3,
        )
    )
    return tree("G0", draw(st.permutations(first)) + redeclared)


@st.composite
def cyclic_fault_trees(draw):
    ids = ["G0", "G1", "G2", "G3"]
    gates = draw(
        st.lists(
            st.tuples(
                st.sampled_from(ids),
                st.sampled_from(OPS),
                st.lists(st.sampled_from(ids + EVENTS[:3]), max_size=3).map(tuple),
            ),
            min_size=1,
            max_size=6,
        )
    )
    return tree(gates[0][0], gates)


SHARED = tree(
    "G0",
    [
        ("G0", GateOp.AND, ("G1", "G2", "G1")),
        ("G1", GateOp.OR, ("G3", "e0")),
        ("G2", GateOp.OR, ("G3", "e1")),
        ("G3", GateOp.AND, ("e2", "e3")),
    ],
)


@settings(max_examples=300, deadline=None)
@given(dag_fault_trees())
@example(SHARED)
@example(tree("G0", [("G0", GateOp.AND, ())]))
@example(tree("G0", [("G0", GateOp.OR, ())]))
def test_engine_matches_oracles_on_dags(t):
    raw = naive_cut_sets(t)
    assert cut_sets(t) == raw
    mcs = brute_force_minimal_cut_sets(t)
    assert minimal_cut_sets(t) == mcs
    assert minimize(raw) == mcs


@settings(max_examples=300, deadline=None)
@given(cyclic_fault_trees())
@example(tree("G0", [("G0", GateOp.OR, ("G0",))]))
@example(tree("G0", [("G0", GateOp.AND, ("e0", "G1")), ("G1", GateOp.OR, ("e1", "G0"))]))
def test_gate_cycle_raises_value_error(t):
    try:
        raw = naive_cut_sets(t)
    except RecursionError:
        for expand in (cut_sets, minimal_cut_sets):
            with pytest.raises(ValueError, match="cycle through gate"):
                expand(t)
        return
    assert cut_sets(t) == raw
    assert minimal_cut_sets(t) == minimize(raw)


# Names whose sorted order differs from their declared order: digits sort as
# text ("w10" < "w2"), and upper case, non-ASCII and CJK stems interleave.
WIDE_EVENTS = [f"{stem}{i}" for i, stem in zip(range(48), "wÉzßΩa日Zé" * 6)]
MAX_RAW = 400  # bound on the raw family, so the naive oracle stays quick


def family_bound(op, sizes):
    """An upper bound on a gate's raw family size from its children's."""
    return sum(sizes) if op is GateOp.OR else math.prod(sizes)


@st.composite
def wide_fault_trees(draw):
    """1-40 events in up to 6 gates, with gates shared between parents.

    Each event is a child of one gate and each gate but the top a child of an
    earlier one, so every event is reached; extra edges share gates and
    events.  An AND that could make more than ``MAX_RAW`` raw sets is an OR.
    """
    events = draw(st.permutations(WIDE_EVENTS))[:draw(st.integers(1, 40))]
    n = draw(st.integers(1, 6))
    kids: list[list[str]] = [[] for _ in range(n)]
    for g in range(1, n):
        kids[draw(st.integers(0, g - 1))].append(f"G{g}")
    for event in events:
        kids[draw(st.integers(0, n - 1))].append(event)
    for g in range(n):
        pool = events + [f"G{i}" for i in range(g + 1, n)]
        kids[g] += draw(st.lists(st.sampled_from(pool), max_size=2))
    gates, bound = [], {event: 1 for event in events}
    for g in reversed(range(n)):
        op = draw(st.sampled_from(OPS))
        if op is GateOp.AND and family_bound(op, [bound[k] for k in kids[g]]) > MAX_RAW:
            op = GateOp.OR
        bound[f"G{g}"] = family_bound(op, [bound[k] for k in kids[g]])
        gates.append((f"G{g}", op, tuple(draw(st.permutations(kids[g])))))
    return tree("G0", gates[::-1], events)


def straddling(n, pairs):
    """An OR over the ANDs of events ranked ``a`` and ``b`` for each pair, an
    AND over all of them, and every other one of ``n`` events, declared in
    reverse rank order."""
    names = [f"n{i:02d}" for i in range(n)]
    ands = [(f"A{a}", GateOp.AND, (names[b], names[a])) for a, b in pairs]
    paired = {i for pair in pairs for i in pair}
    top = [g for g, _, _ in ands] + ["ALL"] + [names[i] for i in reversed(range(n)) if i not in paired]
    every = ("ALL", GateOp.AND, tuple(names[i] for i in sorted(paired, reverse=True)))
    return tree("T", [("T", GateOp.OR, tuple(top)), *ands, every], names)


@settings(max_examples=200, deadline=None)
@given(wide_fault_trees())
@example(straddling(9, [(7, 8)]))
@example(straddling(17, [(7, 8), (15, 16)]))
@example(straddling(25, [(7, 8), (15, 16), (23, 24)]))
@example(straddling(40, [(6, 7), (8, 9), (7, 8), (15, 16), (23, 24), (31, 32), (38, 39)]))
def test_wide_families_match_oracles_across_byte_boundaries(t):
    raw = naive_cut_sets(t)
    assert cut_sets(t) == raw
    assert canonical_order(cut_sets(t)) == sorted(tuple(sorted(s)) for s in raw)
    if len(t.basic_events) <= 12:
        mcs = brute_force_minimal_cut_sets(t)
    else:  # 2**n subsets are too many to enumerate: the raw family's minima
        mcs = {s for s in raw if not any(o < s for o in raw)}
    assert minimal_cut_sets(t) == mcs
    assert canonical_order(minimal_cut_sets(t)) == sorted(tuple(sorted(s)) for s in mcs)


def chain(n, *, close_cycle=False):
    """G0 AND [G1, a], ..., with the last gate an OR over a and b."""
    gates = [(f"G{i}", GateOp.AND, (f"G{i + 1}", "a")) for i in range(n - 1)]
    last = ("G0", "a") if close_cycle else ("a", "b")
    gates.append((f"G{n - 1}", GateOp.OR, last))
    return tree("G0", gates, ["a", "b"])


def test_deep_chain_needs_no_recursion():
    # Far deeper than the interpreter's recursion limit.
    t = chain(10_000)
    assert cut_sets(t) == {frozenset("a"), frozenset("ab")}
    assert minimal_cut_sets(t) == {frozenset("a")}


def test_deep_cycle_names_the_gate():
    t = chain(10_000, close_cycle=True)
    with pytest.raises(ValueError, match="^fault tree 'T': cycle through gate 'G0'$"):
        minimal_cut_sets(t)


def test_equal_size_sets_need_no_subset_test():
    tests = 0

    class Counted(int):
        """A mask that counts the subset tests ``k & c == k`` it takes part in."""

        def __and__(self, other):
            nonlocal tests
            tests += 1
            return int.__and__(self, other)

        __rand__ = __and__

    pairs = CutSets.of({frozenset({f"a{i}", f"b{j}"}) for i in range(20) for j in range(20)})
    same_size = CutSets({Counted(m) for m in pairs.masks}, pairs.events)
    assert minimize(same_size) == set(same_size)
    assert tests == 0
    family = set(same_size)  # a plain set is read into a new family
    kept = minimize(family)
    assert kept == family and kept is not family and tests == 0
    # A smaller kept set is tested against each larger candidate.
    a0 = Counted(1 << pairs.events.index("a0"))
    assert minimize(CutSets(same_size.masks | {a0}, pairs.events)) == {
        s for s in same_size if "a0" not in s
    } | {frozenset({"a0"})}
    assert tests == len(same_size)


def and_of_ors(k):
    gates = [("T", GateOp.AND, tuple(f"O{i}" for i in range(k)))]
    gates += [(f"O{i}", GateOp.OR, (f"a{i}", f"b{i}")) for i in range(k)]
    return tree("T", gates, [f"{c}{i}" for i in range(k) for c in "ab"])


def test_and_of_14_minimal_family_is_fast():
    start = time.perf_counter()
    family = minimal_cut_sets(and_of_ors(14))
    elapsed = time.perf_counter() - start
    assert len(family) == 2**14
    assert all(len(s) == 14 for s in family)
    assert elapsed < 5.0, f"AND-of-14 took {elapsed:.2f} s"


# --- the canonical order against a sort of name tuples, through the CLI --------


def decoded(family):
    """The family's sets as sorted name tuples, read off the masks alone."""
    return {tuple(e for i, e in enumerate(family.events) if mask >> i & 1) for mask in family.masks}


def ssm(t):
    lines = [f'fta "{t.name}" {{', f"  top {t.top}"]
    lines += [f"  gate {g} {op.value} [{', '.join(kids)}]" for g, op, kids in t.gates]
    return "\n".join(lines + [f"  event {e}" for e in sorted(t.basic_events)] + ["}", ""])


def check_canonical_order(t, tmp_path):
    """For the raw and the minimal family of ``t``: the routine's order, the
    machine output and the text output against the sort of name tuples."""
    path = tmp_path / "tree.ssm"
    path.write_text(ssm(t), encoding="utf-8")
    for minimal, family in ((False, cut_sets(t)), (True, minimal_cut_sets(t))):
        expected = sorted(decoded(family))
        assert canonical_order(family) == expected
        rows = canonical_rows(family, [f"<{e}>" for e in family.events])
        assert rows == ["".join(f"<{e}>" for e in cut) for cut in expected]

        args = ["fta", "cutsets", str(path), "--tree", t.name] + ["--minimal"] * minimal
        machine = CliRunner().invoke(main, ["--format", "machine", *args])
        payload = {"command": "fta cutsets", "tree": t.name, "minimal": minimal,
                   "cut_sets": [list(cut) for cut in expected]}
        assert (machine.exit_code, machine.stdout) == (0, json.dumps(payload, sort_keys=True, indent=2) + "\n")
        text = CliRunner().invoke(main, args, env={"SAFSEC_COLOR": "0"})
        assert (text.exit_code, text.stdout) == (0, "".join("{" + ", ".join(cut) + "}\n" for cut in expected))


def renamed(t, names):
    """``t`` with its events renamed, in sorted order, to ``names``."""
    new = dict(zip(sorted(t.basic_events), names))
    gates = tuple((g, op, tuple(new.get(k, k) for k in kids)) for g, op, kids in t.gates)
    return FaultTree(t.name, new.get(t.top, t.top), gates, frozenset(new.values()))


# Identifiers that JSON escapes, whose code point order interleaves ASCII and
# non-ASCII names, and whose sorted order differs from their declared order.
ESCAPED = ["é1", "Ω", "日本", "𝔘x", "Zeta", "ä", "w10", "w2", "ß", "É"]


@pytest.mark.parametrize("seed", range(30))
def test_random_trees_order_and_print_as_sorted_tuples(seed, tmp_path):
    t = random_fault_tree(random.Random(seed))
    check_canonical_order(t, tmp_path)
    check_canonical_order(renamed(t, random.Random(seed).sample(ESCAPED, len(ESCAPED))), tmp_path)


def test_an_or_of_300_events_orders_past_256_events(tmp_path):
    names = [f"n{i}" for i in range(300)]  # "n10" sorts before "n2"
    check_canonical_order(tree("T", [("T", GateOp.OR, tuple(reversed(names)))], names), tmp_path)


def test_an_and_of_two_ors_of_150_events(tmp_path):
    left, right = [f"l{i}" for i in range(150)], [f"R{i}" for i in range(150)]
    t = tree("T", [("T", GateOp.AND, ("A", "B")), ("A", GateOp.OR, tuple(left)),
                   ("B", GateOp.OR, tuple(right[::-1]))], left + right)
    check_canonical_order(t, tmp_path)


def test_escaped_names_across_byte_boundaries(tmp_path):
    names = [f"{stem}{i}" for i, stem in enumerate("wÉzßΩa日Zé𝔘" * 3)]  # 30 events, 4 bytes
    ors = [(f"O{i}", GateOp.OR, (names[i], names[-1 - i])) for i in range(15)]
    t = tree("T", [("T", GateOp.OR, ("A", "B")), ("A", GateOp.AND, tuple(g for g, _, _ in ors[:6])),
                   ("B", GateOp.OR, tuple(g for g, _, _ in ors[3:])), *ors], names)
    check_canonical_order(t, tmp_path)


def test_dense_sparse_and_unused_byte_columns(tmp_path):
    """Byte 0 is used by most sets, bytes 1 and 2 by a few, and byte 3 only by
    a set that the minimal family absorbs."""
    n = [f"n{i:02d}" for i in range(32)]
    t = tree("T", [("T", GateOp.OR, ("X", "Y", "Z", "W")),
                   ("X", GateOp.AND, ("P", "Q")), ("P", GateOp.OR, tuple(n[0:4])),
                   ("Q", GateOp.OR, tuple(n[4:8])), ("Y", GateOp.AND, ("n00", "R")),
                   ("R", GateOp.OR, tuple(n[8:16])), ("Z", GateOp.AND, tuple(n[16:24])),
                   ("W", GateOp.AND, ("n00", "n04", *n[24:]))], n)
    assert not any(mask >> 24 for mask in minimal_cut_sets(t).masks)
    check_canonical_order(t, tmp_path)


def test_a_cutsets_request_walks_the_gates_twice(monkeypatch, tmp_path):
    """The validator's cycle check walks from every gate; its reachability
    check and the expansion share the tree's one walk from the top."""
    walks = []

    def counted(roots, children, kind):
        walks.append(kind)
        return post_order(roots, children, kind)

    for module in (safsec.model, safsec.validate, safsec.fta):
        monkeypatch.setattr(module, "post_order", counted, raising=False)
    path = tmp_path / "servertheft.ssm"
    path.write_text(load_bundled("servertheft.ssm"), encoding="utf-8")
    result = CliRunner().invoke(main, ["fta", "cutsets", str(path), "--tree", "ServerTheft", "--minimal"])
    assert (result.exit_code, walks) == (0, ["gate", "gate"])
