"""Cut-set and minimal-cut-set computation for fault trees.

Structural expansion in the MOCUS style: OR gates union the families of
their children, AND gates take pairwise unions across child families.  One
post-order walk with an explicit stack expands each gate once (shared gates
are memoised) and raises ``ValueError`` on a gate cycle.  For the minimal
family, absorption runs after every AND product step and at the end of every
OR gate, so subsumed sets never grow past the gate that made them and each
gate's work is bounded by its children's minimal families, not by the raw
family.
"""

from __future__ import annotations

from itertools import product

from .model import FaultTree, GateOp

CutSet = frozenset[str]


def cut_sets(tree: FaultTree) -> set[CutSet]:
    """Expand the tree into its family of cut sets (not minimised)."""
    return _expand(tree, minimal=False)


def minimal_cut_sets(tree: FaultTree) -> set[CutSet]:
    """The subset-minimal antichain of the tree's cut sets."""
    return _expand(tree, minimal=True)


def _expand(tree: FaultTree, minimal: bool) -> set[CutSet]:
    """Family of the top event, each gate expanded once, in post-order.

    Memoised families are shared between parents and never mutated.
    """
    done: dict[str, set[CutSet]] = {}
    open_gates: dict[str, tuple[GateOp, tuple[str, ...]]] = {}  # on the current path
    stack = [tree.top]
    while stack:
        node = stack[-1]
        if node in done:
            stack.pop()
            continue
        if node in open_gates:  # every child is done
            stack.pop()
            op, children = open_gates.pop(node)
            families = [done[child] for child in children]
            if op is GateOp.OR:
                family = set().union(*families)
                done[node] = minimize(family) if minimal else family
                continue
            family = families[0] if families else {frozenset()}
            for fam in families[1:]:
                family = {a | b for a, b in product(family, fam)}
                if minimal:
                    family = minimize(family)
            done[node] = family
            continue
        gate = tree.gate(node)
        if gate is None:
            done[node] = {frozenset((node,))}
            stack.pop()
            continue
        open_gates[node] = gate
        for child in gate[1]:
            if child in open_gates:
                raise ValueError(f"fault tree {tree.name!r}: cycle through gate {child!r}")
        stack.extend(c for c in reversed(gate[1]) if c not in done)
    return done[tree.top]


def minimize(family: set[CutSet]) -> set[CutSet]:
    """Drop every set that strictly contains another set of the family.

    Sets are taken in order of size and each is tested only against the kept
    sets that are strictly smaller: two distinct sets of one size cannot
    contain each other, so a family of one size is returned as a copy.
    """
    if len(set(map(len, family))) <= 1:
        return set(family)
    kept: set[CutSet] = set()
    smaller: list[CutSet] = []  # kept sets smaller than the current size
    size = -1
    for candidate in sorted(family, key=len):
        if len(candidate) != size:
            smaller = list(kept)
            size = len(candidate)
        if not any(k <= candidate for k in smaller):
            kept.add(candidate)
    return kept


def canonical_order(family: set[CutSet]) -> list[tuple[str, ...]]:
    """Stable report order: events sorted within sets, sets sorted as tuples."""
    return sorted(tuple(sorted(s)) for s in family)
