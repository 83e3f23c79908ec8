"""Cut-set and minimal-cut-set computation for fault trees.

Structural expansion in the MOCUS style: OR gates union the families of
their children, AND gates take pairwise unions across child families, and
minimisation removes subsumed sets.  Desk scale only; no BDDs.
"""

from __future__ import annotations

from itertools import product

from .model import FaultTree, GateOp

CutSet = frozenset[str]


def cut_sets(tree: FaultTree) -> set[CutSet]:
    """Expand the tree into its family of cut sets (not minimised)."""

    def expand(node: str) -> set[CutSet]:
        gate = tree.gate(node)
        if gate is None:
            return {frozenset({node})}
        op, children = gate
        families = [expand(child) for child in children]
        if op is GateOp.OR:
            out: set[CutSet] = set()
            for fam in families:
                out |= fam
            return out
        combined = {frozenset()}
        for fam in families:
            combined = {a | b for a, b in product(combined, fam)}
        return combined

    return expand(tree.top)


def minimal_cut_sets(tree: FaultTree) -> set[CutSet]:
    """The subset-minimal antichain of the tree's cut sets."""
    return minimize(cut_sets(tree))


def minimize(family: set[CutSet]) -> set[CutSet]:
    """Drop every set that strictly contains another set of the family."""
    by_size = sorted(family, key=len)
    kept: list[CutSet] = []
    for candidate in by_size:
        if not any(k <= candidate for k in kept):
            kept.append(candidate)
    return set(kept)


def canonical_order(family: set[CutSet]) -> list[tuple[str, ...]]:
    """Stable report order: events sorted within sets, sets sorted as tuples."""
    return sorted(tuple(sorted(s)) for s in family)
