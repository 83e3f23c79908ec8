"""Derivation of a preliminary attack-defense tree from an annotated GSN model.

Each hazard-annotated goal becomes an attack branch named after its guide
word and traced component.  Solution annotations expand into attack
fragments: voters by M-of-N subset enumeration, fault trees via their
minimal cut sets, FMEA tables row by row.  Voter fragments cross-cut: a
voter traced to component X shows up in every hazard branch for X, because
stopping or triggering the voter stops or triggers the component.  FTA and
FMEA fragments attach under a solution's nearest hazard-goal ancestor, found
for every id in one walk down :attr:`safsec.model.GsnModel.tree_order`.
"""

from __future__ import annotations

from itertools import combinations
from typing import Mapping, Optional

from . import fta as fta_mod
from .model import (
    Actor,
    AdtNode,
    AttackDefenseTree,
    FailureMode,
    FaultTree,
    FmeaTable,
    GsnModel,
    GuideWord,
    Impact,
    NodeKind,
    Refinement,
    VoterMeta,
)

MAX_VOTER_SIGNALS = 12

ATTACK_VERB = {
    GuideWord.DISCLOSURE: "Disclose",
    GuideWord.DISCONNECTED: "Disconnect",
    GuideWord.DELAY: "Delay",
    GuideWord.DELETION: "Delete",
    GuideWord.STOPPING: "Stop",
    GuideWord.DENIAL: "Deny",
    GuideWord.TRIGGER: "Trigger",
    GuideWord.INSERTION: "Insert",
    GuideWord.RESET: "Reset",
    GuideWord.MANIPULATION: "Manipulate",
}

SEVERITY_BANDS = ((3, Impact.LOW), (7, Impact.MEDIUM), (10, Impact.HIGH))

# Each failure mode's fragment, as `str.format` templates of the row's
# function: its label, then the labels of the ways it ORs (none: a leaf).
FMEA_FRAGMENTS = {
    FailureMode.LOSS_OF_FUNCTION: ("disable {}", "deny_service {}", "tamper {}"),
    FailureMode.ERRONEOUS: ("tamper {}",),
    FailureMode.UNINTENDED_ACTION: ("trigger {}",),
    # partial loss: hit one redundant sub-function
    FailureMode.PARTIAL_LOSS: ("deny_service sub-function of {}",),
}


def _leaf(label: str, impact: Optional[Impact] = None) -> AdtNode:
    return AdtNode(actor=Actor.ATTACK, label=label, impact=impact)


def _node(
    label: str,
    refinement: Refinement,
    children: list[AdtNode],
    impact: Optional[Impact] = None,
) -> AdtNode:
    if not children:
        return _leaf(label, impact)
    return AdtNode(
        actor=Actor.ATTACK,
        label=label,
        refinement=refinement,
        children=tuple(children),
        impact=impact,
    )


def _all_of(verb: str, names: tuple[str, ...]) -> AdtNode:
    """``verb name`` for one name; for several, an AND of one such leaf per name."""
    if len(names) == 1:
        return _leaf(f"{verb} {names[0]}")
    label = f"{verb} " + ", ".join(names)
    return _node(label, Refinement.AND, [_leaf(f"{verb} {name}") for name in names])


def severity_to_impact(severity: int) -> Impact:
    for bound, impact in SEVERITY_BANDS:
        if severity <= bound:
            return impact
    return Impact.HIGH


def voter_attack_subtree(meta: VoterMeta, mode: GuideWord) -> AdtNode:
    """Attack fragment against an M-of-N voter for trigger or stopping hazards."""
    if meta.problems:
        raise ValueError("; ".join(meta.problems))
    if mode is GuideWord.STOPPING:
        return _leaf(f"deny_service voter {meta.trace}")
    if mode is not GuideWord.TRIGGER:
        raise ValueError(f"voter attacks are defined for trigger/stopping only, got {mode.value}")
    if len(meta.signals) > MAX_VOTER_SIGNALS:
        raise ValueError(f"voter with {len(meta.signals)} signals exceeds the subset "
                         f"enumeration bound of {MAX_VOTER_SIGNALS}")
    children = [_leaf(f"tamper voter {meta.trace}")]
    children += (_all_of("spoof", subset) for subset in combinations(meta.signals, meta.threshold))
    return _node(f"defeat voter {meta.trace}", Refinement.OR, children)


def fta_attack_subtree(tree: FaultTree) -> Optional[AdtNode]:
    """Attack fragment triggering the tree's top event via any minimal cut set."""
    family = fta_mod.minimal_cut_sets(tree)
    fragments = [_all_of("trigger", cut) for cut in fta_mod.canonical_order(family)]
    if not fragments:
        return None
    if len(fragments) == 1:
        return fragments[0]
    return _node(f"trigger {tree.name}", Refinement.OR, fragments)


def fmea_attack_subtree(table: FmeaTable) -> list[AdtNode]:
    """One attack fragment per FMEA row, keyed on its failure mode."""
    fragments: list[AdtNode] = []
    for row in table.rows:
        label, *ways = (text.format(row.function) for text in FMEA_FRAGMENTS[row.failure_mode])
        fragments.append(_node(label, Refinement.OR, list(map(_leaf, ways)),
                               severity_to_impact(row.severity)))
    return fragments


def derive_adt(
    model: GsnModel,
    fault_trees: Mapping[str, FaultTree] = {},
    fmea_tables: Mapping[str, FmeaTable] = {},
) -> AttackDefenseTree:
    """Build the preliminary attack tree for the item assessed by the model.

    ``model`` passes :mod:`safsec.validate` and the mappings hold every
    block its solutions reference.  One pass over the solutions hands each
    fragment to its branches, so the work is linear in the model and its
    fragments.  A solution on or under a parent cycle raises ``ValueError``.
    """
    hazard_goals = [n for n in model.goals() if n.hazard is not None]
    if not hazard_goals:
        raise ValueError(f"nothing to derive: gsn {model.name!r} has no hazard-annotated goals")
    # One fragment list per hazard goal declaration: each declaration of a
    # repeated id is a branch of its own and gets the fragments anchored at
    # the id.
    fragments: list[list[AdtNode]] = [[] for _ in hazard_goals]
    voters: dict[str, list[tuple[GuideWord, list[AdtNode]]]] = {}  # by hazard trace
    by_goal_id: dict[str, list[list[AdtNode]]] = {}
    for goal, out in zip(hazard_goals, fragments):
        if goal.hazard.mechanism in (GuideWord.TRIGGER, GuideWord.STOPPING):
            voters.setdefault(goal.hazard.trace, []).append((goal.hazard.mechanism, out))
        by_goal_id.setdefault(goal.id, []).append(out)

    nodes, hazard_nodes = model._by_id, set(hazard_goals)
    anchor: dict[str, Optional[str]] = {}  # each id's nearest hazard-goal ancestor
    for node_id in reversed(model.tree_order):  # parents first
        parent = nodes[node_id].parent
        anchor[node_id] = parent if nodes.get(parent) in hazard_nodes else anchor.get(parent)

    for sol in (n for n in model.nodes if n.kind is NodeKind.SOLUTION):
        if sol.id not in anchor:
            raise ValueError(f"gsn {model.name!r}: cycle through node {sol.id!r}")
        # Voters cross-cut by trace; FTA/FMEA fragments attach under the
        # hazard goal they argue for (strategies in between are skipped).
        if sol.voter is not None:
            for mechanism, out in voters.get(sol.voter.trace, ()):
                out.append(voter_attack_subtree(sol.voter, mechanism))
        for out in by_goal_id.get(anchor[sol.id], ()):
            if sol.fta_ref is not None:
                fragment = fta_attack_subtree(fault_trees[sol.fta_ref])
                if fragment is not None:
                    out.append(fragment)
            if sol.fmea_ref is not None:
                out += fmea_attack_subtree(fmea_tables[sol.fmea_ref])

    branches = [_node(f"{ATTACK_VERB[goal.hazard.mechanism]} {goal.hazard.trace}",
                      Refinement.OR, out, goal.hazard.impact)
                for goal, out in zip(hazard_goals, fragments)]
    return AttackDefenseTree(f"Attack {model.name}",
                             _node(f"Attack {model.name}", Refinement.OR, branches))
