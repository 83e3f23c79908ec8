"""Derivation of a preliminary attack-defense tree from an annotated GSN model.

Each hazard-annotated goal becomes an attack branch named after its guide
word and traced component.  Solution annotations expand into attack
fragments: voters by M-of-N subset enumeration, fault trees via their
minimal cut sets, FMEA tables row by row.  Voter fragments cross-cut: a
voter traced to component X shows up in every hazard branch for X, because
stopping or triggering the voter stops or triggers the component.
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
    GsnNode,
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
        impact = severity_to_impact(row.severity)
        if row.failure_mode is FailureMode.LOSS_OF_FUNCTION:
            fragments.append(
                _node(
                    f"disable {row.function}",
                    Refinement.OR,
                    [
                        _leaf(f"deny_service {row.function}"),
                        _leaf(f"tamper {row.function}"),
                    ],
                    impact,
                )
            )
        elif row.failure_mode is FailureMode.ERRONEOUS:
            fragments.append(_leaf(f"tamper {row.function}", impact))
        elif row.failure_mode is FailureMode.UNINTENDED_ACTION:
            fragments.append(_leaf(f"trigger {row.function}", impact))
        else:  # partial loss: hit one redundant sub-function
            fragments.append(
                _leaf(f"deny_service sub-function of {row.function}", impact)
            )
    return fragments


def _nearest_hazard_ancestor(model: GsnModel, node: GsnNode) -> Optional[str]:
    seen: set[str] = set()
    cur = node.parent
    while cur is not None:
        if cur in seen:
            raise ValueError(f"node {node.id!r}: parent cycle through {cur!r}")
        seen.add(cur)
        ancestor = model.node(cur)
        if ancestor.kind is NodeKind.GOAL and ancestor.hazard is not None:
            return ancestor.id
        cur = ancestor.parent
    return None


def derive_adt(
    model: GsnModel,
    fault_trees: Mapping[str, FaultTree] = {},
    fmea_tables: Mapping[str, FmeaTable] = {},
) -> AttackDefenseTree:
    """Build the preliminary attack tree for the item assessed by the model.

    ``model`` passes :mod:`safsec.validate` and the mappings hold every
    block its solutions reference; a parent cycle still raises
    ``ValueError`` rather than loop.
    """
    hazard_goals = [n for n in model.goals() if n.hazard is not None]
    if not hazard_goals:
        raise ValueError(f"nothing to derive: gsn {model.name!r} has no hazard-annotated goals")
    solutions = [n for n in model.nodes if n.kind is NodeKind.SOLUTION]
    anchored = [(sol, _nearest_hazard_ancestor(model, sol)) for sol in solutions]
    branches: list[AdtNode] = []
    for goal in hazard_goals:
        hazard = goal.hazard
        assert hazard is not None
        fragments: list[AdtNode] = []
        for sol, anchor in anchored:
            # Voters cross-cut by trace; FTA/FMEA fragments attach under the
            # hazard goal they argue for (strategies in between are skipped).
            if (
                sol.voter is not None
                and sol.voter.trace == hazard.trace
                and hazard.mechanism in (GuideWord.TRIGGER, GuideWord.STOPPING)
            ):
                fragments.append(voter_attack_subtree(sol.voter, hazard.mechanism))
            if anchor != goal.id:
                continue
            if sol.fta_ref is not None:
                fragment = fta_attack_subtree(fault_trees[sol.fta_ref])
                if fragment is not None:
                    fragments.append(fragment)
            if sol.fmea_ref is not None:
                fragments.extend(fmea_attack_subtree(fmea_tables[sol.fmea_ref]))
        label = f"{ATTACK_VERB[hazard.mechanism]} {hazard.trace}"
        branches.append(_node(label, Refinement.OR, fragments, hazard.impact))

    root = AdtNode(
        actor=Actor.ATTACK,
        label=f"Attack {model.name}",
        refinement=Refinement.OR,
        children=tuple(branches),
    )
    return AttackDefenseTree(name=f"Attack {model.name}", root=root)
