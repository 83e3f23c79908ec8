"""Scripted replay of the collaborative safety/security assessment cycle.

A scenario names a GSN model and an ADT, acceptance thresholds on the root
goal's confidence triple, and one action per round.  Each round applies its
action, re-evaluates the ADT under the current verdict policy, folds the
verdict into the aggregated evidence triple (updates never compound across
rounds; the model is re-aggregated only after a round changes its defeater
counts), and stops as soon as the thresholds hold.

A round that cannot be applied raises ``ValueError`` naming it; the validator
replays the rounds with the same steps and refuses the same round.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from . import adteval
from .confidence import (
    AggregateResult,
    SecurityVerdict,
    aggregate_gsn,
    apply_security_links,
)
from .model import (
    AddCounterAction,
    AdtNode,
    AttackDefenseTree,
    ConfidenceTriple,
    DefeaterCount,
    Document,
    GsnModel,
    NodeKind,
    Scenario,
    ScenarioAction,
    SetDefeatersAction,
    SetPolicyAction,
    adt_walk,
)

TRANSCRIPT_NOTE = (
    "each round starts from the freshly aggregated evidence triple; "
    "verdict updates do not compound across rounds"
)


@dataclass(frozen=True)
class RoundEntry:
    round: int
    action: str
    verdict: SecurityVerdict
    triple: ConfidenceTriple


@dataclass(frozen=True)
class Transcript:
    scenario: str
    note: str
    initial_triple: ConfidenceTriple
    entries: tuple[RoundEntry, ...]
    status: str  # "accepted" | "exhausted"

    @property
    def final_triple(self) -> ConfidenceTriple:
        return self.entries[-1].triple if self.entries else self.initial_triple


def attach_counter(tree: AttackDefenseTree, at_label: str, counter: AdtNode) -> AttackDefenseTree:
    """Return a copy of the tree with a countermeasure under the labeled node.

    The target is the first node in :func:`adt_walk`'s preorder, so a
    countermeasure can be countered too.  Only the target's ancestors are
    rebuilt, each on its exit event: the first exit one level above the node
    rebuilt last.
    """
    new: Optional[AdtNode] = None  # the target, then each ancestor rebuilt around it
    new_path, depth, level = "", 0, 0
    for path, node, entering in adt_walk(tree.root):
        if entering:
            depth += 1
            if new is None and node.label == at_label:
                if node.counter is not None:
                    raise ValueError(f"node {at_label!r} already carries a countermeasure")
                if counter.actor is not node.actor.opposite:
                    raise ValueError(f"countermeasure for {at_label!r} must have opposite actor")
                new, new_path, level = replace(node, counter=counter), path, depth
            continue
        if new is not None and depth == level - 1:
            slot = new_path[len(path) + 1:]
            if slot == "c":
                new = replace(node, counter=new)
            else:
                i = int(slot)
                new = replace(node, children=node.children[:i] + (new,) + node.children[i + 1:])
            new_path, level = path, level - 1
        depth -= 1
    if new is None:
        raise ValueError(f"unknown adt node {at_label!r}")
    return replace(tree, root=new)


def set_defeaters(model: GsnModel, goal_id: str, count: DefeaterCount) -> GsnModel:
    """Return a copy of the model with ``count`` on the goal ``goal_id``."""
    node = next((n for n in model.nodes if n.id == goal_id), None)
    if node is None or node.kind is not NodeKind.GOAL:
        raise ValueError(f"set_defeaters target {goal_id!r} is not a goal of gsn {model.name!r}")
    if count.problems:  # summed with its subgoals' counts, a bad count can pass aggregation
        raise ValueError("; ".join(count.problems))
    new_node = replace(node, defeaters=count)
    return replace(model, nodes=tuple(new_node if n.id == goal_id else n for n in model.nodes))


def describe_action(action: ScenarioAction) -> str:
    if isinstance(action, SetPolicyAction):
        policy = action.policy
        if policy.unassessed:
            return "set_policy unassessed"
        prob_or = "" if policy.prob_or == "max" else f" {policy.prob_or}"
        return f"set_policy {policy.attribute} {policy.op} {policy.threshold:g}{prob_or}"
    if isinstance(action, AddCounterAction):
        return f"add_counter {action.node.label!r} at {action.at_label!r}"
    return f"set_defeaters {action.goal_id} {action.count.outruled}/{action.count.total}"


def run_process(document: Document, scenario: Scenario) -> Transcript:
    """Replay ``scenario``, whose blocks :func:`~safsec.validate.validate_block` accepts."""
    model = document.gsns[scenario.gsn_name]
    adt = document.adts[scenario.adt_name]
    policy = adteval.UNASSESSED
    root_goal = model.root().id
    aggregate: Optional[AggregateResult] = None  # of ``model``; None once stale

    def current_triple() -> tuple[SecurityVerdict, ConfidenceTriple]:
        nonlocal aggregate
        v = adteval.verdict(adt, policy)
        if aggregate is None:
            aggregate = aggregate_gsn(model)
        linked = apply_security_links(model, aggregate, {scenario.adt_name: v})
        return v, linked.triples[root_goal]

    _, initial = current_triple()
    met = scenario.thresholds.met_by(initial)
    entries: list[RoundEntry] = []
    for round_no, action in enumerate(scenario.actions, start=1):
        if met or round_no > scenario.max_rounds:
            break
        try:
            if isinstance(action, SetPolicyAction):
                policy = action.policy
            elif isinstance(action, AddCounterAction):
                adt = attach_counter(adt, action.at_label, action.node)
            elif isinstance(action, SetDefeatersAction):
                model = set_defeaters(model, action.goal_id, action.count)
                aggregate = None
            verdict, triple = current_triple()
        except ValueError as exc:
            raise ValueError(f"round {round_no}: {exc}")
        entries.append(RoundEntry(round_no, describe_action(action), verdict, triple))
        met = scenario.thresholds.met_by(triple)
    status = "accepted" if met else "exhausted"
    return Transcript(scenario.name, TRANSCRIPT_NOTE, initial, tuple(entries), status)
