"""Scripted replay of the collaborative safety/security assessment cycle.

A scenario names a GSN model and an ADT, acceptance thresholds on the root
goal's confidence triple, and one action per round; a ``set_policy`` round
is the :class:`~safsec.adteval.VerdictPolicy` that it switches to.  The
round rules live here alone: :func:`rounds` picks the rounds that can run
and :func:`apply_round` applies one.  :func:`run_process` then re-evaluates
the ADT under the current policy, folds the verdict into the aggregated
evidence triple (updates never compound across rounds; the model is
re-aggregated only after a round changes its defeater counts), and stops as
soon as the thresholds hold.

A round that cannot be applied raises ``ValueError`` naming it; the
validator replays the rounds with the same two functions and refuses the
same round.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, Optional

from . import adteval
from .adteval import VerdictPolicy
from .confidence import GoalOpinion, SecurityVerdict, aggregate_gsn, apply_security_links
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
    initial_triple: ConfidenceTriple
    entries: tuple[RoundEntry, ...]
    status: str  # "accepted" | "exhausted"

    @property
    def final_triple(self) -> ConfidenceTriple:
        return self.entries[-1].triple if self.entries else self.initial_triple


def attach_counter(tree: AttackDefenseTree, at_label: str, counter: AdtNode) -> AttackDefenseTree:
    """Return a copy of the tree with a countermeasure under the labeled node.

    The target is the first node in :func:`adt_walk`'s preorder, so a
    countermeasure can be countered too.  The walk keeps the open nodes on a
    stack and stops at the target; then only the target and its ancestors,
    the nodes on that stack, are rebuilt.
    """
    spine: list[tuple[str, AdtNode]] = []  # the open nodes, root first
    for path, node, entering in adt_walk(tree.root):
        if not entering:
            spine.pop()
            continue
        spine.append((path, node))
        if node.label == at_label:
            break
    else:
        raise ValueError(f"unknown adt node {at_label!r}")
    path, target = spine.pop()
    if target.counter is not None:
        raise ValueError(f"node {at_label!r} already carries a countermeasure")
    if counter.actor is not target.actor.opposite:
        raise ValueError(f"countermeasure for {at_label!r} must have opposite actor")
    new = target._replace(counter=counter)
    for parent_path, parent in reversed(spine):
        slot = path[len(parent_path) + 1:]
        if slot == "c":
            new = parent._replace(counter=new)
        else:
            i = int(slot)
            new = parent._replace(children=parent.children[:i] + (new,) + parent.children[i + 1:])
        path = parent_path
    return replace(tree, root=new)


def set_defeaters(model: GsnModel, goal_id: str, count: DefeaterCount) -> GsnModel:
    """Return a copy of the model with ``count`` on the goal ``goal_id``."""
    node = next((n for n in model.nodes if n.id == goal_id), None)
    if node is None or node.kind is not NodeKind.GOAL:
        raise ValueError(f"set_defeaters target {goal_id!r} is not a goal of gsn {model.name!r}")
    if count.problems:  # summed with its subgoals' counts, a bad count can pass aggregation
        raise ValueError("; ".join(count.problems))
    new_node = node._replace(defeaters=count)
    return replace(model, nodes=tuple(new_node if n.id == goal_id else n for n in model.nodes))


def describe_action(action: ScenarioAction) -> str:
    if isinstance(action, VerdictPolicy):
        if action.unassessed:
            return "set_policy unassessed"
        prob_or = "" if action.prob_or == "max" else f" {action.prob_or}"
        return f"set_policy {action.attribute} {action.op} {action.threshold:g}{prob_or}"
    if isinstance(action, AddCounterAction):
        return f"add_counter {action.node.label!r} at {action.at_label!r}"
    return f"set_defeaters {action.goal_id} {action.count.outruled}/{action.count.total}"


def rounds(scenario: Scenario) -> Iterator[tuple[int, ScenarioAction]]:
    """``(number, action)`` of each round that can run: 1 up to ``max_rounds``."""
    return zip(range(1, scenario.max_rounds + 1), scenario.actions)


def apply_round(
    action: ScenarioAction, model: GsnModel, adt: AttackDefenseTree, policy: VerdictPolicy
) -> tuple[GsnModel, AttackDefenseTree, VerdictPolicy]:
    """The GSN model, ADT and verdict policy after one round's action."""
    if isinstance(action, VerdictPolicy):
        return model, adt, action
    if isinstance(action, AddCounterAction):
        return model, attach_counter(adt, action.at_label, action.node), policy
    return set_defeaters(model, action.goal_id, action.count), adt, policy


def run_process(document: Document, scenario: Scenario) -> Transcript:
    """Replay ``scenario``, whose blocks :func:`~safsec.validate.validate_block` accepts."""
    model = document.gsns[scenario.gsn_name]
    adt = document.adts[scenario.adt_name]
    policy = adteval.UNASSESSED
    root_goal = model.root().id
    aggregate: Optional[dict[str, GoalOpinion]] = None  # of ``model``; None once stale

    def current_triple() -> tuple[SecurityVerdict, ConfidenceTriple]:
        nonlocal aggregate
        v = adteval.verdict(adt, policy)
        if aggregate is None:
            aggregate = aggregate_gsn(model)
        linked = apply_security_links(model, aggregate, {scenario.adt_name: v})
        return v, linked[root_goal].reported

    _, initial = current_triple()
    met = scenario.thresholds.met_by(initial)
    entries: list[RoundEntry] = []
    for round_no, action in rounds(scenario):
        if met:
            break
        try:
            revised, adt, policy = apply_round(action, model, adt, policy)
            if revised is not model:
                model, aggregate = revised, None
            verdict, triple = current_triple()
        except ValueError as exc:
            raise ValueError(f"round {round_no}: {exc}")
        entries.append(RoundEntry(round_no, describe_action(action), verdict, triple))
        met = scenario.thresholds.met_by(triple)
    status = "accepted" if met else "exhausted"
    return Transcript(initial, tuple(entries), status)
