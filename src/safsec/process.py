"""Scripted replay of the collaborative safety/security assessment cycle.

A scenario names a GSN model and an ADT, acceptance thresholds on the root
goal's confidence triple, and one action per round; a ``set_policy`` round
is the :class:`~safsec.adteval.VerdictPolicy` that it switches to.  The
round rules live here alone: :func:`rounds` picks the rounds that can run
and a :class:`Replay` applies them one by one.  :func:`run_process` asks the
replay after each round for the ADT's verdict under the current policy and
for the root goal's triple with that verdict folded in (updates never
compound across rounds), and stops as soon as the thresholds hold.

A round costs what it changes, not what the model holds.  A replay keeps:

- Per attribute domain, a memo of folded ADT nodes: ``id(node)`` maps to
  the node and its value, and a hit is checked with ``is``, so no node is
  ever hashed or compared.  It also keeps each AND/OR node's child values.
  An ``add_counter`` round rebuilds only the target and its ancestors and
  shares every other subtree, so the next fold computes the new
  countermeasure and, for each rebuilt node, its one new child; a
  ``set_defeaters`` round, or a ``set_policy`` round to a domain folded
  before, reuses the root's value.  The fold applies
  :func:`~safsec.adteval.refined_value`, :func:`~safsec.adteval.evaluate`'s
  rule, in its order (children in order, a node's own value, then its
  countermeasure), so it computes the same floats and fails on the leaf
  that ``evaluate`` names.  It keeps its own stack, while ``evaluate``
  still recurses: without recursion, the benchmark's 1,200-deep ``adt
  eval`` request would answer with a 1.5 MB payload instead of failing
  fast, which waits on ROADMAP items 1 and 2.
- The root goal's subtree evidence as a running total: summed once, then
  each ``set_defeaters`` round adds the new count less the old one.
- Each label's first node in :func:`~safsec.model.adt_walk`'s preorder
  (children before countermeasures), the node that ``add_counter``
  targets, as a tree path: found by one walk at the first ``add_counter``
  round and extended with each attached countermeasure's subtree.  A
  countermeasure fills an empty slot, so no other node's path moves.

A round that cannot be applied raises ``ValueError`` naming it.  The
validator applies the rounds with the same :class:`Replay` and checks the
leaves each round folds, so it refuses the same round; it reads no values,
so it folds nothing and also replays structurally broken trees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import repeat
from typing import Iterator, NamedTuple, Optional, Sequence

from . import adteval
from .adteval import AttributeDomain, VerdictPolicy
from .confidence import SecurityVerdict, opinion_from_evidence, subtree_counts, update_confidence
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
    SecurityLink,
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


def _preorder_key(path: str) -> list[float]:
    """A tree path's place in preorder: children in order, then the countermeasure."""
    return [math.inf if slot == "c" else int(slot) for slot in path.split(".")[1:]]


class _Memo(NamedTuple):
    """One attribute domain's folded values, each keyed by ``id(node)`` and
    holding its node."""

    values: dict[int, tuple[AdtNode, float]]
    owns: dict[int, tuple[AdtNode, float]]  # a countered node's value before its counter
    # An AND/OR node's children's values, and the slots whose child is not folded yet.
    rows: dict[int, tuple[AdtNode, list[float], list[int]]]


class Replay:
    """A scenario's GSN model, ADT and verdict policy, round by round.

    :meth:`apply` applies one round's action; :meth:`verdict` and
    :meth:`triple` read the state that it leaves.  ``model`` and ``adt`` are
    rebuilt, never changed in place, so the blocks passed in stay as they
    are.  Nothing is read from the model until a triple is asked for.
    """

    def __init__(self, model: GsnModel, adt: AttackDefenseTree) -> None:
        self.model, self.adt, self.policy = model, adt, adteval.UNASSESSED
        self._memos: dict[AttributeDomain, _Memo] = {}
        self._paths: Optional[dict[str, str]] = None  # label -> path of its first node
        self._count: Optional[DefeaterCount] = None  # the root goal's subtree evidence
        self._link: Optional[SecurityLink] = None  # the root goal's security link

    def apply(self, action: ScenarioAction) -> None:
        """Apply one round's action, or raise ``ValueError`` saying why it cannot be."""
        if isinstance(action, VerdictPolicy):
            self.policy = action
        elif isinstance(action, AddCounterAction):
            self._attach(action.at_label, action.node)
        else:
            revised = set_defeaters(self.model, action.goal_id, action.count)
            if self._count is not None:
                old = self.model.node(action.goal_id).defeaters or DefeaterCount(0, 0)
                new, total = action.count, self._count
                self._count = DefeaterCount(total.outruled + new.outruled - old.outruled,
                                            total.total + new.total - old.total)
            self.model = revised

    def verdict(self) -> SecurityVerdict:
        """The ADT's verdict under the current policy."""
        policy = self.policy
        if policy.unassessed:
            return SecurityVerdict.NO_ASSESSMENT
        domain = policy.domain()
        return adteval.verdict(self.adt, policy, (domain, self.root_value(domain)))

    def triple(self, verdict: SecurityVerdict) -> ConfidenceTriple:
        """The root goal's reported triple: the opinion of its subtree's
        evidence, passed through its security link with ``verdict``, or with
        no assessment when the link names another ADT."""
        if self._count is None:
            root = self.model.root().id
            self._count = DefeaterCount(*subtree_counts(self.model, [root])[root])
            links = self.model.links_for(root)
            self._link = links[0] if links else None  # validation rejects a goal with two
        triple = opinion_from_evidence(self._count)
        link = self._link
        if link is None:
            return triple
        if link.adt_name != self.adt.name:
            verdict = SecurityVerdict.NO_ASSESSMENT
        return update_confidence(triple, verdict, link.weight)

    def root_value(self, domain: AttributeDomain) -> float:
        """The root's value in ``domain``, computing only what the domain's
        memo lacks: on a rebuilt spine, each node's one new child."""
        memo = self._memos.get(domain)
        if memo is None:
            memo = self._memos[domain] = _Memo({}, {}, {})
        values, owns, rows = memo
        root = self.adt.root
        todo = [(root, 0)]  # (node, 0 to enter it, 1 after its children, 2 after its counter)
        while todo:
            node, phase = todo.pop()
            key = id(node)
            children = node.children
            if phase == 0:
                hit = values.get(key)
                if hit is not None and hit[0] is node:
                    continue
                if node.counter is not None:
                    own = owns.get(key)
                    if own is not None and own[0] is node:
                        todo += ((node, 2), (node.counter, 0))
                        continue
                if children:
                    todo.append((node, 1))
                    row = rows.get(key)
                    if row is not None and row[0] is node:  # rebuilt: only its new children
                        todo += [(children[i], 0) for i in reversed(row[2])]
                    else:
                        todo += zip(reversed(children), repeat(0))
                    continue
                phase = 1  # a leaf has no children to wait for
            if phase == 1:
                child_values: Sequence[float] = ()
                if children:
                    row = rows.get(key)
                    if row is not None and row[0] is node:
                        _, child_values, unknown = row
                        for i in unknown:
                            child_values[i] = values[id(children[i])][1]
                        unknown.clear()
                    else:
                        child_values = [values[id(child)][1] for child in children]
                        rows[key] = (node, child_values, [])
                own_value = adteval.refined_value(node, domain, child_values)
                if node.counter is None:
                    values[key] = (node, own_value)
                else:
                    owns[key] = (node, own_value)
                    todo += ((node, 2), (node.counter, 0))
            else:
                value = domain.counter_combine(owns[key][1], values[id(node.counter)][1])
                values[key] = (node, value)
        return values[id(root)][1]

    def _attach(self, at_label: str, counter: AdtNode) -> None:
        """Attach ``counter`` under the first node labelled ``at_label``."""
        paths = self._paths
        if paths is None:
            paths = self._paths = {}
            for path, node, entering in adt_walk(self.adt.root):
                if entering:
                    paths.setdefault(node.label, path)
        path = paths.get(at_label)
        if path is None:
            raise ValueError(f"unknown adt node {at_label!r}")
        slots = path.split(".")[1:]
        spine = [self.adt.root]  # the target and its ancestors, root first
        for slot in slots:
            spine.append(spine[-1].counter if slot == "c" else spine[-1].children[int(slot)])
        target = spine[-1]
        if target.counter is not None:
            raise ValueError(f"node {at_label!r} already carries a countermeasure")
        if counter.actor is not target.actor.opposite:
            raise ValueError(f"countermeasure for {at_label!r} must have opposite actor")
        rebuilt = [target._replace(counter=counter)]
        for slot, parent in zip(reversed(slots), spine[-2::-1]):
            new = rebuilt[-1]
            if slot == "c":
                rebuilt.append(parent._replace(counter=new))
            else:
                i = int(slot)
                rebuilt.append(parent._replace(
                    children=parent.children[:i] + (new,) + parent.children[i + 1:]))
        rebuilt.reverse()
        self.adt = replace(self.adt, root=rebuilt[0])

        # Each memo moves the old spine's entries to the new one.  The target
        # carried no countermeasure, so its value is its new own value; an
        # ancestor over a countermeasure slot keeps its own value, and one
        # over a child slot its other children's values.
        for values, owns, rows in self._memos.values():
            for old, new, slot in zip(spine, rebuilt, [*slots, None]):
                key = id(old)
                value, own, row = values.pop(key, None), owns.pop(key, None), rows.pop(key, None)
                if slot is None and value is not None and value[0] is old:
                    owns[id(new)] = (new, value[1])
                if slot == "c" and own is not None and own[0] is old:
                    owns[id(new)] = (new, own[1])
                if row is not None and row[0] is old:
                    unknown = row[2] if slot in (None, "c") else sorted({*row[2], int(slot)})
                    rows[id(new)] = (new, row[1], unknown)

        firsts: dict[str, str] = {}
        for sub, node, entering in adt_walk(counter):
            if entering:
                firsts.setdefault(node.label, path + ".c" + sub[len("root"):])
        for label, found in firsts.items():
            known = paths.get(label)
            if known is None or _preorder_key(found) < _preorder_key(known):
                paths[label] = found


def run_process(document: Document, scenario: Scenario) -> Transcript:
    """Replay ``scenario``, whose blocks :func:`~safsec.validate.validate_block` accepts."""
    replay = Replay(document.gsns[scenario.gsn_name], document.adts[scenario.adt_name])
    initial = replay.triple(SecurityVerdict.NO_ASSESSMENT)
    met = scenario.thresholds.met_by(initial)
    entries: list[RoundEntry] = []
    for round_no, action in rounds(scenario):
        if met:
            break
        try:
            replay.apply(action)
            verdict = replay.verdict()
            triple = replay.triple(verdict)
        except ValueError as exc:
            raise ValueError(f"round {round_no}: {exc}")
        entries.append(RoundEntry(round_no, describe_action(action), verdict, triple))
        met = scenario.thresholds.met_by(triple)
    status = "accepted" if met else "exhausted"
    return Transcript(initial, tuple(entries), status)
