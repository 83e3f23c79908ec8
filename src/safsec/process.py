"""Scripted replay of the collaborative safety/security assessment cycle.

A scenario names a GSN model and an ADT, acceptance thresholds on the root
goal's confidence triple, and one action per round; a ``set_policy`` round
is the :class:`~safsec.adteval.VerdictPolicy` that it switches to.  The
round rules live here alone: a :class:`RoundLog` is the one loop that
applies rounds 1 up to ``max_rounds``, through a :class:`Replay`.  The log
is both what the validator reports and what ``process run`` prints:
:meth:`RoundLog.transcript` adds the root goal's triple with each verdict
folded in (updates never compound across rounds), up to the round at which
the thresholds hold.

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
- Each goal's latest ``set_defeaters`` count: a round adds its new count
  less the old one to a running delta.  The transcript sums the root goal's
  subtree evidence once from the model, which no round copies.
- Each label's first node in :func:`~safsec.model.adt_walk`'s preorder
  (children before countermeasures), the node that ``add_counter``
  targets, as its place: found by one walk at the first ``add_counter``
  round and extended by a walk of each new countermeasure from its place.
  A countermeasure fills an empty slot, so no other node's place moves.

A round that cannot be applied raises ``ValueError`` naming it.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import NamedTuple, Optional, Sequence

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
    Record,
    Scenario,
    ScenarioAction,
    adt_walk,
)

TRANSCRIPT_NOTE = (
    "each round starts from the freshly aggregated evidence triple; "
    "verdict updates do not compound across rounds"
)


class RoundEntry(Record):
    round: int
    action: str
    verdict: SecurityVerdict
    triple: ConfidenceTriple


class Transcript(Record):
    initial_triple: ConfidenceTriple
    entries: tuple[RoundEntry, ...]
    status: str  # "accepted" | "exhausted"

    @property
    def final_triple(self) -> ConfidenceTriple:
        return self.entries[-1].triple if self.entries else self.initial_triple


def describe_action(action: ScenarioAction) -> str:
    if isinstance(action, VerdictPolicy):
        if action.unassessed:
            return "set_policy unassessed"
        prob_or = "" if action.prob_or == "max" else f" {action.prob_or}"
        return f"set_policy {action.attribute} {action.op} {action.threshold:g}{prob_or}"
    if isinstance(action, AddCounterAction):
        return f"add_counter {action.node.label!r} at {action.at_label!r}"
    return f"set_defeaters {action.goal_id} {action.count.outruled}/{action.count.total}"


def _preorder_key(place: tuple) -> list[float]:
    """The slots from the root to ``place``, a counter's as ``inf``, so that
    keys compare in preorder: children in order, then the countermeasure."""
    key = []
    while place:
        place, slot = place
        key.append(math.inf if slot == "c" else slot)
    return key[::-1]


class _Memo(NamedTuple):
    """One attribute domain's folded values, each keyed by ``id(node)`` and
    holding its node."""

    values: dict[int, tuple[AdtNode, float]]
    owns: dict[int, tuple[AdtNode, float]]  # a countered node's value before its counter
    # An AND/OR node's children's values, and the slots whose child is not folded yet.
    rows: dict[int, tuple[AdtNode, list[float], list[int]]]


class Replay:
    """A scenario's GSN model, ADT and verdict policy, round by round.

    :meth:`apply` applies one round's action; :meth:`verdict` reads the
    state that it leaves.  ``adt`` is rebuilt, never changed in place, and
    ``model`` is kept as it is, of which only its id index is read:
    ``counts`` holds the rounds' defeater counts, and ``delta`` what they add
    to the root goal's evidence.
    """

    def __init__(self, model: GsnModel, adt: AttackDefenseTree) -> None:
        self.model, self.adt, self.policy = model, adt, adteval.UNASSESSED
        self.counts: dict[str, DefeaterCount] = {}  # goal id -> the last count a round set
        self._memos: dict[AttributeDomain, _Memo] = {}
        self._places: Optional[dict[str, tuple]] = None  # label -> place of its first node
        self.delta = DefeaterCount(0, 0)

    def apply(self, action: ScenarioAction) -> None:
        """Apply one round's action, or raise ``ValueError`` saying why it cannot be."""
        if isinstance(action, VerdictPolicy):
            self.policy = action
        elif isinstance(action, AddCounterAction):
            self._attach(action.at_label, action.node)
        else:
            goal_id, new = action.goal_id, action.count
            node = self.model._by_id.get(goal_id)
            if node is None or node.kind is not NodeKind.GOAL:
                raise ValueError(f"set_defeaters target {goal_id!r} is not a goal of gsn "
                                 f"{self.model.name!r}")
            if new.problems:  # summed with its subgoals' counts, a bad count can pass aggregation
                raise ValueError("; ".join(new.problems))
            old = self.counts.get(goal_id, node.defeaters) or DefeaterCount(0, 0)
            self.counts[goal_id] = new
            self.delta += DefeaterCount(new.outruled - old.outruled, new.total - old.total)

    def verdict(self) -> SecurityVerdict:
        """The ADT's verdict under the current policy."""
        policy = self.policy
        if policy.unassessed:
            return SecurityVerdict.NO_ASSESSMENT
        domain = policy.domain()
        return adteval.verdict(self.adt, policy, (domain, self.root_value(domain)))

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
        places = self._places
        if places is None:
            places = self._places = {}
            for place, node, entering in adt_walk(self.adt.root):
                if entering:
                    places.setdefault(node.label, place)
        place = places.get(at_label)
        if place is None:
            raise ValueError(f"unknown adt node {at_label!r}")
        slots = _preorder_key(place)
        spine = [self.adt.root]  # the target and its ancestors, root first
        for slot in slots:
            spine.append(spine[-1].counter if slot == math.inf else spine[-1].children[slot])
        target = spine[-1]
        if target.counter is not None:
            raise ValueError(f"node {at_label!r} already carries a countermeasure")
        if counter.actor is not target.actor.opposite:
            raise ValueError(f"countermeasure for {at_label!r} must have opposite actor")
        rebuilt = [target._replace(counter=counter)]
        for slot, parent in zip(reversed(slots), spine[-2::-1]):
            new, kids = rebuilt[-1], parent.children
            rebuilt.append(parent._replace(counter=new) if slot == math.inf else
                           parent._replace(children=kids[:slot] + (new,) + kids[slot + 1:]))
        rebuilt.reverse()
        self.adt = self.adt._replace(root=rebuilt[0])

        # Each memo moves the old spine's entries to the new one.  The target
        # carried no countermeasure, so its value is its new own value; an
        # ancestor over a countermeasure slot keeps its own value, and one
        # over a child slot its other children's values.
        for values, owns, rows in self._memos.values():
            for old, new, slot in zip(spine, rebuilt, [*slots, None]):
                key = id(old)
                value, own, row = values.pop(key, None), owns.pop(key, None), rows.pop(key, None)
                kept = value if slot is None else own if slot == math.inf else None
                if kept is not None and kept[0] is old:
                    owns[id(new)] = (new, kept[1])
                if row is not None and row[0] is old:
                    unknown = row[2] if slot in (None, math.inf) else sorted({*row[2], slot})
                    rows[id(new)] = (new, row[1], unknown)

        firsts: dict[str, tuple] = {}
        for sub, node, entering in adt_walk(counter, (place, "c")):
            if entering:
                firsts.setdefault(node.label, sub)
        after = slots + [math.inf]  # begins every new node's key
        for label, found in firsts.items():
            known = places.get(label)
            if known is None or after < _preorder_key(known):
                places[label] = found


class RoundLog:
    """One pass over a scenario's rounds through one :class:`Replay`, up to
    the first round that raises, reading each round's verdict while the ADT
    and every countermeasure so far pass their node checks."""

    def __init__(self, scenario: Scenario, model: GsnModel, adt: AttackDefenseTree) -> None:
        self.thresholds, self.replay = scenario.thresholds, Replay(model, adt)
        # Each applied round: its number and action, its verdict (None once a
        # tree fails its node checks) and the replay's ``delta`` after it.
        self.steps: list[tuple[int, ScenarioAction, Optional[SecurityVerdict], DefeaterCount]] = []
        # (round, message) of each countermeasure's node problem, then of the refused round.
        self.problems: list[tuple[int, str]] = []
        self.refused = False
        for round_no, action in zip(range(1, scenario.max_rounds + 1), scenario.actions):
            if isinstance(action, AddCounterAction):
                self.problems += ((round_no, message) for message in action.node.problems)
            try:
                self.replay.apply(action)
                verdict = None if adt.problems or self.problems else self.replay.verdict()
            except ValueError as exc:
                self.problems.append((round_no, str(exc)))
                self.refused = True
                break
            self.steps.append((round_no, action, verdict, self.replay.delta))

    def transcript(self) -> Transcript:
        """The rounds up to the one at which the thresholds hold, each with
        the root goal's triple: its evidence plus the round's ``delta``,
        passed through its security link with the round's verdict (none when
        the link names another ADT).  A refused round among them raises."""
        replay, thresholds = self.replay, self.thresholds
        root = replay.model.root().id
        count = DefeaterCount(*subtree_counts(replay.model, [root])[root])
        links = replay.model.links_for(root)  # validation rejects a goal with two

        def triple(verdict: SecurityVerdict, delta: DefeaterCount) -> ConfidenceTriple:
            opinion = opinion_from_evidence(count + delta)
            if not links:
                return opinion
            if links[0].adt_name != replay.adt.name:
                verdict = SecurityVerdict.NO_ASSESSMENT
            return update_confidence(opinion, verdict, links[0].weight)

        initial = triple(SecurityVerdict.NO_ASSESSMENT, DefeaterCount(0, 0))
        met = thresholds.met_by(initial)
        entries: list[RoundEntry] = []
        for round_no, action, verdict, delta in self.steps:
            if met:
                break
            try:
                if verdict is None:
                    raise ValueError(f"adt {replay.adt.name!r} fails its node checks")
                reported = triple(verdict, delta)
            except ValueError as exc:
                raise ValueError(f"round {round_no}: {exc}")
            entries.append(RoundEntry(round_no, describe_action(action), verdict, reported))
            met = thresholds.met_by(reported)
        if not met and self.refused:
            raise ValueError("round {}: {}".format(*self.problems[-1]))
        return Transcript(initial, tuple(entries), "accepted" if met else "exhausted")


def run_process(document: Document, scenario: Scenario) -> Transcript:
    """Replay ``scenario``, whose blocks :func:`~safsec.validate.validate_block`
    accepts: the transcript of its :class:`RoundLog`."""
    return RoundLog(scenario, document.gsns[scenario.gsn_name],
                    document.adts[scenario.adt_name]).transcript()
