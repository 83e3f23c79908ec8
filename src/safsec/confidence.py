"""Opinion arithmetic over GSN evidence and security verdicts.

Evidence counts map to (belief, disbelief, uncertainty) via the beta-prior
form b = r/(r+s+W), d = s/(r+s+W), u = W/(r+s+W) with prior weight W = 2,
where r is the number of outruled defeaters and s the number still open.
Security verdicts then rescale the triple by a non-negative weight w.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional

from .model import ConfidenceTriple, DefeaterCount, GsnModel, NodeKind, post_order

PRIOR_WEIGHT = 2.0


class SecurityVerdict(Enum):
    NO_ASSESSMENT = "no_assessment"
    ACCEPTABLE_RISK = "acceptable_risk"
    UNACCEPTABLE_RISK = "unacceptable_risk"


def opinion_from_evidence(count: DefeaterCount) -> ConfidenceTriple:
    """Map (outruled, total) defeater evidence to an opinion triple."""
    if count.problems:
        raise ValueError("; ".join(count.problems))
    denom = count.total + PRIOR_WEIGHT
    return ConfidenceTriple(
        belief=count.outruled / denom,
        disbelief=(count.total - count.outruled) / denom,
        uncertainty=PRIOR_WEIGHT / denom,
    )


@dataclass(frozen=True)
class GoalOpinion:
    """One goal's confidence.  ``count`` is its subtree's defeater evidence
    and ``triple`` that evidence's opinion; ``reported`` is the triple after
    the goal's security link, with the link's ``verdict`` applied, and is
    ``triple``, with no verdict, for a goal without a link."""

    count: DefeaterCount
    triple: ConfidenceTriple
    reported: ConfidenceTriple
    verdict: Optional[SecurityVerdict] = None


def subtree_counts(model: GsnModel, roots: Iterable[str]) -> dict[str, tuple[int, int]]:
    """``(outruled, total)`` defeaters in the subtree of each node that ``roots`` reach.

    A node's sums are its own count, if it is a goal with one, plus its
    children's sums; strategies and other node kinds are transparent.  A
    fold over :func:`~safsec.model.post_order` sums each subtree once; a
    parent cycle below a root raises ``ValueError``.
    """
    by_id, by_parent = model._by_id, model._by_parent

    def child_ids(node_id: str) -> list[str]:
        return [c.id for c in by_parent.get(node_id, ())]

    try:
        order = list(post_order(roots, child_ids, "node"))
    except ValueError as exc:
        raise ValueError(f"gsn {model.name!r}: {exc}") from None
    sums: dict[str, tuple[int, int]] = {}
    for node_id in order:
        node = by_id[node_id]
        outruled = total = 0
        if node.kind is NodeKind.GOAL and node.defeaters is not None:
            outruled, total = node.defeaters
        for child in by_parent.get(node_id, ()):
            child_outruled, child_total = sums[child.id]
            outruled += child_outruled
            total += child_total
        sums[node_id] = outruled, total
    return sums


def aggregate_gsn(model: GsnModel) -> dict[str, GoalOpinion]:
    """Aggregate defeater counts bottom-up over the goal structure.

    A goal's count is its own count plus the counts of all descendant goals,
    summed by :func:`subtree_counts` from the goals.  Goals whose subtree
    carries no evidence at all get (0, 0), i.e. full uncertainty.  The
    records are in goal order and report their aggregate triple.
    """
    goals = model.goals()
    sums = subtree_counts(model, [goal.id for goal in goals])
    opinions: dict[str, GoalOpinion] = {}
    for goal in goals:
        count = DefeaterCount(*sums[goal.id])
        triple = opinion_from_evidence(count)
        opinions[goal.id] = GoalOpinion(count, triple, triple)
    return opinions


def update_confidence(
    prior: ConfidenceTriple, verdict: SecurityVerdict, weight: float
) -> ConfidenceTriple:
    """Fold a security verdict into a safety opinion with importance weight."""
    if weight < 0:
        raise ValueError(f"weight must be non-negative, got {weight}")
    b, d, u = prior.belief, prior.disbelief, prior.uncertainty
    scale = 1.0 + weight
    if verdict is SecurityVerdict.NO_ASSESSMENT:
        b1, d1 = b / scale, d / scale
        u1 = u + (b - b1) + (d - d1)
    elif verdict is SecurityVerdict.ACCEPTABLE_RISK:
        u1, d1 = u / scale, d / scale
        b1 = b + (d - d1) + (u - u1)
    else:
        b1, u1 = b / scale, u / scale
        d1 = d + (b - b1) + (u - u1)
    return ConfidenceTriple(b1, d1, u1)


def apply_security_links(
    model: GsnModel, opinions: dict[str, GoalOpinion], verdicts: dict[str, SecurityVerdict]
) -> dict[str, GoalOpinion]:
    """A new dict of ``opinions`` with each linked goal's record replaced.

    ``opinions`` is :func:`aggregate_gsn` of ``model``.  A goal carrying a
    security link reports its aggregated triple passed through
    :func:`update_confidence` with the linked ADT's verdict; a missing verdict
    counts as no assessment.  Other goals keep their records, including
    ancestors of linked goals.  The update starts from ``triple``, so applying
    links again never compounds.
    """
    linked = dict(opinions)
    for goal_id, opinion in opinions.items():
        links = model.links_for(goal_id)
        if links:
            (link,) = links  # validation rejects a goal with two
            verdict = verdicts.get(link.adt_name, SecurityVerdict.NO_ASSESSMENT)
            reported = update_confidence(opinion.triple, verdict, link.weight)
            linked[goal_id] = GoalOpinion(opinion.count, opinion.triple, reported, verdict)
    return linked
