"""Opinion arithmetic over GSN evidence and security verdicts.

Evidence counts map to (belief, disbelief, uncertainty) via the beta-prior
form b = r/(r+s+W), d = s/(r+s+W), u = W/(r+s+W) with prior weight W = 2,
where r is the number of outruled defeaters and s the number still open.
Security verdicts then rescale the triple by a non-negative weight w.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .model import ConfidenceTriple, DefeaterCount, Diagnostic, GsnModel, NodeKind

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
    count: DefeaterCount
    triple: ConfidenceTriple


@dataclass(frozen=True)
class AggregateResult:
    opinions: dict[str, GoalOpinion]
    warnings: tuple[Diagnostic, ...] = ()


def aggregate_gsn(model: GsnModel) -> AggregateResult:
    """Aggregate defeater counts bottom-up over the goal structure.

    A goal's count is its own count plus the counts of all descendant goals;
    strategies and other node kinds are transparent.  Goals whose subtree
    carries no evidence at all get (0, 0), i.e. full uncertainty, plus a
    warning.  One post-order walk sums each subtree once; a parent cycle
    below a goal raises ``ValueError``.
    """
    warnings: list[Diagnostic] = []
    totals: dict[str, DefeaterCount] = {}
    opinions: dict[str, GoalOpinion] = {}
    for goal in model.goals():
        stack, on_path = [(goal.id, False)], set()
        while stack:
            node_id, children_done = stack.pop()
            if children_done:
                on_path.remove(node_id)
                node = model.node(node_id)
                own = DefeaterCount(0, 0)
                if node.kind is NodeKind.GOAL and node.defeaters is not None:
                    own = node.defeaters
                totals[node_id] = sum((totals[c.id] for c in model.children(node_id)), own)
            elif node_id in on_path:
                raise ValueError(f"gsn {model.name!r}: cycle through node {node_id!r}")
            elif node_id not in totals:
                on_path.add(node_id)
                stack.append((node_id, True))
                stack.extend((c.id, False) for c in model.children(node_id))
        count = totals[goal.id]
        if count.total == 0:
            warnings.append(
                Diagnostic(
                    f"goal {goal.id!r} has no defeater evidence in its subtree",
                    severity="warning",
                    context=f"gsn {model.name}",
                )
            )
        opinions[goal.id] = GoalOpinion(count, opinion_from_evidence(count))
    return AggregateResult(opinions, tuple(warnings))


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


@dataclass(frozen=True)
class LinkedOpinions:
    """Per-goal reported triples after security-link application."""

    triples: dict[str, ConfidenceTriple]
    verdicts: dict[str, SecurityVerdict] = field(default_factory=dict)
    warnings: tuple[Diagnostic, ...] = ()


def apply_security_links(
    model: GsnModel, aggregate: AggregateResult, verdicts: dict[str, SecurityVerdict]
) -> LinkedOpinions:
    """Report each goal's aggregated triple, updated where a link applies.

    ``aggregate`` is :func:`aggregate_gsn` of ``model``.  A goal carrying a
    security link gets its aggregated triple passed through
    :func:`update_confidence` with the linked ADT's verdict; a missing verdict
    counts as no assessment.  Other goals keep their evidence aggregates,
    including ancestors of linked goals.
    """
    triples: dict[str, ConfidenceTriple] = {}
    applied: dict[str, SecurityVerdict] = {}
    for goal_id, opinion in aggregate.opinions.items():
        links = model.links_for(goal_id)
        if not links:
            triples[goal_id] = opinion.triple
            continue
        (link,) = links  # validation rejects a goal with two
        verdict = verdicts.get(link.adt_name, SecurityVerdict.NO_ASSESSMENT)
        applied[goal_id] = verdict
        triples[goal_id] = update_confidence(opinion.triple, verdict, link.weight)
    return LinkedOpinions(triples, applied, aggregate.warnings)
