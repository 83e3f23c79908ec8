"""Seeded random model generators for the oracle-equivalence suites."""

from __future__ import annotations

import random
import string

from safsec.adteval import UNASSESSED, VerdictPolicy
from safsec.model import (
    Actor,
    AddCounterAction,
    AdtNode,
    AttackDefenseTree,
    Clause,
    DefeaterCount,
    Document,
    FailureMode,
    FaultTree,
    FmeaRow,
    FmeaTable,
    GateOp,
    GsnModel,
    GsnNode,
    GuideWord,
    HazardMeta,
    Impact,
    Literal,
    NodeKind,
    Refinement,
    Requirement,
    RequirementKind,
    Scenario,
    SecurityLink,
    SetDefeatersAction,
    Thresholds,
    VoterMeta,
)


def random_fault_tree(
    rng: random.Random, max_events: int = 10, max_gates: int = 12
) -> FaultTree:
    n_events = rng.randint(1, max_events)
    events = [f"E{i}" for i in range(n_events)]
    n_gates = rng.randint(1, max_gates)
    gates: list[tuple[str, GateOp, tuple[str, ...]]] = []
    # Build bottom-up: each gate draws children from events and earlier gates,
    # which keeps the tree acyclic; the last gate becomes the top event.
    for g in range(n_gates):
        pool = events + [f"G{i}" for i in range(g)]
        arity = rng.randint(1, min(4, len(pool)))
        children = tuple(rng.sample(pool, arity))
        op = rng.choice([GateOp.AND, GateOp.OR])
        gates.append((f"G{g}", op, children))
    top = f"G{n_gates - 1}"

    # Trim declarations to what the top event reaches (validity requirement).
    reachable: set[str] = set()
    frontier = [top]
    gate_map = {gid: children for gid, _, children in gates}
    while frontier:
        cur = frontier.pop()
        if cur in reachable:
            continue
        reachable.add(cur)
        frontier.extend(gate_map.get(cur, ()))
    return FaultTree(
        name="random",
        top=top,
        gates=tuple(g for g in gates if g[0] in reachable),
        basic_events=frozenset(e for e in events if e in reachable),
    )


def random_rule_set(
    rng: random.Random, max_signals: int = 12
) -> tuple[list[Clause], list[str]]:
    n_signals = rng.randint(1, max_signals)
    signals = [f"S{i}" for i in range(n_signals)]
    n_inputs = rng.randint(1, n_signals)
    inputs = signals[:n_inputs]
    derived = signals[n_inputs:]
    clauses: list[Clause] = []
    if derived:
        for _ in range(rng.randint(0, 3 * len(derived))):
            head = Literal(rng.choice(derived), rng.random() < 0.5)
            body = tuple(
                Literal(rng.choice(signals), rng.random() < 0.5)
                for _ in range(rng.randint(0, 3))
            )
            clauses.append(Clause(body=body, head=head))
    return clauses, inputs


def requirements_from_rules(
    clauses: list[Clause], inputs: list[str]
) -> list[Requirement]:
    half = len(clauses) // 2
    return [
        Requirement(
            id="R1",
            kind=RequirementKind.SAFETY,
            trace="C",
            clauses=tuple(clauses[:half]),
            inputs=frozenset(inputs),
        ),
        Requirement(
            id="R2",
            kind=RequirementKind.SECURITY,
            trace="C",
            clauses=tuple(clauses[half:]),
            inputs=frozenset(inputs),
        ),
    ]


def random_cost_adt(rng: random.Random, max_nodes: int = 12) -> AttackDefenseTree:
    budget = [rng.randint(1, max_nodes)]
    counter = [0]

    def make(actor: Actor, depth: int) -> AdtNode:
        counter[0] += 1
        budget[0] -= 1
        label = f"n{counter[0]}"
        can_branch = budget[0] >= 2 and depth < 4
        if not can_branch or rng.random() < 0.4:
            node = AdtNode(
                actor=actor,
                label=label,
                attributes=(("cost", float(rng.randint(1, 20))),),
            )
        else:
            n_children = rng.randint(2, min(3, budget[0]))
            refinement = rng.choice([Refinement.AND, Refinement.OR])
            children = tuple(make(actor, depth + 1) for _ in range(n_children))
            node = AdtNode(
                actor=actor, label=label, refinement=refinement, children=children
            )
        if budget[0] >= 1 and depth < 3 and rng.random() < 0.2:
            counter[0] += 1
            budget[0] -= 1
            node = AdtNode(
                actor=node.actor,
                label=node.label,
                refinement=node.refinement,
                children=node.children,
                attributes=node.attributes,
                counter=AdtNode(
                    actor=actor.opposite,
                    label=f"c{counter[0]}",
                    attributes=(("cost", float(rng.randint(1, 20))),),
                ),
            )
        return node

    return AttackDefenseTree(name="random", root=make(Actor.ATTACK, 0))


def random_document(rng: random.Random) -> "Document":
    """A structurally valid document exercising every block type."""
    blocks: list = []

    n_nodes = rng.randint(1, 6)
    nodes: list[GsnNode] = []
    for i in range(n_nodes):
        node_id = f"N{i}_{random_identifier(rng)}"
        kind = NodeKind.GOAL if i == 0 else rng.choice(list(NodeKind))
        parent = None if i == 0 else rng.choice(nodes).id
        defeaters = hazard = voter = fta_ref = fmea_ref = None
        if kind is NodeKind.GOAL and rng.random() < 0.5:
            total = rng.randint(0, 30)
            defeaters = DefeaterCount(rng.randint(0, total) if total else 0, total)
        if kind is NodeKind.GOAL and rng.random() < 0.4:
            hazard = HazardMeta(
                impact=rng.choice(list(Impact)),
                mechanism=rng.choice(list(GuideWord)),
                trace=random_identifier(rng),
            )
        if kind is NodeKind.SOLUTION and rng.random() < 0.4:
            signals = [
                f"Sig{j}_{random_identifier(rng)}" for j in range(rng.randint(1, 4))
            ]
            voter = VoterMeta(
                signals=tuple(signals),
                threshold=rng.randint(1, len(signals)),
                trace=random_identifier(rng),
            )
        if kind is NodeKind.SOLUTION and rng.random() < 0.3:
            fta_ref = random_text(rng)
        if kind is NodeKind.SOLUTION and rng.random() < 0.3:
            fmea_ref = random_text(rng)
        nodes.append(
            GsnNode(
                id=node_id,
                kind=kind,
                text=random_text(rng),
                parent=parent,
                defeaters=defeaters,
                hazard=hazard,
                voter=voter,
                fta_ref=fta_ref,
                fmea_ref=fmea_ref,
            )
        )
    links = tuple(
        SecurityLink(
            goal_id=rng.choice(nodes).id,
            adt_name=random_text(rng),
            weight=rng.randint(0, 12) / 4.0,
        )
        for _ in range(rng.randint(0, 2))
    )
    blocks.append(
        GsnModel(name=random_text(rng), nodes=tuple(nodes), security_links=links)
    )

    blocks.append(random_fault_tree(rng))

    rows = tuple(
        FmeaRow(
            id=f"F{i}",
            function=random_text(rng),
            failure_mode=rng.choice(list(FailureMode)),
            severity=rng.randint(1, 10),
            occurrence=rng.randint(1, 10),
            detection=rng.randint(1, 10),
            effect=random_text(rng) if rng.random() < 0.5 else "",
            cause=random_text(rng) if rng.random() < 0.5 else "",
        )
        for i in range(rng.randint(0, 4))
    )
    blocks.append(FmeaTable(name=random_text(rng), rows=rows))

    clauses, inputs = random_rule_set(rng, max_signals=6)
    blocks.append(
        Requirement(
            id=f"R_{random_identifier(rng)}",
            kind=rng.choice(list(RequirementKind)),
            trace=random_identifier(rng),
            clauses=tuple(clauses),
            inputs=frozenset(inputs),
        )
    )

    adt = random_cost_adt(rng)
    blocks.append(adt)

    actions: list = []
    for _ in range(rng.randint(0, 3)):
        roll = rng.random()
        if roll < 0.3:
            actions.append(UNASSESSED)
        elif roll < 0.6:
            actions.append(
                VerdictPolicy(
                    attribute=rng.choice(["cost", "probability", "time"]),
                    op=rng.choice(["<=", ">="]),
                    threshold=rng.randint(0, 40) / 4.0,
                    prob_or=rng.choice(["max", "noisy_or"]),
                )
            )
        elif roll < 0.8:
            actions.append(
                AddCounterAction(
                    at_label=random_text(rng),
                    node=AdtNode(
                        actor=Actor.DEFENSE,
                        label=random_text(rng),
                        attributes=(("cost", float(rng.randint(1, 9))),),
                    ),
                )
            )
        else:
            actions.append(
                SetDefeatersAction(
                    goal_id=rng.choice(nodes).id,
                    count=DefeaterCount(rng.randint(0, 5), rng.randint(5, 10)),
                )
            )
    blocks.append(
        Scenario(
            name=random_text(rng),
            gsn_name=blocks[0].name,
            adt_name=adt.name,
            thresholds=Thresholds(
                min_belief=rng.randint(0, 4) / 4.0,
                max_disbelief=rng.randint(0, 4) / 4.0,
                max_uncertainty=rng.randint(0, 4) / 4.0,
            ),
            max_rounds=rng.randint(1, 6),
            actions=tuple(actions),
        )
    )
    return Document(tuple(blocks))


def random_identifier(rng: random.Random) -> str:
    first = rng.choice(string.ascii_letters + "_")
    rest = "".join(
        rng.choice(string.ascii_letters + string.digits + "_")
        for _ in range(rng.randint(0, 8))
    )
    return first + rest


def random_text(rng: random.Random) -> str:
    alphabet = string.ascii_letters + string.digits + " .,:;!?'()\\\"\n\t-_éü中"
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 20)))
