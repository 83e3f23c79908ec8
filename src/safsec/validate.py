"""Structural validation of parsed documents.

Turns every type invariant into a diagnostic rather than an exception, so a
single pass reports all problems.  The result is sorted, which makes it
independent of declaration order.  Gate cycles, reachability and GSN parent
cycles are found by walks over :func:`safsec.model.post_order`.  A
scenario's rounds are checked by the pass whose log ``process run`` prints,
a :class:`safsec.process.RoundLog`, so the gate refuses the round that it
refuses and no round that it never runs.
"""

from __future__ import annotations

from typing import Container, Iterator, Optional

from .model import (
    BLOCK_KEYWORDS,
    AttackDefenseTree,
    Block,
    Diagnostic,
    Document,
    FaultTree,
    FmeaTable,
    GsnModel,
    GsnNode,
    NodeKind,
    Requirement,
    Scenario,
    block_name,
    duplicates,
    post_order,
    printable,
    sort_key,
)
from .process import RoundLog


def validate_model(document: Document) -> list[Diagnostic]:
    """Check every invariant; empty list means the document is well formed."""
    diags = [d for block in document.blocks for d in validate_block(block, document)]
    return sorted(diags, key=sort_key)


def validate_block(block: Block, document: Document) -> list[Diagnostic]:
    """One block's diagnostics, unsorted; ``document`` resolves its references.

    A block that repeats an earlier block's kind and name is an error: the
    document's lookups would keep only the last of them.
    """
    if isinstance(block, Scenario):
        return validate_scenario(block, document)[0]
    ctx, diags = _head(block, document)
    if isinstance(block, GsnModel):
        return diags + _check_gsn(block, document, ctx)
    if isinstance(block, FaultTree):
        return diags + _check_fta(block, ctx)
    if isinstance(block, FmeaTable):
        return diags + _check_fmea(block, ctx)
    if isinstance(block, AttackDefenseTree):
        return diags + [_err(message, ctx) for message in block.problems]
    return diags + _check_requirement(block, ctx)


def _err(message: str, context: str) -> Diagnostic:
    return Diagnostic(message, severity="error", context=context)


def _head(block: Block, document: Document) -> tuple[str, list[Diagnostic]]:
    """The block's diagnostic context, on one line, and its repeated-name error."""
    kind, name = BLOCK_KEYWORDS[type(block)], block_name(block)
    ctx = f"{kind} {printable(name)}"
    return ctx, [_err(f"duplicate {kind} name {name!r}", ctx)] if document.repeats(block) else []


def _check_gsn(model: GsnModel, document: Document, ctx: str) -> list[Diagnostic]:
    ids = [n.id for n in model.nodes]
    diags = [_err(f"duplicate node id {dup!r}", ctx) for dup in duplicates(ids)]

    roots = model.roots()
    if not model.nodes:
        diags.append(_err("model has no nodes", ctx))
    elif not roots:
        diags.append(_err("no root node (every node has a parent)", ctx))
    elif len(roots) > 1:
        names = ", ".join(sorted(n.id for n in roots))
        diags.append(_err(f"multiple roots: {names}", ctx))

    parent_of = {n.id: n.parent for n in reversed(model.nodes)}  # first declaration wins
    diags += (_err(message, f"{ctx}/{node.id}") for node in model.nodes
              for message in _gsn_node_problems(node, parent_of, document))

    # A node is on or under a parent cycle when no walk down from a node
    # whose parent is None or unknown reaches it.
    kids: dict[Optional[str], list[str]] = {}
    for node_id, parent in parent_of.items():
        kids.setdefault(parent, []).append(node_id)
    tops = [node_id for node_id, parent in parent_of.items() if parent not in parent_of]
    reached = set(post_order(tops, lambda node_id: kids.get(node_id, ()), "node"))
    diags += (_err(f"cycle through node {n.id!r}", ctx) for n in model.nodes if n.id not in reached)

    goal_ids = {n.id for n in model.goals()}
    linked: set[str] = set()
    for link in model.security_links:
        lctx = f"{ctx}/security_link {link.adt_name!r}"
        if link.goal_id not in parent_of:
            diags.append(_err(f"unknown goal {link.goal_id!r}", lctx))
        elif link.goal_id not in goal_ids:
            diags.append(_err(f"security link target {link.goal_id!r} is not a goal", lctx))
        if link.weight < 0:
            diags.append(_err(f"negative weight {link.weight}", lctx))
        if link.goal_id in linked:
            diags.append(_err(f"multiple security links on goal {link.goal_id!r}", lctx))
        linked.add(link.goal_id)
    return diags


def _gsn_node_problems(node: GsnNode, known: Container[str], document: Document) -> Iterator[str]:
    """One node's messages.  Plain ``if``s: a clean node costs a few attribute reads."""
    if node.parent is not None and node.parent not in known:
        yield f"unknown parent node {node.parent!r}"
    if node.kind is not NodeKind.GOAL:
        if node.defeaters is not None:
            yield "defeater counts allowed only on goals"
        if node.hazard is not None:
            yield "hazard meta-data allowed only on goals"
    if node.kind is not NodeKind.SOLUTION:
        if node.voter is not None:
            yield "voter annotation allowed only on solutions"
        if node.fta_ref is not None:
            yield "fta_ref annotation allowed only on solutions"
        if node.fmea_ref is not None:
            yield "fmea_ref annotation allowed only on solutions"
    if node.defeaters is not None:
        yield from node.defeaters.problems
    if node.voter is not None:
        yield from node.voter.problems
    if node.fta_ref is not None and node.fta_ref not in document.ftas:
        yield f"unresolved fta_ref {node.fta_ref!r}"
    if node.fmea_ref is not None and node.fmea_ref not in document.fmeas:
        yield f"unresolved fmea_ref {node.fmea_ref!r}"


def _check_fta(tree: FaultTree, ctx: str) -> list[Diagnostic]:
    gate_ids = [gid for gid, _, _ in tree.gates]
    diags = [_err(f"duplicate gate {dup!r}", ctx) for dup in duplicates(gate_ids)]
    diags += (_err(f"{clash!r} declared both gate and basic event", ctx)
              for clash in set(gate_ids) & tree.basic_events)

    declared = set(gate_ids) | tree.basic_events
    if tree.top not in declared:
        diags.append(_err(f"top event {tree.top!r} not declared", ctx))
    diags += (_err(f"gate {gid!r} references unknown node {child!r}", ctx)
              for gid, _, children in tree.gates for child in children if child not in declared)

    # A cycle can only run through gates; a duplicate id is its first gate.
    try:
        for _ in post_order(gate_ids, tree.inputs, "gate"):
            pass
    except ValueError as exc:
        return diags + [_err(str(exc), ctx)]

    reachable = set(tree.top_order)
    diags += (_err(f"node {orphan!r} unreachable from top event", ctx)
              for orphan in declared - reachable)
    return diags


def _check_fmea(table: FmeaTable, ctx: str) -> list[Diagnostic]:
    diags = [_err(f"duplicate row id {d!r}", ctx) for d in duplicates(r.id for r in table.rows)]
    return diags + [_err(p, f"{ctx}/{row.id}") for row in table.rows for p in row.problems]


def _check_requirement(req: Requirement, ctx: str) -> list[Diagnostic]:
    heads = req.head_signals()
    return [_err(f"signal {lit.signal!r} neither declared input nor derived", ctx)
            for clause in req.clauses for lit in clause.body
            if lit.signal not in req.inputs and lit.signal not in heads]


def validate_scenario(scenario: Scenario,
                      document: Document) -> tuple[list[Diagnostic], Optional[RoundLog]]:
    """:func:`validate_block` of ``scenario``, and the log of the pass over
    its rounds that it made: ``None`` when its GSN model or ADT is unknown,
    since then no round runs."""
    ctx, diags = _head(scenario, document)
    for name in ("min_belief", "max_disbelief", "max_uncertainty"):
        v = getattr(scenario.thresholds, name)
        if not 0.0 <= v <= 1.0:
            diags.append(_err(f"threshold {name} must be in [0, 1], got {v}", ctx))
    if scenario.max_rounds < 1:
        diags.append(_err("max_rounds must be positive", ctx))
    if not scenario.actions:
        diags.append(_err("scenario has no rounds", ctx))
    gsn = document.gsns.get(scenario.gsn_name)
    adt = document.adts.get(scenario.adt_name)
    if gsn is None:
        diags.append(_err(f"unknown gsn model {scenario.gsn_name!r}", ctx))
    elif len(roots := gsn.roots()) == 1 and roots[0].kind is not NodeKind.GOAL:
        diags.append(_err(f"root node {roots[0].id!r} of gsn {gsn.name!r} is not a goal", ctx))
    if adt is None:
        diags.append(_err(f"unknown adt {scenario.adt_name!r}", ctx))
    if gsn is None or adt is None:
        return diags, None
    log = RoundLog(scenario, gsn, adt)
    diags += (_err(message, f"{ctx}/round {round_no}") for round_no, message in log.problems)
    return diags, log
