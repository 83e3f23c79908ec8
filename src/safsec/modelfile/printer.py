"""Canonical pretty-printer for documents; inverse of the parser."""

from __future__ import annotations

from ..model import (
    AddCounterAction,
    AdtNode,
    AttackDefenseTree,
    Document,
    FaultTree,
    FmeaTable,
    GsnModel,
    Refinement,
    Requirement,
    Scenario,
    SetDefeatersAction,
    SetPolicyAction,
)

HEADER = "# safsec model file"


def _quote(s: str) -> str:
    escaped = s.replace("\\", "\\\\").replace('"', '\\"')
    escaped = escaped.replace("\n", "\\n").replace("\t", "\\t")
    return f'"{escaped}"'


def _num(v: float) -> str:
    if float(v).is_integer():
        return str(int(v))
    return repr(float(v))


def print_document(document: Document) -> str:
    lines = [HEADER, ""]
    for block in document.blocks:
        if isinstance(block, GsnModel):
            lines.extend(_print_gsn(block))
        elif isinstance(block, AttackDefenseTree):
            lines.extend(_print_adt(block))
        elif isinstance(block, FaultTree):
            lines.extend(_print_fta(block))
        elif isinstance(block, FmeaTable):
            lines.extend(_print_fmea(block))
        elif isinstance(block, Requirement):
            lines.extend(_print_requirement(block))
        elif isinstance(block, Scenario):
            lines.extend(_print_scenario(block))
        lines.append("")
    return "\n".join(lines).rstrip("\n") + "\n"


def _print_gsn(model: GsnModel) -> list[str]:
    lines = [f"gsn {_quote(model.name)} {{"]
    for node in model.nodes:
        head = f"  {node.kind.value} {node.id} {_quote(node.text)}"
        if node.parent is not None:
            head += f" under {node.parent}"
        attrs: list[str] = []
        if node.defeaters is not None:
            attrs.append(
                f"defeaters outruled = {node.defeaters.outruled} "
                f"total = {node.defeaters.total}"
            )
        if node.hazard is not None:
            attrs.append(
                f"hazard impact = {node.hazard.impact.value} "
                f"mechanism = {node.hazard.mechanism.value} "
                f"trace = {node.hazard.trace}"
            )
        if node.voter is not None:
            sig = ", ".join(node.voter.signals)
            attrs.append(
                f"voter signals = [{sig}] threshold = {node.voter.threshold} "
                f"trace = {node.voter.trace}"
            )
        if node.fta_ref is not None:
            attrs.append(f"fta_ref = {_quote(node.fta_ref)}")
        if node.fmea_ref is not None:
            attrs.append(f"fmea_ref = {_quote(node.fmea_ref)}")
        if attrs:
            lines.append(head + " {")
            lines.extend(f"    {a}" for a in attrs)
            lines.append("  }")
        else:
            lines.append(head)
    for link in model.security_links:
        lines.append(
            f"  security_link under {link.goal_id} adt = {_quote(link.adt_name)} "
            f"weight = {_num(link.weight)}"
        )
    lines.append("}")
    return lines


def _print_fta(tree: FaultTree) -> list[str]:
    lines = [f"fta {_quote(tree.name)} {{", f"  top {tree.top}"]
    for gid, op, children in tree.gates:
        lines.append(f"  gate {gid} {op.value} [{', '.join(children)}]")
    for event in sorted(tree.basic_events):
        lines.append(f"  event {event}")
    lines.append("}")
    return lines


def _print_fmea(table: FmeaTable) -> list[str]:
    lines = [f"fmea {_quote(table.name)} {{"]
    for row in table.rows:
        line = (
            f"  row {row.id} function = {_quote(row.function)} "
            f"mode = {row.failure_mode.value} severity = {row.severity} "
            f"occurrence = {row.occurrence} detection = {row.detection}"
        )
        if row.effect:
            line += f" effect = {_quote(row.effect)}"
        if row.cause:
            line += f" cause = {_quote(row.cause)}"
        lines.append(line)
    lines.append("}")
    return lines


def _print_requirement(req: Requirement) -> list[str]:
    lines = [
        f"requirement {req.id} kind = {req.kind.value} trace = {req.trace} {{"
    ]
    if req.inputs:
        lines.append(f"  inputs = [{', '.join(sorted(req.inputs))}]")
    for clause in req.clauses:
        lines.append(f"  clause {clause.text}")
    lines.append("}")
    return lines


def _print_adt_node(node: AdtNode, indent: int) -> list[str]:
    pad = "  " * indent
    head = f"{pad}{node.actor.value}"
    if node.refinement is not Refinement.LEAF:
        head += f" {node.refinement.value}"
    head += f" {_quote(node.label)}"
    items: list[str] = []
    if node.impact is not None:
        items.append(f"{pad}  impact = {node.impact.value}")
    for key, value in node.attributes:
        items.append(f"{pad}  attr {key} = {_num(value)}")
    for child in node.children:
        items.extend(_print_adt_node(child, indent + 1))
    if node.counter is not None:
        counter_lines = _print_adt_node(node.counter, indent + 1)
        items.append(f"{pad}  counter {counter_lines[0].lstrip()}")
        items.extend(counter_lines[1:])
    if items:
        return [head + " {", *items, f"{pad}}}"]
    return [head]


def _print_adt(tree: AttackDefenseTree) -> list[str]:
    lines = [f"adt {_quote(tree.name)} {{"]
    lines.extend(_print_adt_node(tree.root, 1))
    lines.append("}")
    return lines


def _print_scenario(scenario: Scenario) -> list[str]:
    t = scenario.thresholds
    lines = [
        f"scenario {_quote(scenario.name)} {{",
        f"  gsn = {_quote(scenario.gsn_name)}",
        f"  adt = {_quote(scenario.adt_name)}",
        f"  thresholds min_belief = {_num(t.min_belief)} "
        f"max_disbelief = {_num(t.max_disbelief)} "
        f"max_uncertainty = {_num(t.max_uncertainty)}",
        f"  max_rounds = {scenario.max_rounds}",
    ]
    for action in scenario.actions:
        if isinstance(action, SetPolicyAction):
            policy = action.policy
            if policy.unassessed:
                lines.append("  set_policy unassessed")
            else:
                prob_or = "" if policy.prob_or == "max" else f" prob_or = {policy.prob_or}"
                lines.append(
                    f"  set_policy attribute = {policy.attribute} "
                    f'op = "{policy.op}" threshold = {_num(policy.threshold)}{prob_or}'
                )
        elif isinstance(action, AddCounterAction):
            node_lines = _print_adt_node(action.node, 1)
            lines.append(
                f"  add_counter at = {_quote(action.at_label)} "
                + node_lines[0].lstrip()
            )
            lines.extend(node_lines[1:])
        elif isinstance(action, SetDefeatersAction):
            lines.append(
                f"  set_defeaters goal = {action.goal_id} "
                f"outruled = {action.outruled} total = {action.total}"
            )
    lines.append("}")
    return lines
