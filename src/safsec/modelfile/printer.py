"""Canonical pretty-printer for documents; inverse of the parser.

ADTs print from one :func:`~safsec.model.adt_walk`, so any depth prints.
"""

from __future__ import annotations

from decimal import Decimal

from ..adteval import VerdictPolicy
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
    adt_walk,
)

HEADER = "# safsec model file"


def _quote(s: str) -> str:
    escaped = s.replace("\\", "\\\\").replace('"', '\\"')
    escaped = escaped.replace("\n", "\\n").replace("\t", "\\t")
    return f'"{escaped}"'


def _num(v: float) -> str:
    """A number as the grammar reads it: no exponent, repr's shortest digits."""
    if float(v).is_integer():
        return str(int(v))
    text = repr(float(v))
    return format(Decimal(text), "f") if "e" in text else text


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


def _print_adt_node(root: AdtNode, lead: str) -> list[str]:
    """``root``'s subtree one level in, led by ``lead``; ``}`` is written on exit."""
    lines: list[str] = []
    pad = ""
    for path, node, entering in adt_walk(root):
        block = node.children or node.attributes or node.counter or node.impact is not None
        if not entering:
            if block:
                lines.append(pad + "}")
            pad = pad[:-2]
            continue
        pad += "  "
        head = lead if path == "root" else pad + "counter " if path[-2:] == ".c" else pad
        refinement = "" if node.refinement is Refinement.LEAF else " " + node.refinement.value
        head = f"{head}{node.actor.value}{refinement} {_quote(node.label)}"
        if block:
            lines.append(head + " {")
            if node.impact is not None:
                lines.append(f"{pad}  impact = {node.impact.value}")
            for key, value in node.attributes:
                lines.append(f"{pad}  attr {key} = {_num(value)}")
        else:
            lines.append(head)
    return lines


def _print_adt(tree: AttackDefenseTree) -> list[str]:
    return [f"adt {_quote(tree.name)} {{", *_print_adt_node(tree.root, "  "), "}"]


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
        if isinstance(action, VerdictPolicy):
            if action.unassessed:
                lines.append("  set_policy unassessed")
            else:
                prob_or = "" if action.prob_or == "max" else f" prob_or = {action.prob_or}"
                lines.append(
                    f"  set_policy attribute = {action.attribute} "
                    f'op = "{action.op}" threshold = {_num(action.threshold)}{prob_or}'
                )
        elif isinstance(action, AddCounterAction):
            lines.extend(
                _print_adt_node(action.node, f"  add_counter at = {_quote(action.at_label)} ")
            )
        elif isinstance(action, SetDefeatersAction):
            lines.append(
                f"  set_defeaters goal = {action.goal_id} "
                f"outruled = {action.count.outruled} total = {action.count.total}"
            )
    lines.append("}")
    return lines
