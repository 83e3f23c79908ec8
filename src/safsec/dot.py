"""Graphviz DOT rendering for GSN models, fault trees, and ADTs.

Presentation only: attack nodes are red boxes, defense nodes green, and
countermeasure attachments use dotted edges.  AND refinements and gates are
marked in the node label.  An ADT's nodes are named ``n0``, ``n1``, ... in
:func:`~safsec.model.adt_walk`'s preorder; a node's line is written when the
walk enters it and the edge from its open parent when the walk leaves it, so
each edge follows its child's subtree.
"""

from __future__ import annotations

from .model import (
    AttackDefenseTree,
    FaultTree,
    GsnModel,
    NodeKind,
    Refinement,
    adt_walk,
)

GSN_SHAPES = {
    NodeKind.GOAL: "box",
    NodeKind.STRATEGY: "parallelogram",
    NodeKind.SOLUTION: "circle",
    NodeKind.CONTEXT: "ellipse",
}


def _esc(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def gsn_to_dot(model: GsnModel) -> str:
    lines = [f'digraph "{_esc(model.name)}" {{', "  rankdir=TB;"]
    for node in model.nodes:
        label = f"{node.id}\\n{_esc(node.text)}"
        if node.defeaters is not None:
            label += f"\\n{node.defeaters.outruled}/{node.defeaters.total}"
        lines.append(
            f'  "{node.id}" [shape={GSN_SHAPES[node.kind]}, label="{label}"];'
        )
    for node in model.nodes:
        if node.parent is not None:
            lines.append(f'  "{node.parent}" -> "{node.id}";')
    for link in model.security_links:
        anchor = _esc(f"adt_{link.adt_name}")
        lines.append(
            f'  "{anchor}" [shape=note, label="ADT: {_esc(link.adt_name)}\\nw = {link.weight:g}"];'
        )
        lines.append(f'  "{link.goal_id}" -> "{anchor}" [style=dotted];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def fta_to_dot(tree: FaultTree) -> str:
    lines = [f'digraph "{_esc(tree.name)}" {{', "  rankdir=TB;"]
    for gid, op, _ in tree.gates:
        lines.append(f'  "{gid}" [shape=invtrapezium, label="{gid}\\n[{op.value}]"];')
    for event in sorted(tree.basic_events):
        lines.append(f'  "{event}" [shape=circle];')
    for gid, _, children in tree.gates:
        for child in children:
            lines.append(f'  "{gid}" -> "{child}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def adt_to_dot(tree: AttackDefenseTree) -> str:
    lines = [f'digraph "{_esc(tree.name)}" {{', "  rankdir=TB;"]
    opened: list[str] = []  # the open nodes' ids
    entered = 0  # the nodes entered so far
    for place, node, entering in adt_walk(tree.root):
        if entering:
            opened.append(f"n{entered}")
            entered += 1
            label = _esc(node.label)
            if node.refinement is not Refinement.LEAF:
                label += f"\\n[{node.refinement.value}]"
            if node.impact is not None:
                label += f"\\nimpact: {node.impact.value}"
            color = "indianred" if node.actor.value == "attack" else "palegreen"
            shape = "box" if node.actor.value == "attack" else "ellipse"
            lines.append(
                f'  "{opened[-1]}" [shape={shape}, style=filled, fillcolor={color}, '
                f'label="{label}"];'
            )
        else:
            node_id = opened.pop()
            if place:
                style = " [style=dotted]" if place[1] == "c" else ""
                lines.append(f'  "{opened[-1]}" -> "{node_id}"{style};')
    lines.append("}")
    return "\n".join(lines) + "\n"
