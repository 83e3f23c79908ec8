"""Canonical pretty-printer for documents; inverse of the parser.

A record's ``key = value`` fields are written from the parser's `FIELDS`
and `NODE_ATTRIBUTES`, the rows that the parser reads them by, so the two
cannot disagree on a field.  ADTs print from one
:func:`~safsec.model.adt_walk`, so any depth prints.
"""

from __future__ import annotations

from operator import attrgetter

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
from .parser import (FIELDS, IDENT, IDS, INPUTS, INT, NODE_ATTRIBUTES, NUM, OP, REQUIRED, STRING,
                     prefix)

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
    if "e" not in text:
        return text
    from decimal import Decimal  # only here: its import costs every command 1-2 ms
    return format(Decimal(text), "f")


_WRITERS = {INT: str, NUM: _num, STRING: _quote, IDENT: str,
            IDS: lambda ids: f"[{', '.join(ids)}]", OP: lambda op: f'"{op}"'}


def _writer(kind):
    """The function that writes a value of ``kind``, after its keyword."""
    if kind in FIELDS:
        return _fields
    return _WRITERS.get(kind) or (str if isinstance(kind, tuple) else attrgetter("value"))


def _layout(row) -> tuple:
    """A row of fields, resolved once: each field's name, the text before its
    value, its writer and its default."""
    return tuple((field, prefix(field, kind), _writer(kind), default[0] if default else REQUIRED)
                 for field, kind, *default in row)


def _written(record, layout: tuple) -> list[str]:
    """Each field of ``layout`` as a file writes it, but for those that hold
    their default."""
    return [start + write(value) for field, start, write, default in layout
            if (value := getattr(record, field)) != default]


def _fields(record) -> str:
    """``record``'s row of `FIELDS`, on one line."""
    return " ".join(_written(record, _LAYOUT[type(record)]))


_LAYOUT = {record: _layout(row) for record, row in FIELDS.items()}
# Each attribute of a GSN node on a line of its own, if it is set.
_NODE_LAYOUT = _layout((name, kind, None) for name, kind in NODE_ATTRIBUTES.items())


def print_document(document: Document) -> str:
    lines = [HEADER, ""]
    for block in document.blocks:
        lines.extend(_PRINTERS[type(block)](block))
        lines.append("")
    return "\n".join(lines).rstrip("\n") + "\n"


def _print_gsn(model: GsnModel) -> list[str]:
    lines = [f"gsn {_quote(model.name)} {{"]
    for node in model.nodes:
        head = f"  {node.kind.value} {node.id} {_quote(node.text)}"
        if node.parent is not None:
            head += f" under {node.parent}"
        attrs = [f"    {attr}" for attr in _written(node, _NODE_LAYOUT)]
        lines.extend((head + " {", *attrs, "  }") if attrs else (head,))
    lines.extend(f"  security_link under {link.goal_id} {_fields(link)}"
                 for link in model.security_links)
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
    rows = (f"  row {row.id} {_fields(row)}" for row in table.rows)
    return [f"fmea {_quote(table.name)} {{", *rows, "}"]


def _print_requirement(req: Requirement) -> list[str]:
    lines = [f"requirement {req.id} {_fields(req)} {{"]
    if req.inputs:
        lines.append(f"  {prefix(*INPUTS[:2])}{_WRITERS[IDS](sorted(req.inputs))}")
    lines.extend(f"  clause {clause.text}" for clause in req.clauses)
    lines.append("}")
    return lines


def _print_adt_node(root: AdtNode, lead: str) -> list[str]:
    """``root``'s subtree one level in, led by ``lead``; ``}`` is written on exit."""
    lines: list[str] = []
    pad = ""
    for place, node, entering in adt_walk(root):
        block = node.children or node.attributes or node.counter or node.impact is not None
        if not entering:
            if block:
                lines.append(pad + "}")
            pad = pad[:-2]
            continue
        pad += "  "
        head = lead if not place else pad + "counter " if place[1] == "c" else pad
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
    lines = [f"scenario {_quote(scenario.name)} {{",
             *(f"  {field}" for field in _written(scenario, _LAYOUT[Scenario]))]
    for action in scenario.actions:
        if isinstance(action, VerdictPolicy):
            lines.append(f"  set_policy {'unassessed' if action.unassessed else _fields(action)}")
        elif isinstance(action, AddCounterAction):
            lines.extend(_print_adt_node(action.node, f"  add_counter {_fields(action)} "))
        elif isinstance(action, SetDefeatersAction):
            lines.append(f"  set_defeaters {_fields(action)}")
    lines.append("}")
    return lines


_PRINTERS = {GsnModel: _print_gsn, AttackDefenseTree: _print_adt, FaultTree: _print_fta,
             FmeaTable: _print_fmea, Requirement: _print_requirement, Scenario: _print_scenario}
