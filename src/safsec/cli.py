"""Command-line interface over ``.ssm`` model files.

Each analysis command computes its result once and builds one payload dict.
``--format machine`` prints that payload as canonical JSON: the machine
output *is* the payload, in the bytes of ``json.dumps(payload,
sort_keys=True, indent=2)``, where a cut-set family (``fta.CutSets``) is the
list of its rows in canonical order and the ``conflicts`` witness families
(``conflicts.Witnesses``) are the list of their witnesses' dicts.  CPython
writes an indented document in pure Python, one call per container, so
`_dumps` writes the same bytes off one explicit stack, each text once and in
output order: a container of scalars is one join, and rows (plain dicts
with the same keys, such as a GSN model's goals) are written a column at a
time.  Families are written straight from their masks and patterns,
without building the sets or witnesses they stand for.
Text output is a rendering of the same payload, written in blocks of lines,
so the two formats cannot disagree.  The exit code comes from the payload's
finding: 0 success, 1 analysis finding (invariant violation, contradiction,
thresholds unmet), 2 usage, parse or analysis error.  Exit 2 writes one
``error:`` line to stderr, or one ``file:line:col`` diagnostic per line for
a file that does not parse.
Before ``fta cutsets``, ``fmea rpn``, ``gsn confidence``, ``derive adt``,
``adt eval``, ``process run`` or ``export dot`` runs, the blocks it reads go
through the validator: exit 2 then writes the line ``validate`` prints for
the first error among them.  ``conflicts`` runs no such gate.
``SAFSEC_COLOR=0`` disables color in text output.
"""

from __future__ import annotations

import json
import math
import os
import sys
from contextlib import ExitStack
from itertools import chain, islice, repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Any, Callable, Iterable, Optional

import click

from . import adteval, conflicts as conflicts_mod, derive, dot, fmea as fmea_mod
from . import fta as fta_mod
from . import modelfile, process as process_mod
from .confidence import SecurityVerdict, aggregate_gsn, apply_security_links
from .model import (AttackDefenseTree, ConfidenceTriple, Document, FaultTree, GsnModel, Scenario,
                    adt_preorder, printable, sort_key)
from .validate import validate_block, validate_model, validate_scenario

FINDING, USAGE = 1, 2

# What ends a command with exit 2 and one line: ``ValueError``, the library's
# one error class, and ``OSError`` when a file cannot be read or written.
ERRORS = (ValueError, OSError)

Lines = Iterable[tuple[str, Optional[str]]]  # (text line, colour or None)


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc})")


def _write(texts: dict[str, str]) -> None:
    """Write each text to its path, or none if a path cannot be opened: each
    is opened before any is written, without truncating it, and a file that
    an earlier open made is removed."""
    made, opened = {path for path in texts if not os.path.exists(path)}, []
    with ExitStack() as files:
        try:
            for path, text in texts.items():
                opened.append((files.enter_context(open(path, "a", encoding="utf-8")), text))
        except OSError:
            files.close()
            for handle, _ in opened:
                if handle.name in made:
                    os.remove(handle.name)
            raise
        for handle, text in opened:
            handle.truncate(0)
            handle.write(text)


# Block kind named in messages -> that kind's blocks of a document by name.
_BLOCKS: dict[str, Callable[[Document], Any]] = {
    "fault tree": lambda d: d.ftas,
    "fmea table": lambda d: d.fmeas,
    "gsn model": lambda d: d.gsns,
    "adt": lambda d: d.adts,
    "scenario": lambda d: d.scenarios,
}
# ``export dot --model`` names a block of any of these kinds.
_MODELS = ("gsn model", "adt", "fault tree")
_TO_DOT = {GsnModel: dot.gsn_to_dot, AttackDefenseTree: dot.adt_to_dot, FaultTree: dot.fta_to_dot}


def _load(path: str, kind: str = "", name: str = "",
          reads: Callable[[Document, Any], Iterable[Any]] = lambda document, block: ()
          ) -> tuple[Document, Any]:
    """The document parsed from ``path`` and, given a ``kind`` of
    :data:`_BLOCKS` or ``"model"`` for any of :data:`_MODELS`, its one block
    of that kind named ``name``, which must pass validation together with the
    blocks that ``reads`` gives for it, or a scenario's GSN model and ADT.  A
    scenario comes back as the :class:`~safsec.process.RoundLog` of its check."""
    result = modelfile.parse(_read(path))
    if not result.ok:
        for diag in result.diagnostics:
            click.echo(f"{path}:{diag}", err=True)
        raise click.exceptions.Exit(USAGE)
    document = result.document
    if not kind:
        return document, None
    blocks = {k: _BLOCKS[k](document) for k in (_MODELS if kind == "model" else (kind,))}
    found = [k for k, named in blocks.items() if name in named]
    if not found:
        known = ", ".join(map(printable, sorted(set().union(*blocks.values())))) or "none"
        raise ValueError(f"unknown {kind} {name!r} (available: {known})")
    if len(found) > 1:
        raise ValueError(f"{kind} {name!r} names blocks of {len(found)} kinds: {', '.join(found)}")
    block = blocks[found[0]][name]
    if isinstance(block, Scenario):
        others = filter(None, (document.gsns.get(block.gsn_name),
                               document.adts.get(block.adt_name)))
        diags, block = validate_scenario(block, document)
    else:
        others, diags = reads(document, block), validate_block(block, document)
    diags += (d for other in others for d in validate_block(other, document))
    errors = [d for d in diags if d.severity == "error"]
    if errors:
        click.echo(f"{path}: {min(errors, key=sort_key)}", err=True)
        raise click.exceptions.Exit(USAGE)
    return document, block


_BOOLS = ("false", "true")


def _float(value: float) -> str:
    return repr(value) if math.isfinite(value) else json.dumps(value)


# A scalar type -> the JSON of one value of exactly that type; `_dumps` adds
# ``str``.  Every other scalar, subclasses included, goes to ``json.dumps``.
_SCALARS: dict[type, Callable[[Any], str]] = {
    int: int.__repr__,
    float: _float,
    bool: _BOOLS.__getitem__,
    type(None): lambda value: "null",
}


def _scalars(values: list, write: dict[type, Callable[[Any], str]]) -> Optional[Iterable[str]]:
    """The JSON of each of ``values`` by ``write``, or None if a value's
    type is not one of its keys."""
    kinds = set(map(type, values))
    if len(kinds) == 1:
        kind = kinds.pop()
        return map(write[kind], values) if kind in write else None
    return [write[type(value)](value) for value in values] if kinds <= write.keys() else None


def _dicts(dicts: list, newline: str, encode: Callable[[str], str],
           column: Callable[[list, str], Optional[Iterable[str]]]) -> Optional[Iterable[str]]:
    """The texts of ``dicts``, which start on the line ``newline`` ends,
    written a column at a time: each is one join of its keys and the texts
    that ``column`` gives for each key's values.  None unless they are
    non-empty plain dicts with the same keys and ``column`` writes each."""
    first = dicts[0]
    if set(map(type, dicts)) != {dict} or not first or not all(
            map(first.keys().__eq__, map(dict.keys, dicts))):
        return None
    inner = newline + "  "
    keys = sorted(first)
    columns = [column(list(map(itemgetter(key), dicts)), inner) for key in keys]
    if None in columns:
        return None
    heads = [f",{inner}{encode(key)}: " for key in keys]
    heads[0] = "{" + heads[0][1:]
    return map("".join, zip(*chain.from_iterable(zip(map(repeat, heads), columns)),
                            repeat(newline + "}")))


def _family(family: fta_mod.CutSets, newline: str) -> str:
    """A cut-set family, starting on the line ``newline`` ends, as the list
    of its canonical rows; each event is encoded once, at its rows' indent."""
    inner = newline + "  "
    names = list(map(f",{inner}  ".__add__, map(encode_basestring_ascii, family.events)))
    rows = [f"[{row[1:]}{inner}]" if row else "[]" for row in fta_mod.canonical_rows(family, names)]
    return f"[{inner}{f',{inner}'.join(rows)}{newline}]" if rows else "[]"


class _Contradictions:
    """The ``conflicts`` payload's contradictions: by candidate pair, in
    candidate order, the witness family of each pair that has one.  It is
    written as the list of every witness's dict (`_witnesses`)."""

    __slots__ = ("families",)

    def __init__(self, families: dict[tuple[str, str], conflicts_mod.Witnesses]) -> None:
        self.families = families


def _list(items: Iterable[str], newline: str) -> str:
    """A list that starts on the line ``newline`` ends, from its items'
    texts, each led by a comma and its line break."""
    body = "".join(items)
    return f"[{body[1:]}{newline}]" if body else "[]"


def _witnesses(contradictions: _Contradictions, newline: str) -> str:
    """Every family's witnesses, starting on the line ``newline`` ends, as
    the list of their dicts, written straight from the patterns.  Each
    witness's assignment is read off tables of the pattern bytes
    (``Witnesses.assignment_texts``).  Per family, each fired clause is
    encoded once, and so is each shared tuple's text of the keys after the
    assignment, with the pair.  One join writes every witness."""
    item, inner = newline + "  ", newline + "    "
    head = f",{item}{{{inner}\"assignment\": {{"
    strings = lambda values: _list(
        map(f",{inner}  ".__add__, map(encode_basestring_ascii, values)), inner)
    pieces = []
    for pair, family in contradictions.families.items():
        names = [f"{inner}  {encode_basestring_ascii(name)}: " for name in family.inputs]
        after = (f"{inner}}}" if names else "}") + f",{inner}\"conflicted_signal\": "
        ending = f",{inner}\"pair\": {strings(pair)}{item}}}"
        shared = {id(s): s for s in family.shared}
        clauses = {id(c): c for _, _, fired in shared.values() for c in fired}
        item_of = {key: f",{inner}  {encode_basestring_ascii(c.text)}" for key, c in clauses.items()}
        tails = {key: "".join((after, encode_basestring_ascii(signal), f",{inner}\"fired_clauses\": ",
                               _list(map(item_of.__getitem__, map(id, fired)), inner),
                               f",{inner}\"involved_requirements\": ", strings(involved), ending))
                 for key, (signal, involved, fired) in shared.items()}
        pieces += chain.from_iterable(zip(repeat(head), *family.assignment_texts(names, ","),
                                          map(tails.__getitem__, map(id, family.shared))))
    if not pieces:
        return "[]"
    pieces[0] = "[" + head[1:]
    pieces.append(newline + "]")
    return "".join(pieces)


# A family kind -> the writer of one family that starts on a given line.
_FAMILIES: dict[type, Callable[[Any, str], str]] = {
    fta_mod.CutSets: _family,
    _Contradictions: _witnesses,
}


def _dumps(value: Any) -> str:
    """``json.dumps(value, sort_keys=True, indent=2, default=...)``, byte for
    byte, where ``default`` turns a cut-set family into its canonical rows
    and the ``conflicts`` payload's witness families into the list of their
    witnesses' dicts.

    CPython encodes with an ``indent`` in pure Python only, one generator
    call per container.  This writer pops (text before the value, the value,
    the line break it starts on) off one stack and appends each text once,
    in output order, so nothing recurses and nothing is copied per level.
    A scalar is written by its type's entry of `_SCALARS`, a family by its
    writer in `_FAMILIES`.  A container of scalars is written at once, and so
    are rows: two or more plain dicts with the same keys, whose values are
    scalars or plain dicts of scalars with the same keys, written a column
    at a time (`_dicts`).  Any other container pushes its closing bracket
    and its items.  Dict keys are strings, and the value holds no reference
    cycle.
    """
    encode = encode_basestring_ascii  # looked up per call, so it can be swapped
    write = {str: encode, **_SCALARS}
    scalars = lambda values, newline: _scalars(values, write)
    cells = lambda values, newline: (scalars(values, newline)
                                     or _dicts(values, newline, encode, scalars))
    pieces: list[str] = []
    stack: list = [("", value, "\n")]
    while stack:
        entry = stack.pop()
        if type(entry) is str:  # a closing bracket
            pieces.append(entry)
            continue
        before, value, newline = entry
        pieces.append(before)
        kind = type(value)
        if kind in write:
            pieces.append(write[kind](value))
        elif kind in _FAMILIES:
            pieces.append(_FAMILIES[kind](value, newline))
        elif not isinstance(value, (dict, list, tuple)):
            pieces.append(json.dumps(value))
        elif not value:
            pieces.append("{}" if isinstance(value, dict) else "[]")
        else:
            inner = newline + "  "
            if isinstance(value, dict):
                keys = sorted(value)
                items = list(map(value.__getitem__, keys))
                heads = [f",{inner}{encode(key)}: " for key in keys]
                heads[0], close = "{" + heads[0][1:], newline + "}"
            else:
                items = value
                heads = [f",{inner}"] * len(items)
                heads[0], close = "[" + inner, newline + "]"
            texts = scalars(items, inner)
            if texts is None and len(items) > 1:
                texts = _dicts(items, inner, encode, cells)
            if texts is None:
                stack.append(close)
                stack += reversed(list(zip(heads, items, repeat(inner))))
            else:
                pieces += chain.from_iterable(zip(heads, texts))
                pieces.append(close)
    return "".join(pieces)


_BLOCK = 64  # text lines per write: a write per line costs more than rendering it


def _emit(payload: dict, render: Callable[[dict], Lines], finding: bool = False) -> None:
    """Print ``payload`` as JSON or as ``render``'s text lines; exit 1 on a finding."""
    ctx = click.get_current_context()
    if ctx.obj == "machine":
        # ASCII bytes, as `_dumps` escapes every other character, go straight
        # to the binary stream: click neither scans them for ANSI codes nor
        # encodes them.  The newline goes apart, not copying the whole text.
        text = _dumps(payload)
        try:
            click.echo(text.encode("ascii"), nl=False)
        except TypeError:  # a stdout with no binary stream, such as an io.StringIO
            click.echo(text, nl=False)
        click.echo()
    else:
        # Style a line only where its colour shows, as `click.echo` decides
        # (and `CliRunner` patches); echo still strips what it would strip.
        plain = click.utils.should_strip_ansi(sys.stdout, ctx.color)
        lines = (click.style(line, fg=colour) if colour and not plain else line
                 for line, colour in render(payload))
        while block := list(islice(lines, _BLOCK)):
            click.echo("\n".join(block))
    if finding:
        raise click.exceptions.Exit(FINDING)


def _triple_dict(triple) -> dict:
    return {
        "belief": triple.belief,
        "disbelief": triple.disbelief,
        "uncertainty": triple.uncertainty,
    }


def _bdu(triple: dict) -> str:
    """A payload triple as text, rounded to two places."""
    b, d, u = ConfidenceTriple(**triple).rounded()
    return f"B={b:.2f} D={d:.2f} U={u:.2f}"


class _Main(click.Group):
    """The root group: the one place that maps :data:`ERRORS` to exit 2."""

    def invoke(self, ctx: click.Context) -> Any:
        try:
            return super().invoke(ctx)
        except ERRORS as exc:
            click.echo(f"error: {exc}", err=True)
            raise click.exceptions.Exit(USAGE)


@click.group(cls=_Main)
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["text", "machine"]),
    default="text",
    help="Output style: human-readable text or canonical JSON.",
)
@click.pass_context
def main(ctx: click.Context, fmt: str) -> None:
    """Safety/security assurance analyses over .ssm model files."""
    ctx.obj = fmt
    if os.environ.get("SAFSEC_COLOR", "1") == "0":
        ctx.color = False  # no line is styled


def _group(name: str, help: str) -> click.Group:
    group = click.Group(name, help=help)
    main.add_command(group)
    return group


fta = _group("fta", "Fault tree analyses.")
fmea = _group("fmea", "FMEA analyses.")
gsn = _group("gsn", "GSN confidence analyses.")
adt = _group("adt", "Attack-defense tree analyses.")
process_group = _group("process", "Scripted collaborative assessment scenarios.")
export_group = _group("export", "Export models to other formats.")


def _text_validate(p: dict, file: str) -> Lines:
    for diag in p["diagnostics"]:
        yield f"{file}: {diag}", None
    if p["ok"]:
        yield "ok", "green"


@main.command()
@click.argument("file", type=click.Path())
def validate(file: str) -> None:
    """Check every model invariant in FILE."""
    document, _ = _load(file)
    diags = validate_model(document)
    ok = not any(d.severity == "error" for d in diags)
    payload = {
        "command": "validate",
        "ok": ok,
        "diagnostics": [str(d) for d in diags],
    }
    _emit(payload, lambda p: _text_validate(p, file), finding=not ok)


def _text_cutsets(p: dict) -> Lines:
    family = p["cut_sets"]
    for row in fta_mod.canonical_rows(family, [", " + event for event in family.events]):
        yield "{" + row[2:] + "}", None


@fta.command("cutsets")
@click.argument("file", type=click.Path())
@click.option("--tree", required=True, help="Fault tree name.")
@click.option("--minimal", is_flag=True, help="Report minimal cut sets only.")
def fta_cutsets(file: str, tree: str, minimal: bool) -> None:
    """Print (minimal) cut sets of a fault tree."""
    _, ft = _load(file, "fault tree", tree)
    family = fta_mod.minimal_cut_sets(ft) if minimal else fta_mod.cut_sets(ft)
    payload = {
        "command": "fta cutsets",
        "tree": tree,
        "minimal": minimal,
        "cut_sets": family,
    }
    _emit(payload, _text_cutsets)


def _text_rpn(p: dict) -> Lines:
    yield "rank  rpn  sev  occ* det  id (function)", None
    for rank, r in enumerate(p["rows"], start=1):
        yield (
            f"{rank:>4}  {r['rpn']:>3}  {r['severity']:>3}  {r['occurrence']:>3} "
            f"{r['detection']:>3}  {r['id']} ({r['function']})"
        ), None
    yield "* occurrence is not security-relevant; shown for completeness", None


@fmea.command("rpn")
@click.argument("file", type=click.Path())
@click.option("--table", required=True, help="FMEA table name.")
def fmea_rpn(file: str, table: str) -> None:
    """Print the table ranked by risk priority number."""
    _, tbl = _load(file, "fmea table", table)
    rows = [
        {
            "id": r.id,
            "function": r.function,
            "mode": r.failure_mode.value,
            "severity": r.severity,
            "occurrence": r.occurrence,
            "detection": r.detection,
            "rpn": r.rpn,
        }
        for r in fmea_mod.ranked_rows(tbl)
    ]
    payload = {"command": "fmea rpn", "table": table, "rows": rows}
    _emit(payload, _text_rpn)


def _load_verdicts(path: str) -> dict[str, SecurityVerdict]:
    verdicts: dict[str, SecurityVerdict] = {}
    for lineno, raw in enumerate(_read(path).split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, sep, value = line.rpartition("=")
        if not sep:
            raise ValueError(f"{path}:{lineno}: expected '<adt name> = <verdict>'")
        try:
            verdicts[name.strip()] = SecurityVerdict(value.strip())
        except ValueError:
            options = ", ".join(v.value for v in SecurityVerdict)
            raise ValueError(f"{path}:{lineno}: verdict must be one of {options}")
    return verdicts


def _text_confidence(p: dict) -> Lines:
    for warning in p["warnings"]:
        yield warning, "yellow"
    for goal_id, goal in p["goals"].items():
        line = (
            f"{goal_id}: {goal['outruled']}/{goal['total']} defeaters "
            f"-> {_bdu(goal['reported'])}"
        )
        if goal["verdict"] is not None:
            line += f" (security: {goal['verdict']})"
        yield line, None


@gsn.command("confidence")
@click.argument("file", type=click.Path())
@click.option("--model", "model_name", required=True, help="GSN model name.")
@click.option(
    "--verdicts",
    "verdicts_path",
    type=click.Path(),
    default=None,
    help="File of '<adt name> = <verdict>' lines; missing means no assessment.",
)
def gsn_confidence(file: str, model_name: str, verdicts_path: Optional[str]) -> None:
    """Per-goal defeater aggregates and confidence triples."""
    _, model = _load(file, "gsn model", model_name)
    verdicts = _load_verdicts(verdicts_path) if verdicts_path else {}
    opinions = apply_security_links(model, aggregate_gsn(model), verdicts)
    goals = {
        goal_id: {
            "outruled": op.count.outruled,
            "total": op.count.total,
            "aggregate": _triple_dict(op.triple),
            "reported": _triple_dict(op.reported),
            "verdict": op.verdict.value if op.verdict is not None else None,
        }
        for goal_id, op in opinions.items()
    }
    payload = {
        "command": "gsn confidence",
        "model": model_name,
        "goals": goals,
        "warnings": [
            f"warning: goal {goal_id!r} has no defeater evidence in its subtree"
            f" [gsn {printable(model.name)}]"
            for goal_id, op in opinions.items()
            if op.count.total == 0
        ],
    }
    _emit(payload, _text_confidence)


def _referenced(document: Document, model: GsnModel) -> list[Any]:
    """The fault trees and FMEA tables that ``model``'s solutions name."""
    ftas = [document.ftas[r] for r in {n.fta_ref for n in model.nodes} & document.ftas.keys()]
    return ftas + [document.fmeas[r] for r in {n.fmea_ref for n in model.nodes}
                   & document.fmeas.keys()]


@main.command("derive")
@click.argument("kind", type=click.Choice(["adt"]))
@click.argument("file", type=click.Path())
@click.option("--gsn", "gsn_name", required=True, help="Source GSN model name.")
@click.option("--out", type=click.Path(), default=None, help="Write .ssm here.")
@click.option("--dot", "dot_path", type=click.Path(), default=None, help="Write DOT here.")
def derive_cmd(
    kind: str, file: str, gsn_name: str, out: Optional[str], dot_path: Optional[str]
) -> None:
    """Derive the preliminary attack tree from a GSN model."""
    document, model = _load(file, "gsn model", gsn_name, _referenced)
    tree = derive.derive_adt(model, document.ftas, document.fmeas)
    rendered = modelfile.print_document(Document((tree,)))
    texts = {out: rendered} if out else {}
    if dot_path:
        texts[dot_path] = dot.adt_to_dot(tree)
    _write(texts)  # an output that cannot be written stops the command before any other
    if not out:
        click.echo(rendered, nl=False)


def _text_adt(p: dict) -> Lines:
    for path, node in p["values"].items():
        yield f"{path}: {node['label']} = {node['value']:g}", None
    if p["verdict"] is not None:
        colour = "green" if p["verdict"] == "acceptable_risk" else "red"
        yield f"verdict: {p['verdict']}", colour


@adt.command("eval")
@click.argument("file", type=click.Path())
@click.option("--adt", "adt_name", required=True, help="ADT name.")
@click.option("--attribute", required=True, help="Attribute domain (cost, probability, time).")
@click.option(
    "--policy",
    "policy_path",
    type=click.Path(),
    default=None,
    help="Threshold policy file; adds a verdict to the output.",
)
def adt_eval(file: str, adt_name: str, attribute: str, policy_path: Optional[str]) -> None:
    """Evaluate an ADT bottom-up in an attribute domain."""
    _, tree = _load(file, "adt", adt_name)
    domain = adteval.get_domain(attribute)
    values = adteval.evaluate(tree, domain)
    verdict_value = None
    if policy_path:
        policy = adteval.load_policy(_read(policy_path))
        verdict_value = adteval.verdict(tree, policy, (domain, values["root"])).value
    payload = {
        "command": "adt eval",
        "adt": adt_name,
        "attribute": attribute,
        "values": {  # evaluate's keys and adt_preorder's nodes, both in preorder
            path: {"label": node.label, "value": value}
            for (path, value), node in zip(values.items(), adt_preorder(tree.root))
        },
        "root": values["root"],
        "verdict": verdict_value,
    }
    _emit(payload, _text_adt)


def _text_conflicts(p: dict) -> Lines:
    if not p["candidates"]:
        yield "no conflict candidates (no shared signals)", None
    families = p["contradictions"].families
    for first, second in p["candidates"]:
        pair = f"{first} / {second}"
        family = families.get((first, second))
        if family is None:
            yield f"{pair}: consistent", "green"
            continue
        heads = {key: f"{pair}: CONTRADICTION on {signal} under {{"
                 for key, (signal, _, _) in {id(s): s for s in family.shared}.items()}
        assignments = family.assignment_texts([name + "=" for name in family.inputs], ", ")
        lines = map("".join, zip(map(heads.__getitem__, map(id, family.shared)), *assignments,
                                 repeat("}")))
        for line, (_, _, fired) in zip(lines, family.shared):
            yield line, "red"
            for clause in fired:
                yield f"  fired: {clause.text}", None


@main.command("conflicts")
@click.argument("file", type=click.Path())
@click.option(
    "--wide-candidates",
    is_flag=True,
    help="Pair requirements sharing any signal, not just clause heads.",
)
def conflicts_cmd(file: str, wide_candidates: bool) -> None:
    """Find and confirm conflicts between requirements."""
    document, _ = _load(file)
    by_id = document.requirements
    candidates = conflicts_mod.conflict_candidates(list(by_id.values()), wide=wide_candidates)
    families = {}
    for first, second in candidates:
        witnesses = conflicts_mod.check_pair(by_id[first], by_id[second])
        if witnesses:
            families[first, second] = witnesses
    payload = {
        "command": "conflicts",
        "candidates": [list(c) for c in candidates],
        "contradictions": _Contradictions(families),
    }
    _emit(payload, _text_conflicts, finding=bool(families))


def _text_process(p: dict) -> Lines:
    yield f"# {p['note']}", None
    yield f"initial: {_bdu(p['initial'])}", None
    for e in p["rounds"]:
        yield f"round {e['round']}: {e['action']} -> {e['verdict']}, {_bdu(e['triple'])}", None
    yield f"status: {p['status']}", "green" if p["status"] == "accepted" else "red"


@process_group.command("run")
@click.argument("file", type=click.Path())
@click.option("--scenario", "scenario_name", required=True, help="Scenario name.")
def process_run(file: str, scenario_name: str) -> None:
    """Replay a scenario until thresholds hold or rounds run out."""
    _, log = _load(file, "scenario", scenario_name)
    transcript = log.transcript()
    payload = {
        "command": "process run",
        "scenario": scenario_name,
        "note": process_mod.TRANSCRIPT_NOTE,
        "initial": _triple_dict(transcript.initial_triple),
        "rounds": [
            {
                "round": e.round,
                "action": e.action,
                "verdict": e.verdict.value,
                "triple": _triple_dict(e.triple),
            }
            for e in transcript.entries
        ],
        "status": transcript.status,
        "final": _triple_dict(transcript.final_triple),
    }
    _emit(payload, _text_process, finding=transcript.status != "accepted")


@export_group.command("dot")
@click.argument("file", type=click.Path())
@click.option("--model", "model_name", required=True, help="Model name (gsn, adt, or fta).")
def export_dot(file: str, model_name: str) -> None:
    """Render a named model as Graphviz DOT on stdout."""
    _, model = _load(file, "model", model_name)
    click.echo(_TO_DOT[type(model)](model), nl=False)


if __name__ == "__main__":
    main()
