"""Command-line interface over ``.ssm`` model files.

Exit codes: 0 success, 1 analysis finding (invariant violation,
contradiction, thresholds unmet), 2 usage or parse error.  ``--format
machine`` emits canonical JSON for scripting; ``SAFSEC_COLOR=0`` disables
color in text output.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Optional

import click

from . import adteval, conflicts as conflicts_mod, derive, dot, fmea as fmea_mod
from . import fta as fta_mod
from . import modelfile, process as process_mod
from .confidence import SecurityVerdict, aggregate_gsn, apply_security_links
from .model import Document
from .validate import validate_model

FINDING, USAGE = 1, 2


class Ctx:
    def __init__(self, fmt: str):
        self.fmt = fmt
        self.color = os.environ.get("SAFSEC_COLOR", "1") != "0"

    @property
    def machine(self) -> bool:
        return self.fmt == "machine"

    def emit_json(self, payload: dict) -> None:
        click.echo(json.dumps(payload, sort_keys=True, indent=2))

    def echo(self, text: str, fg: Optional[str] = None) -> None:
        if fg and self.color:
            click.secho(text, fg=fg)
        else:
            click.echo(text)


def _fail(message: str) -> "click.exceptions.Exit":
    click.echo(f"error: {message}", err=True)
    return click.exceptions.Exit(USAGE)


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise _fail(str(exc))
    except UnicodeDecodeError as exc:
        raise _fail(f"{path}: not UTF-8 text ({exc})")


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise _fail(str(exc))


def _load(path: str) -> Document:
    result = modelfile.parse(_read(path))
    if not result.ok:
        for diag in result.diagnostics:
            click.echo(f"{path}:{diag}", err=True)
        raise click.exceptions.Exit(USAGE)
    assert result.document is not None
    return result.document


def _pick(mapping: dict, name: str, what: str):
    try:
        return mapping[name]
    except KeyError:
        known = ", ".join(sorted(mapping)) or "none"
        raise _fail(f"unknown {what} {name!r} (available: {known})")


def _triple_dict(triple, rounded: bool) -> dict:
    if rounded:
        b, d, u = triple.rounded()
    else:
        b, d, u = triple.belief, triple.disbelief, triple.uncertainty
    return {"belief": b, "disbelief": d, "uncertainty": u}


@click.group()
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
    ctx.obj = Ctx(fmt)


@main.command()
@click.argument("file", type=click.Path())
@click.pass_obj
def validate(ctx: Ctx, file: str) -> None:
    """Check every model invariant in FILE."""
    document = _load(file)
    diags = validate_model(document)
    errors = [d for d in diags if d.severity == "error"]
    if ctx.machine:
        ctx.emit_json(
            {
                "command": "validate",
                "ok": not errors,
                "diagnostics": [str(d) for d in diags],
            }
        )
    else:
        for diag in diags:
            ctx.echo(f"{file}: {diag}")
        if not errors:
            ctx.echo("ok", fg="green")
    if errors:
        raise click.exceptions.Exit(FINDING)


@main.group()
def fta() -> None:
    """Fault tree analyses."""


@fta.command("cutsets")
@click.argument("file", type=click.Path())
@click.option("--tree", required=True, help="Fault tree name.")
@click.option("--minimal", is_flag=True, help="Report minimal cut sets only.")
@click.pass_obj
def fta_cutsets(ctx: Ctx, file: str, tree: str, minimal: bool) -> None:
    """Print (minimal) cut sets of a fault tree."""
    document = _load(file)
    ft = _pick(document.ftas, tree, "fault tree")
    try:
        family = fta_mod.minimal_cut_sets(ft) if minimal else fta_mod.cut_sets(ft)
    except ValueError as exc:  # a gate cycle
        raise _fail(str(exc))
    ordered = fta_mod.canonical_order(family)
    if ctx.machine:
        ctx.emit_json(
            {
                "command": "fta cutsets",
                "tree": tree,
                "minimal": minimal,
                "cut_sets": ordered,
            }
        )
    else:
        for cut in ordered:
            ctx.echo("{" + ", ".join(cut) + "}")


@main.group()
def fmea() -> None:
    """FMEA analyses."""


@fmea.command("rpn")
@click.argument("file", type=click.Path())
@click.option("--table", required=True, help="FMEA table name.")
@click.pass_obj
def fmea_rpn(ctx: Ctx, file: str, table: str) -> None:
    """Print the table ranked by risk priority number."""
    document = _load(file)
    tbl = _pick(document.fmeas, table, "fmea table")
    rows = fmea_mod.ranked_rows(tbl)
    if ctx.machine:
        ctx.emit_json(
            {
                "command": "fmea rpn",
                "table": table,
                "rows": [
                    {
                        "id": r.id,
                        "function": r.function,
                        "mode": r.failure_mode.value,
                        "severity": r.severity,
                        "occurrence": r.occurrence,
                        "detection": r.detection,
                        "rpn": r.rpn,
                    }
                    for r in rows
                ],
            }
        )
    else:
        ctx.echo("rank  rpn  sev  occ* det  id (function)")
        for rank, r in enumerate(rows, start=1):
            ctx.echo(
                f"{rank:>4}  {r.rpn:>3}  {r.severity:>3}  {r.occurrence:>3} "
                f"{r.detection:>3}  {r.id} ({r.function})"
            )
        ctx.echo("* occurrence is not security-relevant; shown for completeness")


def _load_verdicts(path: str) -> dict[str, SecurityVerdict]:
    verdicts: dict[str, SecurityVerdict] = {}
    for lineno, raw in enumerate(_read(path).split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        name, sep, value = line.rpartition("=")
        if not sep:
            raise _fail(f"{path}:{lineno}: expected '<adt name> = <verdict>'")
        try:
            verdicts[name.strip()] = SecurityVerdict(value.strip())
        except ValueError:
            options = ", ".join(v.value for v in SecurityVerdict)
            raise _fail(f"{path}:{lineno}: verdict must be one of {options}")
    return verdicts


@main.group()
def gsn() -> None:
    """GSN confidence analyses."""


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
@click.pass_obj
def gsn_confidence(
    ctx: Ctx, file: str, model_name: str, verdicts_path: Optional[str]
) -> None:
    """Per-goal defeater aggregates and confidence triples."""
    document = _load(file)
    model = _pick(document.gsns, model_name, "gsn model")
    verdicts = _load_verdicts(verdicts_path) if verdicts_path else {}
    try:
        aggregate = aggregate_gsn(model)
        linked = apply_security_links(model, aggregate, verdicts)
    except ValueError as exc:  # e.g. a goal cycle
        raise _fail(str(exc))
    if ctx.machine:
        ctx.emit_json(
            {
                "command": "gsn confidence",
                "model": model_name,
                "goals": {
                    goal_id: {
                        "outruled": op.count.outruled,
                        "total": op.count.total,
                        "aggregate": _triple_dict(op.triple, rounded=False),
                        "reported": _triple_dict(
                            linked.triples[goal_id], rounded=False
                        ),
                        "verdict": (
                            linked.verdicts[goal_id].value
                            if goal_id in linked.verdicts
                            else None
                        ),
                    }
                    for goal_id, op in sorted(aggregate.opinions.items())
                },
                "warnings": [str(w) for w in linked.warnings],
            }
        )
        return
    for warning in linked.warnings:
        ctx.echo(str(warning), fg="yellow")
    for goal_id, op in aggregate.opinions.items():
        b, d, u = linked.triples[goal_id].rounded()
        line = (
            f"{goal_id}: {op.count.outruled}/{op.count.total} defeaters "
            f"-> B={b:.2f} D={d:.2f} U={u:.2f}"
        )
        if goal_id in linked.verdicts:
            line += f" (security: {linked.verdicts[goal_id].value})"
        ctx.echo(line)


@main.command("derive")
@click.argument("kind", type=click.Choice(["adt"]))
@click.argument("file", type=click.Path())
@click.option("--gsn", "gsn_name", required=True, help="Source GSN model name.")
@click.option("--out", type=click.Path(), default=None, help="Write .ssm here.")
@click.option("--dot", "dot_path", type=click.Path(), default=None, help="Write DOT here.")
@click.pass_obj
def derive_cmd(
    ctx: Ctx,
    kind: str,
    file: str,
    gsn_name: str,
    out: Optional[str],
    dot_path: Optional[str],
) -> None:
    """Derive the preliminary attack tree from a GSN model."""
    document = _load(file)
    model = _pick(document.gsns, gsn_name, "gsn model")
    try:
        tree = derive.derive_adt(model, document.ftas, document.fmeas)
    except derive.DerivationError as exc:
        raise _fail(str(exc))
    rendered = modelfile.print_document(Document((tree,)))
    if out:
        _write(out, rendered)
    else:
        click.echo(rendered, nl=False)
    if dot_path:
        _write(dot_path, dot.adt_to_dot(tree))


@main.group()
def adt() -> None:
    """Attack-defense tree analyses."""


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
@click.pass_obj
def adt_eval(
    ctx: Ctx, file: str, adt_name: str, attribute: str, policy_path: Optional[str]
) -> None:
    """Evaluate an ADT bottom-up in an attribute domain."""
    document = _load(file)
    tree = _pick(document.adts, adt_name, "adt")
    try:
        domain = adteval.get_domain(attribute)
        values = adteval.evaluate(tree, domain)
        verdict_value = None
        if policy_path:
            policy = adteval.load_policy(_read(policy_path))
            verdict_value = adteval.verdict(tree, policy).value
    except adteval.EvaluationError as exc:
        raise _fail(str(exc))
    labels = {path: node.label for path, node in tree.walk()}
    if ctx.machine:
        ctx.emit_json(
            {
                "command": "adt eval",
                "adt": adt_name,
                "attribute": attribute,
                "values": {
                    path: {"label": labels[path], "value": value}
                    for path, value in sorted(values.items())
                },
                "root": values["root"],
                "verdict": verdict_value,
            }
        )
        return
    for path, _ in tree.walk():
        ctx.echo(f"{path}: {labels[path]} = {values[path]:g}")
    if verdict_value is not None:
        fg = "green" if verdict_value == "acceptable_risk" else "red"
        ctx.echo(f"verdict: {verdict_value}", fg=fg)


@main.command("conflicts")
@click.argument("file", type=click.Path())
@click.option(
    "--wide-candidates",
    is_flag=True,
    help="Pair requirements sharing any signal, not just clause heads.",
)
@click.pass_obj
def conflicts_cmd(ctx: Ctx, file: str, wide_candidates: bool) -> None:
    """Find and confirm conflicts between requirements."""
    document = _load(file)
    reqs = list(document.requirements.values())
    candidates = conflicts_mod.conflict_candidates(reqs, wide=wide_candidates)
    by_id = document.requirements
    reports = []
    try:
        for first, second in candidates:
            reports.append(conflicts_mod.check_pair(by_id[first], by_id[second]))
    except ValueError as exc:
        raise _fail(str(exc))
    found = any(not r.consistent for r in reports)
    if ctx.machine:
        ctx.emit_json(
            {
                "command": "conflicts",
                "candidates": [list(c) for c in candidates],
                "contradictions": [
                    {
                        "pair": [r.first, r.second],
                        "assignment": dict(sorted(w.input_assignment.items())),
                        "conflicted_signal": w.conflicted_signal,
                        "involved_requirements": list(w.involved_requirements),
                        "fired_clauses": [str(c) for c in w.fired_clauses],
                    }
                    for r in reports
                    for w in r.witnesses
                ],
            }
        )
    else:
        if not candidates:
            ctx.echo("no conflict candidates (no shared signals)")
        for report in reports:
            pair = f"{report.first} / {report.second}"
            if report.consistent:
                ctx.echo(f"{pair}: consistent", fg="green")
                continue
            for w in report.witnesses:
                assign = ", ".join(
                    f"{k}={'true' if v else 'false'}"
                    for k, v in sorted(w.input_assignment.items())
                )
                ctx.echo(
                    f"{pair}: CONTRADICTION on {w.conflicted_signal} "
                    f"under {{{assign}}}",
                    fg="red",
                )
                for clause in w.fired_clauses:
                    ctx.echo(f"  fired: {clause}")
    if found:
        raise click.exceptions.Exit(FINDING)


@main.group("process")
def process_group() -> None:
    """Scripted collaborative assessment scenarios."""


@process_group.command("run")
@click.argument("file", type=click.Path())
@click.option("--scenario", "scenario_name", required=True, help="Scenario name.")
@click.pass_obj
def process_run(ctx: Ctx, file: str, scenario_name: str) -> None:
    """Replay a scenario until thresholds hold or rounds run out."""
    document = _load(file)
    scenario = _pick(document.scenarios, scenario_name, "scenario")
    try:
        transcript = process_mod.run_process(document, scenario)
    except process_mod.ProcessError as exc:
        raise _fail(str(exc))
    if ctx.machine:
        ctx.emit_json(
            {
                "command": "process run",
                "scenario": scenario_name,
                "note": transcript.note,
                "initial": _triple_dict(transcript.initial_triple, rounded=False),
                "rounds": [
                    {
                        "round": e.round,
                        "action": e.action,
                        "verdict": e.verdict.value,
                        "triple": _triple_dict(e.triple, rounded=False),
                    }
                    for e in transcript.entries
                ],
                "status": transcript.status,
                "final": _triple_dict(transcript.final_triple, rounded=False),
            }
        )
    else:
        ctx.echo(f"# {transcript.note}")
        b, d, u = transcript.initial_triple.rounded()
        ctx.echo(f"initial: B={b:.2f} D={d:.2f} U={u:.2f}")
        for e in transcript.entries:
            b, d, u = e.triple.rounded()
            ctx.echo(
                f"round {e.round}: {e.action} -> {e.verdict.value}, "
                f"B={b:.2f} D={d:.2f} U={u:.2f}"
            )
        fg = "green" if transcript.status == "accepted" else "red"
        ctx.echo(f"status: {transcript.status}", fg=fg)
    if transcript.status != "accepted":
        raise click.exceptions.Exit(FINDING)


@main.group("export")
def export_group() -> None:
    """Export models to other formats."""


@export_group.command("dot")
@click.argument("file", type=click.Path())
@click.option("--model", "model_name", required=True, help="Model name (gsn, adt, or fta).")
@click.pass_obj
def export_dot(ctx: Ctx, file: str, model_name: str) -> None:
    """Render a named model as Graphviz DOT on stdout."""
    document = _load(file)
    if model_name in document.gsns:
        rendered = dot.gsn_to_dot(document.gsns[model_name])
    elif model_name in document.adts:
        rendered = dot.adt_to_dot(document.adts[model_name])
    elif model_name in document.ftas:
        rendered = dot.fta_to_dot(document.ftas[model_name])
    else:
        known = sorted({**document.gsns, **document.adts, **document.ftas})
        raise _fail(
            f"unknown model {model_name!r} (available: {', '.join(known) or 'none'})"
        )
    click.echo(rendered, nl=False)


if __name__ == "__main__":
    main()
