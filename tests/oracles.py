"""Independent brute-force oracles used by the equivalence suites.

These stay deliberately naive: enumeration over all subsets/assignments and
exhaustive strategy expansion.  They must not share code with the
implementations they check.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from itertools import chain, combinations, product
from typing import Iterator, NamedTuple, Optional

from safsec import adteval
from safsec.adteval import VerdictPolicy
from safsec.confidence import GoalOpinion, SecurityVerdict, aggregate_gsn, apply_security_links
from safsec.conflicts import ContradictionWitness
from safsec.dot import _esc
from safsec.model import (
    AddCounterAction,
    AdtNode,
    AttackDefenseTree,
    ConfidenceTriple,
    Diagnostic,
    Document,
    FaultTree,
    GsnModel,
    GsnNode,
    NodeKind,
    Refinement,
    Scenario,
    ScenarioAction,
    adt_walk,
)
from safsec.modelfile.lexer import string_value
from safsec.modelfile.printer import _num, _quote
from safsec.process import RoundEntry, Transcript, describe_action, rounds, set_defeaters


def all_subsets(items):
    items = sorted(items)
    return chain.from_iterable(combinations(items, r) for r in range(len(items) + 1))


def fault_tree_triggers(tree: FaultTree, events: frozenset[str]) -> bool:
    """Truth-table evaluation of the tree under a set of occurred events."""

    def ev(node: str) -> bool:
        gate = tree.gate(node)
        if gate is None:
            return node in events
        op, children = gate
        results = [ev(c) for c in children]
        return all(results) if op.value == "AND" else any(results)

    return ev(tree.top)


def naive_cut_sets(tree: FaultTree) -> set[frozenset[str]]:
    """Raw cut-set family by plain recursion, re-expanding shared gates.

    A gate cycle recurses forever and ends in ``RecursionError``.
    """

    def expand(node: str) -> set[frozenset[str]]:
        gate = tree.gate(node)
        if gate is None:
            return {frozenset({node})}
        op, children = gate
        families = [expand(child) for child in children]
        if op.value == "OR":
            out: set[frozenset[str]] = set()
            for fam in families:
                out |= fam
            return out
        combined = {frozenset()}
        for fam in families:
            combined = {a | b for a, b in product(combined, fam)}
        return combined

    return expand(tree.top)


def naive_has_cycle(tree: FaultTree) -> bool:
    """Depth-first search from every gate along gate children."""

    def from_gate(node: str, on_path: tuple[str, ...]) -> bool:
        if node in on_path:
            return True
        gate = tree.gate(node)
        return gate is not None and any(
            from_gate(child, on_path + (node,)) for child in gate[1]
        )

    return any(from_gate(gid, ()) for gid, _, _ in tree.gates)


def naive_on_cycle(tree: FaultTree, gate_id: str) -> bool:
    """Whether ``gate_id`` reaches itself along gate children."""

    def reaches(node: str, on_path: frozenset[str]) -> bool:
        gate = tree.gate(node)
        if gate is None or node in on_path:
            return False
        return any(c == gate_id or reaches(c, on_path | {node}) for c in gate[1])

    return reaches(gate_id, frozenset())


def naive_reach(starts, children) -> set[str]:
    """Every node that one or more steps from ``starts`` reach, by recursion."""
    out: set[str] = set()

    def visit(node: str) -> None:
        for child in children(node):
            if child not in out:
                out.add(child)
                visit(child)

    for start in starts:
        visit(start)
    return out


def brute_force_minimal_cut_sets(tree: FaultTree) -> set[frozenset[str]]:
    """All subset-minimal event sets that trigger the top event."""
    satisfying = [
        frozenset(s)
        for s in all_subsets(tree.basic_events)
        if fault_tree_triggers(tree, frozenset(s))
    ]
    return {
        s
        for s in satisfying
        if not any(o < s for o in satisfying)
    }


def brute_force_derivable(
    clauses: list[tuple[list[tuple[str, bool]], tuple[str, bool]]],
    facts: set[tuple[str, bool]],
) -> set[tuple[str, bool]]:
    """Naive iteration to fixpoint, recomputing the whole set each pass."""
    derived = set(facts)
    while True:
        step = set(derived)
        for body, head in clauses:
            if all(lit in derived for lit in body):
                step.add(head)
        if step == derived:
            return derived
        derived = step


def brute_force_contradictory_assignments(
    clauses, inputs: list[str]
) -> list[dict[str, bool]]:
    """Input assignments under which some signal gets both polarities."""
    out = []
    for values in product([False, True], repeat=len(inputs)):
        assignment = dict(zip(inputs, values))
        derived = brute_force_derivable(
            clauses, {(s, v) for s, v in assignment.items()}
        )
        signals = {s for s, _ in derived}
        if any((s, True) in derived and (s, False) in derived for s in signals):
            out.append(assignment)
    return out


def _naive_fire_order(clauses, facts):
    """The rescanning loop: every pass re-tests each unfired clause's body.
    Returns the derived atoms and the indices of the fired clauses."""
    derived = set(facts)
    fired = []
    fired_set = set()
    changed = True
    while changed:
        changed = False
        for idx, clause in enumerate(clauses):
            if idx in fired_set:
                continue
            if all((lit.signal, lit.positive) in derived for lit in clause.body):
                fired.append(idx)
                fired_set.add(idx)
                head = (clause.head.signal, clause.head.positive)
                if head not in derived:
                    derived.add(head)
                changed = True
    return derived, fired


def naive_forward_chain(clauses, facts):
    """The derived atoms and the fired clauses, in firing order."""
    clauses = list(clauses)
    derived, fired = _naive_fire_order(clauses, facts)
    return derived, [clauses[idx] for idx in fired]


def replay(rules, witness: ContradictionWitness) -> bool:
    """Re-run chaining on the witness's assignment alone: True iff that fires
    exactly the witness's clauses, in order, and derives both polarities of
    its conflicted signal (the fired clauses fix the derived literals)."""
    derived, fired = naive_forward_chain(rules.clauses, witness.input_assignment.items())
    sig = witness.conflicted_signal
    return (tuple(fired) == witness.fired_clauses
            and (sig, True) in derived and (sig, False) in derived)


def naive_conflict_candidates(reqs, wide: bool = False) -> list[tuple[str, str]]:
    """Every pair of requirements, in order, kept if they share a head signal
    (any signal with ``wide``)."""
    signals = [(r.id, r.all_signals() if wide else r.head_signals()) for r in reqs]
    return [(id1, id2) for (id1, s1), (id2, s2) in combinations(signals, 2) if s1 & s2]


def naive_find_contradictions(rules) -> list[ContradictionWitness]:
    """One rescanning chain per input assignment, in pattern order."""
    witnesses = []
    n = len(rules.inputs)
    for pattern in range(2**n):
        assignment = {
            sig: bool((pattern >> i) & 1) for i, sig in enumerate(rules.inputs)
        }
        facts = {(sig, value) for sig, value in assignment.items()}
        derived, fired = _naive_fire_order(rules.clauses, facts)
        signals = {sig for sig, _ in derived}
        conflicted = sorted(
            sig for sig in signals if (sig, True) in derived and (sig, False) in derived
        )
        if conflicted:
            involved = tuple(
                sorted({rules.owners[idx] for idx in fired if rules.owners[idx]})
            )
            witnesses.append(
                ContradictionWitness(
                    input_assignment=assignment,
                    conflicted_signal=conflicted[0],
                    involved_requirements=involved,
                    fired_clauses=tuple(rules.clauses[idx] for idx in fired),
                )
            )
    return witnesses


def brute_force_min_cost(tree: AttackDefenseTree, attribute: str = "cost") -> float:
    """Minimum total cost over all attack strategies (OR-choice enumerations).

    A strategy picks one child at every OR node; AND nodes take all children;
    a countermeasure always adds its own (recursively minimised) cost on top,
    modelling the bypass cost.
    """

    def strategy_costs(node: AdtNode) -> list[float]:
        if node.refinement is Refinement.LEAF:
            base = [node.attribute(attribute)]
        elif node.refinement is Refinement.OR:
            base = [c for child in node.children for c in strategy_costs(child)]
        else:
            totals = [0.0]
            for child in node.children:
                totals = [t + c for t in totals for c in strategy_costs(child)]
            base = totals
        if node.counter is not None:
            bypass = min(strategy_costs(node.counter))
            base = [b + bypass for b in base]
        return base

    return min(strategy_costs(tree.root))


# The recursive ADT walkers that ``model.adt_walk`` replaced, kept as
# references for the walk's differential test.  They share only the leaf
# formatting (``_quote``, ``_num``, ``_esc``) with the code they check, and
# they overflow Python's stack on trees about a thousand levels deep.


def recursive_adt_walk(tree: AttackDefenseTree) -> list[tuple[str, AdtNode]]:
    """(path, node) pairs in preorder; children ``.i``, then the counter ``.c``."""

    def rec(path: str, node: AdtNode) -> Iterator[tuple[str, AdtNode]]:
        yield path, node
        for i, child in enumerate(node.children):
            yield from rec(f"{path}.{i}", child)
        if node.counter is not None:
            yield from rec(f"{path}.c", node.counter)

    return list(rec("root", tree.root))


def recursive_adt_diagnostics(tree: AttackDefenseTree) -> list[Diagnostic]:
    """The validator's diagnostics for one ADT, in the recursion's order."""
    ctx = "adt " + "".join(c if c.isprintable() else repr(c)[1:-1] for c in tree.name)
    out: list[Diagnostic] = []

    def err(message: str) -> None:
        out.append(Diagnostic(message, severity="error", context=ctx))

    def rec(node: AdtNode) -> None:
        if node.children and node.refinement is Refinement.LEAF:
            err(f"node {node.label!r} has children but no AND/OR refinement")
        if not node.children and node.refinement is not Refinement.LEAF:
            err(f"{node.refinement.value} node {node.label!r} has no children")
        for child in node.children:
            if child.actor is not node.actor:
                err(f"refinement child {child.label!r} of {node.label!r} has mismatching actor")
            rec(child)
        if node.counter is not None:
            if node.counter.actor is not node.actor.opposite:
                err(f"countermeasure of {node.label!r} must have opposite actor")
            rec(node.counter)
        keys = [k for k, _ in node.attributes]
        for dup in sorted({k for k in keys if keys.count(k) > 1}):
            err(f"duplicate attribute {dup!r} on {node.label!r}")

    rec(tree.root)
    return out


def recursive_adt_lines(node: AdtNode, indent: int) -> list[str]:
    """The printed lines of ``node``'s subtree at ``indent`` levels."""
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
        items.extend(recursive_adt_lines(child, indent + 1))
    if node.counter is not None:
        counter_lines = recursive_adt_lines(node.counter, indent + 1)
        items.append(f"{pad}  counter {counter_lines[0].lstrip()}")
        items.extend(counter_lines[1:])
    if items:
        return [head + " {", *items, f"{pad}}}"]
    return [head]


def recursive_adt_to_dot(tree: AttackDefenseTree) -> str:
    lines = [f'digraph "{_esc(tree.name)}" {{', "  rankdir=TB;"]

    def emit(path: str, node: AdtNode) -> None:
        label = _esc(node.label)
        if node.refinement is not Refinement.LEAF:
            label += f"\\n[{node.refinement.value}]"
        if node.impact is not None:
            label += f"\\nimpact: {node.impact.value}"
        color = "indianred" if node.actor.value == "attack" else "palegreen"
        shape = "box" if node.actor.value == "attack" else "ellipse"
        lines.append(
            f'  "{path}" [shape={shape}, style=filled, fillcolor={color}, '
            f'label="{label}"];'
        )
        for i, child in enumerate(node.children):
            child_path = f"{path}.{i}"
            emit(child_path, child)
            lines.append(f'  "{path}" -> "{child_path}";')
        if node.counter is not None:
            counter_path = f"{path}.c"
            emit(counter_path, node.counter)
            lines.append(f'  "{path}" -> "{counter_path}" [style=dotted];')

    emit("root", tree.root)
    lines.append("}")
    return "\n".join(lines) + "\n"


def _first_node(model: GsnModel, node_id: str) -> GsnNode:
    return next(n for n in model.nodes if n.id == node_id)


def naive_gsn_structure_problems(model: GsnModel) -> list[str]:
    """Duplicate-id and parent-cycle messages, by counting and walking.

    Every declaration walks its own parent chain (first declaration of each
    id) and reports a cycle if the walk revisits an id.
    """
    ids = [n.id for n in model.nodes]
    out = [f"duplicate node id {i!r}" for i in sorted({i for i in ids if ids.count(i) > 1})]
    for node in model.nodes:
        seen = []
        cur = node.id
        while cur is not None and cur in ids:
            if cur in seen:
                out.append(f"cycle through node {node.id!r}")
                break
            seen.append(cur)
            cur = _first_node(model, cur).parent
    return out


def naive_subtree_counts(model: GsnModel) -> dict[str, tuple[int, int]]:
    """(outruled, total) per goal, re-summing every subtree recursively.

    A goal whose subtree runs into a parent cycle recurses forever and ends
    in ``RecursionError``.
    """

    def subtree(node_id: str) -> tuple[int, int]:
        node = _first_node(model, node_id)
        outruled = total = 0
        if node.kind is NodeKind.GOAL and node.defeaters is not None:
            outruled, total = node.defeaters.outruled, node.defeaters.total
        for child in model.nodes:
            if child.parent == node_id:
                o, t = subtree(child.id)
                outruled, total = outruled + o, total + t
        return outruled, total

    return {n.id: subtree(n.id) for n in model.nodes if n.kind is NodeKind.GOAL}


# The whole-model scenario replay that ``process.Replay`` replaced, kept as
# the reference for its differential test.  Every round re-evaluates the
# whole ADT, re-aggregates the whole model after a ``set_defeaters`` round
# and walks the tree to each ``add_counter`` target.  It shares the round
# numbering, the action descriptions and ``set_defeaters`` with the code it
# checks, and none of the incremental state.


def attach_counter(tree: AttackDefenseTree, at_label: str, counter: AdtNode) -> AttackDefenseTree:
    """Return a copy of the tree with a countermeasure under the labeled node.

    The target is the first node in :func:`adt_walk`'s preorder, so a
    countermeasure can be countered too.  The walk keeps the open nodes on a
    stack and stops at the target; then only the target and its ancestors,
    the nodes on that stack, are rebuilt.
    """
    spine: list[tuple[str, AdtNode]] = []  # the open nodes, root first
    for path, node, entering in adt_walk(tree.root):
        if not entering:
            spine.pop()
            continue
        spine.append((path, node))
        if node.label == at_label:
            break
    else:
        raise ValueError(f"unknown adt node {at_label!r}")
    path, target = spine.pop()
    if target.counter is not None:
        raise ValueError(f"node {at_label!r} already carries a countermeasure")
    if counter.actor is not target.actor.opposite:
        raise ValueError(f"countermeasure for {at_label!r} must have opposite actor")
    new = target._replace(counter=counter)
    for parent_path, parent in reversed(spine):
        slot = path[len(parent_path) + 1:]
        if slot == "c":
            new = parent._replace(counter=new)
        else:
            i = int(slot)
            new = parent._replace(children=parent.children[:i] + (new,) + parent.children[i + 1:])
        path = parent_path
    return replace(tree, root=new)


def apply_round(
    action: ScenarioAction, model: GsnModel, adt: AttackDefenseTree, policy: VerdictPolicy
) -> tuple[GsnModel, AttackDefenseTree, VerdictPolicy]:
    """The GSN model, ADT and verdict policy after one round's action."""
    if isinstance(action, VerdictPolicy):
        return model, adt, action
    if isinstance(action, AddCounterAction):
        return model, attach_counter(adt, action.at_label, action.node), policy
    return set_defeaters(model, action.goal_id, action.count), adt, policy


def naive_run_process(document: Document, scenario: Scenario) -> Transcript:
    """Replay ``scenario``, re-deriving the whole model every round."""
    model = document.gsns[scenario.gsn_name]
    adt = document.adts[scenario.adt_name]
    policy = adteval.UNASSESSED
    root_goal = model.root().id
    aggregate: Optional[dict[str, GoalOpinion]] = None  # of ``model``; None once stale

    def current_triple() -> tuple[SecurityVerdict, ConfidenceTriple]:
        nonlocal aggregate
        v = adteval.verdict(adt, policy)
        if aggregate is None:
            aggregate = aggregate_gsn(model)
        linked = apply_security_links(model, aggregate, {scenario.adt_name: v})
        return v, linked[root_goal].reported

    _, initial = current_triple()
    met = scenario.thresholds.met_by(initial)
    entries: list[RoundEntry] = []
    for round_no, action in rounds(scenario):
        if met:
            break
        try:
            revised, adt, policy = apply_round(action, model, adt, policy)
            if revised is not model:
                model, aggregate = revised, None
            verdict, triple = current_triple()
        except ValueError as exc:
            raise ValueError(f"round {round_no}: {exc}")
        entries.append(RoundEntry(round_no, describe_action(action), verdict, triple))
        met = scenario.thresholds.met_by(triple)
    status = "accepted" if met else "exhausted"
    return Transcript(initial, tuple(entries), status)


NAIVE_PUNCT = {"{", "}", "[", "]", "=", ",", "&", "!"}


class NaiveLexError(Exception):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(message)
        self.message = message
        self.line = line
        self.column = column


@dataclass(frozen=True)
class NaiveToken:
    kind: str  # IDENT STRING INT FLOAT PUNCT ARROW EOF
    value: str
    line: int
    column: int


def naive_tokenize(text: str) -> Iterator[NaiveToken]:
    """The character-by-character ``.ssm`` tokenizer the regex lexer replaced.

    Positions are counted by hand as it walks.  It differs from `tokenize`
    below in three places, each pinned by a test in ``test_lexer.py``: a
    number starts on ``str.isdigit()`` (so on ``²``), a backslash before a
    newline is an "unknown escape", and the column is not advanced over a
    comment (so an EOF after a final comment is misplaced).
    """
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col
        if ch == "=" and i + 1 < n and text[i + 1] == ">":
            yield NaiveToken("ARROW", "=>", start_line, start_col)
            i += 2
            col += 2
            continue
        if ch in NAIVE_PUNCT or ch == "=":
            yield NaiveToken("PUNCT", ch, start_line, start_col)
            i += 1
            col += 1
            continue
        if ch == '"':
            i += 1
            col += 1
            out: list[str] = []
            while True:
                if i >= n or text[i] == "\n":
                    raise NaiveLexError("unterminated string", start_line, start_col)
                c = text[i]
                if c == '"':
                    i += 1
                    col += 1
                    break
                if c == "\\":
                    if i + 1 >= n:
                        raise NaiveLexError("unterminated escape", line, col)
                    esc = text[i + 1]
                    mapped = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}.get(esc)
                    if mapped is None:
                        raise NaiveLexError(f"unknown escape \\{esc}", line, col)
                    out.append(mapped)
                    i += 2
                    col += 2
                    continue
                out.append(c)
                i += 1
                col += 1
            yield NaiveToken("STRING", "".join(out), start_line, start_col)
            continue
        if ch.isdigit():
            j = i
            seen_dot = False
            while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    seen_dot = True
                j += 1
            lexeme = text[i:j]
            if lexeme.endswith("."):
                raise NaiveLexError(f"malformed number {lexeme!r}", start_line, start_col)
            yield NaiveToken("FLOAT" if seen_dot else "INT", lexeme, start_line, start_col)
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            yield NaiveToken("IDENT", text[i:j], start_line, start_col)
            col += j - i
            i = j
            continue
        raise NaiveLexError(f"unexpected character {ch!r}", start_line, start_col)
    yield NaiveToken("EOF", "", line, col)


# The master-pattern tokenizer that `safsec.modelfile.lexer.locate` replaced:
# the reference for its offsets and lexical errors.
_BODY = r'[^"\\\n]*(?:\\[nt"\\][^"\\\n]*)*'  # string characters and valid escapes
_TOKEN = re.compile(
    r"(?:[ \t\r\n]+|#[^\n]*)*"
    r"(?:(?P<ARROW>=>)"
    r"|(?P<PUNCT>[{}\[\]=,&!])"
    rf'|(?P<STRING>"{_BODY}")'
    rf'|(?P<OPEN>"){_BODY}'  # a string that stops short of its closing quote
    r"|(?P<FLOAT>\d+\.\d+)"
    r"|(?P<DOT>\d+\.)"  # a number that ends in its decimal point
    r"|(?P<INT>\d+)"
    r"|(?P<IDENT>\w+)"  # may start on a non-decimal digit such as ``²``: checked below
    r"|(?P<EOF>\Z)"
    r"|(?P<BAD>.))"
)


class LexError(Exception):
    def __init__(self, message: str, offset: int):
        super().__init__(message)
        self.message = message
        self.offset = offset


class Token(NamedTuple):
    kind: str  # IDENT STRING INT FLOAT PUNCT ARROW EOF
    value: str
    offset: int


def tokenize(text: str) -> Iterator[Token]:
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        offset = m.start(kind)
        value = m[kind]
        if kind == "STRING":
            value = string_value(value)
        elif kind == "BAD" or (kind == "IDENT" and not (value[0].isalpha() or value[0] == "_")):
            raise LexError(f"unexpected character {value[0]!r}", offset)
        elif kind == "DOT":
            raise LexError(f"malformed number {value!r}", offset)
        elif kind == "OPEN":
            end = m.end()
            if not text.startswith("\\", end):
                raise LexError("unterminated string", offset)
            escape = text[end + 1 : end + 2]
            if escape in ("", "\n"):
                raise LexError("unterminated escape", end)
            # A non-printable character (VT, U+2028, ...) is shown escaped, so
            # that the diagnostic stays on one line.
            shown = "\\" + escape if escape.isprintable() else repr(escape)[1:-1]
            raise LexError(f"unknown escape {shown}", end)
        yield Token(kind, value, offset)
        if kind == "EOF":
            return
