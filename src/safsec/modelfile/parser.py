"""Parser for the ``.ssm`` model format.

A token is an index into the columns of texts and kinds that `lexer.scan`
gives; keywords and punctuation are told by their text alone.  A block is
read by descent; ADT nodes, which nest without limit, by one loop over an
explicit stack: a header opens a node, its ``}`` closes it.  Diagnostics
carry line/column of the offending token.  Only the first diagnostic runs
`lexer.locate`, for the offsets of the tokens or for a lexical error.
Parsing aborts after 20 errors.  Syntax errors inside a block skip ahead to
the next top-level block keyword so that independent blocks still get
checked.  Every ``key = value`` pair is read by `Parser.expect_kv`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from ..adteval import UNASSESSED, VerdictPolicy
from ..model import (
    Actor,
    AddCounterAction,
    AdtNode,
    AttackDefenseTree,
    Clause,
    DefeaterCount,
    Diagnostic,
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
    ScenarioAction,
    SecurityLink,
    SetDefeatersAction,
    Thresholds,
    VoterMeta,
)
from .lexer import locate, position, scan, string_value

MAX_ERRORS = 20
BLOCK_KEYWORDS = {"gsn", "adt", "fta", "fmea", "requirement", "scenario"}
# Value -> member of each enum the parser reads: a dict lookup, not `Enum.__call__`.
_MEMBERS = {cls: {member.value: member for member in cls} for cls in (
    Actor, FailureMode, GateOp, GuideWord, Impact, NodeKind, RequirementKind)}


@dataclass
class ParseResult:
    document: Optional[Document]
    diagnostics: list[Diagnostic]

    @property
    def ok(self) -> bool:
        return self.document is not None


class _Abort(Exception):
    pass


class _SyntaxError(Exception):
    def __init__(self, message: str, token: int):
        super().__init__(message)
        self.message = message
        self.token = token


def _number(text: str, tok: int) -> float:
    value = float(text)
    if value == math.inf:  # `float` gives inf for a literal too large for a double
        raise _SyntaxError(f"number too large ({len(text)} characters)", tok)
    return value


class Parser:
    def __init__(self, text: str):
        self.text = text
        self.diagnostics: list[Diagnostic] = []
        self.pos = 0
        self._offsets: Optional[list[int]] = None  # token offsets, for diagnostics only
        columns = scan(text)
        self.values, self.kinds = columns or ([""], ["EOF"])
        if columns is None:
            _, (message, offset) = locate(text)
            self._offsets = [offset]
            self._record_at(message, 0)

    # --- token utilities -------------------------------------------------

    def _kind(self, tok: int) -> str:
        """The kind a syntax error names: INT and FLOAT for NUM, ARROW for ``=>``."""
        kind, value = self.kinds[tok], self.values[tok]
        if kind == "NUM":
            return "FLOAT" if "." in value else "INT"
        return "ARROW" if value == "=>" else kind

    def _got(self, tok: int) -> str:
        value, kind = self.values[tok], self.kinds[tok]
        return repr((string_value(value) if kind == "STRING" else value) or kind)

    def at_ident(self, *words: str) -> bool:
        return self.values[self.pos] in words

    def at_punct(self, value: str) -> bool:
        return self.values[self.pos] == value

    def _expected(self, what: str, tok: int) -> _SyntaxError:
        return _SyntaxError(f"expected {what}, got {self._got(tok)}", tok)

    def expect(self, kind: str) -> int:
        tok = self.pos
        if self.kinds[tok] != kind and self._kind(tok) != kind:
            raise self._expected(repr(kind), tok)
        self.pos = tok + 1  # a matched token is never the EOF
        return tok

    def expect_ident(self, *values: str) -> int:
        tok = self.pos
        if self.kinds[tok] != "IDENT" or (values and self.values[tok] not in values):
            want = " or ".join(repr(v) for v in values) if values else "identifier"
            raise self._expected(want, tok)
        self.pos = tok + 1
        return tok

    def expect_string(self) -> str:
        return string_value(self.values[self.expect("STRING")])

    def expect_int(self) -> int:
        tok = self.expect("INT")
        try:
            return int(self.values[tok])
        except ValueError:  # longer than ``sys.get_int_max_str_digits()``
            raise _SyntaxError(f"integer too long ({len(self.values[tok])} digits)", tok)

    def expect_num(self) -> float:
        tok = self.pos
        if self.kinds[tok] != "NUM":
            raise self._expected("number", tok)
        self.pos = tok + 1
        return _number(self.values[tok], tok)

    def expect_punct(self, value: str) -> int:
        tok = self.pos
        if self.values[tok] != value:
            raise self._expected(repr(value), tok)
        self.pos = tok + 1
        return tok

    def expect_kv(self, key: str, read: Optional[Callable] = None):
        """Read ``key = value``; ``read`` reads the value (default: an IDENT token)."""
        self.expect_ident(key)
        self.expect_punct("=")
        return read() if read is not None else self.expect("IDENT")

    def _record_at(self, message: str, tok: int) -> None:
        if self._offsets is None:
            self._offsets = locate(self.text)[0]
        line, column = position(self.text, self._offsets[tok])
        self.diagnostics.append(
            Diagnostic(message, severity="error", line=line, column=column)
        )
        if len(self.diagnostics) >= MAX_ERRORS:
            raise _Abort()

    def _skip_to_next_block(self) -> None:
        depth = 0
        while self.kinds[self.pos] != "EOF":
            value = self.values[self.pos]
            if value == "{":
                depth += 1
            elif value == "}":
                depth = max(0, depth - 1)
            elif value in BLOCK_KEYWORDS and depth == 0:
                return
            self.pos += 1

    # --- enum helpers ----------------------------------------------------

    def _enum(self, enum_cls, tok: int, what: str):
        value = self.values[tok]
        member = _MEMBERS[enum_cls].get(value)
        if member is None:
            options = ", ".join(e.value for e in enum_cls)
            raise _SyntaxError(f"unknown {what} {value!r} (one of: {options})", tok)
        return member

    # --- entry point -----------------------------------------------------

    def parse(self) -> ParseResult:
        blocks: list = []
        try:
            while self.kinds[self.pos] != "EOF":
                tok = self.pos
                if self.values[tok] not in BLOCK_KEYWORDS:
                    self._record_at(
                        f"expected block keyword (gsn, adt, fta, fmea, requirement, "
                        f"scenario), got {self._got(tok)}",
                        tok,
                    )
                    self.pos = tok + 1
                    self._skip_to_next_block()
                    continue
                try:
                    block = getattr(self, f"_parse_{self.values[tok]}")()
                    blocks.append(block)
                except _SyntaxError as exc:
                    self._record_at(exc.message, exc.token)
                    self._skip_to_next_block()
        except _Abort:
            self.diagnostics.append(
                Diagnostic("too many errors, giving up", severity="error")
            )
        errors = [d for d in self.diagnostics if d.severity == "error"]
        document = Document(tuple(blocks)) if not errors else None
        return ParseResult(document, self.diagnostics)

    # --- blocks ----------------------------------------------------------

    def _parse_gsn(self) -> GsnModel:
        self.expect_ident("gsn")
        name = self.expect_string()
        self.expect_punct("{")
        nodes: list[GsnNode] = []
        links: list[SecurityLink] = []
        under_refs: list[tuple[str, int]] = []
        while not self.at_punct("}"):
            if self.at_ident("goal", "strategy", "solution", "context"):
                node, under_tok = self._parse_gsn_node()
                nodes.append(node)
                if under_tok is not None:
                    under_refs.append((node.id, under_tok))
            elif self.at_ident("security_link"):
                links.append(self._parse_security_link())
            else:
                raise self._expected("gsn node or security_link", self.pos)
        self.expect_punct("}")
        known = {n.id for n in nodes}
        for node_id, tok in under_refs:
            if self.values[tok] not in known:
                self._record_at(
                    f"node {node_id!r} refers to undefined node {self.values[tok]!r}", tok
                )
        return GsnModel(name=name, nodes=tuple(nodes), security_links=tuple(links))

    def _parse_gsn_node(self) -> tuple[GsnNode, Optional[int]]:
        kind = _MEMBERS[NodeKind][self.values[self.expect_ident()]]
        node_id = self.values[self.expect("IDENT")]
        text = self.expect_string()
        parent = None
        under_tok = None
        if self.at_ident("under"):
            self.pos += 1
            under_tok = self.expect("IDENT")
            parent = self.values[under_tok]
        defeaters = hazard = voter = fta_ref = fmea_ref = None
        if self.at_punct("{"):
            self.pos += 1
            while not self.at_punct("}"):
                attr = self.expect("IDENT")
                name = self.values[attr]
                if name == "defeaters":
                    outruled = self.expect_kv("outruled", self.expect_int)
                    total = self.expect_kv("total", self.expect_int)
                    defeaters = DefeaterCount(outruled, total)
                elif name == "hazard":
                    impact = self._enum(Impact, self.expect_kv("impact"), "impact level")
                    mech = self._enum(GuideWord, self.expect_kv("mechanism"), "guide word")
                    trace = self.values[self.expect_kv("trace")]
                    hazard = HazardMeta(impact=impact, mechanism=mech, trace=trace)
                elif name == "voter":
                    signals = self.expect_kv("signals", self._parse_id_list)
                    threshold = self.expect_kv("threshold", self.expect_int)
                    trace = self.values[self.expect_kv("trace")]
                    signals = tuple(self.values[t] for t in signals)
                    voter = VoterMeta(signals=signals, threshold=threshold, trace=trace)
                elif name == "fta_ref":
                    self.expect_punct("=")
                    fta_ref = self.expect_string()
                elif name == "fmea_ref":
                    self.expect_punct("=")
                    fmea_ref = self.expect_string()
                else:
                    raise _SyntaxError(
                        f"unknown node attribute {name!r}", attr
                    )
            self.expect_punct("}")
        node = GsnNode(node_id, kind, text, parent, defeaters, hazard, voter, fta_ref, fmea_ref)
        return node, under_tok

    def _parse_security_link(self) -> SecurityLink:
        self.expect_ident("security_link")
        self.expect_ident("under")
        goal_id = self.values[self.expect("IDENT")]
        adt_name = self.expect_kv("adt", self.expect_string)
        weight = self.expect_kv("weight", self.expect_num)
        return SecurityLink(goal_id=goal_id, adt_name=adt_name, weight=weight)

    def _parse_id_list(self) -> list[int]:
        self.expect_punct("[")
        ids = [self.expect("IDENT")]
        while self.at_punct(","):
            self.pos += 1
            ids.append(self.expect("IDENT"))
        self.expect_punct("]")
        return ids

    def _parse_fta(self) -> FaultTree:
        self.expect_ident("fta")
        name = self.expect_string()
        self.expect_punct("{")
        self.expect_ident("top")
        top_tok = self.expect("IDENT")
        gates: list[tuple[str, GateOp, tuple[str, ...]]] = []
        events: list[str] = []
        child_refs: list[int] = []
        while not self.at_punct("}"):
            if self.at_ident("gate"):
                self.pos += 1
                gate_id = self.values[self.expect("IDENT")]
                op = _MEMBERS[GateOp][self.values[self.expect_ident("AND", "OR")]]
                child_tokens = self._parse_id_list()
                child_refs.extend(child_tokens)
                gates.append((gate_id, op, tuple(self.values[t] for t in child_tokens)))
            elif self.at_ident("event"):
                self.pos += 1
                events.append(self.values[self.expect("IDENT")])
            else:
                raise self._expected("gate or event", self.pos)
        self.expect_punct("}")
        declared = {g for g, _, _ in gates} | set(events)
        top = self.values[top_tok]
        if top not in declared:
            self._record_at(f"top event {top!r} not declared", top_tok)
        for tok in child_refs:
            if self.values[tok] not in declared:
                self._record_at(f"undefined node {self.values[tok]!r}", tok)
        return FaultTree(
            name=name,
            top=top,
            gates=tuple(gates),
            basic_events=frozenset(events),
        )

    def _parse_fmea(self) -> FmeaTable:
        self.expect_ident("fmea")
        name = self.expect_string()
        self.expect_punct("{")
        rows: list[FmeaRow] = []
        while self.at_ident("row"):
            self.pos += 1
            row_id = self.values[self.expect("IDENT")]
            function = self.expect_kv("function", self.expect_string)
            mode = self._enum(FailureMode, self.expect_kv("mode"), "failure mode")
            severity = self.expect_kv("severity", self.expect_int)
            occurrence = self.expect_kv("occurrence", self.expect_int)
            detection = self.expect_kv("detection", self.expect_int)
            effect = cause = ""
            if self.at_ident("effect"):
                effect = self.expect_kv("effect", self.expect_string)
            if self.at_ident("cause"):
                cause = self.expect_kv("cause", self.expect_string)
            rows.append(
                FmeaRow(row_id, function, mode, severity, occurrence, detection, effect, cause))
        self.expect_punct("}")
        return FmeaTable(name=name, rows=tuple(rows))

    def _parse_requirement(self) -> Requirement:
        self.expect_ident("requirement")
        req_id = self.values[self.expect("IDENT")]
        kind = self._enum(RequirementKind, self.expect_kv("kind"), "requirement kind")
        trace = self.values[self.expect_kv("trace")]
        self.expect_punct("{")
        inputs: list[int] = []
        if self.at_ident("inputs"):
            inputs = self.expect_kv("inputs", self._parse_id_list)
        clauses: list[Clause] = []
        while self.at_ident("clause"):
            self.pos += 1
            body: list[Literal] = []
            if not self.at_punct("=>"):
                body.append(self._parse_literal())
                while self.at_punct("&"):
                    self.pos += 1
                    body.append(self._parse_literal())
            self.expect("ARROW")
            head = self._parse_literal()
            clauses.append(Clause(body=tuple(body), head=head))
        self.expect_punct("}")
        return Requirement(
            id=req_id,
            kind=kind,
            trace=trace,
            clauses=tuple(clauses),
            inputs=frozenset(self.values[t] for t in inputs),
        )

    def _parse_literal(self) -> Literal:
        positive = True
        if self.at_punct("!"):
            self.pos += 1
            positive = False
        return Literal(signal=self.values[self.expect("IDENT")], positive=positive)

    def _parse_adt(self) -> AttackDefenseTree:
        self.expect_ident("adt")
        name = self.expect_string()
        self.expect_punct("{")
        root = self._parse_adt_node()
        self.expect_punct("}")
        return AttackDefenseTree(name=name, root=root)

    def _parse_adt_node(self) -> AdtNode:
        """An ADT node and all under it, read by one loop over an explicit stack."""
        values, kinds, actors = self.values, self.kinds, _MEMBERS[Actor]
        branches = {"AND": Refinement.AND, "OR": Refinement.OR}
        # The open nodes, innermost last: actor, label, refinement, children,
        # counter, attributes, impact and whether it is its parent's counter.
        stack: list[list] = []
        pos, is_counter = self.pos, False
        try:
            while True:  # at a node's header
                actor = actors.get(values[pos])
                if actor is None:
                    raise self._expected("'attack' or 'defense'", pos)
                refinement = branches.get(values[pos + 1], Refinement.LEAF)
                pos += 1 if refinement is Refinement.LEAF else 2
                if kinds[pos] != "STRING":
                    raise self._expected("'STRING'", pos)
                label, node = string_value(values[pos]), None
                if values[pos + 1] == "{":
                    stack.append([actor, label, refinement, [], None, [], None, is_counter])
                    pos += 2
                else:
                    node, pos = AdtNode(actor, label, refinement), pos + 1
                while True:  # at an item or the ``}`` of the innermost open node
                    if node is not None:  # a node is complete: hand it to its parent
                        if not stack:
                            return node
                        if is_counter:
                            stack[-1][4] = node
                        else:
                            stack[-1][3].append(node)
                    tok, node = pos, None
                    value = values[tok]
                    pos += 1
                    if value == "}":
                        actor, label, refinement, children, counter, attributes, impact, \
                            is_counter = stack.pop()
                        node = AdtNode(actor, label, refinement, tuple(children), counter,
                                       tuple(attributes), impact)
                    elif value in actors:
                        pos, is_counter = tok, False
                        break
                    elif value == "counter":
                        if stack[-1][4] is not None:
                            raise _SyntaxError("at most one countermeasure per node", tok)
                        is_counter = True
                        break
                    elif value == "attr":
                        if kinds[pos] != "IDENT":
                            raise self._expected("'IDENT'", pos)
                        if values[pos + 1] != "=":
                            pos += 1
                            raise self._expected("'='", pos)
                        pos += 2
                        if kinds[pos] != "NUM":
                            raise self._expected("number", pos)
                        stack[-1][5].append((values[tok + 1], _number(values[pos], pos)))
                        pos += 1
                    elif value == "impact":
                        if values[pos] != "=":
                            raise self._expected("'='", pos)
                        if kinds[pos + 1] != "IDENT":
                            pos += 1
                            raise self._expected("'IDENT'", pos)
                        pos += 2
                        stack[-1][6] = self._enum(Impact, pos - 1, "impact level")
                    else:
                        pos = tok
                        raise self._expected("adt item", tok)
        finally:  # where parsing, or recovery from an error, goes on
            self.pos = pos

    def _parse_scenario(self) -> Scenario:
        self.expect_ident("scenario")
        name = self.expect_string()
        self.expect_punct("{")
        gsn_name = self.expect_kv("gsn", self.expect_string)
        adt_name = self.expect_kv("adt", self.expect_string)
        self.expect_ident("thresholds")
        min_belief = self.expect_kv("min_belief", self.expect_num)
        max_disbelief = self.expect_kv("max_disbelief", self.expect_num)
        max_uncertainty = self.expect_kv("max_uncertainty", self.expect_num)
        max_rounds = self.expect_kv("max_rounds", self.expect_int)
        actions: list[ScenarioAction] = []
        while not self.at_punct("}"):
            actions.append(self._parse_action())
        self.expect_punct("}")
        return Scenario(
            name=name,
            gsn_name=gsn_name,
            adt_name=adt_name,
            thresholds=Thresholds(min_belief, max_disbelief, max_uncertainty),
            max_rounds=max_rounds,
            actions=tuple(actions),
        )

    def _parse_action(self) -> ScenarioAction:
        action = self.values[self.expect_ident("set_policy", "add_counter", "set_defeaters")]
        if action == "set_policy":
            if self.at_ident("unassessed"):
                self.pos += 1
                return UNASSESSED
            attribute = self.values[self.expect_kv("attribute")]
            op_tok = self.expect_kv("op", lambda: self.expect("STRING"))
            op = string_value(self.values[op_tok])
            if op not in ("<=", ">="):
                raise _SyntaxError(f"op must be \"<=\" or \">=\", got {op!r}", op_tok)
            threshold = self.expect_kv("threshold", self.expect_num)
            prob_or = "max"
            if self.at_ident("prob_or"):
                self.pos += 1
                self.expect_punct("=")
                prob_or = self.values[self.expect_ident("max", "noisy_or")]
            return VerdictPolicy(
                attribute=attribute, op=op, threshold=threshold, prob_or=prob_or
            )
        if action == "add_counter":
            at_label = self.expect_kv("at", self.expect_string)
            node = self._parse_adt_node()
            return AddCounterAction(at_label=at_label, node=node)
        goal_id = self.values[self.expect_kv("goal")]
        outruled = self.expect_kv("outruled", self.expect_int)
        total = self.expect_kv("total", self.expect_int)
        return SetDefeatersAction(goal_id, DefeaterCount(outruled, total))


def parse(text: str) -> ParseResult:
    return Parser(text).parse()
