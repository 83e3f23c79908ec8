"""Recursive-descent parser for the ``.ssm`` model format.

A token is an index into the columns of texts and kinds that `lexer.scan`
gives; keywords and punctuation are told by their text alone.  Diagnostics
carry line/column of the offending token.  Only the first diagnostic runs
`lexer.tokenize`, for the offsets of the tokens or for a lexical error.
Parsing aborts after 20 errors.  Syntax errors inside a block skip ahead to
the next top-level block keyword so that independent blocks still get
checked.  Every ``key = value`` pair is read by `Parser.expect_kv`.
"""

from __future__ import annotations

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
    SetPolicyAction,
    Thresholds,
    VoterMeta,
)
from .lexer import LexError, position, scan, string_value, tokenize

MAX_ERRORS = 20
BLOCK_KEYWORDS = {"gsn", "adt", "fta", "fmea", "requirement", "scenario"}


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


class Parser:
    def __init__(self, text: str):
        self.text = text
        self.diagnostics: list[Diagnostic] = []
        self.pos = 0
        self._offsets: Optional[list[int]] = None  # token offsets, for diagnostics only
        columns = scan(text)
        self.values, self.kinds = columns or ([""], ["EOF"])
        if columns is None:
            try:
                list(tokenize(text))  # raises the LexError
            except LexError as exc:
                self._offsets = [exc.offset]
                self._record_at(exc.message, 0)

    # --- token utilities -------------------------------------------------

    def _kind(self, tok: int) -> str:
        """The `Token.kind` of a token: INT and FLOAT for NUM, ARROW for ``=>``."""
        kind, value = self.kinds[tok], self.values[tok]
        if kind == "NUM":
            return "FLOAT" if "." in value else "INT"
        return "ARROW" if value == "=>" else kind

    def _got(self, tok: int) -> str:
        value, kind = self.values[tok], self.kinds[tok]
        return repr((string_value(value) if kind == "STRING" else value) or kind)

    def advance(self) -> int:
        tok = self.pos
        if self.kinds[tok] != "EOF":
            self.pos = tok + 1
        return tok

    def at_ident(self, *words: str) -> bool:
        return self.values[self.pos] in words

    def at_punct(self, value: str) -> bool:
        return self.values[self.pos] == value

    def expect(self, kind: str) -> int:
        tok = self.pos
        if self.kinds[tok] != kind and self._kind(tok) != kind:
            raise _SyntaxError(f"expected {kind!r}, got {self._got(tok)}", tok)
        return self.advance()

    def expect_ident(self, *values: str) -> int:
        tok = self.pos
        if self.kinds[tok] != "IDENT" or (values and self.values[tok] not in values):
            want = " or ".join(repr(v) for v in values) if values else "identifier"
            raise _SyntaxError(f"expected {want}, got {self._got(tok)}", tok)
        return self.advance()

    def expect_string(self) -> str:
        return string_value(self.values[self.expect("STRING")])

    def expect_int(self) -> int:
        tok = self.expect("INT")
        try:
            return int(self.values[tok])
        except ValueError:  # longer than ``sys.get_int_max_str_digits()``
            raise _SyntaxError(f"integer too long ({len(self.values[tok])} digits)", tok)

    def expect_num(self) -> float:
        if self.kinds[self.pos] != "NUM":
            raise _SyntaxError(f"expected number, got {self._got(self.pos)}", self.pos)
        return float(self.values[self.advance()])

    def expect_punct(self, value: str) -> int:
        if self.values[self.pos] != value:
            raise _SyntaxError(f"expected {value!r}, got {self._got(self.pos)}", self.pos)
        return self.advance()

    def expect_kv(self, key: str, read: Optional[Callable] = None):
        """Read ``key = value``; ``read`` reads the value (default: an IDENT token)."""
        self.expect_ident(key)
        self.expect_punct("=")
        return read() if read is not None else self.expect("IDENT")

    def _record_at(self, message: str, tok: int) -> None:
        if self._offsets is None:
            self._offsets = [t.offset for t in tokenize(self.text)]
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
        try:
            return enum_cls(value)
        except ValueError:
            options = ", ".join(e.value for e in enum_cls)
            raise _SyntaxError(f"unknown {what} {value!r} (one of: {options})", tok)

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
                    self.advance()
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
                raise _SyntaxError(
                    f"expected gsn node or security_link, got "
                    f"{self._got(self.pos)}",
                    self.pos,
                )
        self.expect_punct("}")
        known = {n.id for n in nodes}
        for node_id, tok in under_refs:
            if self.values[tok] not in known:
                self._record_at(
                    f"node {node_id!r} refers to undefined node {self.values[tok]!r}", tok
                )
        return GsnModel(name=name, nodes=tuple(nodes), security_links=tuple(links))

    def _parse_gsn_node(self) -> tuple[GsnNode, Optional[int]]:
        kind = NodeKind(self.values[self.expect_ident()])
        node_id = self.values[self.expect("IDENT")]
        text = self.expect_string()
        parent = None
        under_tok = None
        if self.at_ident("under"):
            self.advance()
            under_tok = self.expect("IDENT")
            parent = self.values[under_tok]
        defeaters = hazard = voter = fta_ref = fmea_ref = None
        if self.at_punct("{"):
            self.advance()
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
        node = GsnNode(
            id=node_id,
            kind=kind,
            text=text,
            parent=parent,
            defeaters=defeaters,
            hazard=hazard,
            voter=voter,
            fta_ref=fta_ref,
            fmea_ref=fmea_ref,
        )
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
            self.advance()
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
                self.advance()
                gate_id = self.values[self.expect("IDENT")]
                op = GateOp(self.values[self.expect_ident("AND", "OR")])
                child_tokens = self._parse_id_list()
                child_refs.extend(child_tokens)
                gates.append((gate_id, op, tuple(self.values[t] for t in child_tokens)))
            elif self.at_ident("event"):
                self.advance()
                events.append(self.values[self.expect("IDENT")])
            else:
                raise _SyntaxError(
                    f"expected gate or event, got {self._got(self.pos)}",
                    self.pos,
                )
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
            self.advance()
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
                FmeaRow(
                    id=row_id,
                    function=function,
                    failure_mode=mode,
                    severity=severity,
                    occurrence=occurrence,
                    detection=detection,
                    effect=effect,
                    cause=cause,
                )
            )
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
            self.advance()
            body: list[Literal] = []
            if not self.at_punct("=>"):
                body.append(self._parse_literal())
                while self.at_punct("&"):
                    self.advance()
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
            self.advance()
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
        actor = Actor(self.values[self.expect_ident("attack", "defense")])
        refinement = Refinement.LEAF
        if self.at_ident("AND", "OR"):
            refinement = Refinement(self.values[self.advance()])
        label = self.expect_string()
        children: list[AdtNode] = []
        counter: Optional[AdtNode] = None
        attributes: list[tuple[str, float]] = []
        impact: Optional[Impact] = None
        if self.at_punct("{"):
            self.advance()
            while not self.at_punct("}"):
                if self.at_ident("attack", "defense"):
                    children.append(self._parse_adt_node())
                elif self.at_ident("counter"):
                    tok = self.advance()
                    if counter is not None:
                        raise _SyntaxError(
                            "at most one countermeasure per node", tok
                        )
                    counter = self._parse_adt_node()
                elif self.at_ident("attr"):
                    self.advance()
                    key = self.values[self.expect("IDENT")]
                    self.expect_punct("=")
                    attributes.append((key, self.expect_num()))
                elif self.at_ident("impact"):
                    impact = self._enum(Impact, self.expect_kv("impact"), "impact level")
                else:
                    raise _SyntaxError(
                        f"expected adt item, got {self._got(self.pos)}",
                        self.pos,
                    )
            self.expect_punct("}")
        return AdtNode(
            actor=actor,
            label=label,
            refinement=refinement,
            children=tuple(children),
            counter=counter,
            attributes=tuple(attributes),
            impact=impact,
        )

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
                self.advance()
                return SetPolicyAction(UNASSESSED)
            attribute = self.values[self.expect_kv("attribute")]
            op_tok = self.expect_kv("op", lambda: self.expect("STRING"))
            op = string_value(self.values[op_tok])
            if op not in ("<=", ">="):
                raise _SyntaxError(f"op must be \"<=\" or \">=\", got {op!r}", op_tok)
            threshold = self.expect_kv("threshold", self.expect_num)
            prob_or = "max"
            if self.at_ident("prob_or"):
                self.advance()
                self.expect_punct("=")
                prob_or = self.values[self.expect_ident("max", "noisy_or")]
            policy = VerdictPolicy(
                attribute=attribute, op=op, threshold=threshold, prob_or=prob_or
            )
            return SetPolicyAction(policy)
        if action == "add_counter":
            at_label = self.expect_kv("at", self.expect_string)
            node = self._parse_adt_node()
            return AddCounterAction(at_label=at_label, node=node)
        goal_id = self.values[self.expect_kv("goal")]
        outruled = self.expect_kv("outruled", self.expect_int)
        total = self.expect_kv("total", self.expect_int)
        return SetDefeatersAction(goal_id=goal_id, outruled=outruled, total=total)


def parse(text: str) -> ParseResult:
    return Parser(text).parse()
