"""Parser for the ``.ssm`` model format.

A token is an index into the columns of texts and kinds that `lexer.scan`
gives: a list of texts and a string of one-letter kind codes, which
`KIND_NAMES` spells out for diagnostics.  Keywords and punctuation are told
by their text alone.  A block is read by descent; ADT nodes, which nest
without limit, by one loop over an explicit stack: a header opens a node,
its ``}`` closes it.  Diagnostics carry line/column of the offending token.
Only the first diagnostic runs `lexer.locate`, for the offsets of the
tokens or for a lexical error.  Parsing aborts after 20 errors.  Syntax
errors inside a block skip ahead to the next top-level block keyword so
that independent blocks still get checked.

Every ``key = value`` field of a record is spelled once, in `FIELDS` (and
in `NODE_ATTRIBUTES` for a GSN node's attributes): `Parser.fields` reads a
row of it, and the printer writes the same row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from ..adteval import UNASSESSED, VerdictPolicy
from ..model import (
    BLOCK_KEYWORDS,
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
from .lexer import KIND_NAMES, locate, position, scan, string_value

MAX_ERRORS = 20
# Each enum the parser reads, by value, and what a diagnostic calls a value
# that names no member.
_MEMBERS = {cls: {member.value: member for member in cls} for cls in (
    Actor, FailureMode, GateOp, GuideWord, Impact, NodeKind, RequirementKind)}
_WHAT = {Impact: "impact level", GuideWord: "guide word", FailureMode: "failure mode",
         RequirementKind: "requirement kind"}

# The kinds of a field's value, besides an enum, a tuple of the words it may
# be and a record of `FIELDS`, which follows its keyword without ``=``.
INT, NUM, STRING, IDENT, IDS, OP = "INT", "NUM", "STRING", "IDENT", "IDS", "OP"

# The fields of each record in the order that a file writes them and the
# record holds them, after the record's leading id (FmeaRow.id,
# SecurityLink.goal_id, Requirement.id, Scenario.name) or flag
# (VerdictPolicy.unassessed): (field, kind) and, for an optional field, its
# default, which the printer leaves out.  Requirement, Scenario and
# AddCounterAction list only their headers; their bodies are read by hand.
FIELDS = {
    DefeaterCount: (("outruled", INT), ("total", INT)),
    HazardMeta: (("impact", Impact), ("mechanism", GuideWord), ("trace", IDENT)),
    VoterMeta: (("signals", IDS), ("threshold", INT), ("trace", IDENT)),
    SecurityLink: (("adt_name", STRING), ("weight", NUM)),
    FmeaRow: (("function", STRING), ("failure_mode", FailureMode), ("severity", INT),
              ("occurrence", INT), ("detection", INT), ("effect", STRING, ""),
              ("cause", STRING, "")),
    Thresholds: (("min_belief", NUM), ("max_disbelief", NUM), ("max_uncertainty", NUM)),
    VerdictPolicy: (("attribute", IDENT), ("op", OP), ("threshold", NUM),
                    ("prob_or", ("max", "noisy_or"), "max")),
    SetDefeatersAction: (("goal_id", IDENT), ("count", DefeaterCount)),
    AddCounterAction: (("at_label", STRING),),
    Requirement: (("kind", RequirementKind), ("trace", IDENT)),
    Scenario: (("gsn_name", STRING), ("adt_name", STRING), ("thresholds", Thresholds),
               ("max_rounds", INT)),
}
# The keyword of each field that a file spells other than by its name; the
# count of a SetDefeatersAction has none, its fields follow the goal.
KEYWORDS = {"adt_name": "adt", "at_label": "at", "failure_mode": "mode", "goal_id": "goal",
            "gsn_name": "gsn", "count": None}
# A GSN node's optional attributes, each on a line of its own and in any
# order: GsnNode's fields after its parent, and their kinds.
NODE_ATTRIBUTES = {"defeaters": DefeaterCount, "hazard": HazardMeta, "voter": VoterMeta,
                   "fta_ref": STRING, "fmea_ref": STRING}
# A requirement's optional line of inputs, after its header.
INPUTS = ("inputs", IDS, ())
REQUIRED = object()  # the default of a field that a record must have


def prefix(field: str, kind) -> str:
    """What a file writes before a field's value: ``keyword = ``, or for a
    record ``keyword `` (or nothing, for a field without a keyword)."""
    keyword = KEYWORDS.get(field, field)
    return "" if keyword is None else f"{keyword} " if kind in FIELDS else f"{keyword} = "


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
        self.values, self.kinds = columns or ([""], "E")
        if columns is None:
            _, (message, offset) = locate(text)
            self._offsets = [offset]
            self._record_at(message, 0)

    # --- token utilities -------------------------------------------------

    def _got(self, tok: int) -> str:
        value, kind = self.values[tok], self.kinds[tok]
        return repr((string_value(value) if kind == "S" else value) or KIND_NAMES[kind])

    def at_ident(self, *words: str) -> bool:
        return self.values[self.pos] in words

    def at_punct(self, value: str) -> bool:
        return self.values[self.pos] == value

    def _expected(self, what: str, tok: int) -> _SyntaxError:
        return _SyntaxError(f"expected {what}, got {self._got(tok)}", tok)

    def expect(self, kind: str) -> int:
        """The token at the cursor, which must have the kind code ``kind``."""
        tok = self.pos
        if self.kinds[tok] != kind:
            raise self._expected(repr(KIND_NAMES[kind]), tok)
        self.pos = tok + 1  # a matched token is never the EOF
        return tok

    def expect_ident(self, *values: str) -> int:
        tok = self.pos
        if self.kinds[tok] != "I" or (values and self.values[tok] not in values):
            want = " or ".join(repr(v) for v in values) if values else "identifier"
            raise self._expected(want, tok)
        self.pos = tok + 1
        return tok

    def expect_string(self) -> str:
        return string_value(self.values[self.expect("S")])

    def expect_int(self) -> int:
        tok = self.pos
        text = self.values[tok]
        if self.kinds[tok] != "N" or "." in text:
            raise self._expected("'INT'", tok)
        self.pos = tok + 1
        try:
            return int(text)
        except ValueError:  # longer than ``sys.get_int_max_str_digits()``
            raise _SyntaxError(f"integer too long ({len(text)} digits)", tok)

    def expect_num(self) -> float:
        tok = self.pos
        if self.kinds[tok] != "N":
            raise self._expected("number", tok)
        self.pos = tok + 1
        return _number(self.values[tok], tok)

    def expect_punct(self, value: str) -> int:
        tok = self.pos
        if self.values[tok] != value:
            raise self._expected(repr(value), tok)
        self.pos = tok + 1
        return tok

    def _op(self) -> str:
        tok = self.expect("S")
        op = string_value(self.values[tok])
        if op not in ("<=", ">="):
            raise _SyntaxError(f"op must be \"<=\" or \">=\", got {op!r}", tok)
        return op

    def fields(self, record) -> list:
        """The values of the fields in ``record``'s row of `FIELDS` (or of
        the one field that a GSN node attribute's name or `INPUTS` names),
        read from the file in the row's order."""
        values, out = self.values, []
        for keyword, skip, read, default in _STEPS[record]:
            tok = self.pos
            if values[tok] != keyword:  # only an IDENT can equal a keyword
                if default is REQUIRED:
                    raise self._expected(repr(keyword), tok)
                out.append(default)
                continue
            if skip == 2 and values[tok + 1] != "=":
                self.pos = tok + 1
                raise self._expected("'='", tok + 1)
            self.pos = tok + skip
            out.append(read(self))
        return out

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
        while self.kinds[self.pos] != "E":
            value = self.values[self.pos]
            if value == "{":
                depth += 1
            elif value == "}":
                depth = max(0, depth - 1)
            elif value in _BLOCKS and depth == 0:
                return
            self.pos += 1

    # --- enum helpers ----------------------------------------------------

    def _enum(self, enum_cls, tok: int):
        value = self.values[tok]
        member = _MEMBERS[enum_cls].get(value)
        if member is None:
            options = ", ".join(e.value for e in enum_cls)
            raise _SyntaxError(f"unknown {_WHAT[enum_cls]} {value!r} (one of: {options})", tok)
        return member

    # --- entry point -----------------------------------------------------

    def parse(self) -> ParseResult:
        blocks: list = []
        try:
            while self.kinds[self.pos] != "E":
                tok = self.pos
                read = _BLOCKS.get(self.values[tok])
                self.pos = tok + 1
                if read is None:
                    self._record_at(f"expected block keyword ({', '.join(_BLOCKS)}), "
                                    f"got {self._got(tok)}", tok)
                    self._skip_to_next_block()
                    continue
                try:
                    blocks.append(read(self))
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
                self.pos += 1
                self.expect_ident("under")
                goal_id = self.values[self.expect("I")]
                links.append(SecurityLink(goal_id, *self.fields(SecurityLink)))
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
        node_id = self.values[self.expect("I")]
        text = self.expect_string()
        parent = None
        under_tok = None
        if self.at_ident("under"):
            self.pos += 1
            under_tok = self.expect("I")
            parent = self.values[under_tok]
        attributes = {}
        if self.at_punct("{"):
            self.pos += 1
            while not self.at_punct("}"):
                name = self.values[self.pos]
                if name not in NODE_ATTRIBUTES:
                    raise _SyntaxError(f"unknown node attribute {name!r}", self.expect("I"))
                (attributes[name],) = self.fields(name)
            self.expect_punct("}")
        return GsnNode(node_id, kind, text, parent, **attributes), under_tok

    def _parse_id_list(self) -> list[int]:
        self.expect_punct("[")
        ids = [self.expect("I")]
        while self.at_punct(","):
            self.pos += 1
            ids.append(self.expect("I"))
        self.expect_punct("]")
        return ids

    def _parse_fta(self) -> FaultTree:
        name = self.expect_string()
        self.expect_punct("{")
        self.expect_ident("top")
        top_tok = self.expect("I")
        gates: list[tuple[str, GateOp, tuple[str, ...]]] = []
        events: list[str] = []
        child_refs: list[int] = []
        while not self.at_punct("}"):
            if self.at_ident("gate"):
                self.pos += 1
                gate_id = self.values[self.expect("I")]
                op = _MEMBERS[GateOp][self.values[self.expect_ident("AND", "OR")]]
                child_tokens = self._parse_id_list()
                child_refs.extend(child_tokens)
                gates.append((gate_id, op, tuple(self.values[t] for t in child_tokens)))
            elif self.at_ident("event"):
                self.pos += 1
                events.append(self.values[self.expect("I")])
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
        name = self.expect_string()
        self.expect_punct("{")
        rows: list[FmeaRow] = []
        while self.at_ident("row"):
            self.pos += 1
            rows.append(FmeaRow(self.values[self.expect("I")], *self.fields(FmeaRow)))
        self.expect_punct("}")
        return FmeaTable(name=name, rows=tuple(rows))

    def _parse_requirement(self) -> Requirement:
        req_id = self.values[self.expect("I")]
        kind, trace = self.fields(Requirement)
        self.expect_punct("{")
        (inputs,) = self.fields(INPUTS)
        clauses: list[Clause] = []
        while self.at_ident("clause"):
            self.pos += 1
            body: list[Literal] = []
            if not self.at_punct("=>"):
                body.append(self._parse_literal())
                while self.at_punct("&"):
                    self.pos += 1
                    body.append(self._parse_literal())
            if not self.at_punct("=>"):
                raise self._expected("'ARROW'", self.pos)
            self.pos += 1
            head = self._parse_literal()
            clauses.append(Clause(body=tuple(body), head=head))
        self.expect_punct("}")
        return Requirement(req_id, kind, trace, tuple(clauses), frozenset(inputs))

    def _parse_literal(self) -> Literal:
        positive = True
        if self.at_punct("!"):
            self.pos += 1
            positive = False
        return Literal(signal=self.values[self.expect("I")], positive=positive)

    def _parse_adt(self) -> AttackDefenseTree:
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
                if kinds[pos] != "S":
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
                        if kinds[pos] != "I":
                            raise self._expected("'IDENT'", pos)
                        if values[pos + 1] != "=":
                            pos += 1
                            raise self._expected("'='", pos)
                        pos += 2
                        if kinds[pos] != "N":
                            raise self._expected("number", pos)
                        stack[-1][5].append((values[tok + 1], _number(values[pos], pos)))
                        pos += 1
                    elif value == "impact":
                        if values[pos] != "=":
                            raise self._expected("'='", pos)
                        if kinds[pos + 1] != "I":
                            pos += 1
                            raise self._expected("'IDENT'", pos)
                        pos += 2
                        stack[-1][6] = self._enum(Impact, pos - 1)
                    else:
                        pos = tok
                        raise self._expected("adt item", tok)
        finally:  # where parsing, or recovery from an error, goes on
            self.pos = pos

    def _parse_scenario(self) -> Scenario:
        name = self.expect_string()
        self.expect_punct("{")
        head = self.fields(Scenario)
        actions: list[ScenarioAction] = []
        while not self.at_punct("}"):
            actions.append(self._parse_action())
        self.expect_punct("}")
        return Scenario(name, *head, tuple(actions))

    def _parse_action(self) -> ScenarioAction:
        action = self.values[self.expect_ident("set_policy", "add_counter", "set_defeaters")]
        if action == "set_policy":
            if self.at_ident("unassessed"):
                self.pos += 1
                return UNASSESSED
            return VerdictPolicy(False, *self.fields(VerdictPolicy))
        if action == "add_counter":
            (at_label,) = self.fields(AddCounterAction)
            return AddCounterAction(at_label, self._parse_adt_node())
        return SetDefeatersAction(*self.fields(SetDefeatersAction))


# The reader of each block by its keyword, which `Parser.parse` has read.
_BLOCKS = {keyword: getattr(Parser, f"_parse_{keyword}") for keyword in BLOCK_KEYWORDS.values()}
_READERS = {INT: Parser.expect_int, NUM: Parser.expect_num, STRING: Parser.expect_string,
            IDENT: lambda p: p.values[p.expect("I")],
            IDS: lambda p: tuple(p.values[t] for t in p._parse_id_list()), OP: Parser._op}


def _reader(kind) -> Callable[[Parser], object]:
    """The function that reads a value of ``kind``, after its keyword."""
    if kind in FIELDS:
        return lambda p: kind(*p.fields(kind))
    if isinstance(kind, tuple):
        return lambda p: p.values[p.expect_ident(*kind)]
    if isinstance(kind, str):
        return _READERS[kind]
    return lambda p: p._enum(kind, p.expect("I"))


def _steps(row: tuple) -> tuple:
    """A row of fields, resolved once: each field's keyword (a record without
    one starts at its own first keyword), the count of tokens before its
    value, its reader and its default."""
    steps = []
    for field, kind, *default in row:
        words = prefix(field, kind).split()
        keyword = words[0] if words else prefix(*FIELDS[kind][0][:2]).split()[0]
        steps.append((keyword, len(words), _reader(kind), default[0] if default else REQUIRED))
    return tuple(steps)


_STEPS = {record: _steps(row) for record, row in FIELDS.items()}
_STEPS.update((name, _steps(((name, kind),))) for name, kind in NODE_ATTRIBUTES.items())
_STEPS[INPUTS] = _steps((INPUTS,))


def parse(text: str) -> ParseResult:
    return Parser(text).parse()
