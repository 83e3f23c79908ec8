"""Parser for the ``.ssm`` model format, by two paths.

`parse` first tries the fast path, `fast_parse`: one regex match per
record (a block's header, a GSN node with its attribute lines, a security
link, a gate, an event, an FMEA row, a clause, an ADT node header,
``attr``, ``impact``, a ``}``, a scenario's action), laid out as the
printer writes them, where any run of blanks may stand for a blank, with
``#`` comment lines between records.  The patterns are built from
`FIELDS`, `KEYWORDS` and `NODE_ATTRIBUTES`, and the values go through the
token parser's converters.  On anything else (a comment inside a record,
an identifier that starts with a non-ASCII letter, any lexical or syntax
error, a reference that the token parser refuses, a converter's error) it
gives up, and the token parser, `Parser`, reads on from the start of that
block: it carries nothing from one block to the next but its diagnostics,
and the fast path reads only lexically valid text that passes its checks.
Only the token parser reports, so each diagnostic keeps its text and
position; and it is the oracle that the tests hold the fast path to.  Which
path reads a block depends on the text alone.

A token is an index into the columns that `lexer.tokenize` gives in one
pass: texts, one-letter kind codes, which `KIND_NAMES` spells out for
diagnostics, and offsets.  Keywords and punctuation are told by their text
alone.  A block is read by descent; ADT nodes, which nest without limit, by
one loop over an explicit stack: a header opens a node, its ``}`` closes it.
Diagnostics carry line/column of the offending token; a lexical error is
the only one.  Parsing aborts after 20 errors.  Syntax errors inside a block
skip ahead to the next top-level block keyword so that independent blocks
still get checked.

Every ``key = value`` field of a record is spelled once, in `FIELDS` (and
in `NODE_ATTRIBUTES` for a GSN node's attributes): `Parser.fields` reads a
row of it, `_fast_record` makes its pattern, and the printer writes it.
"""

from __future__ import annotations

import math
import re
from functools import cache
from itertools import accumulate
from typing import Callable, Iterable, Optional

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
    Record,
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
from .lexer import BODY, KIND_NAMES, position, string_value, tokenize

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
_BRANCHES = {"AND": Refinement.AND, "OR": Refinement.OR}


def prefix(field: str, kind) -> str:
    """What a file writes before a field's value: ``keyword = ``, or for a
    record ``keyword `` (or nothing, for a field without a keyword)."""
    keyword = KEYWORDS.get(field, field)
    return "" if keyword is None else f"{keyword} " if kind in FIELDS else f"{keyword} = "


class ParseResult(Record):
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
    def __init__(self, text: str, start: int = 0):
        self.text = text
        self.diagnostics: list[Diagnostic] = []
        self.pos = 0
        self.values, self.kinds, self.offsets, error = tokenize(text, start)
        if error is not None:  # no tokens: only the EOF, at the error
            message, offset = error
            self.values, self.kinds, self.offsets = [""], "E", [offset]
            self._record_at(message, 0)

    # --- token utilities -------------------------------------------------

    def _got(self, tok: int) -> str:
        value, kind = self.values[tok], self.kinds[tok]
        return repr((string_value(value) if kind == "S" else value) or KIND_NAMES[kind])

    def at(self, *words: str) -> bool:
        return self.values[self.pos] in words

    def accept(self, *words: str) -> bool:
        """Whether the token at the cursor is one of ``words``, which it then passes."""
        if self.values[self.pos] not in words:
            return False
        self.pos += 1
        return True

    def _expected(self, what: str, tok: int) -> _SyntaxError:
        return _SyntaxError(f"expected {what}, got {self._got(tok)}", tok)

    def expect(self, kind: str) -> int:
        """The token at the cursor, which must have the kind code ``kind``."""
        tok = self.pos
        if self.kinds[tok] != kind:
            raise self._expected(repr(KIND_NAMES[kind]), tok)
        self.pos = tok + 1  # a matched token is never the EOF
        return tok

    def expect_word(self, *words: str) -> int:
        """The token at the cursor, whose text must be one of ``words``."""
        tok = self.pos
        if self.values[tok] not in words:
            raise self._expected(" or ".join(map(repr, words)), tok)
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
        line, column = position(self.text, self.offsets[tok])
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

    def parse(self, blocks: tuple = ()) -> ParseResult:
        """The document of ``blocks`` and those that follow them, or the diagnostics."""
        blocks = list(blocks)
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
        self.expect_word("{")
        nodes: list[GsnNode] = []
        links: list[SecurityLink] = []
        under_refs: list[tuple[str, int]] = []
        while not self.at("}"):
            if self.at("goal", "strategy", "solution", "context"):
                node, under_tok = self._parse_gsn_node()
                nodes.append(node)
                if under_tok is not None:
                    under_refs.append((node.id, under_tok))
            elif self.accept("security_link"):
                self.expect_word("under")
                goal_id = self.values[self.expect("I")]
                links.append(SecurityLink(goal_id, *self.fields(SecurityLink)))
            else:
                raise self._expected("gsn node or security_link", self.pos)
        self.expect_word("}")
        known = {n.id for n in nodes}
        for node_id, tok in under_refs:
            if self.values[tok] not in known:
                self._record_at(
                    f"node {node_id!r} refers to undefined node {self.values[tok]!r}", tok
                )
        return GsnModel(name=name, nodes=tuple(nodes), security_links=tuple(links))

    def _parse_gsn_node(self) -> tuple[GsnNode, Optional[int]]:
        kind = _MEMBERS[NodeKind][self.values[self.expect("I")]]
        node_id = self.values[self.expect("I")]
        text = self.expect_string()
        parent = None
        under_tok = None
        if self.accept("under"):
            under_tok = self.expect("I")
            parent = self.values[under_tok]
        attributes = {}
        if self.accept("{"):
            while not self.at("}"):
                name = self.values[self.pos]
                if name not in NODE_ATTRIBUTES:
                    raise _SyntaxError(f"unknown node attribute {name!r}", self.expect("I"))
                (attributes[name],) = self.fields(name)
            self.expect_word("}")
        return GsnNode(node_id, kind, text, parent, **attributes), under_tok

    def _parse_id_list(self) -> list[int]:
        self.expect_word("[")
        ids = [self.expect("I")]
        while self.accept(","):
            ids.append(self.expect("I"))
        self.expect_word("]")
        return ids

    def _parse_fta(self) -> FaultTree:
        name = self.expect_string()
        self.expect_word("{")
        self.expect_word("top")
        top_tok = self.expect("I")
        gates: list[tuple[str, GateOp, tuple[str, ...]]] = []
        events: list[str] = []
        child_refs: list[int] = []
        while not self.at("}"):
            if self.accept("gate"):
                gate_id = self.values[self.expect("I")]
                op = _MEMBERS[GateOp][self.values[self.expect_word("AND", "OR")]]
                child_tokens = self._parse_id_list()
                child_refs.extend(child_tokens)
                gates.append((gate_id, op, tuple(self.values[t] for t in child_tokens)))
            elif self.accept("event"):
                events.append(self.values[self.expect("I")])
            else:
                raise self._expected("gate or event", self.pos)
        self.expect_word("}")
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
        self.expect_word("{")
        rows: list[FmeaRow] = []
        while self.accept("row"):
            rows.append(FmeaRow(self.values[self.expect("I")], *self.fields(FmeaRow)))
        self.expect_word("}")
        return FmeaTable(name=name, rows=tuple(rows))

    def _parse_requirement(self) -> Requirement:
        req_id = self.values[self.expect("I")]
        kind, trace = self.fields(Requirement)
        self.expect_word("{")
        (inputs,) = self.fields(INPUTS)
        clauses: list[Clause] = []
        while self.accept("clause"):
            body: list[Literal] = []
            if not self.at("=>"):
                body.append(self._parse_literal())
                while self.accept("&"):
                    body.append(self._parse_literal())
            if not self.accept("=>"):
                raise self._expected("'ARROW'", self.pos)
            head = self._parse_literal()
            clauses.append(Clause(body=tuple(body), head=head))
        self.expect_word("}")
        return Requirement(req_id, kind, trace, tuple(clauses), frozenset(inputs))

    def _parse_literal(self) -> Literal:
        positive = not self.accept("!")
        return Literal(signal=self.values[self.expect("I")], positive=positive)

    def _parse_adt(self) -> AttackDefenseTree:
        name = self.expect_string()
        self.expect_word("{")
        root = self._parse_adt_node()
        self.expect_word("}")
        return AttackDefenseTree(name=name, root=root)

    def _parse_adt_node(self) -> AdtNode:
        """An ADT node and all under it, read by one loop over an explicit stack."""
        # The open nodes, innermost last: actor, label, refinement, children,
        # counter, attributes, impact and whether it is its parent's counter.
        stack: list[list] = []
        is_counter = False
        while True:  # at a node's header
            actor = _MEMBERS[Actor].get(self.values[self.pos])
            if actor is None:
                raise self._expected("'attack' or 'defense'", self.pos)
            refinement = _BRANCHES.get(self.values[self.pos + 1], Refinement.LEAF)
            self.pos += 1 if refinement is Refinement.LEAF else 2
            entry = [actor, self.expect_string(), refinement, [], None, [], None, is_counter]
            if self.accept("{"):
                stack.append(entry)
                entry = None
            while True:  # at an item or the ``}`` of the innermost open node
                if entry is not None:  # a node is complete: hand it to its parent
                    *head, children, counter, attributes, impact, is_counter = entry
                    node = AdtNode(*head, tuple(children), counter, tuple(attributes), impact)
                    if not stack:
                        return node
                    if is_counter:
                        stack[-1][4] = node
                    else:
                        stack[-1][3].append(node)
                tok, entry = self.pos, None
                value = self.values[tok]
                self.pos = tok + 1
                if value == "}":
                    entry = stack.pop()
                elif value == "counter":
                    if stack[-1][4] is not None:
                        raise _SyntaxError("at most one countermeasure per node", tok)
                    is_counter = True
                    break
                elif value == "attr":
                    key = self.values[self.expect("I")]
                    self.expect_word("=")
                    stack[-1][5].append((key, self.expect_num()))
                elif value == "impact":
                    self.expect_word("=")
                    stack[-1][6] = self._enum(Impact, self.expect("I"))
                else:
                    self.pos = tok
                    if value not in _MEMBERS[Actor]:
                        raise self._expected("adt item", tok)
                    is_counter = False
                    break

    def _parse_scenario(self) -> Scenario:
        name = self.expect_string()
        self.expect_word("{")
        head = self.fields(Scenario)
        actions: list[ScenarioAction] = []
        while not self.at("}"):
            actions.append(self._parse_action())
        self.expect_word("}")
        return Scenario(name, *head, tuple(actions))

    def _parse_action(self) -> ScenarioAction:
        action = self.values[self.expect_word("set_policy", "add_counter", "set_defeaters")]
        if action == "set_policy":
            if self.accept("unassessed"):
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
        return lambda p: p.values[p.expect_word(*kind)]
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


# --- the fast path: one regex match per record ------------------------------

_G, _W = r"[ \t\r\n]*", r"[ \t\r\n]+"  # the blanks inside a record; _W between two words
_NAME = r"[A-Za-z_]\w*"  # an IDENT; one that starts with a non-ASCII letter gives up
_VALUES = {INT: r"(\d+)", NUM: r"(\d+(?:\.\d+)?)", STRING: f'("{BODY}")', IDENT: f"({_NAME})",
           OP: r'"([<>]=)"', IDS: rf"\[{_G}({_NAME}(?:{_G},{_G}{_NAME})*){_G}\]"}
_CONVERT = {INT: int, NUM: lambda v: _number(v, 0), STRING: string_value, IDENT: str, OP: str,
            IDS: lambda v: tuple(map(str.strip, v.split(",")))}  # their errors make it give up
_literal = cache(lambda: re.compile(rf"(!?){_G}({_NAME})"))  # a literal of a clause's body


def _fast_record(*items, build: Callable = lambda *values: values) -> tuple[str, int, Callable]:
    """A record of ``items``, each a pattern with no group (a keyword, or
    ``\\{``) or a field as in `FIELDS`, where a field named None is a bare
    value: its pattern, its count of groups, and the function from its
    groups to ``build`` of the fields' values."""
    pattern, count, parts, last = "", 0, [], None
    for item in items:
        gap = "" if last is None else _G if r"\{" in (item, last) else _W  # a blank between words
        last = item
        if isinstance(item, str):
            pattern += gap + item
            continue
        field, kind, *default = item
        start = prefix(field, kind) if field else ""
        start = start.replace(" = ", f"{_G}={_G}") if "=" in start else start.replace(" ", _W)
        if kind in FIELDS:
            part, n, read = _FLAT_RECORDS[kind]
        else:
            part, n = _VALUES.get(kind, r"(\w+)"), 1
            read = (_CONVERT[kind] if isinstance(kind, str) else _MEMBERS[kind].__getitem__
                    if kind in _MEMBERS else lambda v, kind=kind: kind[kind.index(v)])
        if default:  # the group of a field left out is None
            read = lambda v, read=read, default=default[0]: default if v is None else read(v)
        parts.append((count if n == 1 else slice(count, count + n), read))
        part = gap + start + part
        pattern, count = pattern + (f"(?:{part})?" if default else part), count + n
    return pattern, count, lambda groups: build(*[read(groups[at]) for at, read in parts])


# Each record whose fields hold no record, read as a field of another.
_FLAT_RECORDS = {record: _fast_record(*row, build=record) for record, row in FIELDS.items()
                 if not any(kind in FIELDS for _, kind, *_ in row)}


def _records(**alternatives) -> tuple[re.Pattern, dict[int, tuple]]:
    """The records of one context as one pattern: blanks, then the first of
    ``alternatives`` (as `_fast_record` gives them) that matches, a run of
    ``#`` comment lines, or else any one character, on which the fast path
    gives up.  Each alternative ends in an empty group named for it, which
    `Match.lastindex` gives; that maps to the alternative's name, its slice
    of `Match.groups` and its reader."""
    alternatives["note"] = (r"#[^\n]*(?:\n[ \t\r\n]*#[^\n]*)*", 0, None)
    pattern = re.compile(_G + "(?:" + "|".join(f"{alternative}(?P<{name}>)" for name, (
        alternative, *_) in alternatives.items()) + "|(?s:.))")
    marks = [0, *map(pattern.groupindex.get, alternatives)]
    return pattern, {b: (name, slice(a, b - 1), read) for (name, (*_, read)), a, b
                     in zip(alternatives.items(), marks, marks[1:])}


_adt = cache(lambda: _records(  # the records inside an ADT node, when a file first has one
    attr=(rf"attr{_W}({_NAME}){_G}={_G}{_VALUES[NUM]}", 2, None), end=(r"\}", 0, None),
    node=(rf"(counter{_W})?(attack|defense)(?:{_W}(AND|OR))?{_G}{_VALUES[STRING]}({_G}\{{)?",
          5, None), impact=(rf"impact{_G}={_G}(\w+)", 1, None)))


def _fast_adt_node(text: str, pos: int) -> tuple[AdtNode, int]:
    """The ADT node at ``pos`` with all under it, and where it ends."""
    stack: list[list] = []  # the open nodes, as in `Parser._parse_adt_node`
    pattern, records = _adt()
    k_attr, k_end, k_node, k_impact, k_note = records
    for m in pattern.finditer(text, pos):
        k = m.lastindex
        if k == k_attr:
            stack[-1][5].append((m[1], _number(m[2], 0)))
            continue
        if k == k_node:
            counter, actor, branch, label, opens = m.groups()[records[k][1]]
            entry = [_MEMBERS[Actor][actor], string_value(label),
                     _BRANCHES.get(branch, Refinement.LEAF), [], None, [], None, counter]
            if opens:
                stack.append(entry)
                continue
        elif k == k_end:
            entry = stack.pop()
        elif k == k_impact:
            stack[-1][6] = _MEMBERS[Impact][m[k_impact - 1]]
            continue
        elif k == k_note:
            continue
        else:
            break
        actor, label, branch, children, counter_node, attributes, impact, counter = entry
        node = AdtNode(actor, label, branch, tuple(children), counter_node, tuple(attributes),
                       impact)
        if not stack:  # the node at ``pos`` is complete
            if counter is None:
                return node, m.end()
            break
        if counter is None:
            stack[-1][3].append(node)
        elif stack[-1][4] is None:
            stack[-1][4] = node
        else:
            break
    raise ValueError("not read by the fast path")


# A GSN node's attribute lines, in any order, are part of its record: the
# groups of each attribute hold the values of its last line.  A record
# attribute is read as the record.
_ATTRIBUTES = [(pattern, n, _FLAT_RECORDS[kind][2] if kind in FIELDS else read) for kind, (
    pattern, n, read) in ((kind, _fast_record((name, kind), build=lambda value: value))
                          for name, kind in NODE_ATTRIBUTES.items())]
_STARTS = list(accumulate([5] + [n for _, n, _ in _ATTRIBUTES]))  # of each one's groups


def _fast_node(groups: tuple) -> GsnNode:
    kind, node_id, label, parent, block = groups[:5]
    return GsnNode(node_id, _MEMBERS[NodeKind][kind], string_value(label), parent, *[
        None if groups[at] is None else read(groups[at:at + n])
        for at, (_, n, read) in zip(_STARTS, _ATTRIBUTES)] if block else ())


def _fast_clause(groups: tuple) -> Clause:
    body, negated, head = groups
    return Clause(tuple(Literal(signal, not sign) for sign, signal in _literal().findall(body or "")),
                  Literal(head, not negated))


def _values(records: list, name: str) -> tuple:
    """The values of a block's records named ``name``, in order."""
    return tuple(value for record, value in records if record == name)


def _checked(block, references: Iterable[str], known: set):
    """``block``, if each of ``references`` is ``known``, as the token parser checks."""
    if not known.issuperset(references):
        raise ValueError("an undefined reference")
    return block


def _fast_gsn(head: tuple, records: list) -> GsnModel:
    nodes = _values(records, "node")
    return _checked(GsnModel(*head, nodes, _values(records, "link")),
                    (node.parent for node in nodes if node.parent is not None),
                    {node.id for node in nodes})


def _fast_fta(head: tuple, records: list) -> FaultTree:
    gates, events = _values(records, "gate"), frozenset(_values(records, "event"))
    return _checked(FaultTree(*head, gates, events),
                    (head[1], *(child for *_, children in gates for child in children)),
                    events.union(gate for gate, _, _ in gates))


def _fast_adt(head: tuple, records: list) -> AttackDefenseTree:
    ((_, root),) = records  # its one root node
    return AttackDefenseTree(*head, root)


_STRING, _IDENT = (None, STRING), (None, IDENT)  # a bare name
# Each block kind by its keyword: its header record, its body's records,
# and the function from the header's values and the body's records, as
# (name, value) pairs, to the block.
_FAST_BLOCKS = {
    "gsn": (_fast_record("gsn", _STRING, r"\{"), dict(
        node=(rf"(goal|strategy|solution|context){_W}({_NAME}){_G}{_VALUES[STRING]}"
              rf"(?:{_G}under{_W}({_NAME}))?(?:{_G}(\{{)(?:{_G}\b(?:"
              + "|".join(pattern for pattern, _, _ in _ATTRIBUTES) + rf"))*{_G}\}})?", _STARTS[-1],
              _fast_node),
        link=_fast_record("security_link", "under", _IDENT, *FIELDS[SecurityLink],
                          build=SecurityLink)),
        _fast_gsn),
    "adt": (_fast_record("adt", _STRING, r"\{"), dict(root=(r"(?=attack\b|defense\b)", 0, None)),
            _fast_adt),
    "fta": (_fast_record("fta", _STRING, r"\{", "top", _IDENT), dict(
        gate=_fast_record("gate", _IDENT, (None, GateOp), (None, IDS)),
        event=_fast_record("event", _IDENT, build=lambda event: event)), _fast_fta),
    "fmea": (_fast_record("fmea", _STRING, r"\{"), dict(
        row=_fast_record("row", _IDENT, *FIELDS[FmeaRow], build=FmeaRow)),
        lambda head, records: FmeaTable(*head, _values(records, "row"))),
    "requirement": (_fast_record("requirement", _IDENT, *FIELDS[Requirement], r"\{", INPUTS), dict(
        clause=(rf"clause\b{_G}(?:((?:!{_G})?{_NAME}(?:{_G}&{_G}(?:!{_G})?{_NAME})*){_G})?=>{_G}"
                rf"(!?){_G}({_NAME})", 3, _fast_clause)),
        lambda head, records: Requirement(*head[:3], _values(records, "clause"),
                                          frozenset(head[3]))),
    "scenario": (_fast_record("scenario", _STRING, r"\{", *FIELDS[Scenario]), dict(
        unassessed=_fast_record("set_policy", r"unassessed\b", build=lambda: UNASSESSED),
        policy=_fast_record("set_policy", *FIELDS[VerdictPolicy],
                            build=lambda *values: VerdictPolicy(False, *values)),
        add_counter=_fast_record("add_counter", *FIELDS[AddCounterAction]),
        set_defeaters=_fast_record("set_defeaters", *FIELDS[SetDefeatersAction],
                                   build=SetDefeatersAction)),
        lambda head, records: Scenario(*head, tuple(value for _, value in records))),
}
_BLOCK, _BLOCK_RECORDS = _records(end=(r"\Z", 0, None), **{
    keyword: header for keyword, (header, _, _) in _FAST_BLOCKS.items()})


@cache
def _body(keyword: str) -> tuple[re.Pattern, dict[int, tuple]]:
    """The records of a block's body, compiled when a file first has one."""
    return _records(end=(r"\}", 0, None), **_FAST_BLOCKS[keyword][1])


def _fast_body(text: str, pos: int, keyword: str) -> tuple[list, int]:
    """The records of a block's body from ``pos`` to the ``}`` that closes
    it, as (name, value) pairs, and where the block ends."""
    pattern, alternatives = _body(keyword)
    records: list = []
    while True:  # again after each ADT node
        for m in pattern.finditer(text, pos):
            name, groups, read = alternatives[m.lastindex]  # a KeyError on the catch-all
            if name == "end":
                return records, m.end()
            if read is not None:
                records.append((name, read(m.groups()[groups])))
            if name in ("root", "add_counter"):
                node, pos = _fast_adt_node(text, m.end())
                records.append((name, node) if read is None else (
                    name, AddCounterAction(*records.pop()[1], node)))
                break
        else:
            raise ValueError("not read by the fast path")


def _fast_blocks(text: str) -> tuple[list, Optional[int]]:
    """The blocks that the fast path reads, one record per regex match, and
    None; or, where it gives up, those before that block and where it starts."""
    blocks, pos = [], 0
    try:
        while True:
            m = _BLOCK.match(text, pos)  # never None: at the end, ``\Z`` matches
            keyword, groups, read = _BLOCK_RECORDS[m.lastindex]  # a KeyError on the catch-all
            if keyword == "end":
                return blocks, None
            end = m.end()
            if read is not None:  # else comments
                head = read(m.groups()[groups])
                records, end = _fast_body(text, end, keyword)
                blocks.append(_FAST_BLOCKS[keyword][2](head, records))
            pos = end
    except (LookupError, ValueError, _SyntaxError):  # a give-up, or a converter's error
        return blocks, pos


def fast_parse(text: str) -> Optional[Document]:
    """``text``'s document as the fast path alone reads it, or None where it
    gives up.  Tests call it to see which path a text takes."""
    blocks, start = _fast_blocks(text)
    return Document(tuple(blocks)) if start is None else None


def parse(text: str) -> ParseResult:
    blocks, start = _fast_blocks(text)
    if start is None:
        return ParseResult(Document(tuple(blocks)), [])
    return Parser(text, start).parse(blocks)
