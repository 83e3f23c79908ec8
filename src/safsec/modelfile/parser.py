"""Parser for the ``.ssm`` model format, by two paths that read one grammar.

`GRAMMAR` is the one statement of each block kind: its header row, its
body's records and how the block is built from them.  A row is a run of
words and of ``key = value`` fields, each spelled once, in `FIELDS` (and in
`NODE_ATTRIBUTES` for a GSN node's attributes): `Parser.fields` reads a row
token by token, `_fast_record` makes its pattern, and the printer writes
its fields.  Only the records that nest or repeat, the GSN node with its
attribute lines, the clause and the ADT node, keep a reader per path.

`parse` first tries the fast path, `fast_parse`: one regex match per
record, laid out as the printer writes them, where any run of blanks may
stand for a blank, with ``#`` comment lines between records.  The values go
through the token parser's converters.  On anything else (a comment inside
a record, an identifier that starts with a non-ASCII letter, any lexical or
syntax error, a reference that the token parser refuses, a converter's
error) it gives up, and the token parser, `Parser`, reads on from the start
of that block: it carries nothing from one block to the next but its
diagnostics, and the fast path reads only lexically valid text that passes
its checks.  Only the token parser reports, so each diagnostic keeps its
text and position; and it is the oracle that the tests hold the fast path
to.  Which path reads a block depends on the text alone.

A token is an index into the columns that `lexer.tokenize` gives in one
pass: texts, one-letter kind codes, which `KIND_NAMES` spells out for
diagnostics, and offsets.  Keywords and punctuation are told by their text
alone.  A block is read by descent; ADT nodes, which nest without limit, by
one loop over an explicit stack: a header opens a node, its ``}`` closes it.
Diagnostics carry line/column of the offending token; a lexical error is
the only one.  Parsing aborts after 20 errors.  Syntax errors inside a block
skip ahead to the next top-level block keyword so that independent blocks
still get checked.
"""

from __future__ import annotations

import math
import re
from functools import cache, partial
from itertools import accumulate, takewhile
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
    Record,
    Refinement,
    Requirement,
    RequirementKind,
    Scenario,
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
# be and a record of `FIELDS`, which follows its keyword without ``=``.  A
# REF is an IDENT and REFS are IDS that the block must declare; a NODE, an
# ADT node with all under it, ends its row.
INT, NUM, STRING, IDENT, IDS, OP = "INT", "NUM", "STRING", "IDENT", "IDS", "OP"
REF, REFS, NODE = "REF", "REFS", "NODE"

# The fields of each record in the order that a file writes them and the
# record holds them, after the record's leading id (FmeaRow.id,
# SecurityLink.goal_id, Requirement.id, Scenario.name) or flag
# (VerdictPolicy.unassessed): (field, kind) and, for an optional field, its
# default, which the printer leaves out.  Requirement, Scenario and
# AddCounterAction list only their headers; `GRAMMAR` states their bodies.
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
_STRING, _IDENT, _NODE = (None, STRING), (None, IDENT), (None, NODE)  # bare values
_BRANCHES = {"AND": Refinement.AND, "OR": Refinement.OR}


def prefix(field: Optional[str], kind) -> str:
    """What a file writes before a field's value: ``keyword = ``, or for a
    record ``keyword `` (or nothing, for a field without a keyword or a bare
    value, whose field is None)."""
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

    def _ref(self, tok: int, message: str, of: str = "") -> str:
        """The name at ``tok``, which the block must declare, else a
        diagnostic says ``message`` of it (and of ``of``) once the block is read."""
        self.refs.append((tok, message, of))
        return self.values[tok]

    def fields(self, steps: tuple) -> list:
        """The values of a row that `_steps` resolved, read token by token:
        its words, which give no value, its bare values and its fields."""
        values, out = self.values, []
        for keyword, skip, read, default in steps:
            if keyword is not None:
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
                if read is None:  # a word
                    continue
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
            elif value in GRAMMAR and depth == 0 and self.values[self.pos + 1] != "=":
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
                keyword = self.values[tok]
                self.pos = tok + 1
                if keyword not in GRAMMAR:
                    self._record_at(f"expected block keyword ({', '.join(GRAMMAR)}), "
                                    f"got {self._got(tok)}", tok)
                    self._skip_to_next_block()
                    continue
                try:
                    blocks.append(self._block(keyword))
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

    def _block(self, keyword: str):
        """The block after ``keyword``, as its row of `GRAMMAR` reads it: each
        record by its first word, or by its further leading words among those
        that share it, else the last of those."""
        steps, choices, build, what = _TOKEN[keyword]
        values, records, self.refs = self.values, [], []
        head = self.fields(steps)
        while (word := values[self.pos]) != "}":
            choice = choices.get(word)
            if choice is None:
                raise self._expected(what, self.pos)
            for words, name, read in choice:
                if not words or values[self.pos + 1:self.pos + 1 + len(words)] == words:
                    break
            records.append((name, read(self)))
        self.pos += 1
        block = build(head, records)
        if self.refs:
            declared = _DECLARED[keyword][0](block)
            for tok, message, of in self.refs:
                if values[tok] not in declared:
                    self._record_at(message.format(values[tok], of), tok)
        return block

    def _parse_gsn_node(self) -> GsnNode:
        kind = _MEMBERS[NodeKind][self.values[self.pos]]
        self.pos += 1
        node_id = self.values[self.expect("I")]
        text = self.expect_string()
        parent = None
        if self.accept("under"):
            parent = self._ref(self.expect("I"), "node {1!r} refers to undefined node {0!r}",
                               node_id)
        attributes = {}
        if self.accept("{"):
            while not self.at("}"):
                name = self.values[self.pos]
                if name not in NODE_ATTRIBUTES:
                    raise _SyntaxError(f"unknown node attribute {name!r}", self.expect("I"))
                (attributes[name],) = self.fields(_STEPS[name])
            self.expect_word("}")
        return GsnNode(node_id, kind, text, parent, **attributes)

    def _parse_id_list(self) -> list[int]:
        self.expect_word("[")
        ids = [self.expect("I")]
        while self.accept(","):
            ids.append(self.expect("I"))
        self.expect_word("]")
        return ids

    def _parse_clause(self) -> Clause:
        self.pos += 1  # its ``clause``
        body: list[Literal] = []
        if not self.at("=>"):
            body.append(self._parse_literal())
            while self.accept("&"):
                body.append(self._parse_literal())
        if not self.accept("=>"):
            raise self._expected("'ARROW'", self.pos)
        return Clause(body=tuple(body), head=self._parse_literal())

    def _parse_literal(self) -> Literal:
        positive = not self.accept("!")
        return Literal(signal=self.values[self.expect("I")], positive=positive)

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


_READERS = {INT: Parser.expect_int, NUM: Parser.expect_num, STRING: Parser.expect_string,
            IDENT: lambda p: p.values[p.expect("I")],
            IDS: lambda p: tuple(p.values[t] for t in p._parse_id_list()), OP: Parser._op,
            REF: lambda p: p._ref(p.expect("I"), "top event {!r} not declared"),
            REFS: lambda p: tuple(p._ref(t, "undefined node {!r}") for t in p._parse_id_list()),
            NODE: Parser._parse_adt_node}


def _reader(kind) -> Callable[[Parser], object]:
    """The function that reads a value of ``kind``, after its keyword."""
    if kind in FIELDS:
        return lambda p, steps=_steps(FIELDS[kind]): kind(*p.fields(steps))
    if isinstance(kind, tuple):
        return lambda p: p.values[p.expect_word(*kind)]
    if isinstance(kind, str):
        return _READERS[kind]
    return lambda p: p._enum(kind, p.expect("I"))


def _steps(row: tuple) -> tuple:
    """A row of words and fields, resolved once: each item's keyword (a
    word's own text; None for a bare value; a record without one starts at
    its own first keyword), the count of tokens before its value, its reader
    (None for a word) and its default."""
    steps = []
    for item in row:
        if isinstance(item, str):
            steps.append((item, 1, None, REQUIRED))
            continue
        field, kind, *default = item
        words = prefix(field, kind).split()
        keyword = (words[0] if words else None if field is None
                   else prefix(*FIELDS[kind][0][:2]).split()[0])
        steps.append((keyword, len(words), _reader(kind), default[0] if default else REQUIRED))
    return tuple(steps)


# The step of each GSN node attribute, which `Parser._parse_gsn_node` reads.
_STEPS = {name: _steps(((name, kind),)) for name, kind in NODE_ATTRIBUTES.items()}


# --- the fast path: one regex match per record ------------------------------

_G, _W = r"[ \t\r\n]*", r"[ \t\r\n]+"  # the blanks inside a record; _W between two words
_NAME = r"[A-Za-z_]\w*"  # an IDENT; one that starts with a non-ASCII letter gives up
_VALUES = {INT: r"(\d+)", NUM: r"(\d+(?:\.\d+)?)", STRING: f'("{BODY}")', IDENT: f"({_NAME})",
           OP: r'"([<>]=)"', IDS: rf"\[{_G}({_NAME}(?:{_G},{_G}{_NAME})*){_G}\]"}
_CONVERT = {INT: int, NUM: lambda v: _number(v, 0), STRING: string_value, IDENT: str, OP: str,
            IDS: lambda v: tuple(map(str.strip, v.split(",")))}  # their errors make it give up
_NAMES = {REF: IDENT, REFS: IDS}  # a reference reads as a name; the block is checked after
_literal = cache(lambda: re.compile(rf"(!?){_G}({_NAME})"))  # a literal of a clause's body


def _fast_record(*items, build: Callable = lambda *values: values) -> tuple:
    """A row of ``items``, each a word or a field as in `FIELDS`, where a
    field named None is a bare value: its pattern, its count of groups, the
    function from its groups to ``build`` of the fields' values, and whether
    it ends in a NODE, which the pattern leaves out: then the function gives
    ``build`` of the values that awaits the node."""
    pattern, count, parts, last, nests = "", 0, [], None, False
    for item in items:
        if item == _NODE:
            nests = True
            continue
        gap = "" if last is None else _G if "{" in (item, last) else _W  # a blank between words
        last = item
        if isinstance(item, str):
            pattern += gap + re.escape(item)
            continue
        field, kind, *default = item
        kind = _NAMES.get(kind, kind)
        start = prefix(field, kind)
        start = start.replace(" = ", f"{_G}={_G}") if "=" in start else start.replace(" ", _W)
        if kind in FIELDS:
            part, n, read, _ = _FLAT_RECORDS[kind]
        else:
            part, n = _VALUES.get(kind, r"(\w+)"), 1
            read = (_CONVERT[kind] if isinstance(kind, str) else _MEMBERS[kind].__getitem__
                    if kind in _MEMBERS else lambda v, kind=kind: kind[kind.index(v)])
        if default:  # the group of a field left out is None
            read = lambda v, read=read, default=default[0]: default if v is None else read(v)
        parts.append((count if n == 1 else slice(count, count + n), read))
        part = gap + start + part
        pattern, count = pattern + (f"(?:{part})?" if default else part), count + n
    if isinstance(last, str) and last.isidentifier():  # not the start of a longer word
        pattern += r"\b"
    build = partial(partial, build) if nests else build
    return pattern, count, lambda groups: build(*[read(groups[at]) for at, read in parts]), nests


# Each record whose fields hold no record, read as a field of another.
_FLAT_RECORDS = {record: _fast_record(*row, build=record) for record, row in FIELDS.items()
                 if not any(kind in FIELDS for _, kind, *_ in row)}


def _records(**alternatives) -> tuple[re.Pattern, dict[int, tuple]]:
    """The records of one context as one pattern: blanks, then the first of
    ``alternatives`` (as `_fast_record` gives them) that matches, a run of
    ``#`` comment lines, or else any one character, on which the fast path
    gives up.  Each alternative ends in an empty group named for it, which
    `Match.lastindex` gives; that maps to the alternative's name, its slice
    of `Match.groups`, its reader and whether a node follows it."""
    alternatives["note"] = (r"#[^\n]*(?:\n[ \t\r\n]*#[^\n]*)*", 0, None, False)
    pattern = re.compile(_G + "(?:" + "|".join(f"{alternative}(?P<{name}>)" for name, (
        alternative, *_) in alternatives.items()) + "|(?s:.))")
    marks = [0, *map(pattern.groupindex.get, alternatives)]
    return pattern, {b: (name, slice(a, b - 1), read, nests) for (name, (_, _, read, nests)), a, b
                     in zip(alternatives.items(), marks, marks[1:])}


_adt = cache(lambda: _records(  # the records inside an ADT node, when a file first has one
    attr=(rf"attr{_W}({_NAME}){_G}={_G}{_VALUES[NUM]}", 2, None, False),
    end=(r"\}", 0, None, False),
    node=(rf"(counter{_W})?(attack|defense)(?:{_W}(AND|OR))?{_G}{_VALUES[STRING]}({_G}\{{)?",
          5, None, False), impact=(rf"impact{_G}={_G}(\w+)", 1, None, False)))


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
    pattern, n, read, _) in ((kind, _fast_record((name, kind), build=lambda value: value))
                             for name, kind in NODE_ATTRIBUTES.items())]
_STARTS = list(accumulate([5] + [n for _, n, _ in _ATTRIBUTES]))  # of each one's groups
_GSN_NODE = (rf"(goal|strategy|solution|context){_W}({_NAME}){_G}{_VALUES[STRING]}"
             rf"(?:{_G}under{_W}({_NAME}))?(?:{_G}(\{{)(?:{_G}\b(?:"
             + "|".join(pattern for pattern, _, _ in _ATTRIBUTES) + rf"))*{_G}\}})?")
_CLAUSE = (rf"clause\b{_G}(?:((?:!{_G})?{_NAME}(?:{_G}&{_G}(?:!{_G})?{_NAME})*){_G})?=>{_G}"
           rf"(!?){_G}({_NAME})")


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
    return tuple([value for record, value in records if record == name])


# --- the grammar: both paths read each block by its row -------------------

# Each block kind by its keyword, in the order that a diagnostic lists them:
# its header row, from the keyword to the ``{`` and the fields on the lines
# after it; its body's records by name, each a row with the function from
# its values to the record, or, for a record that nests or repeats, its
# first words, its token reader and its fast pattern, group count and
# reader; the function from the header's values and the body's records, as
# (name, value) pairs, to the block; and what a diagnostic expects where no
# record starts.
GRAMMAR = {
    "gsn": (("gsn", _STRING, "{"), dict(
        node=(tuple(_MEMBERS[NodeKind]), Parser._parse_gsn_node,
              (_GSN_NODE, _STARTS[-1], _fast_node)),
        link=(("security_link", "under", _IDENT, *FIELDS[SecurityLink]), SecurityLink)),
        lambda head, records: GsnModel(*head, _values(records, "node"), _values(records, "link")),
        "gsn node or security_link"),
    "adt": (("adt", _STRING, "{", _NODE), {}, lambda head, records: AttackDefenseTree(*head),
            "'}'"),
    "fta": (("fta", _STRING, "{", "top", (None, REF)), dict(
        gate=(("gate", _IDENT, (None, ("AND", "OR")), (None, REFS)),
              lambda gate, op, inputs: (gate, _MEMBERS[GateOp][op], inputs)),
        event=(("event", _IDENT), str)),
        lambda head, records: FaultTree(*head, _values(records, "gate"),
                                        frozenset(_values(records, "event"))),
        "gate or event"),
    "fmea": (("fmea", _STRING, "{"), dict(row=(("row", _IDENT, *FIELDS[FmeaRow]), FmeaRow)),
             lambda head, records: FmeaTable(*head, _values(records, "row")), "'}'"),
    "requirement": (("requirement", _IDENT, *FIELDS[Requirement], "{", INPUTS), dict(
        clause=(("clause",), Parser._parse_clause, (_CLAUSE, 3, _fast_clause))),
        lambda head, records: Requirement(*head[:3], _values(records, "clause"),
                                          frozenset(head[3])), "'}'"),
    "scenario": (("scenario", _STRING, "{", *FIELDS[Scenario]), dict(
        unassessed=(("set_policy", "unassessed"), lambda: UNASSESSED),
        policy=(("set_policy", *FIELDS[VerdictPolicy]),
                lambda *values: VerdictPolicy(False, *values)),
        add_counter=(("add_counter", *FIELDS[AddCounterAction], _NODE), AddCounterAction),
        set_defeaters=(("set_defeaters", *FIELDS[SetDefeatersAction]), SetDefeatersAction)),
        lambda head, records: Scenario(*head, tuple(value for _, value in records)),
        "'set_policy' or 'add_counter' or 'set_defeaters'"),
}
# What a block declares, and the names in it that it must declare: the token
# parser notes each reference as it reads it, the fast path gives up on any
# that is not declared.
_DECLARED = {
    "gsn": (lambda gsn: {node.id for node in gsn.nodes},
            lambda gsn: [node.parent for node in gsn.nodes if node.parent is not None]),
    "fta": (lambda fta: fta.basic_events.union(gate for gate, _, _ in fta.gates),
            lambda fta: [fta.top, *(child for *_, children in fta.gates for child in children)]),
}


def _choices(records: dict) -> dict[str, list]:
    """A body's records by their first word: each one's further leading
    words, its name and its token reader."""
    choices: dict[str, list] = {}
    for name, record in records.items():
        if len(record) == 3:  # first words, token reader, fast pattern
            for word in record[0]:
                choices.setdefault(word, []).append(([], name, record[1]))
            continue
        row, build = record
        first, *words = takewhile(lambda item: isinstance(item, str), row)
        choices.setdefault(first, []).append(
            (words, name, lambda p, steps=_steps(row), build=build: build(*p.fields(steps))))
    return choices


# What `Parser._block` reads each block kind by, after its keyword.
_TOKEN = {keyword: (_steps(header[1:]), _choices(records), build, what)
          for keyword, (header, records, build, what) in GRAMMAR.items()}
_BLOCK, _BLOCK_RECORDS = _records(end=(r"\Z", 0, None, False), **{
    keyword: _fast_record(*header) for keyword, (header, *_) in GRAMMAR.items()})


@cache
def _body(keyword: str) -> tuple[re.Pattern, dict[int, tuple]]:
    """The records of a block's body, compiled when a file first has one."""
    return _records(end=(r"\}", 0, None, False), **{
        name: (*record[2], False) if len(record) == 3 else _fast_record(*record[0], build=record[1])
        for name, record in GRAMMAR[keyword][1].items()})


def _fast_body(text: str, pos: int, keyword: str) -> tuple[list, int]:
    """The records of a block's body from ``pos`` to the ``}`` that closes
    it, as (name, value) pairs, and where the block ends."""
    pattern, alternatives = _body(keyword)
    records: list = []
    while True:  # again after each ADT node
        for m in pattern.finditer(text, pos):
            name, groups, read, nests = alternatives[m.lastindex]  # a KeyError on the catch-all
            if name == "end":
                return records, m.end()
            if read is None:  # comments
                continue
            value = read(m.groups()[groups])
            if nests:
                node, pos = _fast_adt_node(text, m.end())
                records.append((name, value(node)))
                break
            records.append((name, value))
        else:
            raise ValueError("not read by the fast path")


def _fast_blocks(text: str) -> tuple[list, Optional[int]]:
    """The blocks that the fast path reads, one record per regex match, and
    None; or, where it gives up, those before that block and where it starts."""
    blocks, pos = [], 0
    try:
        while True:
            m = _BLOCK.match(text, pos)  # never None: at the end, ``\Z`` matches
            keyword, groups, read, nests = _BLOCK_RECORDS[m.lastindex]  # KeyError: catch-all
            if keyword == "end":
                return blocks, None
            end = m.end()
            if read is not None:  # else comments
                head = read(m.groups()[groups])
                if nests:
                    node, end = _fast_adt_node(text, end)
                    head = head(node)
                records, end = _fast_body(text, end, keyword)
                block = GRAMMAR[keyword][2](head, records)
                if keyword in _DECLARED:
                    declared, references = _DECLARED[keyword]
                    if not declared(block).issuperset(references(block)):
                        raise ValueError("an undeclared reference")
                blocks.append(block)
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
