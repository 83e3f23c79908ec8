"""Shared domain types for safety and security assurance models.

Everything here is an immutable value object; lookup indexes are built once
by ``cached_property``, outside the fields that ``==`` and ``hash`` compare.
Scalar types that feed the confidence arithmetic (ConfidenceTriple) enforce
their invariants at construction time; structural types (GsnModel,
FaultTree, ...) are built leniently by the parser and checked by
:mod:`safsec.validate`, which turns invariant violations into located
diagnostics instead of exceptions; a record's own rules are its
``problems``, as an ADT's node rules are, found once per tree.  An
attack-defense tree nests to any depth, so every walk over one goes through
:func:`adt_walk`, which keeps its own stack and names each node by its
place, or through :func:`adt_preorder`, which keeps a stack of bare nodes;
only :func:`safsec.adteval.evaluate` spells paths, as ``adt eval``'s
keys.  Gates and GSN nodes are named, so a file can join them into a cycle:
bottom-up walks over them fold over :func:`post_order` and its one cycle
guard.  A GSN id names its first declaration in every analysis: the
validator, aggregation and derivation read one tree of them,
:attr:`GsnModel.children` and its walk :attr:`GsnModel.tree_order`.

The records a file holds many of (:class:`GsnNode`, :class:`AdtNode`,
:class:`DefeaterCount`, :class:`HazardMeta`, :class:`VoterMeta`,
:class:`SecurityLink`, :class:`FmeaRow` and :class:`Literal`) are typed
``NamedTuple`` classes, built by one ``tuple.__new__`` call.  The blocks and
the other records subclass :class:`Record`, which reads a class's fields
once, where a dataclass compiles each class's methods at import (about 1 ms
a class); their fields are plain instance attributes, read in about half the
time of a ``NamedTuple``'s, beside the ``cached_property`` indexes.  Both refuse
assignment, compare and hash by their fields, and offer ``_replace``,
``_fields`` and ``_field_defaults``.
"""

from __future__ import annotations

import math
from collections import Counter
from enum import Enum
from functools import cached_property
from operator import attrgetter
from types import MappingProxyType
from typing import (TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, NamedTuple, Optional,
                    Union)

if TYPE_CHECKING:
    from .adteval import VerdictPolicy

SUM_TOLERANCE = 1e-9


class Record:
    """A frozen record of the fields that its classes annotate, in order; a
    field with a class value defaults to it.  ``__post_init__``, where a
    subclass defines one, checks each new instance."""

    _fields: tuple[str, ...] = ()
    __post_init__: Optional[Callable[[], None]] = None

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(dict.fromkeys((*cls._fields, *cls.__annotations__)))  # a base's first
        cls._field_defaults = {f: getattr(cls, f) for f in cls._fields if hasattr(cls, f)}
        cls._values = attrgetter(*cls._fields)
        cls._names = frozenset(cls._fields)

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if not kwargs and len(args) == len(fields):
            values = dict(zip(fields, args))
        elif not args and kwargs.keys() == self._names:
            values = kwargs  # a dict of its own, made for this call
        else:  # defaults, or values and keywords: refused where a function would refuse them
            values = {**self._field_defaults, **dict(zip(fields, args)), **kwargs}
            if (len(args) > len(fields) or values.keys() != self._names
                    or not kwargs.keys().isdisjoint(fields[:len(args)])):
                raise TypeError(f"{type(self).__name__}() takes {', '.join(fields)}; "
                                f"got {args!r}, {kwargs!r}")
        _set_dict(self, values)
        if self.__post_init__ is not None:
            self.__post_init__()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            values = self._values
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def _replace(self, **changes):
        """A copy with ``changes`` to its fields, checked as a new record is."""
        return type(self)(**{name: getattr(self, name) for name in self._fields} | changes)


_set_dict = Record.__dict__["__dict__"].__set__  # a record's own __setattr__ refuses


class GuideWord(Enum):
    """Controlled vocabulary bridging hazard mechanisms and attack verbs."""

    DISCLOSURE = "disclosure"
    DISCONNECTED = "disconnected"
    DELAY = "delay"
    DELETION = "deletion"
    STOPPING = "stopping"
    DENIAL = "denial"
    TRIGGER = "trigger"
    INSERTION = "insertion"
    RESET = "reset"
    MANIPULATION = "manipulation"


class Impact(Enum):
    LOW = "low"
    MEDIUM = "medium"
    HIGH = "high"


class NodeKind(Enum):
    GOAL = "goal"
    STRATEGY = "strategy"
    SOLUTION = "solution"
    CONTEXT = "context"


class GateOp(Enum):
    AND = "AND"
    OR = "OR"


class FailureMode(Enum):
    LOSS_OF_FUNCTION = "loss_of_function"
    ERRONEOUS = "erroneous"
    UNINTENDED_ACTION = "unintended_action"
    PARTIAL_LOSS = "partial_loss"


class RequirementKind(Enum):
    SAFETY = "safety"
    SAFETY_DESIGN = "safety_design"
    SECURITY = "security"
    SECURITY_DESIGN = "security_design"


class Actor(Enum):
    ATTACK = "attack"
    DEFENSE = "defense"

    @property
    def opposite(self) -> "Actor":
        return Actor.DEFENSE if self is Actor.ATTACK else Actor.ATTACK


class Refinement(Enum):
    AND = "AND"
    OR = "OR"
    LEAF = "leaf"


class ConfidenceTriple(Record):
    """Belief/disbelief/uncertainty opinion; components sum to 1."""

    belief: float
    disbelief: float
    uncertainty: float

    def __post_init__(self) -> None:
        for name in ("belief", "disbelief", "uncertainty"):
            v = getattr(self, name)
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                raise TypeError(f"{name} must be a number, got {v!r}")
            if math.isnan(v) or not -SUM_TOLERANCE <= v <= 1 + SUM_TOLERANCE:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        total = self.belief + self.disbelief + self.uncertainty
        if abs(total - 1.0) > SUM_TOLERANCE:
            raise ValueError(f"components must sum to 1, got {total}")

    def rounded(self, digits: int = 2) -> tuple[float, float, float]:
        return (
            round(self.belief, digits),
            round(self.disbelief, digits),
            round(self.uncertainty, digits),
        )


class DefeaterCount(NamedTuple):
    """Outruled defeaters out of the total identified for a goal."""

    outruled: int
    total: int

    @property
    def problems(self) -> list[str]:
        out = []
        if self.outruled < 0 or self.total < 0:
            out.append("defeater counts must be non-negative")
        if self.outruled > self.total:
            out.append(
                f"outruled defeaters ({self.outruled}) exceed total ({self.total})"
            )
        return out

    def __add__(self, other: "DefeaterCount") -> "DefeaterCount":
        return DefeaterCount(self.outruled + other.outruled, self.total + other.total)


class HazardMeta(NamedTuple):
    """Domain-specific hazard annotation on a goal."""

    impact: Impact
    mechanism: GuideWord
    trace: str


class VoterMeta(NamedTuple):
    """M-of-N voter mechanism annotation on a solution."""

    signals: tuple[str, ...]
    threshold: int
    trace: str

    @property
    def problems(self) -> list[str]:
        out = []
        if not self.signals:
            out.append("voter requires at least one signal")
        if self.threshold < 1:
            out.append("voter threshold must be positive")
        elif self.signals and self.threshold > len(self.signals):
            out.append(
                f"voter threshold ({self.threshold}) exceeds signal count "
                f"({len(self.signals)})"
            )
        return out


class GsnNode(NamedTuple):
    id: str
    kind: NodeKind
    text: str
    parent: Optional[str] = None
    defeaters: Optional[DefeaterCount] = None
    hazard: Optional[HazardMeta] = None
    voter: Optional[VoterMeta] = None
    fta_ref: Optional[str] = None
    fmea_ref: Optional[str] = None


class SecurityLink(NamedTuple):
    """Attachment of a security assessment (an ADT) to a goal, with weight."""

    goal_id: str
    adt_name: str
    weight: float


class GsnModel(Record):
    name: str
    nodes: tuple[GsnNode, ...]
    security_links: tuple[SecurityLink, ...] = ()

    @cached_property
    def _by_id(self) -> dict[str, GsnNode]:
        return {n.id: n for n in reversed(self.nodes)}  # first declaration wins

    @cached_property
    def children(self) -> dict[Optional[str], list[str]]:
        """Child ids by parent id: each id once, under its first declaration's parent."""
        out: dict[Optional[str], list[str]] = {}
        for node_id, node in reversed(self._by_id.items()):
            out.setdefault(node.parent, []).append(node_id)
        return out

    @cached_property
    def tree_order(self) -> tuple[str, ...]:
        """Every id under a top, after its children; a top's parent is None or
        undeclared.  Each id has one parent, so no walk from a top meets a
        cycle: the ids left out are on or under a parent cycle."""
        children = self.children
        tops = [top for parent, kids in children.items() if parent not in self._by_id for top in kids]
        return tuple(post_order(tops, lambda node_id: children.get(node_id, ()), "node"))

    def node(self, node_id: str) -> GsnNode:
        return self._by_id[node_id]

    def roots(self) -> list[GsnNode]:
        """Every declaration whose parent is None."""
        return [n for n in self.nodes if n.parent is None]

    def root(self) -> GsnNode:
        roots = self.roots()
        if len(roots) != 1:
            raise ValueError(f"model {self.name!r} has {len(roots)} roots")
        return roots[0]

    @cached_property
    def _goals(self) -> tuple[GsnNode, ...]:
        return tuple(n for n in self.nodes if n.kind is NodeKind.GOAL)

    def goals(self) -> list[GsnNode]:
        return list(self._goals)

    @cached_property
    def _links_by_goal(self) -> dict[str, list[SecurityLink]]:
        out: dict[str, list[SecurityLink]] = {}
        for link in self.security_links:
            out.setdefault(link.goal_id, []).append(link)
        return out

    def links_for(self, goal_id: str) -> list[SecurityLink]:
        return list(self._links_by_goal.get(goal_id, ()))


def post_order(roots: Iterable[str], children: Callable[[str], Iterable[str]],
               kind: str) -> Iterator[str]:
    """Yield each node that ``roots`` reach once, after all of its children.

    The walk keeps its own stack.  Meeting a child that is still open (on the
    path from the root) raises ``ValueError("cycle through {kind} {child!r}")``.
    """
    done: set[str] = set()
    for root in roots:
        if root in done:
            continue
        open_nodes, stack = {root}, [(root, iter(children(root)))]
        while stack:
            node, todo = stack[-1]
            for child in todo:
                if child in open_nodes:
                    raise ValueError(f"cycle through {kind} {child!r}")
                if child not in done:
                    open_nodes.add(child)
                    stack.append((child, iter(children(child))))
                    break
            else:
                stack.pop()
                open_nodes.remove(node)
                done.add(node)
                yield node


class FaultTree(Record):
    name: str
    top: str
    gates: tuple[tuple[str, GateOp, tuple[str, ...]], ...]
    basic_events: frozenset[str]

    @cached_property
    def _gate_by_id(self) -> dict[str, tuple[GateOp, tuple[str, ...]]]:
        return {gid: (op, kids) for gid, op, kids in reversed(self.gates)}  # first wins

    def gate(self, gate_id: str) -> Optional[tuple[GateOp, tuple[str, ...]]]:
        return self._gate_by_id.get(gate_id)

    @cached_property
    def top_order(self) -> tuple[str, ...]:
        """Every node the top event reaches, after its inputs; a cycle raises."""
        return tuple(post_order([self.top], self.inputs, "gate"))

    def inputs(self, node: str) -> tuple[str, ...]:
        """A gate's inputs; ``()`` for an event or an undeclared node."""
        return self._gate_by_id.get(node, (None, ()))[1]


class FmeaRow(NamedTuple):
    id: str
    function: str
    failure_mode: FailureMode
    severity: int
    occurrence: int
    detection: int
    effect: str = ""
    cause: str = ""

    @property
    def rpn(self) -> int:
        return self.severity * self.occurrence * self.detection

    @property
    def problems(self) -> list[str]:
        out = []
        for name in ("severity", "occurrence", "detection"):
            v = getattr(self, name)
            if not 1 <= v <= 10:
                out.append(f"{name} must be in 1..10, got {v}")
        return out


class FmeaTable(Record):
    name: str
    rows: tuple[FmeaRow, ...]


class AdtNode(NamedTuple):
    actor: Actor
    label: str
    refinement: Refinement = Refinement.LEAF
    children: tuple["AdtNode", ...] = ()
    counter: Optional["AdtNode"] = None
    attributes: tuple[tuple[str, float], ...] = ()
    impact: Optional[Impact] = None

    def __hash__(self) -> int:
        # A tuple's hash recurses in C without a depth check, so a deep tree
        # would overflow the C stack; one Python frame per level makes it a
        # RecursionError, as ``==`` and ``repr`` raise.
        return hash(tuple(self))

    def attribute(self, name: str) -> Optional[float]:
        for key, value in self.attributes:
            if key == name:
                return value
        return None

    @property
    def problems(self) -> list[str]:
        """The node invariants that the tree under this node breaks, in preorder."""
        out, leaf = [], Refinement.LEAF
        for actor, label, refinement, children, counter, attributes, _ in adt_preorder(self):
            if children:
                if refinement is leaf:
                    out.append(f"node {label!r} has children but no AND/OR refinement")
                for child in children:
                    if child.actor is not actor:
                        out.append(f"refinement child {child.label!r} of {label!r} "
                                   "has mismatching actor")
            elif refinement is not leaf:
                out.append(f"{refinement.value} node {label!r} has no children")
            if counter is not None and counter.actor is not actor.opposite:
                out.append(f"countermeasure of {label!r} must have opposite actor")
            # One C call finds a duplicate; Counter is slow.
            if len(attributes) > 1 and len(dict(attributes)) < len(attributes):
                out += (f"duplicate attribute {key!r} on {label!r}"
                        for key in duplicates(key for key, _ in attributes))
        return out


def duplicates(keys: Iterable[str]) -> list[str]:
    """The keys that occur more than once, sorted."""
    return sorted(k for k, n in Counter(keys).items() if n > 1)


def adt_walk(root: AdtNode, place: tuple = ()) -> Iterator[tuple[tuple, AdtNode, bool]]:
    """Yield ``(place, node, entering)`` twice per node, on its own stack.

    Entry events come in preorder (a node, its children, then its counter);
    a node's exit event follows everything under it.  A child's place is
    ``(place, i)``, a counter's ``(place, "c")``; places nest as deep as the
    tree, so never hash, compare or ``repr`` one.
    """
    stack = [(place, root, True)]
    pop, push = stack.pop, stack.append
    while stack:
        event = pop()
        yield event
        place, node, entering = event
        if not entering:
            continue
        children = node.children
        if not children and node.counter is None:  # nothing under it: leave at once
            yield place, node, False
            continue
        push((place, node, False))
        if node.counter is not None:
            push(((place, "c"), node.counter, True))
        for i in range(len(children) - 1, -1, -1):
            push(((place, i), children[i], True))


def adt_preorder(root: AdtNode) -> Iterator[AdtNode]:
    """``root`` and every node under it in :func:`adt_walk`'s entry order (a
    node, its children in order, then its counter), on a stack of nodes."""
    stack = [root]
    pop, push, extend = stack.pop, stack.append, stack.extend
    while stack:
        node = pop()
        yield node
        if node.counter is not None:
            push(node.counter)
        if node.children:
            extend(reversed(node.children))


class AttackDefenseTree(Record):
    name: str
    root: AdtNode

    @cached_property
    def problems(self) -> list[str]:
        """Its root's problems, found once for every check that reads them."""
        return self.root.problems


class Literal(NamedTuple):
    """Signed signal reference; ``positive=False`` means classical negation.

    A literal is the atom that the conflict engine chains: it equals, and
    hashes as, the plain ``(signal, positive)`` tuple.
    """

    signal: str
    positive: bool = True

    def __str__(self) -> str:
        return self.signal if self.positive else f"!{self.signal}"


class Clause(Record):
    """Implication clause: conjunction of body literals entails the head."""

    body: tuple[Literal, ...]
    head: Literal

    @cached_property
    def text(self) -> str:
        """The clause as a model file writes it after ``clause``; rendered once."""
        if not self.body:
            return f"=> {self.head}"
        return " & ".join(map(str, self.body)) + f" => {self.head}"

    def __str__(self) -> str:
        return self.text


class Requirement(Record):
    id: str
    kind: RequirementKind
    trace: str
    clauses: tuple[Clause, ...] = ()
    inputs: frozenset[str] = frozenset()

    def head_signals(self) -> set[str]:
        return {c.head.signal for c in self.clauses}

    def all_signals(self) -> set[str]:
        return {lit.signal for c in self.clauses for lit in (c.head, *c.body)} | self.inputs


class Thresholds(Record):
    min_belief: float
    max_disbelief: float
    max_uncertainty: float

    def met_by(self, triple: ConfidenceTriple) -> bool:
        return (
            triple.belief >= self.min_belief
            and triple.disbelief <= self.max_disbelief
            and triple.uncertainty <= self.max_uncertainty
        )


class AddCounterAction(Record):
    """Attach a countermeasure node under the ADT node with the given label."""

    at_label: str
    node: AdtNode


class SetDefeatersAction(Record):
    """Revise a goal's defeater evidence counts."""

    goal_id: str
    count: DefeaterCount


# A ``set_policy`` round is the verdict policy that it switches to.
ScenarioAction = Union["VerdictPolicy", AddCounterAction, SetDefeatersAction]


class Scenario(Record):
    name: str
    gsn_name: str
    adt_name: str
    thresholds: Thresholds
    max_rounds: int
    actions: tuple[ScenarioAction, ...]


Block = Union[GsnModel, AttackDefenseTree, FaultTree, FmeaTable, Requirement, Scenario]
# Each block kind and the keyword that opens it in a model file, in the
# order that a parse error lists them.
BLOCK_KEYWORDS = {GsnModel: "gsn", AttackDefenseTree: "adt", FaultTree: "fta", FmeaTable: "fmea",
                  Requirement: "requirement", Scenario: "scenario"}


def block_name(block: Block) -> str:
    """The name a block is looked up by: a requirement's id, else its name."""
    return block.id if isinstance(block, Requirement) else block.name


class Document(Record):
    """All blocks of one model file, in declaration order."""

    blocks: tuple[Block, ...] = ()

    @cached_property
    def _by_kind(self) -> dict[type, Mapping[str, Block]]:
        """Read-only blocks of each kind by name (requirements by id); last wins."""
        out: dict[type, dict[str, Block]] = {kind: {} for kind in BLOCK_KEYWORDS}
        for b in self.blocks:
            out[type(b)][block_name(b)] = b
        return {kind: MappingProxyType(named) for kind, named in out.items()}

    @cached_property
    def _first(self) -> dict[tuple[type, str], Block]:
        return {(type(b), block_name(b)): b for b in reversed(self.blocks)}  # first wins

    def repeats(self, block: Block) -> bool:
        """Whether an earlier block has ``block``'s kind and name; of such
        blocks, the lookups below keep only the last."""
        return self._first.get((type(block), block_name(block)), block) is not block

    @property
    def gsns(self) -> Mapping[str, GsnModel]:
        return self._by_kind[GsnModel]

    @property
    def adts(self) -> Mapping[str, AttackDefenseTree]:
        return self._by_kind[AttackDefenseTree]

    @property
    def ftas(self) -> Mapping[str, FaultTree]:
        return self._by_kind[FaultTree]

    @property
    def fmeas(self) -> Mapping[str, FmeaTable]:
        return self._by_kind[FmeaTable]

    @property
    def requirements(self) -> Mapping[str, Requirement]:
        return self._by_kind[Requirement]

    @property
    def scenarios(self) -> Mapping[str, Scenario]:
        return self._by_kind[Scenario]


class Diagnostic(Record):
    message: str
    severity: str = "error"  # "error" | "warning"
    line: Optional[int] = None
    column: Optional[int] = None
    context: str = ""

    def __str__(self) -> str:
        loc = f"{self.line}:{self.column}: " if self.line is not None else ""
        ctx = f" [{self.context}]" if self.context else ""
        return f"{loc}{self.severity}: {self.message}{ctx}"


def printable(name: str) -> str:
    """``name`` with each non-printable character (VT, U+2028, ...) escaped,
    as the lexer shows one.  A block name is a string and may hold any
    character; a message that names it stays on one line."""
    return "".join(c if c.isprintable() else repr(c)[1:-1] for c in name)


def sort_key(diag: Diagnostic) -> tuple:
    return (
        diag.line if diag.line is not None else -1,
        diag.column if diag.column is not None else -1,
        diag.severity,
        diag.message,
        diag.context,
    )
