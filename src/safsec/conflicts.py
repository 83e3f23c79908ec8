"""Requirement conflict detection via closed-world contradiction search.

Candidates are requirement pairs whose clause heads share a signal.  A
candidate is confirmed by checking every truth assignment of the declared
input signals (each contributing its positive or negated literal): the
clauses are forward chained to a least fixed point, and any assignment under
which some signal is derived with both polarities is reported.  A
:class:`~safsec.model.Literal` is the atom; it equals the plain ``(signal,
positive)`` tuple, so facts may be given either way.  Negated signals are
distinct atoms, so nothing follows from the mere absence of a fact: an atom
holds only if a rule supports it.  :func:`check_pair` returns a pair's
witness family, empty when the pair is consistent.

The search is bit-parallel.  With n inputs, assignment pattern ``p`` (bit
``i`` of ``p`` is the value of input ``i``) is bit ``p`` of a 2**n-bit
``int``, and each atom holds the mask of patterns under which it is
derived.  One fixpoint over these masks chains all assignments at once; a
fire log of ``(rule, patterns newly fired)`` keeps each pattern's firing
order.  Per pattern, rules fire in the order that chaining that assignment
alone would; :func:`forward_chain` is the same fixpoint at width one.

Witnesses are read off little-endian byte views of the masks: a table lists
the set bits of each byte of the conflict mask, which are the patterns.  Per
witness, one strided slice takes its byte of every fired rule's and
conflict's view, and one C-level translate of that slice gives the flags of
the rules it fired and the signals in conflict, which key its shared tuple.
The answer is a :class:`Witnesses` family, as :class:`~safsec.fta.CutSets`
is a family of masks: the patterns in ascending order and, per pattern, the
``(conflicted signal, involved requirements, fired clauses)`` tuple that
every witness firing the same rules shares.  Each
:class:`ContradictionWitness`, with an assignment dict of its own, is built
only when read; the CLI writes both formats straight from the patterns.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence as AbstractSequence
from functools import cache
from itertools import chain, compress, repeat
from operator import and_, eq, rshift
from typing import Iterable, Iterator, NamedTuple, Sequence, Union

from .model import Clause, Literal, Record, Requirement

MAX_INPUTS = 20


class RuleSet(Record):
    clauses: tuple[Clause, ...]
    owners: tuple[str, ...]  # owners[i] declared clauses[i]; "" for none
    inputs: tuple[str, ...]  # sorted

    @classmethod
    def from_requirements(cls, reqs: Sequence[Requirement]) -> "RuleSet":
        """Union the requirements' clauses and inputs.

        A signal that is a clause head anywhere is derived, not an input,
        even where a requirement declares it input.
        """
        clauses = tuple(clause for req in reqs for clause in req.clauses)
        owners = tuple(req.id for req in reqs for _ in req.clauses)
        inputs = {sig for req in reqs for sig in req.inputs}
        inputs -= {clause.head.signal for clause in clauses}
        return cls(clauses, owners, tuple(sorted(inputs)))


class ContradictionWitness(NamedTuple):
    input_assignment: dict[str, bool]
    conflicted_signal: str
    involved_requirements: tuple[str, ...]
    fired_clauses: tuple[Clause, ...] = ()


@cache
def _tables() -> tuple[tuple, tuple]:
    """Byte -> its set bits, ascending; and bit -> the translate table mapping
    each byte to that bit of it.  Built for the first contradiction found, not
    at import."""
    return (tuple(tuple(bit for bit in range(8) if byte >> bit & 1) for byte in range(256)),
            tuple(bytes(byte >> bit & 1 for byte in range(256)) for bit in range(8)))


@cache
def _values() -> tuple[tuple[bool, ...], ...]:
    """Byte -> the values of the eight inputs that it holds, bit 0 first.
    Built for the first witness read, not at import."""
    return tuple(tuple(bool(byte >> bit & 1) for bit in range(8)) for byte in range(256))


class Witnesses(AbstractSequence):
    """A read-only family of contradiction witnesses.

    ``patterns`` holds one assignment pattern per witness, ascending, in which
    bit ``i`` is the value of ``inputs[i]``.  ``shared[k]`` is witness ``k``'s
    ``(conflicted_signal, involved_requirements, fired_clauses)``: one tuple
    for all the witnesses that fired the same rules and conflict alike.  Read
    as a sequence, the family yields each :class:`ContradictionWitness` when
    it is read, with an assignment dict of its own, and it equals the list or
    tuple of the same witnesses.  `assignment_texts` writes the assignments
    straight from the patterns instead.  No field may be mutated.
    """

    __slots__ = ("inputs", "patterns", "shared")

    def __init__(self, inputs: tuple[str, ...], patterns: list[int], shared: list[tuple]) -> None:
        self.inputs = inputs
        self.patterns = patterns
        self.shared = shared

    def __len__(self) -> int:
        return len(self.patterns)

    def __getitem__(self, index: Union[int, slice]):
        if isinstance(index, slice):
            return Witnesses(self.inputs, self.patterns[index], self.shared[index])
        return self._witness(self.patterns[index], self.shared[index])

    def __iter__(self) -> Iterator[ContradictionWitness]:
        return map(self._witness, self.patterns, self.shared)

    def _witness(self, pattern: int, shared: tuple) -> ContradictionWitness:
        values = _values()
        bits = chain(values[pattern & 255], values[pattern >> 8 & 255], values[pattern >> 16])
        return ContradictionWitness(dict(zip(self.inputs, bits)), *shared)

    def assignment_texts(self, names: Sequence[str], sep: str) -> list[Iterator[str]]:
        """Per byte of the patterns, in order, each witness's text of the
        inputs in that byte, read from one table of at most 256 entries:
        input ``i`` is written ``names[i]`` and ``false`` or ``true``, with
        ``sep`` between two inputs.  Joined in order, a witness's texts
        spell its whole assignment."""
        texts = [(name + "false" + sep, name + "true" + sep) for name in names]
        if names:
            texts[-1] = (names[-1] + "false", names[-1] + "true")
        columns = []
        for start in range(0, len(texts), 8):
            table = [""]
            for false, true in texts[start:start + 8]:
                table = [text + false for text in table] + [text + true for text in table]
            index = map(rshift, self.patterns, repeat(start)) if start else self.patterns
            if start + 8 < len(texts):
                index = map(and_, index, repeat(255))
            columns.append(map(table.__getitem__, index))
        return columns

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (Witnesses, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Witnesses({list(self)!r})"


def conflict_candidates(reqs: Sequence[Requirement], wide: bool = False) -> list[tuple[str, str]]:
    """Requirement pairs sharing a head signal (or any signal with ``wide``).

    Pairs come in the order of ``combinations(reqs, 2)``: each requirement
    with the later ones that share a signal with it, in list order.  They are
    found through an index from each signal to the requirements that have it,
    so the work follows the pairs found, not all pairs.
    """
    signals = [r.all_signals() if wide else r.head_signals() for r in reqs]
    having: dict[str, list[int]] = {}  # signal -> indices of the requirements with it
    for i, sigs in enumerate(signals):
        for sig in sigs:
            having.setdefault(sig, []).append(i)
    pairs = []
    for i, sigs in enumerate(signals):
        later: set[int] = set()
        for sig in sigs:
            others = having[sig]
            later.update(others[bisect_right(others, i):])
        pairs += [(reqs[i].id, reqs[j].id) for j in sorted(later)]
    return pairs


def _fixpoint(clauses: Sequence[Clause], masks: dict[Literal, int],
              full: int) -> list[tuple[int, int]]:
    """Least fixed point over every assignment pattern at once.

    ``masks`` maps each atom to the patterns (bits of an ``int`` within
    ``full``) under which it holds, and is updated in place.  Each pass scans
    the rules in order; a rule fires under the patterns where its body holds
    and it has not fired yet, and its head then holds there too.  Per pattern,
    a pass is one rescan of the rule list, so each pattern fires its rules in
    the order that chaining it alone would.  Returns the fire log:
    ``(rule index, patterns newly fired)`` in firing order.
    """
    fired = [0] * len(clauses)
    log: list[tuple[int, int]] = []
    changed = True
    while changed:
        changed = False
        for idx, clause in enumerate(clauses):
            new = full ^ fired[idx]
            for atom in clause.body:
                if not new:
                    break
                new &= masks.get(atom, 0)
            if new:
                fired[idx] |= new
                head = clause.head
                masks[head] = masks.get(head, 0) | new
                log.append((idx, new))
                changed = True
    return log


def forward_chain(clauses: Iterable[Clause],
                  facts: Iterable[tuple[str, bool]]) -> tuple[set[Literal], list[Clause]]:
    """Least fixed point of the definite clauses over signed literals.

    Returns the derived set and the clauses that fired, in firing order.
    Terminates in at most one pass per derivable literal.
    """
    clauses = tuple(clauses)
    masks = dict.fromkeys(facts, 1)
    log = _fixpoint(clauses, masks, 1)
    return {lit for lit, m in masks.items() if m}, [clauses[idx] for idx, _ in log]


def _input_mask(index: int, width: int) -> int:
    """The patterns ``p < width`` with bit ``index`` of ``p`` set."""
    run = 1 << index
    mask, span = ((1 << run) - 1) << run, 2 * run
    while span < width:
        mask |= mask << span
        span *= 2
    return mask


def find_contradictions(rules: RuleSet) -> Witnesses:
    """The family of witnesses, one per input assignment that derives both
    polarities of a signal, in ascending pattern order: bit ``i`` of the
    pattern is the value of ``rules.inputs[i]``.
    """
    if len(rules.inputs) > MAX_INPUTS:
        raise ValueError(
            f"{len(rules.inputs)} input signals exceed the enumeration bound of "
            f"{MAX_INPUTS}; decompose the model into smaller requirement groups"
        )
    width = 1 << len(rules.inputs)
    full = (1 << width) - 1
    masks: dict[Literal, int] = {}
    for i, sig in enumerate(rules.inputs):
        masks[Literal(sig, True)] = pos = _input_mask(i, width)
        masks[Literal(sig, False)] = full ^ pos
    log = _fixpoint(rules.clauses, masks, full)
    hit, conflicts = 0, []
    for sig in sorted({sig for sig, _ in masks}):
        both = masks.get((sig, True), 0) & masks.get((sig, False), 0)
        if both:
            conflicts.append((sig, both))
            hit |= both
    if not hit:
        return Witnesses(rules.inputs, [], [])

    # Read the witnesses off little-endian byte views of the masks.  Row r of
    # ``rows`` is the view of the r-th fired rule or conflict, so a strided
    # slice is one byte's column, and a translate table turns the column into
    # the flags of one pattern: a key that witnesses with equal flags share.
    nbytes = (width + 7) >> 3
    fires = [(idx, new) for idx, new in log if new & hit]
    nfires = len(fires)
    rows = b"".join(mask.to_bytes(nbytes, "little") for _, mask in fires + conflicts)
    fire_owners = [rules.owners[idx] for idx, _ in fires]
    fire_clauses = [rules.clauses[idx] for idx, _ in fires]
    by_fired = cache(lambda fired: (  # the fired rules' flags -> (owners, clauses)
        tuple(sorted(set(compress(fire_owners, fired)) - {""})),
        tuple(compress(fire_clauses, fired))))
    by_flags = cache(lambda flags: (conflicts[flags.index(1, nfires) - nfires][0],
                                    *by_fired(flags[:nfires])))
    bits_of, flags_of = _tables()
    patterns = [index << 3 | bit for index, byte in enumerate(hit.to_bytes(nbytes, "little"))
                if byte for bit in bits_of[byte]]
    shared = [by_flags(rows[p >> 3::nbytes].translate(flags_of[p & 7])) for p in patterns]
    return Witnesses(rules.inputs, patterns, shared)


def check_pair(r1: Requirement, r2: Requirement) -> Witnesses:
    """A conflict candidate's witness family, from exactly two requirements;
    empty when the pair is consistent."""
    return find_contradictions(RuleSet.from_requirements([r1, r2]))
