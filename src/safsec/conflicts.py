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
witnesses, none when the pair is consistent.

The search is bit-parallel.  With n inputs, assignment pattern ``p`` (bit
``i`` of ``p`` is the value of input ``i``) is bit ``p`` of a 2**n-bit
``int``, and each atom holds the mask of patterns under which it is
derived.  One fixpoint over these masks chains all assignments at once; a
fire log of ``(rule, patterns newly fired)`` keeps each pattern's firing
order.  Per pattern, rules fire in the order that chaining that assignment
alone would; :func:`forward_chain` is the same fixpoint at width one.

Witnesses are read off little-endian byte views of the masks, a byte at a
time: per nonzero byte of the conflict mask, one slice takes that byte of
every fired rule's and conflict's view, and a table lists its set bits.  Per
witness, one C-level translate of that slice gives the flags of the rules it
fired and the signals in conflict, and its assignment is zipped from table
rows of input values.  Witnesses that fired the same rules share one
``involved_requirements`` and one ``fired_clauses`` tuple; each has its own
assignment dict.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cache
from typing import Iterable, NamedTuple, Sequence

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
def _tables() -> tuple[tuple, tuple, tuple]:
    """Byte -> its set bits, ascending; pattern -> the values of inputs 0-7;
    and bit -> the translate table mapping each byte to that bit of it.
    Built for the first contradiction found, not at import."""
    return (tuple(tuple(bit for bit in range(8) if byte >> bit & 1) for byte in range(256)),
            tuple(tuple(bool(p >> i & 1) for i in range(8)) for p in range(256)),
            tuple(bytes(byte >> bit & 1 for byte in range(256)) for bit in range(8)))


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


def find_contradictions(rules: RuleSet) -> list[ContradictionWitness]:
    """Witnesses for every input assignment deriving both polarities of a signal.

    Witnesses come in ascending pattern order, where bit ``i`` of the pattern
    is the value of ``rules.inputs[i]``.
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
        return []

    # Read the witnesses off little-endian byte views of the masks.  Row r of
    # ``rows`` is the view of the r-th fired rule or conflict, so a strided
    # slice is one byte's column, and a translate table turns the column into
    # the flags of one pattern: a key that witnesses with equal flags share.
    nbytes = (width + 7) >> 3
    fires = [(idx, new) for idx, new in log if new & hit]
    nfires = len(fires)
    rows = b"".join(mask.to_bytes(nbytes, "little") for _, mask in fires + conflicts)
    clauses, owners, inputs = rules.clauses, rules.owners, rules.inputs
    high_inputs = range(len(inputs) - 8)  # inputs 8 and up, empty for fewer
    high_values: dict[int, tuple[bool, ...]] = {}  # pattern >> 8 -> their values
    shared: dict[bytes, tuple] = {}  # flags -> (conflicted signal, owners, clauses)
    by_fired: dict[bytes, tuple] = {}  # the fired rules' flags -> (owners, clauses)
    witnesses: list[ContradictionWitness] = []
    bits_of, low_values, flags_of = _tables()
    for byte_index, byte in enumerate(hit.to_bytes(nbytes, "little")):
        if not byte:
            continue
        column = rows[byte_index::nbytes]
        high = byte_index >> 5
        rest = high_values.get(high)
        if rest is None:
            rest = high_values[high] = tuple(bool(high >> i & 1) for i in high_inputs)
        low = (byte_index & 31) << 3
        for bit in bits_of[byte]:
            flags = column.translate(flags_of[bit])
            found = shared.get(flags)
            if found is None:
                tuples = by_fired.get(flags[:nfires])
                if tuples is None:
                    fired = [idx for (idx, _), flag in zip(fires, flags) if flag]
                    tuples = by_fired[flags[:nfires]] = (
                        tuple(sorted({owners[idx] for idx in fired if owners[idx]})),
                        tuple([clauses[idx] for idx in fired]),
                    )
                found = shared[flags] = (conflicts[flags.index(1, nfires) - nfires][0], *tuples)
            witnesses.append(
                ContradictionWitness(dict(zip(inputs, low_values[low | bit] + rest)), *found))
    return witnesses


def check_pair(r1: Requirement, r2: Requirement) -> tuple[ContradictionWitness, ...]:
    """A conflict candidate's witnesses, from exactly two requirements; none
    when the pair is consistent."""
    return tuple(find_contradictions(RuleSet.from_requirements([r1, r2])))
