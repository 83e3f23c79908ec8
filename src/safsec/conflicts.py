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
order, and witnesses are read off byte views of the masks.  Per pattern,
rules fire in the order that chaining that assignment alone would;
:func:`forward_chain` is the same fixpoint at width one.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .model import Clause, Literal, Requirement

MAX_INPUTS = 20


@dataclass(frozen=True)
class RuleSet:
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


@dataclass(frozen=True)
class ContradictionWitness:
    input_assignment: dict[str, bool]
    conflicted_signal: str
    involved_requirements: tuple[str, ...]
    fired_clauses: tuple[Clause, ...] = ()


def conflict_candidates(reqs: Sequence[Requirement], wide: bool = False) -> list[tuple[str, str]]:
    """Requirement pairs sharing a head signal (or any signal with ``wide``)."""
    signals = [(r.id, r.all_signals() if wide else r.head_signals()) for r in reqs]
    return [(id1, id2) for (id1, s1), (id2, s2) in combinations(signals, 2) if s1 & s2]


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

    # Read each witness off little-endian byte views of the masks: one bit
    # test per conflict and fired rule, never a big-int operation per witness.
    nbytes = (width + 7) >> 3

    def view(mask: int) -> bytes:
        return mask.to_bytes(nbytes, "little")

    conflict_views = [(sig, view(both)) for sig, both in conflicts]
    fire_views = [(idx, view(new)) for idx, new in log if new & hit]
    clauses, owners, inputs = rules.clauses, rules.owners, rules.inputs
    witnesses: list[ContradictionWitness] = []
    for byte_index, byte in enumerate(view(hit)):
        for bit in range(8):
            if not byte >> bit & 1:
                continue
            pattern = byte_index << 3 | bit
            fired = [idx for idx, v in fire_views if v[byte_index] >> bit & 1]
            witnesses.append(ContradictionWitness(
                input_assignment={sig: bool(pattern >> i & 1) for i, sig in enumerate(inputs)},
                conflicted_signal=next(
                    sig for sig, v in conflict_views if v[byte_index] >> bit & 1),
                involved_requirements=tuple(sorted({owners[idx] for idx in fired if owners[idx]})),
                fired_clauses=tuple(clauses[idx] for idx in fired),
            ))
    return witnesses


def replay(rules: RuleSet, witness: ContradictionWitness) -> bool:
    """Re-run chaining on the witness's assignment alone: True iff that fires
    exactly the witness's clauses, in order, and derives both polarities of
    its conflicted signal (the fired clauses fix the derived literals)."""
    derived, fired = forward_chain(rules.clauses, witness.input_assignment.items())
    sig = witness.conflicted_signal
    return (tuple(fired) == witness.fired_clauses
            and (sig, True) in derived and (sig, False) in derived)


def check_pair(r1: Requirement, r2: Requirement) -> tuple[ContradictionWitness, ...]:
    """A conflict candidate's witnesses, from exactly two requirements; none
    when the pair is consistent."""
    return tuple(find_contradictions(RuleSet.from_requirements([r1, r2])))
