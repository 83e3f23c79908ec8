"""Requirement conflict detection via closed-world contradiction search.

Candidates are requirement pairs whose clause heads share a signal.  A
candidate is confirmed by checking every truth assignment of the declared
input signals (each contributing its positive or negated atom): the clauses
are forward chained to a least fixed point, and any assignment under which
some signal is derived with both polarities is reported.  Negated signals
are distinct atoms, so nothing follows from the mere absence of a fact:
an atom holds only if a rule supports it.

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

from .model import Clause, Diagnostic, Literal, Requirement

MAX_INPUTS = 20

Atom = tuple[str, bool]  # (signal, polarity)


@dataclass(frozen=True)
class AttributedClause:
    clause: Clause
    requirement_id: str = ""


@dataclass(frozen=True)
class RuleSet:
    rules: tuple[AttributedClause, ...]
    inputs: tuple[str, ...]  # sorted
    warnings: tuple[Diagnostic, ...] = ()

    @classmethod
    def from_requirements(cls, reqs: Sequence[Requirement]) -> "RuleSet":
        """Union the requirements' clauses and inputs.

        A signal that is a clause head anywhere is derived; declaring it as an
        input elsewhere only earns a warning, the head status wins.
        """
        rules = tuple(
            AttributedClause(clause, req.id) for req in reqs for clause in req.clauses
        )
        heads = {ac.clause.head.signal for ac in rules}
        inputs: set[str] = set()
        warnings: list[Diagnostic] = []
        for req in reqs:
            for sig in req.inputs:
                if sig in heads:
                    warnings.append(
                        Diagnostic(
                            f"signal {sig!r} declared input in requirement "
                            f"{req.id!r} but derived by a clause head; "
                            f"treating it as derived",
                            severity="warning",
                        )
                    )
                else:
                    inputs.add(sig)
        return cls(rules, tuple(sorted(inputs)), tuple(warnings))


@dataclass(frozen=True)
class ContradictionWitness:
    input_assignment: dict[str, bool]
    conflicted_signal: str
    involved_requirements: tuple[str, ...]
    fired_clauses: tuple[Clause, ...] = ()


def conflict_candidates(
    reqs: Sequence[Requirement], wide: bool = False
) -> list[tuple[str, str]]:
    """Requirement pairs sharing a head signal (or any signal with ``wide``)."""
    pairs: list[tuple[str, str]] = []
    for r1, r2 in combinations(reqs, 2):
        s1 = r1.all_signals() if wide else r1.head_signals()
        s2 = r2.all_signals() if wide else r2.head_signals()
        if s1 & s2:
            pairs.append((r1.id, r2.id))
    return pairs


def _lit_atom(lit: Literal) -> Atom:
    return (lit.signal, lit.positive)


def _fixpoint(
    rules: Sequence[AttributedClause], masks: dict[Atom, int], full: int
) -> list[tuple[int, int]]:
    """Least fixed point over every assignment pattern at once.

    ``masks`` maps each atom to the patterns (bits of an ``int`` within
    ``full``) under which it holds, and is updated in place.  Each pass scans
    the rules in order; a rule fires under the patterns where its body holds
    and it has not fired yet, and its head then holds there too.  Per pattern,
    a pass is one rescan of the rule list, so each pattern fires its rules in
    the order that chaining it alone would.  Returns the fire log:
    ``(rule index, patterns newly fired)`` in firing order.
    """
    bodies = [tuple(_lit_atom(lit) for lit in ac.clause.body) for ac in rules]
    heads = [_lit_atom(ac.clause.head) for ac in rules]
    fired = [0] * len(rules)
    log: list[tuple[int, int]] = []
    changed = True
    while changed:
        changed = False
        for idx, body in enumerate(bodies):
            new = full ^ fired[idx]
            for atom in body:
                if not new:
                    break
                new &= masks.get(atom, 0)
            if new:
                fired[idx] |= new
                head = heads[idx]
                masks[head] = masks.get(head, 0) | new
                log.append((idx, new))
                changed = True
    return log


def forward_chain(
    rules: Iterable[AttributedClause], facts: set[Atom]
) -> tuple[set[Atom], list[AttributedClause]]:
    """Least fixed point of the definite rules over signed atoms.

    Returns the derived set and the clauses that fired, in firing order.
    Terminates in at most one pass per derivable atom.
    """
    rules = tuple(rules)
    masks = dict.fromkeys(facts, 1)
    log = _fixpoint(rules, masks, 1)
    return {atom for atom, m in masks.items() if m}, [rules[idx] for idx, _ in log]


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
    masks: dict[Atom, int] = {}
    for i, sig in enumerate(rules.inputs):
        masks[(sig, True)] = pos = _input_mask(i, width)
        masks[(sig, False)] = full ^ pos
    log = _fixpoint(rules.rules, masks, full)
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
    fire_views = [(rules.rules[idx], view(new)) for idx, new in log if new & hit]
    witnesses: list[ContradictionWitness] = []
    for byte_index, byte in enumerate(view(hit)):
        for bit in range(8):
            if not byte >> bit & 1:
                continue
            pattern = byte_index << 3 | bit
            fired = [ac for ac, v in fire_views if v[byte_index] >> bit & 1]
            witnesses.append(
                ContradictionWitness(
                    input_assignment={
                        sig: bool(pattern >> i & 1) for i, sig in enumerate(rules.inputs)
                    },
                    conflicted_signal=next(
                        sig for sig, v in conflict_views if v[byte_index] >> bit & 1
                    ),
                    involved_requirements=tuple(
                        sorted({ac.requirement_id for ac in fired if ac.requirement_id})
                    ),
                    fired_clauses=tuple(ac.clause for ac in fired),
                )
            )
    return witnesses


def replay(rules: RuleSet, witness: ContradictionWitness) -> bool:
    """Re-run chaining on the witness's assignment alone: True iff that fires
    exactly the witness's clauses, in order, and derives both polarities of
    its conflicted signal (the fired clauses fix the derived atoms)."""
    derived, fired = forward_chain(rules.rules, set(witness.input_assignment.items()))
    sig = witness.conflicted_signal
    return (tuple(ac.clause for ac in fired) == witness.fired_clauses
            and (sig, True) in derived and (sig, False) in derived)


@dataclass(frozen=True)
class PairReport:
    first: str
    second: str
    witnesses: tuple[ContradictionWitness, ...]

    @property
    def consistent(self) -> bool:
        return not self.witnesses


def check_pair(r1: Requirement, r2: Requirement) -> PairReport:
    """Confirm or refute a conflict candidate from exactly two requirements."""
    rules = RuleSet.from_requirements([r1, r2])
    witnesses = find_contradictions(rules)
    return PairReport(r1.id, r2.id, tuple(witnesses))
