"""Cut-set and minimal-cut-set computation for fault trees.

Structural expansion in the MOCUS style (Fussell & Vesely 1972): OR gates
union the families of their children, AND gates take pairwise unions across
child families (an AND's leaf children make one set).  A cut set is an
``int`` bit mask.  The leaf events that the top event reaches are ranked in
sorted name order, and each event's bit is its rank, so a union is ``a | b``
and ``k`` is a subset of ``c`` exactly when ``k & c == k``.  A fold over
the tree's post-order from its top event (``FaultTree.top_order``, cached
for the validator too) expands each gate once, after its inputs (shared
gates are memoised); a gate cycle raises ``ValueError``.  For the minimal
family, absorption runs after every AND product step and at the end of
every OR gate, so subsumed sets never grow past the gate that made them and
each gate's work is bounded by its children's minimal families, not by the
raw family.

Both expansions return a :class:`CutSets`: the masks and the ranked event
names, read as a set of ``frozenset``s of names.  Canonical order lists
each set's events in sorted order and the sets in sorted order of those
name tuples, whatever order the events were declared in.
:func:`canonical_rows` puts a family in that order straight from its masks,
a byte of them at a time: it joins each set's rank bytes into its key and
the caller's fragments into its row, and one sort of the keys orders the
rows.  The CLI writes JSON and text rows this way; :func:`canonical_order`
returns rows of names.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Iterable, Iterator, Sequence
from collections.abc import Set as AbstractSet
from functools import partial, reduce
from itertools import compress, groupby, product, repeat
from operator import or_
from typing import TypeVar

from .model import FaultTree, GateOp

CutSet = frozenset[str]
Row = TypeVar("Row", str, bytes, tuple)
Joiner = Callable[[Iterable[Row]], Row]  # e.g. "".join
_BIT = (1, 2, 4, 8, 16, 32, 64, 128)  # each bit of a byte


def _bits(events: tuple[str, ...]) -> dict[str, int]:
    """Each event's bit: the one its rank in ``events`` names."""
    return {event: 1 << rank for rank, event in enumerate(events)}


class CutSets(AbstractSet):
    """A read-only family of cut sets.

    ``masks`` holds one ``int`` per cut set, in which bit ``i`` stands for
    ``events[i]``; ``events`` is sorted.  Read as a set, the family holds
    ``frozenset``s of event names, so it equals the plain set of the same cut
    sets.  Neither field may be mutated.
    """

    __slots__ = ("masks", "events")

    def __init__(self, masks: AbstractSet[int], events: tuple[str, ...]) -> None:
        self.masks = masks
        self.events = events

    @classmethod
    def of(cls, family: Iterable[Iterable[str]]) -> CutSets:
        """``family`` itself if it is a ``CutSets``, else the family of its
        name sets, ranked over the names they use."""
        if isinstance(family, CutSets):
            return family
        sets = [frozenset(s) for s in family]
        events = tuple(sorted(frozenset().union(*sets)))
        bits = _bits(events)
        return cls({sum(map(bits.__getitem__, s)) for s in sets}, events)

    @classmethod
    def _from_iterable(cls, it: Iterable[CutSet]) -> frozenset[CutSet]:
        return frozenset(it)  # the result of ``&``, ``|``, ``-`` and ``^``

    def __len__(self) -> int:
        return len(self.masks)

    def __iter__(self) -> Iterator[CutSet]:
        return map(frozenset, canonical_order(self))

    def __contains__(self, cut: object) -> bool:
        if not isinstance(cut, AbstractSet):
            return False
        bits = _bits(self.events)
        try:
            mask = sum(map(bits.__getitem__, cut))
        except (KeyError, TypeError):  # a name outside the family, or unhashable
            return False
        return mask in self.masks

    def __repr__(self) -> str:
        return f"CutSets({canonical_order(self)!r})"


def cut_sets(tree: FaultTree) -> CutSets:
    """Expand the tree into its family of cut sets (not minimised)."""
    return _expand(tree, minimal=False)


def minimal_cut_sets(tree: FaultTree) -> CutSets:
    """The subset-minimal antichain of the tree's cut sets."""
    return _expand(tree, minimal=True)


def _expand(tree: FaultTree, minimal: bool) -> CutSets:
    """Family of the top event, each gate expanded once, in post-order.

    Memoised families are shared between parents and never mutated.
    """
    try:
        order = tree.top_order
    except ValueError as exc:
        raise ValueError(f"fault tree {tree.name!r}: {exc}") from None
    events = tuple(sorted(node for node in order if tree.gate(node) is None))
    bit = _bits(events)
    done: dict[str, AbstractSet[int]] = {}
    for node in order:
        if node in bit:
            continue
        op, children = tree.gate(node)
        leaf_bits = [bit[child] for child in children if child in bit]
        families = [done[child] for child in children if child not in bit]
        if op is GateOp.OR:
            family = set(leaf_bits).union(*families)
            done[node] = minimize(CutSets(family, events)).masks if minimal else family
            continue
        if leaf_bits or not families:  # the leaf children make one set
            families.insert(0, {reduce(or_, leaf_bits, 0)})
        family = families[0]
        for fam in families[1:]:
            family = {a | b for a, b in product(family, fam)}
            if minimal:
                family = minimize(CutSets(family, events)).masks
        done[node] = family
    return CutSets(done[tree.top] if tree.top in done else {bit[tree.top]}, events)


def minimize(family: Iterable[Iterable[str]]) -> CutSets:
    """Drop every set that strictly contains another set of the family.

    Sets are taken in order of size and each is tested only against the kept
    sets that are strictly smaller, with ``k & c == k``: two distinct sets of
    one size cannot contain each other, so a family of one size is returned
    as it is.
    """
    family = CutSets.of(family)
    if len(set(map(int.bit_count, family.masks))) <= 1:
        return family
    kept: list[int] = []
    for _, candidates in groupby(sorted(family.masks, key=int.bit_count), int.bit_count):
        smaller = kept.copy()
        for candidate in candidates:
            for k in smaller:
                if k & candidate == k:
                    break
            else:
                kept.append(candidate)
    return CutSets(set(kept), family.events)


def canonical_rows(family: CutSets, fragments: Sequence[Row], join: Joiner = "".join) -> list[Row]:
    """For each set of ``family`` in canonical order, the ``join`` of
    ``fragments[i]`` over its events ``family.events[i]``, in rank order.

    Rank order is name order, so a set's key, the bytes of its ranks (as
    many per rank as the largest needs), sorts as its name tuple does, and
    no two sets share one.  The masks' little-endian bytes are laid end to
    end, so a strided slice is the column of one byte position; a column
    that fewer than half the masks use is read only at those masks, so the
    work per mask is bounded by its nonzero bytes.
    """
    events, count = family.events, len(family.masks)
    width, size = (len(events) + 7) >> 3, max(1, ((len(events) - 1).bit_length() + 7) >> 3)
    data = b"".join(map(int.to_bytes, family.masks, repeat(width), repeat("little")))
    columns = []  # (position, column, byte values present, users or None if read whole)
    for position in range(width):
        column = data[position::width]
        zeros = column.count(0)
        if zeros < count:  # else no mask uses this byte
            users = [m.start() for m in re.finditer(b"[^\0]", column)] if 2 * zeros > count else None
            present = set(column) if users is None else set(map(column.__getitem__, users))
            columns.append((position, column, present, users))
    keys = _joined(columns, count, [rank.to_bytes(size, "big") for rank in range(len(events))], b"".join)
    rows = _joined(columns, count, fragments, join)
    return list(map(rows.__getitem__, sorted(range(count), key=keys.__getitem__)))


def _joined(columns: list, count: int, fragments: Sequence[Row], join: Joiner) -> list[Row]:
    """For each of ``count`` masks, the ``join`` of ``fragments[i]`` over its
    set bits ``i``, from the ``columns`` of their bytes.  Each run of
    columns read whole is joined into every row at once; another column
    extends only the rows of its users."""
    rows, run = [join(())] * count, []
    for position, column, present, users in columns:
        table = _table(present, fragments[8 * position:8 * position + 8], join)
        if users is None:
            run.append(map(table.__getitem__, column))
            continue
        if run:
            rows, run = list(map(join, zip(rows, *run))), []
        for i in users:
            rows[i] += table[column[i]]
    return list(map(join, zip(rows, *run))) if run else rows


def _table(present: set[int], names: Sequence[Row], join: Joiner) -> Sequence[Row]:
    """Byte value -> the ``join`` of ``names[bit]`` over its set bits: for
    each value ``present`` when there are few, else for every value up to
    the highest bit in use, built by doubling."""
    used = reduce(or_, present)
    if len(present) << 3 < 1 << used.bit_length():
        return {value: join(compress(names, map(value.__and__, _BIT))) for value in present}
    table = [join(())]
    for bit in range(used.bit_length()):
        table += [row + names[bit] for row in table] if used >> bit & 1 else table
    return table


def canonical_order(family: Iterable[Iterable[str]]) -> list[tuple[str, ...]]:
    """Stable report order: events sorted within sets, sets sorted as tuples."""
    family = CutSets.of(family)
    return canonical_rows(family, [(event,) for event in family.events], partial(sum, start=()))
