"""Cut-set and minimal-cut-set computation for fault trees.

Structural expansion in the MOCUS style (Fussell & Vesely 1972): OR gates
union the families of their children, AND gates take pairwise unions across
child families (an AND's leaf children make one set).  A cut set is an
``int`` bit mask.  The leaf events that the top event reaches are ranked in
sorted name order, and each event's bit is its rank, so a union is ``a | b``
and ``k`` is a subset of ``c`` exactly when ``k & c == k``.  A fold over
:func:`safsec.model.post_order` from the top event expands each gate once,
after its inputs (shared gates are memoised); a gate cycle raises
``ValueError``.  For the minimal family, absorption runs after every AND
product step and at the end of every OR gate, so subsumed sets never grow
past the gate that made them and each gate's work is bounded by its
children's minimal families, not by the raw family.

Both expansions return a :class:`CutSets`: the masks and the ranked event
names, read as a set of ``frozenset``s of names.  :func:`canonical_order`
lists each set's events in sorted order and the sets in sorted order of
those tuples, whatever order the events were declared in.  It turns masks
into name tuples a byte at a time, through a table of name tuples per byte
position; since rank order is name order, every tuple comes out sorted, and
one sort of the tuples orders the family.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from collections.abc import Set as AbstractSet
from functools import reduce
from itertools import groupby, product, repeat
from operator import add, itemgetter, or_

from .model import FaultTree, GateOp, post_order

CutSet = frozenset[str]


def _selector(byte: int) -> itemgetter:
    """A function from up to 8 names to the tuple of those at ``byte``'s set bits."""
    bits = [bit for bit in range(8) if byte >> bit & 1]
    if len(bits) > 1:
        return itemgetter(*bits)
    return itemgetter(slice(bits[0], bits[0] + 1) if bits else slice(0))


# Byte -> its selector; and byte -> 1 if it is nonzero, for ``bytes.translate``.
_SELECT = tuple(map(_selector, range(256)))
_NONZERO = bytes(byte > 0 for byte in range(256))


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
        return map(frozenset, _name_tuples(self))

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
        order = list(post_order([tree.top], tree.inputs, "gate"))
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


def _name_tuples(family: CutSets) -> list[tuple[str, ...]]:
    """Each mask's event names in rank order, in the order of ``family.masks``.

    The masks' little-endian bytes are laid end to end, so a strided slice is
    the column of one byte position, and a position that no mask uses is
    skipped.  Where at least half the masks use a position, a table maps each
    byte value in its column to the names of its set bits, and every tuple is
    extended at once; elsewhere only the masks that use it are, found a run
    of zero bytes at a time.  So the work per mask is bounded by its nonzero
    bytes.
    """
    masks, events = family.masks, family.events
    count, width = len(masks), (len(events) + 7) >> 3
    data = b"".join(map(int.to_bytes, masks, repeat(width), repeat("little")))
    tuples: list[tuple[str, ...]] = [()] * count
    for position in range(width):
        column = data[position::width]
        zeros = column.count(0)
        if zeros == count:
            continue
        names = events[8 * position:8 * position + 8]
        if 2 * zeros <= count:
            table = {byte: _SELECT[byte](names) for byte in set(column)}
            tuples = list(map(add, tuples, map(table.__getitem__, column)))
            continue
        flags = column.translate(_NONZERO)
        i = flags.find(1)
        while i >= 0:
            tuples[i] += _SELECT[column[i]](names)
            i = flags.find(1, i + 1)
    return tuples


def canonical_order(family: Iterable[Iterable[str]]) -> list[tuple[str, ...]]:
    """Stable report order: events sorted within sets, sets sorted as tuples."""
    tuples = _name_tuples(CutSets.of(family))
    tuples.sort()
    return tuples
