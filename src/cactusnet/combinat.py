"""Noncrossing partitions, Kreweras complements, concordance, matchings.

Boundary labels are the integers 1..n.  The "tilde" copy of the label k
is stored internally as the integer n + k and rendered as ``k~`` on
output.  All circular reasoning uses the interleaved order

    1, 1~, 2, 2~, ..., n, n~

where label i sits at circle position 2*(i-1) and label k~ at position
2*(k-1) + 1 (positions run 0..2n-1).  This is the single place where
that convention is defined; every other module imports it from here.

The noncrossing partitions of [n] are enumerated by one walk over the
blocks of each interval's least label, which builds their names, not
their blocks, in runs: one for each block of 1, holding the names that
start with it.  ``noncrossing_runs`` (the runs, for the Lambda writer),
``noncrossing_names`` (the names) and ``enumerate_noncrossing`` (the
partitions, read back from the names) are views of that walk.
"""

import itertools
import math
from functools import lru_cache


class Record:
    """Base of the plain record classes.

    ``_fields`` names the attributes that ``__init__`` sets, in order; the
    repr and the value equality read them.  A record is unhashable unless
    its class defines ``__hash__``.
    """

    __slots__ = ()
    _fields = ()
    __hash__ = None

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(" + ", ".join(
            f"{f}={getattr(self, f)!r}" for f in self._fields) + ")"


class FrozenRecord(Record):
    """A hashable record whose fields are set once, by ``__init__``.

    Subclasses write ``__init__`` through ``object.__setattr__``.
    Equality and the hash read ``_fields``.
    """

    __slots__ = ()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copy and pickle through __init__
        return type(self), self._values()


def circle_position(n: int, label: int) -> int:
    """Position of a label on the interleaved circle (0-based)."""
    if 1 <= label <= n:
        return 2 * (label - 1)
    if n < label <= 2 * n:
        return 2 * (label - n - 1) + 1
    raise ValueError(f"label {label} out of range for n={n}")


def format_element(n: int, label: int) -> str:
    return str(label) if label <= n else f"{label - n}~"


def canonical_blocks(blocks) -> tuple:
    """Blocks as sorted tuples, ordered by minimum element."""
    return tuple(sorted(tuple(sorted(b)) for b in blocks))


def is_partition(n: int, blocks) -> bool:
    seen = set()
    for b in blocks:
        if not b:
            return False
        for x in b:
            if x in seen:
                return False
            seen.add(x)
    return seen == set(range(1, n + 1))


def _crossing(n: int, blocks) -> bool:
    """True iff two of the blocks cross; the blocks must partition [n]."""
    block_of = [0] * n
    for i, b in enumerate(blocks):
        for x in b:
            block_of[x - 1] = i
    return _crossing_scan(block_of, [len(b) for b in blocks])


def _crossing_scan(block_of, left) -> bool:
    """True iff two blocks of a partition cross.  ``block_of`` lists the
    block of each element in circle order and ``left[i]`` is the size of
    block i; ``left`` is used up.

    One scan keeps the open blocks (seen, not yet finished) on a stack.
    Blocks are properly nested iff every element belongs to a new block
    or to the block on top of the stack.
    """
    sizes = left[:]
    stack = []
    for i in block_of:
        if left[i] == sizes[i]:
            stack.append(i)
        elif stack[-1] != i:
            return True
        left[i] -= 1
        if not left[i]:
            stack.pop()
    return False


def is_noncrossing(n: int, blocks) -> bool:
    """True iff no two blocks contain a crossing quadruple a<b<c<d."""
    blocks = [tuple(b) for b in blocks]
    if not is_partition(n, blocks):
        raise ValueError("blocks do not partition {1..n}")
    return not _crossing(n, blocks)


class NoncrossingPartition(FrozenRecord):
    """A noncrossing partition of {1..n}, blocks in canonical order."""

    __slots__ = _fields = ("n", "blocks")

    def __init__(self, n: int, blocks: tuple):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "blocks", blocks)

    @classmethod
    def from_blocks(cls, n: int, blocks) -> "NoncrossingPartition":
        blocks = canonical_blocks(blocks)
        if not is_partition(n, blocks):
            raise ValueError(f"not a partition of [{n}]: {blocks}")
        if _crossing(n, blocks):
            raise ValueError(f"partition is crossing: {blocks}")
        return cls(n, blocks)

    @classmethod
    def singletons(cls, n: int) -> "NoncrossingPartition":
        return cls(n, tuple((i,) for i in range(1, n + 1)))

    def __str__(self) -> str:
        return ",".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks)


# the mids of a block with no inner gap: one empty rest, no product
_NO_GAP = ("",)


def _noncrossing_walk(n: int):
    """The generator behind ``noncrossing_runs``.

    ``blocks(a, b)`` walks the blocks of a among a..b in lexicographic
    order, in preorder on an explicit stack: each block, then its
    extensions by each larger label x, x ascending.  With a block go its
    name without the closing "}", grown by "," + str(x) per extension,
    its last element, and its mids: the names of the partitions of its
    inner gaps (the nonempty intervals between its elements), in product
    order with the first gap slowest.  A block meeting two gaps would
    cross the block, so the gaps are partitioned on their own; that is
    the lexicographic order of the canonical block tuples.  A stacked
    block holds its parent's mids and the bounds of its newest gap, and
    its own mids are built when it is popped, which keeps the peak memory
    down.  ``interval(a, b)`` lists the names of the partitions of a..b,
    each starting with ","; it is built once per call and kept, so the
    lists handed out may be shared.
    """
    memo = {}

    def interval(a: int, b: int) -> list:
        got = memo.get((a, b))
        if got is None:
            got = memo[a, b] = []
            for name, last, mids in blocks(a, b):
                head = "," + name + "}"
                if last == b:
                    got.extend([head + m for m in mids])
                elif mids is _NO_GAP:
                    got.extend([head + r for r in interval(last + 1, b)])
                else:
                    tail = interval(last + 1, b)
                    got.extend([p + r for p in [head + m for m in mids]
                                for r in tail])
        return got

    def blocks(a: int, b: int):
        stack = [("{" + str(a), a, _NO_GAP, None)]
        while stack:
            name, last, mids, gap = stack.pop()
            if gap:
                got = interval(*gap)
                mids = got if mids is _NO_GAP else [
                    m + p for m in mids for p in got]
            yield name, last, mids
            for x in range(b, last, -1):
                stack.append((name + "," + str(x), x, mids,
                              (last + 1, x - 1) if x > last + 1 else None))

    for name, last, mids in blocks(1, n):
        if last == n:
            yield name + "}", mids
        elif mids is _NO_GAP:
            yield name + "}", interval(last + 1, n)
        else:
            tail = interval(last + 1, n)
            yield name + "}", [m + r for m in mids for r in tail]


def noncrossing_runs(n: int):
    """Iterator over the ``str`` of every noncrossing partition of [n] in
    runs ``(first, rests)``, one for each block of 1: the names
    ``first + r``, r in ``rests``, in enumeration order.  ``first`` is the
    name of the block of 1 and each r is empty or starts with ``","``.
    The lists of rests may be shared: do not mutate them.  Raises
    ``ValueError`` at once for n < 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _noncrossing_walk(n)


def noncrossing_names(n: int):
    """Iterator over the ``str`` of every noncrossing partition of [n], in
    enumeration order.  Raises ``ValueError`` at once for n < 1."""
    return (first + r for first, rests in noncrossing_runs(n) for r in rests)


@lru_cache(maxsize=None)
def enumerate_noncrossing(n: int) -> tuple:
    """All noncrossing partitions of [n], lexicographic on canonical blocks,
    read back from their names.

    The length is the Catalan number Cat_n.
    """
    cache = {}
    return tuple(NoncrossingPartition(n, _name_blocks(name, cache))
                 for name in noncrossing_names(n))


def _name_blocks(name: str, cache: dict) -> tuple:
    """The blocks of the partition named ``name``: "{1,3},{2}" gives
    ((1, 3), (2,)).  ``cache`` maps the text of each block read so far to
    its tuple, so a block shared by many names is read once."""
    return tuple(cache.get(b) or cache.setdefault(b, tuple(map(int, b.split(","))))
                 for b in name[1:-1].split("},{"))


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


class KrewerasPair(FrozenRecord):
    """A noncrossing partition together with its Kreweras complement.

    ``tilde_blocks`` partitions the labels n+1..2n; the union of the two
    partitions is noncrossing on the interleaved circle, and the block
    counts sum to n + 1.
    """

    _fields = ("sigma", "tilde_blocks")

    def __init__(self, sigma: NoncrossingPartition, tilde_blocks: tuple):
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "tilde_blocks", tilde_blocks)

    @classmethod
    def of(cls, sigma: NoncrossingPartition) -> "KrewerasPair":
        return cls(sigma, _kreweras_tilde_blocks(sigma.n, sigma.blocks))

    @property
    def n(self) -> int:
        return self.sigma.n

    def all_blocks(self) -> tuple:
        return self.sigma.blocks + self.tilde_blocks


def _kreweras_tilde_blocks(n: int, blocks: tuple) -> tuple:
    """Kreweras complement of the noncrossing partition sigma of [n] with
    these canonical blocks, as blocks of the labels n+1..2n.

    With sigma read as the permutation sending each label to the next one
    in its block (cyclically), the complement is sigma^-1 c for the long
    cycle c = (1 2 ... n): k~ is followed by (prev(k+1))~, where prev is
    the label before k+1 in its block.  Each cycle, entered at its least
    label, is increasing, so one pass over 1..n yields canonical blocks.
    Two checks guard it: the block counts sum to n + 1, and the union of
    sigma and the complement does not cross on the circle.
    """
    prev = [0] * (n + 1)
    # the block of each circle position, label x at 2x - 2 and k~ at
    # 2k - 1, for the check that the union is noncrossing
    block_of = [0] * (2 * n)
    sizes = []
    for i, b in enumerate(blocks):
        p = b[-1]
        for x in b:
            prev[x] = p
            p = x
            block_of[2 * x - 2] = i
        sizes.append(len(b))
    seen = [False] * (n + 1)
    tilde = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        cycle = []
        k = start
        while not seen[k]:
            seen[k] = True
            cycle.append(n + k)
            block_of[2 * k - 1] = len(sizes)
            k = prev[k % n + 1]
        tilde.append(tuple(cycle))
        sizes.append(len(cycle))
    tilde = tuple(tilde)
    if len(tilde) != n + 1 - len(blocks):
        raise AssertionError(f"Kreweras block count wrong for {blocks}")
    if _crossing_scan(block_of, sizes):
        raise AssertionError(f"Kreweras union crosses for {blocks}")
    return tilde


def kreweras_complement(sigma: NoncrossingPartition) -> NoncrossingPartition:
    """The Kreweras complement, relabeled k~ -> k as a partition of [n]."""
    n = sigma.n
    tilde = _kreweras_tilde_blocks(n, sigma.blocks)
    return NoncrossingPartition.from_blocks(
        n, [tuple(x - n for x in b) for b in tilde]
    )


def concordant_index_pairs(pair: KrewerasPair) -> list:
    """All (I, I~) concordant with the Kreweras pair.

    Each result is a pair of sorted tuples (I over 1..n, I~ over
    n+1..2n) with |I| + |I~| = n + 1.  Ordering is the product order
    over blocks in canonical order, which is deterministic.
    """
    out = []
    for choice in itertools.product(*pair.sigma.blocks):
        for tchoice in itertools.product(*pair.tilde_blocks):
            out.append((tuple(sorted(choice)), tuple(sorted(tchoice))))
    return out


class Matching(FrozenRecord):
    """A perfect matching on {1..2n}, pairs in canonical order."""

    _fields = ("n", "pairs")

    def __init__(self, n: int, pairs: tuple):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "pairs", pairs)

    @classmethod
    def from_pairs(cls, n: int, pairs) -> "Matching":
        canon = canonical_blocks(pairs)
        flat = [x for p in canon for x in p]
        if sorted(flat) != list(range(1, 2 * n + 1)) or any(
            len(p) != 2 for p in canon
        ):
            raise ValueError(f"not a perfect matching on [2n]: {pairs}")
        return cls(n, canon)
