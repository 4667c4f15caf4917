"""Noncrossing partitions, Kreweras complements, concordance, matchings.

Boundary labels are the integers 1..n.  The "tilde" copy of the label k
is stored internally as the integer n + k and rendered as ``k~`` on
output.  All circular reasoning uses the interleaved order

    1, 1~, 2, 2~, ..., n, n~

where label i sits at circle position 2*(i-1) and label k~ at position
2*(k-1) + 1 (positions run 0..2n-1).  This is the single place where
that convention is defined; every other module imports it from here.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache


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


def _blocks_cross(b1, b2) -> bool:
    # Interleave the two sorted blocks; they cross iff the block labels
    # alternate at least 1,2,1,2 along the line (equivalently the circle).
    merged = sorted([(x, 0) for x in b1] + [(x, 1) for x in b2])
    runs = [k for k, _ in itertools.groupby(tag for _, tag in merged)]
    return len(runs) >= 4


def is_partition(n: int, blocks) -> bool:
    seen = set()
    for b in blocks:
        for x in b:
            if x in seen:
                return False
            seen.add(x)
    return seen == set(range(1, n + 1))


def is_noncrossing(n: int, blocks) -> bool:
    """True iff no two blocks contain a crossing quadruple a<b<c<d."""
    blocks = canonical_blocks(blocks)
    if not is_partition(n, blocks):
        raise ValueError("blocks do not partition {1..n}")
    return not any(
        _blocks_cross(b1, b2) for b1, b2 in itertools.combinations(blocks, 2)
    )


def is_noncrossing_on_circle(blocks, position) -> bool:
    """Noncrossing test for blocks of arbitrary labels placed on a circle.

    ``position`` maps each label to its circle position; positions of
    distinct labels must be distinct.
    """
    placed = [tuple(sorted(position(x) for x in b)) for b in blocks]
    return not any(
        _blocks_cross(b1, b2) for b1, b2 in itertools.combinations(placed, 2)
    )


@dataclass(frozen=True, slots=True)
class NoncrossingPartition:
    """A noncrossing partition of {1..n}, blocks in canonical order."""

    n: int
    blocks: tuple

    @classmethod
    def from_blocks(cls, n: int, blocks) -> "NoncrossingPartition":
        blocks = canonical_blocks(blocks)
        if not is_partition(n, blocks):
            raise ValueError(f"not a partition of [{n}]: {blocks}")
        if not is_noncrossing(n, blocks):
            raise ValueError(f"partition is crossing: {blocks}")
        return cls(n, blocks)

    @classmethod
    def singletons(cls, n: int) -> "NoncrossingPartition":
        return cls(n, tuple((i,) for i in range(1, n + 1)))

    @classmethod
    def one_block(cls, n: int) -> "NoncrossingPartition":
        return cls(n, (tuple(range(1, n + 1)),))

    def block_of(self, label: int) -> tuple:
        for b in self.blocks:
            if label in b:
                return b
        raise ValueError(f"label {label} not in [{self.n}]")

    def num_blocks(self) -> int:
        return len(self.blocks)

    def __str__(self) -> str:
        return "{" + "},{".join(",".join(str(x) for x in b) for b in self.blocks) + "}"


@lru_cache(maxsize=None)
def enumerate_noncrossing(n: int) -> tuple:
    """All noncrossing partitions of [n], lexicographic on canonical blocks.

    The length is the Catalan number Cat_n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    results = []

    # Grow partitions element by element; appending x to a block B is
    # allowed unless some other block straddles B (then the chord from
    # max(B) to x would cut it).
    def grow(x, blocks):
        if x > n:
            results.append(NoncrossingPartition(n, canonical_blocks(blocks)))
            return
        for i, b in enumerate(blocks):
            if all(not (other[0] < b[0] and other[-1] > b[-1])
                   for other in blocks if other != b):
                grow(x + 1, blocks[:i] + (b + (x,),) + blocks[i + 1:])
        grow(x + 1, blocks + ((x,),))

    grow(2, ((1,),))
    results.sort(key=lambda p: p.blocks)
    return tuple(results)


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


@dataclass(frozen=True)
class KrewerasPair:
    """A noncrossing partition together with its Kreweras complement.

    ``tilde_blocks`` partitions the labels n+1..2n; the union of the two
    partitions is noncrossing on the interleaved circle, and the block
    counts sum to n + 1.
    """

    sigma: NoncrossingPartition
    tilde_blocks: tuple

    @classmethod
    def of(cls, sigma: NoncrossingPartition) -> "KrewerasPair":
        return cls(sigma, _kreweras_tilde_blocks(sigma))

    @property
    def n(self) -> int:
        return self.sigma.n

    def all_blocks(self) -> tuple:
        return self.sigma.blocks + self.tilde_blocks


def _separated(n, p, q, block) -> bool:
    # Does the block (given as circle positions) have elements strictly on
    # both sides of the chord through positions p and q?
    lo, hi = min(p, q), max(p, q)
    inside = any(lo < x < hi for x in block)
    outside = any(x < lo or x > hi for x in block)
    return inside and outside


def _kreweras_tilde_blocks(sigma: NoncrossingPartition) -> tuple:
    """Kreweras complement of sigma, as blocks of the labels n+1..2n.

    Two tilde points belong to the same block iff no block of sigma has
    elements on both sides of the chord joining them; for a noncrossing
    sigma this "same face of the disc" relation is an equivalence.
    """
    n = sigma.n
    placed = [
        tuple(circle_position(n, x) for x in b) for b in sigma.blocks
    ]
    parent = {k: k for k in range(n + 1, 2 * n + 1)}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in itertools.combinations(range(n + 1, 2 * n + 1), 2):
        pa, pb = circle_position(n, a), circle_position(n, b)
        if not any(_separated(n, pa, pb, blk) for blk in placed):
            parent[find(a)] = find(b)

    groups = {}
    for k in range(n + 1, 2 * n + 1):
        groups.setdefault(find(k), []).append(k)
    tilde = canonical_blocks(groups.values())
    if len(tilde) != n + 1 - sigma.num_blocks():
        raise AssertionError(f"Kreweras block count wrong for {sigma}")
    if not is_noncrossing_on_circle(
        sigma.blocks + tilde, lambda x: circle_position(n, x)
    ):
        raise AssertionError(f"Kreweras union crosses for {sigma}")
    return tilde


def kreweras_complement(sigma: NoncrossingPartition) -> NoncrossingPartition:
    """The Kreweras complement, relabeled k~ -> k as a partition of [n]."""
    n = sigma.n
    tilde = _kreweras_tilde_blocks(sigma)
    return NoncrossingPartition.from_blocks(
        n, [tuple(x - n for x in b) for b in tilde]
    )


def is_concordant(index_set, blocks) -> bool:
    """True iff every block contains exactly one element of the index set."""
    s = set(index_set)
    return all(len(s.intersection(b)) == 1 for b in blocks)


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


@dataclass(frozen=True)
class Matching:
    """A perfect matching on {1..2n}, pairs in canonical order."""

    n: int
    pairs: tuple

    @classmethod
    def from_pairs(cls, n: int, pairs) -> "Matching":
        canon = canonical_blocks(pairs)
        flat = [x for p in canon for x in p]
        if sorted(flat) != list(range(1, 2 * n + 1)) or any(
            len(p) != 2 for p in canon
        ):
            raise ValueError(f"not a perfect matching on [2n]: {pairs}")
        return cls(n, canon)

    def partner(self, i: int) -> int:
        for a, b in self.pairs:
            if i == a:
                return b
            if i == b:
                return a
        raise ValueError(f"{i} not matched")
