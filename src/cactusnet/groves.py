"""Grove enumeration and grove measurements.

A grove of the quotient graph is a spanning acyclic subgraph in which
every connected component contains a boundary vertex.  Each grove
induces a partition of the boundary labels 1..n (labels sharing a tree);
for a planar embedded network that partition is noncrossing.  The
measurement vector collects, for every noncrossing partition, the sum of
conductance products over groves inducing it.  It is stored sparsely:
``GroveMeasurements.values`` holds only the partitions some grove
induces, and every other partition measures 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .combinat import NoncrossingPartition, enumerate_noncrossing
from .linalg import _sparse_ratio
from .network import CactusNetwork, QuotientGraph, quotient_graph, require_valid

GROVE_EDGE_CAP = 20
# Largest n whose dense Lambda vector (Cat_n entries) the CLI prints:
# Cat_13 = 742,900 entries, Cat_14 = 2,674,440.  The edgeless n = 13
# document (40 MB, streamed) takes 0.71 s and peaks at 58 MB RSS in a
# fresh process on a 2-vCPU Xeon VM; a 12-edge n = 12 wheel takes 0.29 s
# and 30 MB.
DENSE_LAMBDA_MAX_N = 13

_ZERO = Fraction(0)


def _find(parent: list, x: int) -> int:
    """Root of x in a list-based union-find, halving the path on the way.

    Unions link the larger root under the smaller, so a root is the
    smallest index in its tree.
    """
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _as_quotient(net) -> QuotientGraph:
    if isinstance(net, QuotientGraph):
        return net
    return quotient_graph(net)


def _edge_ends(qg: QuotientGraph) -> dict:
    """Edge id -> its two ends as indices into ``qg.vertices``.

    The boundary blocks come first, so boundary block b has index b.
    """
    index = {v: i for i, v in enumerate(qg.vertices)}
    return {eid: (index[u], index[v]) for eid, u, v, _ in qg.edges}


def enumerate_groves(net):
    """Yield groves as sorted tuples of edge ids, in lexicographic order.

    Accepts a network or its quotient graph.  Loop edges of the quotient
    never appear in a grove.
    """
    qg = _as_quotient(net)
    if len(qg.edges) > GROVE_EDGE_CAP:
        raise ValueError(
            f"too many edges for grove enumeration (cap {GROVE_EDGE_CAP})"
        )
    eids = sorted(eid for eid, *_ in qg.edges)
    ends = _edge_ends(qg)
    nboundary, nvertices = len(qg.boundary), len(qg.vertices)

    def is_grove(parent):
        # a root is the smallest index in its tree, so a tree holds a
        # boundary block iff its root is one
        return all(_find(parent, v) < nboundary
                   for v in range(nboundary, nvertices))

    def extend(start, parent, chosen):
        if is_grove(parent):
            yield tuple(chosen)
        for k in range(start, len(eids)):
            u, v = ends[eids[k]]
            ru, rv = _find(parent, u), _find(parent, v)
            if ru == rv:
                continue  # would close a cycle
            joined = parent[:]
            joined[max(ru, rv)] = min(ru, rv)
            chosen.append(eids[k])
            yield from extend(k + 1, joined, chosen)
            chosen.pop()

    yield from extend(0, list(range(nvertices)), [])


def _boundary_roots(ends, nvertices: int, nboundary: int, edge_ids) -> tuple:
    """For every boundary block, the smallest block the edges connect it to.

    This is a canonical key of the induced partition: two groves induce
    the same partition iff their keys are equal.
    """
    parent = list(range(nvertices))
    for eid in edge_ids:
        u, v = ends[eid]
        ru, rv = _find(parent, u), _find(parent, v)
        parent[max(ru, rv)] = min(ru, rv)
    return tuple(_find(parent, b) for b in range(nboundary))


def _partition(qg: QuotientGraph, roots) -> NoncrossingPartition:
    """The partition of [n] whose blocks join the boundary blocks sharing a root."""
    groups = {}
    for root, block in zip(roots, qg.boundary):
        groups.setdefault(root, []).extend(block)
    n = sum(len(b) for b in qg.boundary)
    return NoncrossingPartition.from_blocks(n, groups.values())


def grove_partition(net, edge_ids) -> NoncrossingPartition:
    """The boundary partition induced by a grove."""
    qg = _as_quotient(net)
    return _partition(qg, _boundary_roots(
        _edge_ends(qg), len(qg.vertices), len(qg.boundary), edge_ids))


@dataclass
class GroveMeasurements:
    """Measurement vector indexed by noncrossing partitions of [n].

    ``values`` may omit partitions: a missing partition measures 0.
    ``lambda_vector`` stores only the nonzero values.
    """

    n: int
    values: dict  # NoncrossingPartition -> Fraction

    def __getitem__(self, sigma) -> Fraction:
        return self.values.get(sigma, _ZERO)

    def as_list(self):
        """Values in the deterministic enumeration order of partitions."""
        return [self[s] for s in enumerate_noncrossing(self.n)]

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values.values())


def lambda_vector(net: CactusNetwork) -> GroveMeasurements:
    """The grove measurements of a valid network, nonzero values only."""
    require_valid(net)
    qg = quotient_graph(net)
    ends = _edge_ends(qg)
    nvertices, nboundary = len(qg.vertices), len(qg.boundary)
    # Integer weights a_e = c_e * d, d the lcm of the denominators: a grove
    # of k edges weighs (product of its a_e) / d**k.
    d = math.lcm(*(c.denominator for *_, c in qg.edges))
    weight = {eid: c.numerator * (d // c.denominator) for eid, _, _, c in qg.edges}
    classes = {}  # boundary roots -> {grove size: sum of integer weights}
    for grove in enumerate_groves(qg):
        w = 1
        for eid in grove:
            w *= weight[eid]
        sizes = classes.setdefault(
            _boundary_roots(ends, nvertices, nboundary, grove), {})
        sizes[len(grove)] = sizes.get(len(grove), 0) + w
    return GroveMeasurements(net.n, {
        _partition(qg, roots): sum(Fraction(s, d**k) for k, s in sizes.items())
        for roots, sizes in classes.items()
    })


def proportionality_factor(m1: GroveMeasurements, m2: GroveMeasurements):
    """The positive rational t with m2 = t * m1, or None.

    Zero vectors are not proportional to anything (no measurement vector
    of a valid network is zero: the full quotient graph always has some
    grove).
    """
    if m1.n != m2.n:
        return None
    return _sparse_ratio(m1.values, m2.values)


def equivalence_factor(net1: CactusNetwork, net2: CactusNetwork):
    """The positive rational q with Lambda(net1) = q * Lambda(net2), or None."""
    return proportionality_factor(lambda_vector(net2), lambda_vector(net1))


def electrically_equivalent(net1: CactusNetwork, net2: CactusNetwork) -> bool:
    return equivalence_factor(net1, net2) is not None
