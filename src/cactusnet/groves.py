"""Grove enumeration and grove measurements.

A grove of the quotient graph is a spanning acyclic subgraph in which
every connected component contains a boundary vertex.  Each grove
induces a partition of the boundary labels 1..n (labels sharing a tree);
for a planar embedded network that partition is noncrossing.  The
measurement vector collects, for every noncrossing partition, the sum of
conductance products over groves inducing it.  It is stored sparsely:
``GroveMeasurements.values`` holds only the partitions some grove
induces, and every other partition measures 0.

The search keeps its forest as a quick-find root list over the vertices
of the quotient graph, boundary blocks first: every vertex holds the
smallest index in its tree.  So a tree holds a boundary block iff its
root index is < nboundary, a node of the search is a grove iff no root
is >= nboundary, and the first nboundary roots are a canonical key of
the induced partition.  ``enumerate_groves`` yields that key with each
grove, and ``lambda_vector`` sums the grove weights under it.
"""

import math
from fractions import Fraction

from .combinat import NoncrossingPartition, Record, canonical_blocks
from .linalg import _sparse_ratio
from .network import CactusNetwork, QuotientGraph, quotient_graph, require_valid

GROVE_EDGE_CAP = 20
# Largest n whose dense Lambda vector (Cat_n entries) the CLI prints:
# Cat_13 = 742,900 entries, Cat_14 = 2,674,440.  The edgeless n = 13
# document (40 MB, streamed) takes 0.31 s in cli.main and peaks at 56 MB
# (VmHWM) in a fresh process on a 2-vCPU Xeon VM; a 12-edge n = 12 wheel
# takes 0.14 s and 28.5 MB.
DENSE_LAMBDA_MAX_N = 13

_ZERO = Fraction(0)


def _joined(root: list, u: int, v: int) -> list:
    """The roots after joining the trees of vertices u and v.

    The larger of the two roots gives way to the smaller, so every root
    stays the smallest index in its tree.
    """
    ru, rv = root[u], root[v]
    if ru > rv:
        ru, rv = rv, ru
    return [ru if r == rv else r for r in root]


def _as_quotient(net) -> QuotientGraph:
    if isinstance(net, QuotientGraph):
        return net
    require_valid(net)
    return quotient_graph(net)


def enumerate_groves(net):
    """Yield ``(grove, roots)`` pairs, the groves in lexicographic order.

    ``grove`` is the sorted tuple of the grove's edge ids.  ``roots`` is
    the tuple of the first nboundary quick-find roots: boundary blocks
    with equal roots share a tree, so it keys the induced partition
    (see ``_partition``).  Accepts a valid network or its quotient
    graph.  Loop edges of the quotient never appear in a grove.
    """
    qg = _as_quotient(net)
    if len(qg.edges) > GROVE_EDGE_CAP:
        raise ValueError(
            f"too many edges for grove enumeration (cap {GROVE_EDGE_CAP})"
        )
    index = {v: i for i, v in enumerate(qg.vertices)}  # boundary block b has index b
    edges = sorted((eid, index[u], index[v]) for eid, u, v, _ in qg.edges)
    nboundary, nvertices = len(qg.boundary), len(qg.vertices)

    def extend(start, root, loose, chosen):
        # loose counts the trees without a boundary block
        if not loose:
            yield tuple(chosen), tuple(root[:nboundary])
        for k in range(start, len(edges)):
            eid, u, v = edges[k]
            ru, rv = root[u], root[v]
            if ru == rv:
                continue  # would close a cycle
            chosen.append(eid)
            yield from extend(k + 1, _joined(root, u, v),
                              loose - (max(ru, rv) >= nboundary), chosen)
            chosen.pop()

    yield from extend(0, list(range(nvertices)), nvertices - nboundary, [])


def _partition(qg: QuotientGraph, roots) -> NoncrossingPartition:
    """The partition of [n] whose blocks join the boundary blocks sharing a root.

    The boundary blocks of a valid network partition [n], and a grove of
    a planar network induces a noncrossing partition, so the blocks are
    only put in canonical order, not proved again.
    """
    groups = {}
    for root, block in zip(roots, qg.boundary):
        groups.setdefault(root, []).extend(block)
    n = sum(len(b) for b in qg.boundary)
    return NoncrossingPartition(n, canonical_blocks(groups.values()))


class GroveMeasurements(Record):
    """Measurement vector indexed by noncrossing partitions of [n].

    ``values`` may omit partitions: a missing partition measures 0.
    ``lambda_vector`` stores only the nonzero values.
    """

    _fields = ("n", "values")

    def __init__(self, n: int, values: dict):
        self.n = n
        self.values = values  # NoncrossingPartition -> Fraction

    def __getitem__(self, sigma) -> Fraction:
        return self.values.get(sigma, _ZERO)


def lambda_vector(net: CactusNetwork) -> GroveMeasurements:
    """The grove measurements of a valid network, nonzero values only.

    Each grove's integer weight is added under the roots it is yielded
    with, one sum per grove size; each class then becomes one Fraction.

    Raises ``ValueError`` when no grove exists, that is when some internal
    vertex has no path to the boundary, so the vector is never zero.
    """
    require_valid(net)
    qg = quotient_graph(net)
    # Integer weights a_e = c_e * d, d the lcm of the denominators: a grove
    # of k edges weighs (product of its a_e) / d**k.
    d = math.lcm(*(c.denominator for *_, c in qg.edges))
    weight = {eid: c.numerator * (d // c.denominator) for eid, _, _, c in qg.edges}
    classes = {}  # boundary roots -> {grove size: sum of integer weights}
    for grove, roots in enumerate_groves(qg):
        sizes = classes.setdefault(roots, {})
        sizes[len(grove)] = sizes.get(len(grove), 0) + math.prod(
            map(weight.__getitem__, grove))
    if not classes:
        # only a component without a boundary block rules out every grove
        raise ValueError("an internal vertex is isolated from the boundary")
    values = {}  # one Fraction per class, over d**(its largest grove size)
    for roots, sizes in classes.items():
        top = max(sizes)
        values[_partition(qg, roots)] = Fraction(
            sum(s * d ** (top - k) for k, s in sizes.items()), d ** top)
    return GroveMeasurements(net.n, values)


def proportionality_factor(m1: GroveMeasurements, m2: GroveMeasurements):
    """The positive rational t with m2 = t * m1, or None.

    Zero vectors are not proportional to anything (``lambda_vector``
    never returns one: it raises when the network has no grove).
    """
    if m1.n != m2.n:
        return None
    return _sparse_ratio(m1.values, m2.values)


def equivalence_factor(net1: CactusNetwork, net2: CactusNetwork):
    """The positive rational q with Lambda(net1) = q * Lambda(net2), or None."""
    return proportionality_factor(lambda_vector(net2), lambda_vector(net1))


def electrically_equivalent(net1: CactusNetwork, net2: CactusNetwork) -> bool:
    return equivalence_factor(net1, net2) is not None
