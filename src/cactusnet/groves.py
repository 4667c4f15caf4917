"""Grove enumeration and grove measurements.

A grove of the quotient graph is a spanning acyclic subgraph in which
every connected component contains a boundary vertex.  Each grove
induces a partition of the boundary labels 1..n (labels sharing a tree);
for a planar embedded network that partition is noncrossing.  The
measurement vector collects, for every noncrossing partition, the sum of
conductance products over groves inducing it.  It is stored sparsely, as
integer sums over the partitions some grove induces; every other
partition measures 0.

The search walks the forests depth first on one explicit stack.  Each
forest is a quick-find root string over the vertices of the quotient
graph, boundary blocks first: character k is ``chr`` of the smallest
index in the tree of vertex k, so a join is one ``str.replace``.  A tree
holds a boundary block iff its root index is < nboundary, a forest is a
grove iff no root is >= nboundary, and the first nboundary characters
key the induced partition.  ``enumerate_groves`` yields that key and the
weight product each forest carries, and ``lambda_vector`` sums the
products under the key into one integer per class: a class of c trees
has groves of vertices - c edges, so it measures its sum over d to that
power, d the lcm of the conductance denominators.  ``GroveMeasurements``
keeps the sums, and ``named`` names each one from its roots, as the
``str`` of its partition: the names are how ``lambda``, ``lam_map`` and
``equivalence_factor`` read Lambda.  ``values``, keyed by partitions, is
built from the names on first read.
"""

import math
from fractions import Fraction
from functools import cached_property
from operator import itemgetter

from .combinat import NoncrossingPartition, Record, _name_blocks
from .linalg import _sparse_ratio
from .network import CactusNetwork, QuotientGraph, quotient_graph

GROVE_EDGE_CAP = 20
# Largest n whose dense Lambda vector (Cat_n entries) the CLI prints:
# Cat_13 = 742,900 entries, Cat_14 = 2,674,440.  The edgeless n = 13
# document (40 MB, streamed) takes 0.14 s in cli.main and peaks at 56 MB
# (VmHWM) in a fresh process on a 2-vCPU Xeon VM; a 12-edge n = 12 wheel
# takes 0.08 s and 27.5 MB.
DENSE_LAMBDA_MAX_N = 13

_ZERO = Fraction(0)


def enumerate_groves(qg: QuotientGraph, weight):
    """Yield ``(roots, product)`` for each grove, the groves in
    lexicographic order of their sorted edge ids.

    ``roots`` is the string of the first nboundary quick-find roots:
    boundary blocks with equal roots share a tree, so it keys the induced
    partition (see ``GroveMeasurements.named``).  ``product`` is the
    integer 1 times ``weight[e]`` for each grove edge e; ``weight`` maps
    every edge id of the quotient graph ``qg``.  Loop edges of the
    quotient never appear in a grove.

    A stacked forest is ``(next edge, roots, loose trees, product)``; its
    children are pushed last edge first, so they pop in order.
    """
    if len(qg.edges) > GROVE_EDGE_CAP:
        raise ValueError(
            f"too many edges for grove enumeration (cap {GROVE_EDGE_CAP})"
        )
    index = {v: i for i, v in enumerate(qg.vertices)}  # boundary block b has index b
    edges = sorted((eid, index[u], index[v]) for eid, u, v, _ in qg.edges)
    # (index of the next edge, ends, weight) from the last edge back; a
    # forest whose next edge is k may still add the first E - k of them
    backward = [(k + 1, u, v, weight[eid])
                for k, (eid, u, v) in enumerate(edges)][::-1]
    tails = [backward[:len(edges) - k] for k in range(len(edges) + 1)]
    nboundary, nvertices = len(qg.boundary), len(qg.vertices)
    internal = chr(nboundary)  # the least root of a tree without a block
    # loose counts the trees without a boundary block
    stack = [(0, "".join(map(chr, range(nvertices))), nvertices - nboundary, 1)]
    while stack:
        start, root, loose, product = stack.pop()
        if not loose:
            yield root[:nboundary], product
        for after, u, v, w in tails[start]:
            ru, rv = root[u], root[v]
            if ru == rv:
                continue  # would close a cycle
            if ru > rv:
                ru, rv = rv, ru  # the larger root gives way to the smaller
            stack.append((after, root.replace(rv, ru), loose - (rv >= internal),
                          product * w))


class GroveMeasurements(Record):
    """Measurement vector indexed by noncrossing partitions of [n], held
    as the integer sums of its classes.

    ``classes`` maps each root string over the ``boundary`` blocks of a
    quotient graph with ``nvertices`` vertices to the sum s of its grove
    weights: a class of c distinct roots measures s / d**(nvertices - c).
    A partition that no class names measures 0.
    """

    _fields = ("n", "boundary", "d", "nvertices", "classes")

    def __init__(self, n: int, boundary: tuple, d: int, nvertices: int, classes: dict):
        self.n, self.boundary, self.d = n, boundary, d
        self.nvertices, self.classes = nvertices, classes

    @cached_property
    def values(self) -> dict:
        """{NoncrossingPartition: Fraction}, read back from ``named``."""
        blocks = {}
        return {NoncrossingPartition(self.n, _name_blocks(name, blocks)): Fraction(p, q)
                for name, (p, q) in self.named().items()}

    def __getitem__(self, sigma) -> Fraction:
        return self.values.get(sigma, _ZERO)

    def named(self) -> dict:
        """{str(sigma): (p, q)}, p/q in lowest terms, one entry per class in
        order, named from the root strings without building a partition.
        The labels are read in order, each under its block's root, so
        every group comes out sorted and the groups in canonical order."""
        owner = sorted((x, i) for i, b in enumerate(self.boundary) for x in b)
        opens, adds = [f"{{{x}" for x, _ in owner], [f",{x}" for x, _ in owner]
        glued, named = len(owner) > len(self.boundary), {}
        pick = itemgetter(*(i for _, i in owner))  # the root of each label
        for roots, s in self.classes.items():
            groups = {}
            for root, first, more in zip(pick(roots) if glued else roots, opens, adds):
                if root in groups:
                    groups[root] += more
                else:
                    groups[root] = first
            q = self.d ** (self.nvertices - len(groups))
            g = math.gcd(s, q)
            named["},".join(groups.values()) + "}"] = (s // g, q // g)
        return named


def lambda_vector(net: CactusNetwork) -> GroveMeasurements:
    """The grove measurements of a network, nonzero values only.

    Each grove's integer weight, carried by the search, is added under its
    roots, one integer per class: ``GroveMeasurements``'s integer form.

    Raises ``ValueError`` on an invalid network (from ``quotient_graph``)
    and when no grove exists, that is when some internal vertex has no
    path to the boundary, so the vector is never zero.
    """
    qg = quotient_graph(net)
    # weights a_e = c_e * d: a grove of k edges weighs (product of a_e) / d**k
    d = math.lcm(*(c.denominator for *_, c in qg.edges))
    weight = {eid: c.numerator * (d // c.denominator) for eid, _, _, c in qg.edges}
    classes = {}  # boundary roots -> sum of integer weights
    for roots, product in enumerate_groves(qg, weight):
        classes[roots] = classes.get(roots, 0) + product
    if not classes:
        # only a component without a boundary block rules out every grove
        raise ValueError("an internal vertex is isolated from the boundary")
    return GroveMeasurements(net.n, qg.boundary, d, len(qg.vertices), classes)


def proportionality_factor(m1: GroveMeasurements, m2: GroveMeasurements):
    """The positive rational t with m2 = t * m1, or None.

    Zero vectors are not proportional to anything (``lambda_vector``
    never returns one: it raises when the network has no grove).
    """
    if m1.n != m2.n:
        return None
    # by name: root strings over two networks' boundaries need not agree
    u, v = ({name: Fraction(p, q) for name, (p, q) in m.named().items()}
            for m in (m1, m2))
    return _sparse_ratio(u, v)


def equivalence_factor(net1: CactusNetwork, net2: CactusNetwork):
    """The positive rational q with Lambda(net1) = q * Lambda(net2), or None."""
    return proportionality_factor(lambda_vector(net2), lambda_vector(net1))
