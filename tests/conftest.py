"""Shared fixtures: small reference networks and random generators."""

import argparse
import itertools
import json
import math
import operator
import random
import sys
from fractions import Fraction

import pytest
import sympy

from cactusnet import cli, groves, netfile
from cactusnet.combinat import (
    KrewerasPair,
    NoncrossingPartition,
    _crossing,
    canonical_blocks,
    circle_position,
    concordant_index_pairs,
    enumerate_noncrossing,
    format_element,
    kreweras_complement,
)
from cactusnet.grassmann import (
    ExteriorVector,
    _chart_columns,
    _negate_even_labels,
    omega,
)
from cactusnet.electrical import laplacian
from cactusnet.linalg import RationalMatrix, _exact
from cactusnet.network import (
    CactusNetwork,
    CombMap,
    Edge,
    arc_key,
    quotient_graph,
    require_valid,
)


def make_y(a, b, c):
    """Three-terminal star with one internal vertex."""
    return CactusNetwork.build(
        3, [(1,), (2,), (3,)], ["v"],
        [("e1", ("b1", "v"), Fraction(a)),
         ("e2", ("b2", "v"), Fraction(b)),
         ("e3", ("b3", "v"), Fraction(c))],
        {"b1": ["e1"], "b2": ["e2"], "b3": ["e3"], "v": ["e1", "e2", "e3"]},
    )


def make_y_with_pendant():
    """``make_y(1, 2, 3)`` plus a pendant edge ep from the hub v to an
    internal vertex p: a bridge with one face on both sides."""
    net = make_y(1, 2, 3)
    return CactusNetwork.build(
        3, net.shape, ["v", "p"], [*net.edges, ("ep", ("v", "p"), Fraction(4))],
        dict(net.rotations, v=["e1", "ep", "e2", "e3"], p=["ep"]))


def make_delta(c12, c23, c31):
    """Triangle on the three boundary vertices, no internal vertices."""
    return CactusNetwork.build(
        3, [(1,), (2,), (3,)], [],
        [("d12", ("b1", "b2"), Fraction(c12)),
         ("d23", ("b2", "b3"), Fraction(c23)),
         ("d31", ("b3", "b1"), Fraction(c31))],
        {"b1": ["d12", "d31"], "b2": ["d23", "d12"], "b3": ["d31", "d23"]},
    )


def make_single_edge(c=Fraction(1)):
    return CactusNetwork.build(
        2, [(1,), (2,)], [],
        [("e", ("b1", "b2"), Fraction(c))],
        {"b1": ["e"], "b2": ["e"]},
    )


def make_edgeless(n):
    return CactusNetwork.build(n, [(i,) for i in range(1, n + 1)], [], [], {})


def make_glued_tree():
    """Six-terminal cactus: shape {1},{2,3},{4,6},{5}, three edges.

    Edge a joins label 1 to the glued pair {4,6}, edge b joins 5 to
    {4,6}, edge c joins 1 to {2,3}.  Conductances 1, 2, 3.
    """
    return CactusNetwork.build(
        6, [(1,), (2, 3), (4, 6), (5,)], [],
        [("a", ("b1", "b6"), Fraction(1)),
         ("b", ("b5", "b4"), Fraction(2)),
         ("c", ("b1", "b2"), Fraction(3))],
        {"b1": ["c", "a"], "b2": ["c"], "b4": ["b"], "b5": ["b"], "b6": ["a"]},
    )


def make_glued_later():
    """Shape {1,4},{2},{3} with chords x = 1-2 and y = 2-3: the grove {x}
    joins the glued block to the later label 2, giving the block (1,2,4)."""
    return CactusNetwork.build(
        4, [(1, 4), (2,), (3,)], [],
        [("x", ("b1", "b2"), Fraction(2)), ("y", ("b2", "b3"), Fraction(3))],
        {"b1": ["x"], "b2": ["y", "x"], "b3": ["y"]},
    )


def make_glued_pendant(b1_rotation):
    """Shape {1,3},{2},{4}, an edge b1 - b4 and a pendant b1 - p, whose
    edge "ep" may sit on either side of "e14" in ``b1_rotation``."""
    return CactusNetwork.build(
        4, [(1, 3), (2,), (4,)], ["p"],
        [("e14", ("b1", "b4"), Fraction(2)), ("ep", ("b1", "p"), Fraction(3))],
        {"b1": b1_rotation, "b4": ["e14"], "p": ["ep"]})


def make_shorted():
    """Star whose terminals 1 and 3 are glued: no grove keeps all
    boundary labels apart, so the all-singletons measurement is zero."""
    return CactusNetwork.build(
        3, [(1, 3), (2,)], ["v"],
        [("e1", ("b1", "v"), Fraction(1)),
         ("e2", ("b2", "v"), Fraction(2)),
         ("e3", ("b3", "v"), Fraction(3))],
        {"b1": ["e1"], "b2": ["e2"], "b3": ["e3"], "v": ["e1", "e2", "e3"]},
    )


def make_disconnected():
    """Terminal 3 is isolated, so no grove connects all the boundary."""
    return CactusNetwork.build(
        3, [(1,), (2,), (3,)], ["v"],
        [("e1", ("b1", "v"), Fraction(1)),
         ("e2", ("b2", "v"), Fraction(2))],
        {"b1": ["e1"], "b2": ["e2"], "b3": [], "v": ["e1", "e2"]},
    )


def make_isolated_vertex():
    """Edge b1-b2 plus an internal vertex u with no edges: valid (a lone
    vertex is planar), but u has no path to the boundary."""
    return CactusNetwork.build(
        2, [(1,), (2,)], ["u"],
        [("e", ("b1", "b2"), Fraction(1))],
        {"b1": ["e"], "b2": ["e"], "u": []},
    )


def _floating_triangle():
    """Internal triangle x-y-z joined to nothing: edges, rotations."""
    return ([("xy", ("x", "y"), Fraction(1)), ("yz", ("y", "z"), Fraction(2)),
             ("zx", ("z", "x"), Fraction(3))],
            {"x": ["xy", "zx"], "y": ["yz", "xy"], "z": ["zx", "yz"]})


def make_floating_triangle():
    """Edge b1-b2 plus an internal triangle with no path to the boundary:
    valid, but no grove exists."""
    edges, rotations = _floating_triangle()
    return CactusNetwork.build(
        2, [(1,), (2,)], ["x", "y", "z"],
        [("e", ("b1", "b2"), Fraction(1))] + edges,
        {"b1": ["e"], "b2": ["e"], **rotations},
    )


def make_both_faults():
    """``make_disconnected`` plus a floating internal triangle: terminal 3
    is isolated and so is the triangle."""
    net = make_disconnected()
    edges, rotations = _floating_triangle()
    return CactusNetwork.build(
        3, net.shape, list(net.internal_vertices) + ["x", "y", "z"],
        list(net.edges) + edges,
        {**net.rotations, **rotations},
    )


def make_grid4():
    """The 4 x 4 grid without its corners: n = 8, 12 edges.

    The inner 2 x 2 square u11, u12, u22, u21 is internal.  Labels 1..8
    run clockwise from the left end of the top side, each joined to its
    inner neighbour by spoke s<label>; rotations are clockwise N, E, S, W.
    """
    spokes = {1: "u11", 2: "u12", 3: "u12", 4: "u22",
              5: "u22", 6: "u21", 7: "u21", 8: "u11"}
    edges = [(f"s{i}", (f"b{i}", u), Fraction(i, 1 + i % 3))
             for i, u in spokes.items()]
    edges += [("top", ("u11", "u12"), Fraction(2)),
              ("right", ("u12", "u22"), Fraction(3, 2)),
              ("bottom", ("u21", "u22"), Fraction(5)),
              ("left", ("u11", "u21"), Fraction(1, 3))]
    rotations = {f"b{i}": [f"s{i}"] for i in spokes}
    rotations.update(u11=["s1", "top", "left", "s8"],
                     u12=["s2", "s3", "right", "top"],
                     u22=["right", "s4", "s5", "bottom"],
                     u21=["left", "bottom", "s6", "s7"])
    return CactusNetwork.build(
        8, [(i,) for i in range(1, 9)], ["u11", "u12", "u21", "u22"],
        edges, rotations)


def make_grid(k, rng, bits=3):
    """The k x k grid without its corners, as ``make_grid4`` for any k >= 3,
    with random conductances of up to ``bits`` bits over up to ``bits``
    bits: labels 1..4(k-2) clockwise from the left end of the top side,
    each joined by a spoke to its inner neighbour."""
    side = range(1, k - 1)
    perimeter = ([(0, c) for c in side] + [(r, k - 1) for r in side]
                 + [(k - 1, c) for c in reversed(side)]
                 + [(r, 0) for r in reversed(side)])
    label = {rc: i + 1 for i, rc in enumerate(perimeter)}
    inner = [(r, c) for r in side for c in side]
    name = {rc: f"b{label[rc]}" if rc in label else f"u{rc[0]}_{rc[1]}"
            for rc in perimeter + inner}
    edges, rotations = [], {}
    for r, c in perimeter + inner:
        rot = rotations[name[(r, c)]] = []
        for dr, dc in ((-1, 0), (0, 1), (1, 0), (0, -1)):   # clockwise N, E, S, W
            other = (r + dr, c + dc)
            if other in name and not (other in label and (r, c) in label):
                eid = "-".join(sorted((name[(r, c)], name[other])))
                rot.append(eid)
                if (r, c) < other:
                    edges.append((eid, (name[(r, c)], name[other]), Fraction(
                        rng.randint(1, 2 ** bits), rng.randint(1, 2 ** bits))))
    return CactusNetwork.build(len(perimeter), [(i,) for i in label.values()],
                               [name[rc] for rc in inner], edges, rotations)


def make_subdivided_wheel():
    """A four-spoke wheel with chords p1 and p3 whose spokes are each split
    in series, b<i> -s<i>a- m<i> -s<i>b- v: 5 internal vertices, 10 edges."""
    edges = [("p1", ("b1", "b2"), Fraction(2)), ("p3", ("b3", "b4"), Fraction(3))]
    rotations = {"v": [f"s{i}b" for i in range(1, 5)]}
    for i in range(1, 5):
        edges += [(f"s{i}a", (f"b{i}", f"m{i}"), Fraction(i, 2)),
                  (f"s{i}b", (f"m{i}", "v"), Fraction(i + 1))]
        rotations[f"m{i}"] = [f"s{i}a", f"s{i}b"]
    rotations.update(b1=["p1", "s1a"], b2=["s2a", "p1"],
                     b3=["p3", "s3a"], b4=["s4a", "p3"])
    return CactusNetwork.build(
        4, [(i,) for i in range(1, 5)], ["m1", "m2", "m3", "m4", "v"],
        edges, rotations)


def make_two_hubs():
    """Hub u serves labels 1, 2 and hub w labels 3, 4; edge h joins the
    hubs and the four sides of the boundary square are chords."""
    return CactusNetwork.build(
        4, [(i,) for i in range(1, 5)], ["u", "w"],
        [("a1", ("b1", "u"), Fraction(1)), ("a2", ("b2", "u"), Fraction(2)),
         ("a3", ("b3", "w"), Fraction(3)), ("a4", ("b4", "w"), Fraction(1, 2)),
         ("h", ("u", "w"), Fraction(4)),
         ("p1", ("b1", "b2"), Fraction(3, 2)), ("p2", ("b2", "b3"), Fraction(5)),
         ("p3", ("b3", "b4"), Fraction(2, 3)), ("p4", ("b4", "b1"), Fraction(1))],
        {"b1": ["p1", "a1", "p4"], "b2": ["p2", "a2", "p1"],
         "b3": ["p3", "a3", "p2"], "b4": ["p4", "a4", "p3"],
         "u": ["a1", "a2", "h"], "w": ["h", "a3", "a4"]},
    )


def random_conductance(rng):
    return Fraction(rng.randint(1, 6), rng.randint(1, 4))


def random_planar_net(rng, n, connected=False):
    """A random wheel-like network: boundary polygon chords plus an
    optional hub joined to the boundary by spokes.

    With connected=True every boundary vertex keeps at least its spoke,
    so all terminals are joined through the hub.
    """
    polygon = [(i, i % n + 1) for i in range(1, n + 1)] if n >= 3 else [(1, 2)]
    keep_poly = [rng.random() < 0.6 for _ in polygon]
    keep_spoke = [connected or rng.random() < 0.6 for _ in range(n)]
    edges = []
    poly_id = {}
    for (u, v), keep in zip(polygon, keep_poly):
        if keep:
            eid = f"p{u}"
            poly_id[u] = eid
            edges.append((eid, (f"b{u}", f"b{v}"), random_conductance(rng)))
    spoke_id = {}
    for i in range(1, n + 1):
        if keep_spoke[i - 1]:
            eid = f"s{i}"
            spoke_id[i] = eid
            edges.append((eid, (f"b{i}", "v"), random_conductance(rng)))
    internal = ["v"] if spoke_id else []
    rotations = {}
    for i in range(1, n + 1):
        rot = []
        if i in poly_id:
            rot.append(poly_id[i])          # chord toward the next label
        if i in spoke_id:
            rot.append(spoke_id[i])
        prev = i - 1 if i > 1 else n
        if prev in poly_id and n >= 3:
            rot.append(poly_id[prev])       # chord toward the previous label
        rotations[f"b{i}"] = rot
    if n == 2 and 1 in poly_id:
        rotations["b2"] = ([poly_id[1]] if 1 in poly_id else []) + (
            [spoke_id[2]] if 2 in spoke_id else [])
        rotations["b1"] = ([spoke_id[1]] if 1 in spoke_id else []) + (
            [poly_id[1]] if 1 in poly_id else [])
    if internal:
        rotations["v"] = [spoke_id[i] for i in sorted(spoke_id)]
    return CactusNetwork.build(
        n, [(i,) for i in range(1, n + 1)], internal, edges, rotations)


def random_glued_wheel(rng, n):
    """``random_planar_net`` under a random noncrossing shape, plus a
    pendant b<i> - p at a random slot of b<i>'s rotation, with one
    boundary rotation shuffled."""
    net = random_planar_net(rng, n)
    rotations = {v: list(rot) for v, rot in net.rotations.items()}
    i = rng.randint(1, n)
    rotations[f"b{i}"].insert(rng.randint(0, len(rotations[f"b{i}"])), "ep")
    rotations["p"] = ["ep"]
    rng.shuffle(rotations[f"b{rng.randint(1, n)}"])
    return CactusNetwork.build(
        n, rng.choice(enumerate_noncrossing(n)).blocks,
        [*net.internal_vertices, "p"],
        [*net.edges, Edge("ep", (f"b{i}", "p"), Fraction(1))], rotations)


def oracle_networks():
    """Test networks, grids with small and 30-bit conductances, and
    random wheels, connected or not."""
    rng = random.Random(41)
    nets = [make_glued_tree(), make_shorted(), make_disconnected(),
            make_y(1, 2, 3), make_grid4(), make_subdivided_wheel(),
            make_two_hubs(), make_floating_triangle(), make_delta(1, 2, 3),
            make_edgeless(3), make_single_edge()]
    nets += [make_grid(k, rng, bits) for k in (3, 5, 6) for bits in (2, 30)]
    nets += [random_planar_net(rng, rng.randint(2, 7), connected=rng.random() < 0.5)
             for _ in range(40)]
    return nets


def _find_halving(parent, x):
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _quotient_ends(qg):
    index = {v: i for i, v in enumerate(qg.vertices)}
    return {eid: (index[u], index[v]) for eid, u, v, _ in qg.edges}


def path_halving_groves(qg):
    """Oracle for the grove search: a union-find with path halving,
    copied at every node, each node tested by finding every internal
    vertex's root.  Yields sorted edge-id tuples in lexicographic order."""
    eids = sorted(eid for eid, *_ in qg.edges)
    ends = _quotient_ends(qg)
    nboundary, nvertices = len(qg.boundary), len(qg.vertices)

    def extend(start, parent, chosen):
        if all(_find_halving(parent, v) < nboundary
               for v in range(nboundary, nvertices)):
            yield tuple(chosen)
        for k in range(start, len(eids)):
            u, v = ends[eids[k]]
            ru, rv = _find_halving(parent, u), _find_halving(parent, v)
            if ru == rv:
                continue
            joined = parent[:]
            joined[max(ru, rv)] = min(ru, rv)
            yield from extend(k + 1, joined, chosen + [eids[k]])

    yield from extend(0, list(range(nvertices)), [])


def path_halving_partition(qg, grove):
    """Oracle for the induced partition: a fresh path-halving union-find
    over the grove's edges, the boundary blocks grouped by their roots."""
    ends = _quotient_ends(qg)
    parent = list(range(len(qg.vertices)))
    for eid in grove:
        u, v = ends[eid]
        ru, rv = _find_halving(parent, u), _find_halving(parent, v)
        parent[max(ru, rv)] = min(ru, rv)
    groups = {}
    for b, block in enumerate(qg.boundary):
        groups.setdefault(_find_halving(parent, b), []).extend(block)
    n = sum(len(b) for b in qg.boundary)
    return NoncrossingPartition.from_blocks(n, groups.values())


def _joined(root, u, v):
    """The roots after joining the trees of vertices u and v; the larger
    of the two roots gives way to the smaller."""
    ru, rv = root[u], root[v]
    if ru > rv:
        ru, rv = rv, ru
    return [ru if r == rv else r for r in root]


def recursive_groves(qg):
    """Oracle for ``groves.enumerate_groves``: the same quick-find search
    of the quotient graph ``qg`` as a recursion of generators.  Yields the
    same ``(grove, roots)`` pairs in the same order, and enforces the same
    edge cap."""
    if len(qg.edges) > groves.GROVE_EDGE_CAP:
        raise ValueError("too many edges for grove enumeration")
    index = {v: i for i, v in enumerate(qg.vertices)}
    edges = sorted((eid, index[u], index[v]) for eid, u, v, _ in qg.edges)
    nboundary, nvertices = len(qg.boundary), len(qg.vertices)

    def extend(start, root, loose, chosen):
        if not loose:
            yield tuple(chosen), tuple(root[:nboundary])
        for k in range(start, len(edges)):
            eid, u, v = edges[k]
            ru, rv = root[u], root[v]
            if ru == rv:
                continue
            chosen.append(eid)
            yield from extend(k + 1, _joined(root, u, v),
                              loose - (max(ru, rv) >= nboundary), chosen)
            chosen.pop()

    yield from extend(0, list(range(nvertices)), nvertices - nboundary, [])


def root_partition(qg, roots):
    """The partition of the class of the root string ``roots`` over the
    boundary of ``qg``: the one key of a one-class ``GroveMeasurements``'s
    ``values`` view, which reads it back from ``named``."""
    n = sum(map(len, qg.boundary))
    (sigma,) = groves.GroveMeasurements(
        n, qg.boundary, 1, len(qg.vertices), {roots: 1}).values
    return sigma


def grove_partition(qg, edge_ids):
    """The boundary partition induced by a grove of the quotient graph
    ``qg``, through the roots of ``_joined`` and ``root_partition``."""
    ends = _quotient_ends(qg)
    root = list(range(len(qg.vertices)))
    for eid in edge_ids:
        root = _joined(root, *ends[eid])
    return root_partition(qg, "".join(map(chr, root[:len(qg.boundary)])))


def electrically_equivalent(net1, net2) -> bool:
    """Whether the two networks' grove measurements are proportional."""
    return groves.equivalence_factor(net1, net2) is not None


def conductance_product(net) -> Fraction:
    """The product of every edge conductance of the network."""
    prod = Fraction(1)
    for e in net.edges:
        prod *= e.conductance
    return prod


# ---------------------------------------------------------------------------
# Library surface that only tests use: matrix, partition and parsing
# helpers with no caller in the library
# ---------------------------------------------------------------------------

def matvec(m, v):
    """The product of m with the column vector v, whose float entries are
    refused."""
    if len(v) != m.ncols:
        raise ValueError("dimension mismatch")
    terms = [(k, x) for k, x in enumerate(map(_exact, v)) if x]
    zero = Fraction(0)
    return [sum((row[k] * x for k, x in terms), zero) for row in m.rows]


def is_symmetric(m) -> bool:
    rows = m.rows
    return m.nrows == m.ncols and all(
        rows[i][j] == rows[j][i] for i in range(m.nrows) for j in range(i))


def is_skew_symmetric(m) -> bool:
    rows = m.rows
    return m.nrows == m.ncols and all(
        rows[i][j] == -rows[j][i] for i in range(m.nrows) for j in range(i + 1))


def identity_matrix(n: int) -> RationalMatrix:
    return RationalMatrix([[int(i == j) for j in range(n)] for i in range(n)])


def zero_matrix(nrows: int, ncols: int) -> RationalMatrix:
    return RationalMatrix([[0] * ncols for _ in range(nrows)])


def _entrywise(op, a, b) -> RationalMatrix:
    if (a.nrows, a.ncols) != (b.nrows, b.ncols):
        raise ValueError("dimension mismatch")
    return RationalMatrix([list(map(op, r1, r2)) for r1, r2 in zip(a.rows, b.rows)])


def matrix_sum(a, b) -> RationalMatrix:
    return _entrywise(operator.add, a, b)


def matrix_difference(a, b) -> RationalMatrix:
    return _entrywise(operator.sub, a, b)


def negated(m) -> RationalMatrix:
    return RationalMatrix([[-x for x in r] for r in m.rows])


def scaled(m, c) -> RationalMatrix:
    """c times m; a float c is refused."""
    c = _exact(c)
    return RationalMatrix([[c * x for x in r] for r in m.rows])


def fraction_transpose(rows) -> list:
    """Oracle for ``transpose`` on rows of Fractions."""
    return [list(col) for col in zip(*rows)]


def fraction_matmul(a, b, ncols) -> list:
    """Oracle for ``@`` on rows of Fractions: a times b, b with ``ncols``
    columns (b may have no rows)."""
    return [[sum((x * row[j] for x, row in zip(r, b)), Fraction(0)) for j in range(ncols)]
            for r in a]


def is_concordant(index_set, blocks) -> bool:
    """True iff every block contains exactly one element of the index set."""
    s = set(index_set)
    return all(len(s.intersection(b)) == 1 for b in blocks)


def one_block(n: int) -> NoncrossingPartition:
    """The partition of [n] with a single block."""
    return NoncrossingPartition(n, (tuple(range(1, n + 1)),))


def parse_rational(s: str) -> Fraction:
    """The rational written ``"p"`` or ``"p/q"`` (q > 0); anything else,
    a JSON number, a decimal, an exponent or surrounding spaces, raises
    ValueError."""
    x = netfile._rational(s)
    if x is None:
        raise ValueError(f'not a "p" or "p/q" string: {s!r}')
    return x


def grown_noncrossing_blocks(n):
    """Canonical blocks of every noncrossing partition of [n], sorted.

    Oracle for the enumeration: grow partitions element by element, then
    canonicalize and sort.  Appending x to a block B is allowed unless
    some other block straddles B.
    """
    results = []

    def grow(x, blocks):
        if x > n:
            results.append(canonical_blocks(blocks))
            return
        for i, b in enumerate(blocks):
            if all(not (other[0] < b[0] and other[-1] > b[-1])
                   for other in blocks if other != b):
                grow(x + 1, blocks[:i] + (b + (x,),) + blocks[i + 1:])
        grow(x + 1, blocks + ((x,),))

    grow(2, ((1,),))
    results.sort()
    return results


def unit_noncrossing_runs(n: int, unit, empty):
    """Every noncrossing partition of [n], sorted, built from ``unit``.

    Oracle for ``combinat.noncrossing_runs``: the walk it replaced, which
    builds each block as a tuple first.  ``unit(block)`` stands for a
    one-block partition and ``empty`` for the partition of nothing;
    partitions are joined with ``+``, so ``unit=lambda b: (b,)`` gives
    canonical block tuples and a string unit gives names.  Yields one
    triple ``(head, mids, lasts)`` for each block of 1, in lexicographic
    order: ``head`` is ``unit(block)`` and the partitions with that block
    are ``head + m + r``, m in ``mids`` (slower) and r in ``lasts``.

    The gaps between the elements of the block of 1 (and after its last
    one) are partitioned on their own, since a block meeting two gaps
    would cross it; their partitions follow in product order with the
    first gap slowest.  ``mids`` holds the partitions of all nonempty gaps
    but the last one, ``lasts`` those of that one.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    memo = {}

    def interval(a: int, b: int) -> list:
        got = memo.get((a, b))
        if got is None:
            got = memo[a, b] = flat_runs(runs(a, b))
        return got

    def runs(a: int, b: int):
        # the blocks of a in lexicographic order, a walk in preorder
        stack = [((a,), [], None)]
        while stack:
            block, gaps, gap = stack.pop()
            if gap:
                gaps = gaps + [interval(*gap)]
            last = block[-1]
            parts = gaps + [interval(last + 1, b)] if last < b else gaps
            mids = (empty,)
            for got in parts[:-1]:
                mids = [m + p for m in mids for p in got]
            yield unit(block), mids, parts[-1] if parts else (empty,)
            for x in range(b, last, -1):
                stack.append((block + (x,), gaps,
                              (last + 1, x - 1) if x > last + 1 else None))

    return runs(1, n)


def flat_runs(runs) -> list:
    """The partitions ``head + m + r`` of the triples of
    ``unit_noncrossing_runs``."""
    return [p + r for head, mids, lasts in runs
            for p in [head + m for m in mids] for r in lasts]


def unit_noncrossing_blocks(n: int) -> list:
    """Canonical blocks of every noncrossing partition of [n], sorted, from
    the tuple walk."""
    return flat_runs(unit_noncrossing_runs(n, lambda b: (b,), ()))


def unit_name_runs(n: int):
    """The runs ``(first, rests)`` of ``combinat.noncrossing_runs``, from
    the tuple walk with a string unit."""
    runs = unit_noncrossing_runs(n, lambda b: "," + partition_name([b]), "")
    return ((head[1:], lasts if mids == ("",) else
             [m + r for m in mids for r in lasts])
            for head, mids, lasts in runs)


def partition_name(blocks):
    """Oracle for the partition name format, e.g. "{1,2},{3}"."""
    return "{" + "},{".join(",".join(str(x) for x in b) for b in blocks) + "}"


def is_noncrossing_on_circle(blocks, position) -> bool:
    """Noncrossing test for blocks of arbitrary labels placed on a circle.

    ``position`` maps each label to its circle position; positions of
    distinct labels must be distinct.
    """
    placed = [[position(x) for x in b] for b in blocks]
    # ranks 1..m of the positions make the blocks a partition of [m]
    rank = {p: r for r, p in enumerate(sorted(itertools.chain(*placed)), 1)}
    return not _crossing(len(rank), [[rank[p] for p in b] for b in placed])


def matching_partner(matching, i):
    """The label that a perfect matching pairs with i."""
    for a, b in matching.pairs:
        if i == a:
            return b
        if i == b:
            return a
    raise ValueError(f"{i} not matched")


def block_vector_matrix(pair):
    """Matrix whose rows are the alternating-sign block vectors.

    Row k sums (-1)^label e_label over the k-th block of the pair; the
    wedge of the rows equals f_sigma up to sign, so its row span is the
    isotropic plane of the pair.
    """
    n = pair.n
    rows = []
    for blk in pair.all_blocks():
        row = [Fraction(0)] * (2 * n)
        for lbl in blk:
            base = lbl if lbl <= n else lbl - n
            row[circle_position(n, lbl)] = Fraction((-1) ** base)
        rows.append(row)
    return RationalMatrix(rows)


def blocks_cross(b1, b2) -> bool:
    """Oracle for the crossing scan: interleave the two sorted blocks; they
    cross iff the block labels alternate at least 1,2,1,2 along the line
    (equivalently the circle)."""
    merged = sorted([(x, 0) for x in b1] + [(x, 1) for x in b2])
    runs = [k for k, _ in itertools.groupby(tag for _, tag in merged)]
    return len(runs) >= 4


def pairwise_kreweras_tilde_blocks(sigma):
    """Oracle for the Kreweras complement, as blocks of n+1..2n.

    Two tilde points share a block iff no block of sigma has elements
    strictly on both sides of the chord joining them; union-find over all
    pairs, then a pairwise noncrossing check of the union.
    """
    n = sigma.n
    placed = [tuple(circle_position(n, x) for x in b) for b in sigma.blocks]
    parent = {k: k for k in range(n + 1, 2 * n + 1)}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    def separated(p, q, block):
        lo, hi = min(p, q), max(p, q)
        return (any(lo < x < hi for x in block)
                and any(x < lo or x > hi for x in block))

    for a, b in itertools.combinations(range(n + 1, 2 * n + 1), 2):
        pa, pb = circle_position(n, a), circle_position(n, b)
        if not any(separated(pa, pb, blk) for blk in placed):
            parent[find(a)] = find(b)
    groups = {}
    for k in range(n + 1, 2 * n + 1):
        groups.setdefault(find(k), []).append(k)
    tilde = canonical_blocks(groups.values())
    assert len(tilde) == n + 1 - len(sigma.blocks)
    assert is_noncrossing_on_circle(
        sigma.blocks + tilde, lambda x: circle_position(n, x))
    return tilde


def pair_loop_kappa(form, vec):
    """Oracle for the contraction: every index pair p < q of every key,
    the form entry read densely, Fraction arithmetic throughout."""
    out = {}
    for key, val in vec.coords.items():
        for p, q in itertools.combinations(range(len(key)), 2):
            w = form[(key[p], key[q])]
            if not w:
                continue
            rest = key[:p] + key[p + 1:q] + key[q + 1:]
            out[rest] = out.get(rest, Fraction(0)) + (-1) ** (p + q - 1) * w * val
    return ExteriorVector(vec.n, vec.degree - 2, out)


def concordant_keys_oracle(pair):
    """Oracle for the concordant wedges: sorted circle positions of every
    concordant index pair."""
    return [positions_of(pair.n, idx + tidx)
            for idx, tidx in concordant_index_pairs(pair)]


# ---------------------------------------------------------------------------
# Grassmannian helpers that only tests use, and the tuple-keyed Plucker
# route that the integer bitmask kernels replaced (the oracles of
# lam_map, kappa and exterior_to_doc)
# ---------------------------------------------------------------------------

def positions_of(n: int, labels) -> tuple:
    """Sorted circle positions of a set of labels (tilde stored as n+k)."""
    return tuple(sorted(circle_position(n, x) for x in labels))


def d_matrix(n: int) -> RationalMatrix:
    """Diagonal sign matrix: both columns of label i carry (-1)^(i-1)."""
    diag = []
    for i in range(1, n + 1):
        diag += [Fraction((-1) ** (i - 1))] * 2
    return RationalMatrix(
        [[diag[p] if p == q else Fraction(0) for q in range(2 * n)]
         for p in range(2 * n)]
    )


def omega_d(n: int) -> RationalMatrix:
    """The sign-simplified conjugate form: D Omega D."""
    return d_matrix(n) @ omega(n) @ d_matrix(n)


def omega_d_kernel(n: int):
    v1 = [Fraction(0)] * (2 * n)
    v2 = [Fraction(0)] * (2 * n)
    for i in range(1, n + 1):
        v1[circle_position(n, i)] = Fraction(1)
        v2[circle_position(n, n + i)] = Fraction(1)
    return [v1, v2]


def shift(n: int) -> RationalMatrix:
    """Row-vector action of the cyclic shift: position p moves to p - 1,
    position 0 wraps to 2n - 1 with sign (-1)^n."""
    m = [[Fraction(0)] * (2 * n) for _ in range(2 * n)]
    m[0][2 * n - 1] = Fraction((-1) ** n)
    for p in range(1, 2 * n):
        m[p][p - 1] = Fraction(1)
    return RationalMatrix(m)


def shift_exterior(vec: ExteriorVector) -> ExteriorVector:
    """The induced shift on wedge^(n+1); all signs cancel in this degree."""
    n = vec.n
    out = {}
    for key, val in vec.coords.items():
        new = tuple(sorted((p - 1) % (2 * n) for p in key))
        # moving position 0 to the back costs (-1)^n which the wrap
        # coefficient (-1)^n cancels, so the sign is always +1
        out[new] = out.get(new, Fraction(0)) + val
    return ExteriorVector(n, n + 1, out)


def cyclic_shift(m: RationalMatrix) -> RationalMatrix:
    """Column action of the shift on a representing matrix."""
    return m @ shift(m.ncols // 2)


def shift_partition(sigma: NoncrossingPartition) -> NoncrossingPartition:
    """Relabel of the Kreweras complement matching the exterior shift."""
    return kreweras_complement(sigma)


def extreme_coordinates(vec: ExteriorVector):
    """The two families of extreme Plucker coordinates.

    Returns (not_shorted, connected): coefficients on "all plain columns
    plus one tilde column" and "one plain column plus all tilde".  Each
    family is constant on isotropic network images.
    """
    plain, tilde = _chart_columns(vec.n, plain_pivots=True)
    not_shorted = [vec[tuple(sorted(plain + [tk]))] for tk in tilde]
    connected = [vec[tuple(sorted([p] + tilde))] for p in plain]
    if len(set(not_shorted)) != 1 or len(set(connected)) != 1:
        raise ValueError("extreme coordinates differ; vector is not an image")
    return not_shorted[0], connected[0]


def tuple_concordant_keys(pair) -> list:
    """Position tuples of the basis wedges concordant with the pair, one
    label from every block, in product order."""
    n = pair.n
    placed = [tuple(circle_position(n, x) for x in b) for b in pair.all_blocks()]
    return [tuple(sorted(c)) for c in itertools.product(*placed)]


def tuple_lam_map(measurements) -> ExteriorVector:
    """Oracle for lam_map: the sums over tuple keys, exact integers over
    the lcm of the Lambda denominators."""
    values = [(sigma, val) for sigma, val in measurements.values.items() if val]
    denom = math.lcm(*(val.denominator for _, val in values))
    out = {}
    for sigma, val in values:
        weight = val.numerator * (denom // val.denominator)
        for key in tuple_concordant_keys(KrewerasPair.of(sigma)):
            out[key] = out.get(key, 0) + weight
    n = measurements.n
    return ExteriorVector(n, n + 1, {
        key: Fraction(total, denom) for key, total in out.items() if total})


def tuple_kappa(form, vec) -> ExteriorVector:
    """Oracle for kappa: each key's positions p < q at indices i < j
    looked up in per-position partner lists, sign (-1)^(i+j-1), integer
    sums over the lcm of the form's and the vector's denominators."""
    rows = form.rows
    fdenom = math.lcm(*(x.denominator for row in rows for x in row))
    partners = [[(q, x.numerator * (fdenom // x.denominator))
                 for q, x in enumerate(row) if q > p and x]
                for p, row in enumerate(rows)]
    vdenom = math.lcm(*(val.denominator for val in vec.coords.values()))
    out = {}
    for key, val in vec.coords.items():
        scaled = val.numerator * (vdenom // val.denominator)
        index = {p: i for i, p in enumerate(key)}
        for i, p in enumerate(key):
            for q, w in partners[p]:
                j = index.get(q)
                if j is not None:
                    rest = key[:i] + key[i + 1:j] + key[j + 1:]
                    out[rest] = out.get(rest, 0) + (w if (i + j) % 2 else -w) * scaled
    denom = fdenom * vdenom
    return ExteriorVector(vec.n, vec.degree - 2, {
        rest: Fraction(total, denom) for rest, total in out.items() if total})


def tuple_exterior_to_doc(vec) -> dict:
    """Oracle for exterior_to_doc: the coordinates in sorted key order,
    each key named position by position."""
    def name(key):
        return ",".join(format_element(vec.n, p // 2 + 1 if p % 2 == 0 else
                                       vec.n + p // 2 + 1) for p in key)
    return {name(key): netfile.format_rational(val)
            for key, val in sorted(vec.coords.items())}


def tuple_route_document(argv, vec):
    """The document of a ``plucker``, ``tnn`` or ``isotropy`` command line
    by the tuple-keyed route, from ``vec = tuple_lam_map(Lambda)``."""
    if argv[0] == "tnn":
        signs = {v > 0 for v in vec.coords.values()}
        return {"totally_nonnegative": len(signs) == 1}
    kappa_zero = not tuple_kappa(omega(vec.n), vec).coords
    if argv[0] == "isotropy":
        return {"kappa_zero": kappa_zero}
    doc = {"coordinates": tuple_exterior_to_doc(vec)}
    if "--check-isotropy" in argv:
        doc["kappa_zero"] = kappa_zero
    return doc


def outcome(f, *args):
    """What ``f(*args)`` returns, or (ValueError, its message)."""
    try:
        return f(*args)
    except ValueError as exc:
        return ValueError, str(exc)


def dense_matmul(a, b):
    """Oracle for the product: the dot product of every row of a with
    every column of b, zeros included."""
    if a.ncols != b.nrows:
        raise ValueError("dimension mismatch")
    return RationalMatrix(fraction_matmul(a.rows, b.rows, b.ncols))


def _chart_pattern(sums, plain_pivots):
    """The chart's row pattern over Fractions, before the sign matrix."""
    n = len(sums)
    plain = [circle_position(n, i) for i in range(1, n + 1)]
    tilde = [circle_position(n, n + i) for i in range(1, n + 1)]
    pivot_cols, other_cols = (plain, tilde) if plain_pivots else (tilde, plain)
    rows = [[Fraction(0)] * (2 * n) for _ in range(n + 1)]
    for c in other_cols:
        rows[0][c] = Fraction(1)
    for row, pc, sums_j in zip(rows[1:], pivot_cols, sums):
        row[pc] = Fraction(1)
        for c, s in zip(other_cols, sums_j):
            row[c] = s
    return rows


def response_sums(resp):
    """The cumulative sums S(j, i) of ``chart_from_response``, over Fractions."""
    return [list(itertools.accumulate(reversed(col[1:]), initial=Fraction(0)))[::-1]
            for col in resp.transpose().rows]


def lstar_sums(lstar):
    """The cumulative sums T(j, i) of ``chart_from_lstar``, over Fractions."""
    return [list(itertools.accumulate(col[:-1], initial=Fraction(0)))
            for col in lstar.transpose().rows]


def chart_from_response_via_d(resp):
    """Oracle for the chart builder: the row pattern times d_matrix(n)."""
    return dense_matmul(RationalMatrix(_chart_pattern(response_sums(resp), True)),
                        d_matrix(resp.nrows))


def chart_from_lstar_via_d(lstar):
    return dense_matmul(RationalMatrix(_chart_pattern(lstar_sums(lstar), False)),
                        d_matrix(lstar.nrows))


def fraction_chart_from_response(resp):
    """Oracle for the integer chart: Fraction sums, the pattern's signs
    flipped entry by entry."""
    return RationalMatrix(_negate_even_labels(
        _chart_pattern(response_sums(resp), True), resp.nrows))


def fraction_chart_from_lstar(lstar):
    return RationalMatrix(_negate_even_labels(
        _chart_pattern(lstar_sums(lstar), False), lstar.nrows))


def fraction_extract_symmetric(m, mode):
    """Oracle for the integer extraction: the signed matrix over
    Fractions, one ``dense_solve_many`` on the pivot block and the product
    by ``RationalMatrix.__matmul__``."""
    n = m.ncols // 2
    if m.nrows != n + 1 or m.ncols != 2 * n:
        raise ValueError("matrix must be (n+1) x 2n")
    md = RationalMatrix(_negate_even_labels([r[:] for r in m.rows], n))
    pivot_cols, other_cols = _chart_columns(n, mode == "response")
    rows = range(n + 1)
    sol = dense_solve_many(md.submatrix(rows, pivot_cols).transpose(),
                           identity_matrix(n).rows)
    if sol is None or len(sol[1]) != 1:
        raise ValueError("plane is not in this chart")
    particulars, nullspace = sol
    top, *entries = (RationalMatrix(nullspace + particulars)
                     @ md.submatrix(rows, other_cols)).rows
    if len(set(top)) != 1 or top[0] == 0:
        raise ValueError("plane is not in this chart")
    step = -1 if mode == "response" else 1
    return RationalMatrix(
        [[row[(i + step) % n] - row[i] for row in entries]
         for i in range(n)]
    )


def extract_symmetric_via_d(m, mode):
    """Oracle for extraction: the representing matrix times d_matrix(n),
    with dense products throughout."""
    n = m.ncols // 2
    md = dense_matmul(m, d_matrix(n))
    plain = [circle_position(n, i) for i in range(1, n + 1)]
    tilde = [circle_position(n, n + i) for i in range(1, n + 1)]
    pivot_cols, other_cols = (plain, tilde) if mode == "response" else (tilde, plain)
    rows = range(n + 1)
    sol = dense_solve_many(md.submatrix(rows, pivot_cols).transpose(),
                           identity_matrix(n).rows)
    if sol is None or len(sol[1]) != 1:
        raise ValueError("plane is not in this chart")
    particulars, nullspace = sol
    top, *entries = dense_matmul(RationalMatrix(nullspace + particulars),
                                 md.submatrix(rows, other_cols)).rows
    if len(set(top)) != 1 or top[0] == 0:
        raise ValueError("plane is not in this chart")
    step = -1 if mode == "response" else 1
    return RationalMatrix(
        [[row[(i + step) % n] - row[i] for row in entries]
         for i in range(n)]
    )


def dense_eliminate(rows, ncols):
    """Oracle for the elimination kernel: dense Gauss-Jordan in place on
    the first ``ncols`` columns of lists of Fractions, the pivot taken on
    the first row below with a nonzero entry, column by column.  Further
    columns undergo the same row operations.  Returns the pivot columns,
    the sign of the row swaps and the product of the pivots."""
    pivots = []
    sign, product = 1, Fraction(1)
    for c in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            sign = -sign
        p = rows[r][c]
        product *= p
        tail = rows[r][c:] = [x / p if x else x for x in rows[r][c:]]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                row[c:] = [x - f * y if y else x for x, y in zip(row[c:], tail)]
        pivots.append(c)
    return pivots, sign, product


def dense_rank(m):
    return len(dense_eliminate([r[:] for r in m.rows], m.ncols)[0])


def dense_determinant(rows):
    """Oracle for ``determinant`` on a square list of rows of Fractions."""
    pivots, sign, product = dense_eliminate([r[:] for r in rows], len(rows))
    return sign * product if len(pivots) == len(rows) else Fraction(0)


def dense_solve_many(a, rhs_columns):
    """Solve A x = b exactly for every b in ``rhs_columns`` by one dense
    elimination of [A | b_1 ... b_k].  Returns ``(particulars,
    nullspace)``: per column the solution whose free variables are zero,
    and a nullspace basis of A; or None if some b is not in the column
    space."""
    nc = a.ncols
    cols = [[Fraction(x) for x in b] for b in rhs_columns]
    m = [row + [b[i] for b in cols] for i, row in enumerate(a.rows)]
    pivots = dense_eliminate(m, nc)[0]
    if any(x for row in m[len(pivots):] for x in row[nc:]):
        return None
    particulars = []
    for k in range(len(cols)):
        x = [Fraction(0)] * nc
        for row, c in zip(m, pivots):
            x[c] = row[nc + k]
        particulars.append(x)
    nullspace = []
    for fc in (c for c in range(nc) if c not in pivots):
        v = [Fraction(0)] * nc
        v[fc] = Fraction(1)
        for row, c in zip(m, pivots):
            v[c] = -row[fc]
        nullspace.append(v)
    return particulars, nullspace


def block_rank(rows):
    """Oracle for the sparse rank: rows (dicts from column keys to
    entries) that share a column are joined by a union-find, and each
    connected block is ranked densely on its own columns."""
    parent = {}

    def find(c):
        while parent.setdefault(c, c) != c:
            c = parent[c]
        return c

    for row in rows:
        first = find(next(iter(row), None))
        for c in row:
            parent[find(c)] = first
    blocks = {}
    for row in rows:
        if row:
            blocks.setdefault(find(next(iter(row))), []).append(row)
    rank = 0
    for block in blocks.values():
        cols = sorted({c for row in block for c in row})
        rank += dense_rank(RationalMatrix([[row.get(c, 0) for c in cols]
                                           for row in block]))
    return rank


def fraction_reduce(rows, ncols=None):
    """Oracle for the fraction-free kernel ``linalg._reduce``: the same
    sparse elimination, pivot rule and contract over Fractions, every
    update building its entries as Fractions.  Pivot rows are scaled to
    1 at the pivot; returns the pivots as (row, column, value)."""
    holders = {}                                  # column -> rows holding it
    for i, row in enumerate(rows):
        for c in row:
            holders.setdefault(c, set()).add(i)
    live = set(range(len(rows)))                  # rows not yet pivots
    if ncols is None:
        by_size = {}                              # length -> live rows that long
        for i, row in enumerate(rows):
            if row:
                by_size.setdefault(len(row), set()).add(i)
    columns = iter(range(ncols or 0))
    pivots = []
    while True:
        if ncols is None:                         # shortest row, rarest column
            size = min((s for s, held in by_size.items() if held), default=None)
            if size is None:
                return pivots
            i = min(by_size[size])
            by_size[size].discard(i)
            c = min(rows[i], key=lambda c: len(holders[c]))
        else:                                     # next column with a candidate
            c = next((c for c in columns if not live.isdisjoint(holders.get(c, ()))),
                     None)
            if c is None:
                return pivots
            i = min(live.intersection(holders[c]), key=lambda i: (len(rows[i]), i))
        live.discard(i)
        row, p = rows[i], rows[i][c]
        pivots.append((i, c, p))
        if p != 1:
            row = rows[i] = {j: x / p for j, x in row.items()}
        if ncols is None:
            for j in row:
                holders[j].discard(i)
        for t in [t for t in holders[c] if t != i]:
            target = rows[t]
            if ncols is None:
                by_size[len(target)].discard(t)
            f = target.pop(c)
            holders[c].discard(t)
            for j, y in row.items():
                if j == c:
                    continue
                x = target.get(j)
                if x is None:
                    target[j] = -f * y
                    holders[j].add(t)
                else:
                    x -= f * y
                    if x:
                        target[j] = x
                    else:
                        del target[j]
                        holders[j].discard(t)
            if ncols is None and target:
                by_size.setdefault(len(target), set()).add(t)


def dense_laplacian(qg):
    """The weighted Laplacian of a quotient graph as a dense matrix."""
    order = {v: k for k, v in enumerate(qg.vertices)}
    m = [[Fraction(0)] * len(order) for _ in order]
    for _, u, v, c in qg.edges:
        iu, iv = order[u], order[v]
        m[iu][iu] += c
        m[iv][iv] += c
        m[iu][iv] -= c
        m[iv][iu] -= c
    return RationalMatrix(m)


def dense_response_matrix(net):
    """Oracle for the response matrix: the dense Laplacian split into
    blocks, II X = IB solved by the dense oracle, L = -(BB - BI X)."""
    require_valid(net)
    qg = quotient_graph(net)
    lap = dense_laplacian(qg)
    nb, ni = len(qg.boundary), len(qg.internal)
    bb = lap.submatrix(range(nb), range(nb))
    if ni == 0:
        return negated(bb)
    bi = lap.submatrix(range(nb), range(nb, nb + ni))
    ii = lap.submatrix(range(nb, nb + ni), range(nb, nb + ni))
    sol = dense_solve_many(ii, bi.rows)
    if sol is None or sol[1]:
        raise ValueError("an internal vertex is isolated from the boundary")
    x = RationalMatrix(sol[0]).transpose()
    return negated(matrix_difference(bb, dense_matmul(bi, x)))


def sympy_response(net):
    """Oracle for the Kron-reduced response matrix: the internal block of
    the integer Laplacian solved by sympy's exact Gauss-Jordan solver for
    every column of IB at once, then L = -(BB - BI X) summed entry by
    entry.  The integer Laplacian's rows carry their scales: IB is read
    from the internal rows, so X is unchanged by them, and each boundary
    row is divided by its own."""
    require_valid(net)
    qg = quotient_graph(net)
    lap, scales = laplacian(qg)
    nb, ni = len(qg.boundary), len(qg.internal)
    bi = [{j - nb: x for j, x in row.items() if j >= nb} for row in lap[:nb]]
    x = []  # X, one row per internal vertex
    if ni:
        ii = sympy.Matrix([[row.get(nb + j, 0) for j in range(ni)] for row in lap[nb:]])
        ib = sympy.Matrix([[row.get(b, 0) for b in range(nb)] for row in lap[nb:]])
        try:
            sol, free = ii.gauss_jordan_solve(ib)
        except ValueError:  # no solution
            sol = None
        if sol is None or free.rows:  # none, or not one
            raise ValueError("an internal vertex is isolated from the boundary")
        x = [[Fraction(int(v.p), int(v.q)) for v in sol.row(k)] for k in range(ni)]
    zero = Fraction(0)
    return RationalMatrix(
        [[(sum((v * x[k][b] for k, v in bi[a].items()), zero)
           - lap[a].get(b, 0)) / scales[a] for b in range(nb)] for a in range(nb)])


def two_solve_resistance(net):
    """Oracle for the resistance matrix: the response matrix (one solve on
    the internal block), then the grounded response -L inverted by a
    second solve; with G that inverse, R(u, v) = G_uu + G_vv - 2 G_uv."""
    part = NoncrossingPartition.from_blocks(net.n, net.shape)
    resp = dense_response_matrix(net)
    nb = resp.nrows
    reduced = negated(resp.submatrix(range(1, nb), range(1, nb)))
    sol = dense_solve_many(reduced, identity_matrix(nb - 1).rows)
    if sol is None:
        raise ValueError(
            "boundary components are disconnected; resistance is infinite"
        )
    g = [[Fraction(0)] * nb] + [[Fraction(0)] + col for col in sol[0]]
    block_of = {i: k for k, b in enumerate(part.blocks) for i in b}
    ks = [block_of[i] for i in range(1, net.n + 1)]
    return RationalMatrix(
        [[g[u][u] + g[v][v] - 2 * g[u][v] for v in ks] for u in ks]
    )


def fraction_resistance(net):
    """Oracle for the integer resistance: the grounded dense Laplacian
    over Fractions with a unit current into every boundary block but 0,
    Gauss-Jordan by ``fraction_reduce``, and R = G_uu + G_vv - 2 G_uv
    summed over Fractions.  A right-hand side left in a row without a
    pivot means disconnection, a column without a pivot an isolated
    internal vertex, in that order."""
    require_valid(net)
    qg = quotient_graph(net)
    nb, size = len(qg.boundary), len(qg.vertices) - 1
    rows = [{j - 1: x for j, x in enumerate(row) if j and x}
            for row in dense_laplacian(qg).rows[1:]]
    for k in range(nb - 1):
        rows[k][size + k] = Fraction(1)
    pivots = fraction_reduce(rows, size)
    if any(rows[i] for i in set(range(size)).difference(i for i, _, _ in pivots)):
        raise ValueError(
            "boundary components are disconnected; resistance is infinite"
        )
    if len(pivots) < size:
        raise ValueError("an internal vertex is isolated from the boundary")
    g = [[Fraction(0)] * nb for _ in range(nb)]
    for i, c, _ in pivots:
        if c < nb - 1:
            for k in range(nb - 1):
                g[k + 1][c + 1] = rows[i].get(size + k, Fraction(0))
    block_of = {i: k for k, b in enumerate(qg.boundary) for i in b}
    ks = [block_of[i] for i in range(1, net.n + 1)]
    return RationalMatrix(
        [[g[u][u] + g[v][v] - 2 * g[u][v] for v in ks] for u in ks]
    )


def fraction_lstar_from_resistance(r):
    """Oracle for the integer L*: every second difference and every
    diagonal sum taken over Fractions."""
    n = r.nrows

    def rr(i, j):  # 1-based, cyclic
        return r[((i - 1) % n, (j - 1) % n)]

    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                m[i - 1][j - 1] = (
                    rr(i, j) + rr(i + 1, j + 1) - rr(i + 1, j) - rr(i, j + 1)
                ) / 2
    for i in range(n):
        m[i][i] = -sum(m[i][j] for j in range(n) if j != i)
    return RationalMatrix(m)


def dense_kappa_kernel_dimension(n, form):
    """Oracle for the kernel dimension of the contraction: every basis
    wedge contracted by the pair-loop oracle, one dense matrix ranked."""
    images = [pair_loop_kappa(form, ExteriorVector(n, n + 1, {key: 1})).coords
              for key in itertools.combinations(range(2 * n), n + 1)]
    targets = sorted({k for image in images for k in image})
    dense = RationalMatrix([[image.get(k, 0) for k in targets]
                            for image in images])
    return len(images) - dense_rank(dense)


def mutation_sources():
    """The fixture network documents that the seeded fuzz tests mutate."""
    return [netfile.network_to_dict(net) for net in (
        make_y(1, 2, 3), make_delta(1, 2, 3), make_glued_tree(), make_shorted(),
        make_y_with_pendant(), make_disconnected())]


def mutated(rng, doc):
    """A copy of a network document with one random fault of the kinds a
    hand-edited file might hold."""
    doc = json.loads(json.dumps(doc))
    edges, rotations = doc["edges"], doc["rotations"]
    names = [f"b{i}" for i in range(1, doc["n"] + 1)] + doc["internal_vertices"]
    kind = rng.randrange(8)
    if kind == 0 and edges:  # retarget an edge end
        rng.choice(edges)["ends"][rng.randrange(2)] = rng.choice(names + ["zz"])
    elif kind == 1 and rotations:  # shuffle a rotation
        rng.shuffle(rotations[rng.choice(sorted(rotations))])
    elif kind == 2 and rotations:  # extend a rotation
        ids = [e["id"] for e in edges] + ["zz"]
        rotations[rng.choice(sorted(rotations))].append(rng.choice(ids))
    elif kind == 3 and len(doc["shape"]) > 1:  # merge two shape blocks
        i, j = sorted(rng.sample(range(len(doc["shape"])), 2))
        doc["shape"][i] += doc["shape"].pop(j)
    elif kind == 4 and edges:  # drop an edge
        edges.pop(rng.randrange(len(edges)))
    elif kind == 5:  # shift n
        doc["n"] += rng.choice([-1, 1])
    elif kind == 6 and edges:  # a bad conductance
        rng.choice(edges)["conductance"] = rng.choice(
            ["0", "-1", "1/0", "0/3", "x", "", 2, None])
    elif kind == 7 and doc["internal_vertices"]:  # drop an internal vertex
        doc["internal_vertices"].remove(rng.choice(doc["internal_vertices"]))
    return doc


def lobe_list_comb_map(net):
    """Oracle for the ``CombMap`` constructor: each glued label's edges
    are sorted into a ``fwd`` list (the lobe after the label, taken by an
    edge that fits both lobes) and a ``back`` list (the lobe before it),
    and the rotation must list all of ``fwd`` before ``back``.  A block
    of one label takes its rotation as it is.  Raises ValueError as the
    constructor does."""
    cmap = object.__new__(CombMap)
    cmap.net = net
    n = net.n
    part = NoncrossingPartition.from_blocks(net.n, net.shape)
    label = net.boundary_labels()
    cmap.rot, cmap.pre_vertex = {}, {}
    end_of = {}
    for e in net.edges:
        if e.ends[0] == e.ends[1]:
            raise ValueError(f"loop edge {e.id} in pre-quotient network")
        end_of[(e.id, e.ends[0])] = 0
        end_of[(e.id, e.ends[1])] = 1
    edge_index = {e.id: e for e in net.edges}
    incident = {}
    for e in net.edges:
        for v in e.ends:
            incident.setdefault(v, []).append(e)

    def labels_beyond(o, blocked):
        seen, stack, labels = {o}, [o], set()
        while stack:
            v = stack.pop()
            if v in label:
                labels.add(label[v])
            for e2 in incident.get(v, ()):
                for w in e2.ends:
                    if w not in seen and w not in blocked:
                        seen.add(w)
                        stack.append(w)
        return labels

    def in_closed_interval(x, lo, hi):
        return lo <= x <= hi if lo <= hi else x >= lo or x <= hi

    def dart_at(i, eid):
        return (eid, end_of[(eid, f"b{i}")])

    def prev_arc(i):
        return i - 1 if i > 1 else n

    for block in part.blocks:
        k = len(block)
        if k == 1:
            i = block[0]
            darts = [(arc_key(i), 0)]
            darts += [dart_at(i, eid) for eid in net.rotations.get(f"b{i}", ())]
            darts.append((arc_key(prev_arc(i)), 1))
            for d in darts:
                cmap.pre_vertex[d] = f"b{i}"
            cmap.rot[block] = darts
            continue
        into = {}
        glued = {f"b{i}" for i in block}
        for j, i in enumerate(block):
            nxt, prv = block[(j + 1) % k], block[(j - 1) % k]
            fwd, back = [], []
            for eid in net.rotations.get(f"b{i}", ()):
                e = edge_index[eid]
                o = e.ends[1] if e.ends[0] == f"b{i}" else e.ends[0]
                if o in glued:
                    y = label[o]
                    if nxt == y and (prv != y or i < y):
                        fwd.append(eid)
                    elif prv == y:
                        back.append(eid)
                    else:
                        raise ValueError(f"edge {eid} joins non-adjacent "
                                         f"labels of glued block {block}")
                    continue
                other = labels_beyond(o, glued)
                if all(in_closed_interval(x, i, nxt) for x in other):
                    fwd.append(eid)
                elif all(in_closed_interval(x, prv, i) for x in other):
                    back.append(eid)
                else:
                    raise ValueError(f"edge {eid} cannot be embedded in any "
                                     f"lobe at glued block {block}")
            rot = net.rotations.get(f"b{i}", ())
            if back and fwd and rot.index(back[0]) < rot.index(fwd[-1]):
                raise ValueError(f"rotation at b{i} interleaves lobes")
            into.setdefault(j, {})["prefix"] = fwd
            into.setdefault((j - 1) % k, {})["suffix"] = back
        darts = []
        for j, i in enumerate(block):
            nxt = block[(j + 1) % k]
            seg = [(arc_key(i), 0)]
            seg += [dart_at(i, eid) for eid in into[j].get("prefix", [])]
            for d in seg:
                cmap.pre_vertex.setdefault(d, f"b{i}")
            tail = [dart_at(nxt, eid) for eid in into[j].get("suffix", [])]
            tail.append((arc_key(prev_arc(nxt)), 1))
            for d in tail:
                cmap.pre_vertex.setdefault(d, f"b{nxt}")
            darts += seg + tail
        cmap.rot[block] = darts
    for v in net.internal_vertices:
        darts = [(eid, end_of[(eid, v)]) for eid in net.rotations.get(v, ())]
        for d in darts:
            cmap.pre_vertex[d] = v
        cmap.rot[v] = darts
    cmap.vertex_of, cmap.index_of = {}, {}
    for v, darts in cmap.rot.items():
        for k, d in enumerate(darts):
            if d in cmap.vertex_of:
                raise ValueError(f"dart {d} listed twice in rotations")
            cmap.vertex_of[d] = v
            cmap.index_of[d] = k
    for e in net.edges:
        for end in (0, 1):
            if (e.id, end) not in cmap.vertex_of:
                raise ValueError(
                    f"edge {e.id} missing from rotation of {e.ends[end]}")
    return cmap


def component_euler_ok(cmap):
    """Oracle for ``CombMap.euler_ok``: V - E + F = 2 checked on each
    connected component, a dartless component counting one face."""
    face_of = {d: idx for idx, f in enumerate(cmap.faces()) for d in f}
    adj = {v: set() for v in cmap.rot}
    for d, v in cmap.vertex_of.items():
        adj[v].add(cmap.vertex_of[cmap.alpha(d)])
    todo = set(cmap.rot)
    while todo:
        comp, stack = set(), [todo.pop()]
        while stack:
            v = stack.pop()
            comp.add(v)
            stack.extend(adj[v] - comp)
        todo -= comp
        darts = [d for d, v in cmap.vertex_of.items() if v in comp]
        faces = len({face_of[d] for d in darts}) if darts else 1
        if len(comp) - len(darts) // 2 + faces != 2:
            return False
    return True


def build_parser() -> argparse.ArgumentParser:
    """argparse over ``cli.COMMANDS``: the oracle of ``cli.parse_args``.

    One sub-parser per command, with the network file, ``--compact`` and
    the table's arguments, and the command's handler as ``func``.
    """
    parser = argparse.ArgumentParser(prog="cactusnet", description=cli.DESCRIPTION)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (network_arg, extra) in cli.COMMANDS.items():
        p = sub.add_parser(name)
        if network_arg:
            p.add_argument("network", help="path to a network file")
        p.add_argument("--compact", action="store_true",
                       help="single-line output")
        for flags, kwargs in extra:
            p.add_argument(*flags, **kwargs)
        p.set_defaults(func=getattr(cli, "cmd_" + name.replace("-", "_")))
    return parser


class RecordingStream:
    """A text stream that keeps every write as one string."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


def write_pairs(pairs, stream, compact=False):
    """Oracle of ``netfile.write_lambda``: write (str, str) pairs with
    distinct keys, each quoted by json, as the line
    ``print(dump_document(dict(pairs), compact))`` prints,
    ``netfile.STREAM_BATCH`` entries per write."""
    quote = json.encoder.encode_basestring_ascii
    colon, sep, lead, close = ((":", ",", "{", "}") if compact
                               else (": ", ",\n  ", "{\n  ", "\n}"))
    pairs = iter(pairs)
    written = False
    while chunk := [quote(k) + colon + quote(v)
                    for k, v in itertools.islice(pairs, netfile.STREAM_BATCH)]:
        stream.write((sep if written else lead) + sep.join(chunk))
        written = True
    stream.write(close + "\n" if written else "{}\n")


@pytest.fixture
def y123():
    return make_y(1, 2, 3)


@pytest.fixture
def delta_recip():
    return make_delta(Fraction(1, 3), 1, Fraction(1, 2))


@pytest.fixture
def glued_tree():
    return make_glued_tree()


@pytest.fixture
def rng():
    return random.Random(20240824)


def pytest_runtest_logreport(report):
    # one visible line per acceptance criterion, independent of capture
    if report.when == "call" and "test_acceptance" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        outcome = "PASS" if report.passed else "FAIL"
        sys.stderr.write(f"[acceptance] {name}: {outcome}\n")
