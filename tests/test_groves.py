"""Grove enumeration against a brute-force subset oracle."""

import itertools
import math
import random
from fractions import Fraction

import networkx as nx
import pytest

from conftest import (
    electrically_equivalent,
    grove_partition,
    make_delta,
    make_disconnected,
    make_edgeless,
    make_glued_later,
    make_glued_pendant,
    make_glued_tree,
    make_grid,
    make_grid4,
    make_shorted,
    make_single_edge,
    make_subdivided_wheel,
    make_two_hubs,
    make_y,
    one_block,
    path_halving_groves,
    path_halving_partition,
    random_glued_wheel,
    random_planar_net,
    recursive_groves,
    root_partition,
)
from cactusnet import groves
from cactusnet.combinat import NoncrossingPartition, enumerate_noncrossing
from cactusnet.groves import (
    GROVE_EDGE_CAP,
    GroveMeasurements,
    enumerate_groves,
    equivalence_factor,
    lambda_vector,
    proportionality_factor,
)
from cactusnet.linalg import _sparse_ratio
from cactusnet.network import CactusNetwork, Edge, quotient_graph, validate, ydelta

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
          67, 71)


class KeepAll(random.Random):
    """Makes random_planar_net keep every chord and spoke."""

    def random(self):
        return 0.0


def weighed_groves(qg):
    """``(grove, roots, product)`` for each grove the search yields, with
    a distinct prime weight on each edge, so a product names its grove:
    the sorted ids of the edges whose primes divide it.  Every product is
    checked to be ``math.prod`` of its grove's weights."""
    weight = dict(zip(sorted(eid for eid, *_ in qg.edges), PRIMES))
    for roots, product in enumerate_groves(qg, weight):
        grove = tuple(e for e, p in weight.items() if product % p == 0)
        assert product == math.prod(weight[e] for e in grove)
        yield grove, roots, product


def searched_pairs(qg):
    """``(grove, roots)`` pairs in the form ``recursive_groves`` yields:
    the root string read back as a tuple of indices."""
    return ((g, tuple(map(ord, r))) for g, r, _ in weighed_groves(qg))


def root_string(roots):
    return "".join(map(chr, roots))


def proved_partition(boundary, roots):
    """The partition whose blocks join the boundary blocks sharing a root,
    proved by ``NoncrossingPartition.from_blocks``."""
    groups = {}
    for root, block in zip(roots, boundary):
        groups.setdefault(root, []).extend(block)
    return NoncrossingPartition.from_blocks(sum(map(len, boundary)), groups.values())


def brute_force_groves(qg):
    """All groves by filtering every edge subset with networkx."""
    out = set()
    boundary = set(qg.boundary)
    for r in range(len(qg.edges) + 1):
        for subset in itertools.combinations(qg.edges, r):
            g = nx.MultiGraph()
            g.add_nodes_from(qg.vertices)
            for eid, u, v, _ in subset:
                g.add_edge(u, v, key=eid)
            if g.number_of_edges() != len(g.nodes) - nx.number_connected_components(g):
                continue  # has a cycle
            if any(
                not (set(comp) & boundary)
                for comp in nx.connected_components(g)
            ):
                continue
            out.add(tuple(sorted(e[0] for e in subset)))
    return out


def brute_force_partition(qg, chosen):
    g = nx.MultiGraph()
    g.add_nodes_from(qg.vertices)
    for eid, u, v, _ in qg.edges:
        if eid in set(chosen):
            g.add_edge(u, v)
    blocks = []
    for comp in nx.connected_components(g):
        labels = [x for b in comp if isinstance(b, tuple) for x in b]
        if labels:
            blocks.append(tuple(sorted(labels)))
    n = sum(len(b) for b in qg.boundary)
    return NoncrossingPartition.from_blocks(n, blocks)


@pytest.mark.parametrize("builder", [
    lambda: make_y(1, 2, 3),
    lambda: make_delta(1, 2, 3),
    make_single_edge,
    lambda: make_edgeless(3),
    make_glued_tree,
    make_glued_later,
    make_shorted,
    make_disconnected,
    make_grid4,
    make_subdivided_wheel,
    make_two_hubs,
])
def test_groves_match_brute_force(builder):
    qg = quotient_graph(builder())
    triples = list(weighed_groves(qg))
    listed = [grove for grove, *_ in triples]
    assert listed == sorted(listed)  # deterministic lexicographic order
    assert listed == list(path_halving_groves(qg))
    assert set(listed) == brute_force_groves(qg)
    for grove, roots, _ in triples:
        assert grove_partition(qg, grove) == brute_force_partition(qg, grove)
        assert root_partition(qg, roots) == brute_force_partition(qg, grove)


def test_groves_match_brute_force_random(rng):
    for _ in range(15):
        n = rng.choice([2, 3, 4])
        net = random_planar_net(rng, n)
        qg = quotient_graph(net)
        if len(qg.edges) > 12:
            continue
        triples = list(weighed_groves(qg))
        listed = [grove for grove, *_ in triples]
        assert listed == list(path_halving_groves(qg))
        assert set(listed) == brute_force_groves(qg)
        for grove, roots, _ in triples:
            assert root_partition(qg, roots) == brute_force_partition(qg, grove)


def assert_grove_invariants(qg, pairs):
    """Each grove of c trees has len(vertices) - c edges, and each class
    is named by the partition that from_blocks proves from its blocks.
    Returns the number of pairs."""
    n = sum(len(b) for b in qg.boundary)
    classes, count = set(), 0
    for grove, roots in pairs:
        assert len(grove) == len(qg.vertices) - len(set(roots))
        classes.add(roots)
        count += 1
    classes = list(classes)
    lam = GroveMeasurements(n, qg.boundary, 1, len(qg.vertices),
                            dict.fromkeys(map(root_string, classes), 1))
    for roots, sigma in zip(classes, lam.values, strict=True):
        assert sigma == proved_partition(qg.boundary, roots)
    return count


@pytest.mark.parametrize("builder", [
    make_glued_tree,
    make_glued_later,
    make_shorted,
    make_disconnected,
    lambda: make_edgeless(3),
    make_grid4,
    make_subdivided_wheel,
    make_two_hubs,
])
def test_search_matches_the_recursive_oracle(builder):
    qg = quotient_graph(builder())
    pairs = list(searched_pairs(qg))
    assert pairs == list(recursive_groves(qg))
    assert_grove_invariants(qg, pairs)


def test_search_matches_the_recursive_oracle_random(rng):
    for _ in range(40):
        qg = quotient_graph(random_planar_net(rng, rng.randint(2, 8)))
        pairs = list(searched_pairs(qg))
        assert pairs == list(recursive_groves(qg))
        assert_grove_invariants(qg, pairs)


def test_search_matches_the_recursive_oracle_at_the_cap():
    """The full wheel on ten labels has exactly GROVE_EDGE_CAP edges and
    214,207 groves; the two searches are compared pair by pair, without
    holding the lists."""
    qg = quotient_graph(random_planar_net(KeepAll(0), 10, connected=True))
    assert len(qg.edges) == GROVE_EDGE_CAP

    def matched():
        for new, old in itertools.zip_longest(searched_pairs(qg),
                                              recursive_groves(qg)):
            assert new == old
            yield new

    assert assert_grove_invariants(qg, matched()) == 214207


def test_partition_sorts_a_glued_block_joining_a_later_label():
    qg = quotient_graph(make_glued_later())
    assert root_partition(qg, root_string((0, 0, 2))).blocks == ((1, 2, 4), (3,))
    lam = lambda_vector(make_glued_later())
    assert lam[NoncrossingPartition(4, ((1, 2, 4), (3,)))] == 2


def test_grove_partitions_are_noncrossing(rng):
    for _ in range(10):
        net = random_planar_net(rng, 4)
        qg = quotient_graph(net)
        for grove, *_ in weighed_groves(qg):
            sigma = grove_partition(qg, grove)
            assert sigma in enumerate_noncrossing(4)


def test_lambda_vector_y():
    lam = lambda_vector(make_y(1, 2, 3))
    expect = {
        "{1},{2},{3}": 6, "{1},{2,3}": 6, "{1,2},{3}": 2,
        "{1,3},{2}": 3, "{1,2,3}": 6,
    }
    for sigma in enumerate_noncrossing(3):
        assert lam[sigma] == expect[str(sigma)]


def test_lambda_classes_equal_the_proved_partitions():
    """Every class that lambda_vector measures is keyed, in the values
    view and in class order, by the partition that
    NoncrossingPartition.from_blocks proves from the same blocks."""
    rng = random.Random(9)
    nets = [make_glued_tree(), make_shorted(), make_disconnected(), make_grid4(),
            make_grid(3, rng), make_grid(4, rng), make_subdivided_wheel(),
            make_two_hubs()]
    nets += [random_planar_net(rng, rng.randint(2, 7)) for _ in range(80)]
    proved = 0
    for net in nets:
        lam = lambda_vector(net)
        for roots, sigma in zip(lam.classes, lam.values, strict=True):
            assert sigma == proved_partition(lam.boundary, roots)
        proved += len(lam.classes)
    assert proved > 1000


def test_named_view_matches_the_values_view():
    """``named`` equals the values view, and the names and lowest terms
    proved from the classes, name for name and in the same order, on
    random wheels, the glued fixtures (with pendants) and conductances
    whose denominators give d > 1."""
    rng = random.Random(31)
    nets = [random_planar_net(rng, rng.randint(2, 8)) for _ in range(150)]
    nets += [random_glued_wheel(rng, rng.randint(3, 6)) for _ in range(150)]
    nets += [make_glued_tree(), make_glued_later(),
             make_y(Fraction(1, 2), 3, Fraction(5, 6)),
             make_delta(Fraction(1, 3), 1, Fraction(1, 2))]
    nets += [make_glued_pendant(rot) for rot in (["e14", "ep"], ["ep", "e14"])]
    checked = {"glued": 0, "d > 1": 0}
    for net in nets:
        if not validate(net).ok:
            continue
        try:
            lam = lambda_vector(net)
        except ValueError:
            continue
        named = lam.named()
        want = {str(s): (v.numerator, v.denominator) for s, v in lam.values.items()}
        assert list(named.items()) == list(want.items())
        proved = {}
        for roots, s in lam.classes.items():
            v = Fraction(s, lam.d ** (lam.nvertices - len(set(roots))))
            proved[str(proved_partition(lam.boundary, roots))] = (v.numerator, v.denominator)
        assert list(named.items()) == list(proved.items())
        checked["glued"] += len(quotient_graph(net).boundary) < net.n
        checked["d > 1"] += lam.d > 1
    assert min(checked.values()) > 20


def test_lambda_vector_loops_never_contribute():
    """Quotient loop edges are excluded from every grove."""
    net = CactusNetwork.build(
        3, [(1, 3), (2,)], ["v"],
        [("e1", ("b1", "v"), 1), ("e2", ("b2", "v"), 2),
         ("loop", ("b1", "b3"), 7)],
        {"b1": ["e1", "loop"], "b2": ["e2"], "b3": ["loop"],
         "v": ["e1", "e2"]},
    )
    # a distinct prime on every edge, the loop's too: a product names its grove
    weight = dict(zip((e.id for e in net.edges), PRIMES))
    found = [tuple(e for e, p in weight.items() if product % p == 0)
             for _, product in enumerate_groves(quotient_graph(net), weight)]
    assert found == [("e1",), ("e1", "e2"), ("e2",)]


def test_edge_cap_enforced():
    qg = quotient_graph(make_y(1, 2, 3))
    big = qg.__class__(
        boundary=qg.boundary, internal=qg.internal,
        edges=qg.edges * ((GROVE_EDGE_CAP // len(qg.edges)) + 1),
        loop_ids=(),
    )
    with pytest.raises(ValueError):
        list(enumerate_groves(big, {}))


def test_measurements_scale_with_conductance():
    lam1 = lambda_vector(make_y(1, 2, 3))
    lam2 = lambda_vector(make_y(2, 4, 6))
    # doubling every conductance scales each grove monomial by 2^|F|,
    # which is not a global scalar; but tripling a single edge scales
    # nothing uniformly either, so compare via explicit recomputation
    assert lam2[one_block(3)] == 8 * lam1[one_block(3)]


def test_equivalence_y_delta():
    y = make_y(1, 2, 3)
    d = make_delta(Fraction(1, 3), 1, Fraction(1, 2))
    assert electrically_equivalent(y, d)
    assert equivalence_factor(y, d) == 6
    assert equivalence_factor(d, y) == Fraction(1, 6)


def test_equivalence_rejects_different_networks():
    assert not electrically_equivalent(make_y(1, 2, 3), make_y(1, 2, 4))
    assert equivalence_factor(make_y(1, 2, 3), make_y(1, 2, 4)) is None


def y_sites(nets):
    """(net, its Y-Delta rewrite at the hub v) for each net whose v has
    three edges."""
    return [(net, ydelta(net, "v", "ytod")) for net in nets
            if len(net.rotations.get("v", ())) == 3]


def make_glued_first():
    """``make_glued_later`` with every label turned one step: shape
    {1,2},{3},{4}.  Its root strings and their sums are those of
    ``make_glued_later``, but they name other partitions."""
    return CactusNetwork.build(
        4, [(1, 2), (3,), (4,)], [],
        [("x", ("b1", "b3"), Fraction(2)), ("y", ("b3", "b4"), Fraction(3))],
        {"b1": ["x"], "b3": ["y", "x"], "b4": ["y"]})


def test_equivalence_factor_matches_the_values_oracle():
    """equivalence_factor, which compares the classes by name, against
    the ratio of the two values views: on glued networks and their Y-Delta
    rewrites; on networks with the same n whose root strings run over
    different boundaries (glued and unglued, or two glued shapes with as
    many blocks), which are never equivalent; and on random wheels."""
    rng = random.Random(77)
    glued = [net for net in [make_shorted()] + [
        random_glued_wheel(rng, rng.randint(3, 6)) for _ in range(80)]
        if validate(net).ok]
    other = [(net, random_planar_net(rng, net.n, connected=True)) for net in glued]
    other += [(a, b) for a, b in itertools.combinations(glued, 2)
              if a.n == b.n and len(a.shape) == len(b.shape) and a.shape != b.shape]
    other.append((make_glued_later(), make_glued_first()))
    wheels = [random_planar_net(rng, rng.randint(2, 6)) for _ in range(80)]
    pairs = {
        "glued rewrite": y_sites(glued),
        "other boundary": other + [(b, a) for a, b in other],
        "wheel rewrite": y_sites(wheels),
        "wheels": list(zip(wheels, wheels[1:])) + [(w, w) for w in wheels],
    }
    for kind, found in pairs.items():
        checked = 0
        for a, b in found:
            try:
                want = _sparse_ratio(lambda_vector(b).values, lambda_vector(a).values)
            except ValueError:
                continue  # an internal vertex is isolated: no grove
            got = equivalence_factor(a, b)
            assert got == want, kind
            if kind == "other boundary":
                assert got is None
            elif kind != "wheels" or a is b:
                assert got is not None, kind
            checked += 1
        assert checked >= 8, kind


def test_proportionality_factor_zero_vectors():
    z = GroveMeasurements(2, ((1,), (2,)), 1, 2, {})
    lam = lambda_vector(make_single_edge())
    assert proportionality_factor(z, lam) is None
    assert proportionality_factor(lam, z) is None


def grove_loop_measurements(net):
    """The loop lambda_vector replaces: one Fraction product per grove of
    the path-halving search, added under the partition it induces."""
    qg = quotient_graph(net)
    weight = {eid: c for eid, _, _, c in qg.edges}
    values = {}
    for grove in path_halving_groves(qg):
        w = Fraction(1)
        for eid in grove:
            w *= weight[eid]
        sigma = path_halving_partition(qg, grove)
        values[sigma] = values.get(sigma, 0) + w
    return values


def with_distinct_denominators(net):
    """The same network with conductance (k+1)/p on edge k, p the k-th prime."""
    assert len(net.edges) <= len(PRIMES)
    return net.replace(edges=[
        Edge(e.id, e.ends, Fraction(k + 1, p))
        for k, (e, p) in enumerate(zip(net.edges, PRIMES))])


@pytest.mark.parametrize("builder", [
    make_glued_tree,
    make_shorted,
    make_disconnected,
    lambda: make_edgeless(3),
    lambda: make_y(Fraction(1, 2), Fraction(2, 3), Fraction(5, 7)),
    lambda: with_distinct_denominators(make_glued_tree()),
    make_grid4,
    lambda: with_distinct_denominators(make_grid4()),
    make_subdivided_wheel,
    make_two_hubs,
], ids=["glued", "shorted", "disconnected", "edgeless", "y-distinct-denominators",
        "glued-distinct-denominators", "grid4", "grid4-distinct-denominators",
        "subdivided-wheel", "two-hubs"])
def test_lambda_vector_matches_the_grove_loop(builder):
    net = builder()
    lam = lambda_vector(net)
    assert lam.values == grove_loop_measurements(net)
    assert all(lam.values.values())


def test_lambda_vector_matches_the_grove_loop_random(rng):
    for _ in range(25):
        net = random_planar_net(rng, rng.choice([2, 3, 4, 5, 6]))
        if rng.random() < 0.5:
            net = with_distinct_denominators(net)
        lam = lambda_vector(net)
        assert lam.values == grove_loop_measurements(net)
        assert all(lam.values.values())


def test_lambda_vector_past_256_vertices():
    """n = 300 with a star at b1..b3 and a path b299 - w - b300: the root
    strings hold indices past 255, which no bytes key could."""
    net = CactusNetwork.build(
        300, [(i,) for i in range(1, 301)], ["v", "w"],
        [("e1", ("b1", "v"), 1), ("e2", ("b2", "v"), 2), ("e3", ("b3", "v"), 3),
         ("f1", ("b299", "w"), Fraction(1, 2)), ("f2", ("w", "b300"), 5)],
        {"b1": ["e1"], "b2": ["e2"], "b3": ["e3"], "v": ["e1", "e2", "e3"],
         "b299": ["f1"], "b300": ["f2"], "w": ["f2", "f1"]},
    )
    qg = quotient_graph(net)
    assert len(qg.vertices) == 302
    assert {ord(r[299]) for _, r, _ in weighed_groves(qg)} == {298, 299}
    lam = lambda_vector(net)
    assert lam.values == grove_loop_measurements(net)
    assert len(lam.values) == 5 * 2
    assert equivalence_factor(net, net) == 1


def test_lambda_vector_consumes_one_grove_search(monkeypatch):
    """lambda_vector takes every grove from one call of the public
    enumerate_groves, so a count of its yields counts the groves."""
    net = make_grid4()
    calls, seen, finished = [], [], []
    search = groves.enumerate_groves

    def counting(*args):
        calls.append(args)
        for roots, product in search(*args):
            seen.append(product)
            yield roots, product
        finished.append(True)

    monkeypatch.setattr(groves, "enumerate_groves", counting)
    lambda_vector(net)
    assert len(calls) == 1 and finished == [True]
    qg, weight = calls[0]
    assert seen == [math.prod(weight[e] for e in grove)
                    for grove in path_halving_groves(qg)]


def test_grove_functions_refuse_invalid_networks():
    """Edge e2 ends at an unknown vertex w: lambda_vector raises the
    validation error, not a KeyError from the search."""
    net = CactusNetwork.build(
        2, [(1,), (2,)], [],
        [("e1", ("b1", "b2"), Fraction(1)), ("e2", ("b2", "w"), Fraction(1))],
        {"b1": ["e1"], "b2": ["e1", "e2"]},
    )
    with pytest.raises(ValueError, match="invalid network"):
        lambda_vector(net)


def test_over_cap_lambda_fails_before_any_catalan_table():
    net = random_planar_net(KeepAll(0), 11, connected=True)
    assert len(net.edges) > GROVE_EDGE_CAP
    before = enumerate_noncrossing.cache_info()
    with pytest.raises(ValueError, match="too many edges"):
        lambda_vector(net)
    after = enumerate_noncrossing.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)


def test_proportionality_factor_ignores_explicit_zeros():
    sparse = lambda_vector(make_disconnected())
    # the boundary blocks are the singletons, so the root of label x is
    # the least label of its block, less one
    every = {"".join(chr(next(b for b in sigma.blocks if x in b)[0] - 1)
                     for x in (1, 2, 3)): 0
             for sigma in enumerate_noncrossing(3)}
    dense = GroveMeasurements(3, sparse.boundary, sparse.d, sparse.nvertices,
                              {**every, **sparse.classes})
    assert 0 in dense.values.values()
    double = GroveMeasurements(3, sparse.boundary, sparse.d, sparse.nvertices,
                               {roots: 2 * s for roots, s in sparse.classes.items()})
    assert proportionality_factor(dense, double) == 2
    assert proportionality_factor(double, dense) == Fraction(1, 2)
    assert proportionality_factor(dense, sparse) == 1
