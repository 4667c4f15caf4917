"""Network validation, combinatorial map, medial strands, rewrites."""

import random
from fractions import Fraction

import pytest

from conftest import (
    component_euler_ok,
    conductance_product,
    lobe_list_comb_map,
    make_delta,
    make_disconnected,
    make_edgeless,
    make_glued_pendant,
    make_glued_tree,
    make_shorted,
    make_single_edge,
    make_y,
    make_y_with_pendant,
    mutated,
    mutation_sources,
    random_glued_wheel,
    random_planar_net,
)
from cactusnet import cli, netfile, network
from cactusnet.combinat import enumerate_noncrossing
from cactusnet.electrical import resistance_matrix, response_matrix
from cactusnet.groves import equivalence_factor, lambda_vector
from cactusnet.network import (
    CactusNetwork,
    CombMap,
    dual,
    is_minimal,
    medial_pairing,
    quotient_graph,
    require_valid,
    trace_strands,
    validate,
    ydelta,
)


def failing_checks(net):
    return {name for name, _ in validate(net).failures()}


def test_validate_accepts_fixtures():
    for net in (make_y(1, 2, 3), make_delta(1, 2, 3), make_single_edge(),
                make_edgeless(4), make_glued_tree(), make_shorted(),
                make_disconnected()):
        assert validate(net).ok


def test_validate_shape_not_a_partition():
    net = make_y(1, 2, 3).replace(shape=[(1, 2)])
    assert "shape-partition" in failing_checks(net)


def test_validate_crossing_shape():
    net = CactusNetwork.build(4, [(1, 3), (2, 4)], [], [], {})
    assert "shape-noncrossing" in failing_checks(net)


def test_validate_nonpositive_conductance():
    net = make_single_edge(Fraction(0))
    assert "conductance-positive" in failing_checks(net)


def test_validate_loop_edge():
    net = CactusNetwork.build(
        2, [(1,), (2,)], ["v"], [("e", ("v", "v"), 1)], {"v": ["e", "e"]})
    assert "no-loops" in failing_checks(net)


def test_validate_unknown_endpoint():
    net = CactusNetwork.build(
        2, [(1,), (2,)], [], [("e", ("b1", "b7"), 1)],
        {"b1": ["e"], "b7": ["e"]})
    assert "edge-endpoints" in failing_checks(net)


def test_validate_rotation_mismatch():
    net = make_y(1, 2, 3).replace(
        rotations={"b1": ["e1"], "b2": ["e2"], "b3": ["e3"],
                   "v": ["e1", "e2"]})
    assert "rotations-consistent" in failing_checks(net)


def test_validate_nonplanar_rotation():
    # K4 drawn with a deliberately impossible rotation at the hub
    net = CactusNetwork.build(
        3, [(1,), (2,), (3,)], ["v"],
        [("e1", ("b1", "v"), 1), ("e2", ("b2", "v"), 1),
         ("e3", ("b3", "v"), 1),
         ("d12", ("b1", "b2"), 1), ("d23", ("b2", "b3"), 1),
         ("d31", ("b3", "b1"), 1)],
        {"b1": ["d12", "e1", "d31"], "b2": ["d23", "e2", "d12"],
         "b3": ["d31", "e3", "d23"], "v": ["e1", "e3", "e2"]},
    )
    assert "planar-embedding" in failing_checks(net)
    fixed = net.replace(rotations=dict(net.rotations, v=("e1", "e2", "e3")))
    assert validate(fixed).ok


def test_require_valid_raises():
    with pytest.raises(ValueError):
        require_valid(make_single_edge(Fraction(-1)))


def test_quotient_graph_blocks_and_loops():
    net = make_glued_tree()
    qg = quotient_graph(net)
    assert qg.boundary == ((1,), (2, 3), (4, 6), (5,))
    assert qg.loop_ids == ()
    # an edge between glued labels collapses to a loop
    net2 = CactusNetwork.build(
        3, [(1, 3), (2,)], [], [("e", ("b1", "b3"), 1)],
        {"b1": ["e"], "b3": ["e"]})
    assert validate(net2).ok
    assert quotient_graph(net2).loop_ids == ("e",)
    assert quotient_graph(net2).edges == ()


def test_comb_map_euler_on_fixtures():
    for net in (make_y(1, 2, 3), make_delta(1, 2, 3), make_glued_tree(),
                make_shorted(), make_edgeless(2)):
        assert CombMap(net).euler_ok()


# n = 4 with labels 1 and 3 glued: the lobe {1,2,3} follows label 1
# clockwise and the lobe {3,4,1} precedes it
GLUED_13 = [[1, 3], [2], [4]]


def test_pendant_fits_either_lobe_at_a_glued_label():
    """A pendant at b1 reaches no other label, so it may sit in the lobe
    before label 1, after the edge to b4 that must lie there."""
    nets = [make_glued_pendant(rot) for rot in (["e14", "ep"], ["ep", "e14"])]
    for net in nets:
        assert validate(net).ok
    assert lambda_vector(nets[0]) == lambda_vector(nets[1])
    assert response_matrix(nets[0]) == response_matrix(nets[1])


@pytest.mark.parametrize("shape, edges, rotations, message", [
    ([[1, 2, 3, 4]], [("e13", ("b1", "b3"), 1)], {"b1": ["e13"], "b3": ["e13"]},
     "edge e13 joins non-adjacent labels of glued block (1, 2, 3, 4)"),
    (GLUED_13,
     [("e1", ("b1", "u"), 1), ("e2", ("u", "b2"), 1), ("e4", ("u", "b4"), 1)],
     {"b1": ["e1"], "b2": ["e2"], "b4": ["e4"], "u": ["e1", "e2", "e4"]},
     "edge e1 cannot be embedded in any lobe at glued block (1, 3)"),
    (GLUED_13, [("e12", ("b1", "b2"), 1), ("e14", ("b1", "b4"), 1)],
     {"b1": ["e14", "e12"], "b2": ["e12"], "b4": ["e14"]},
     "rotation at b1 interleaves lobes"),
], ids=["non-adjacent", "no-lobe", "interleaved"])
def test_glued_lobe_errors(shape, edges, rotations, message):
    internal = ["u"] if "u" in rotations else []
    net = CactusNetwork.build(4, shape, internal, edges, rotations)
    assert validate(net).failures() == [("planar-embedding", message)]


def test_glued_lobes_in_clockwise_order_validate():
    """The interleaved case above with the lobe after label 1 first."""
    net = CactusNetwork.build(
        4, GLUED_13, [], [("e12", ("b1", "b2"), 1), ("e14", ("b1", "b4"), 1)],
        {"b1": ["e12", "e14"], "b2": ["e12"], "b4": ["e14"]})
    assert validate(net).ok


def test_comb_map_matches_the_lobe_list_oracle():
    """Where the lobe-list oracle builds a map the two maps are identical;
    where they part, the oracle had refused an interleaved rotation."""
    rng = random.Random(13)
    counts = {"same": 0, "refused": 0, "planar": 0, "nonplanar": 0}
    for _ in range(400):
        net = random_glued_wheel(rng, rng.randint(3, 6))
        try:
            old = lobe_list_comb_map(net)
        except ValueError as exc:
            old = exc
        try:
            new = CombMap(net)
        except ValueError as exc:
            new = exc
        if isinstance(new, CombMap):
            counts["planar" if new.euler_ok() else "nonplanar"] += 1
            assert new.euler_ok() == component_euler_ok(new)
        if isinstance(old, CombMap):
            assert (new.rot, new.pre_vertex, new.euler_ok()) == (
                old.rot, old.pre_vertex, component_euler_ok(old))
            counts["same"] += 1
        elif isinstance(new, CombMap) or str(new) != str(old):
            assert str(old).endswith("interleaves lobes")
            counts["refused"] += 1
    assert min(counts.values()) >= 10


def test_comb_map_outer_face():
    cm = CombMap(make_glued_tree())
    outer = cm.outer_face(cm.faces())
    assert sorted(d[0][1] for d in outer) == [1, 2, 3, 4, 5, 6]


def test_medial_pairing_fixtures():
    assert medial_pairing(make_y(1, 2, 3)).pairs == ((1, 4), (2, 5), (3, 6))
    assert medial_pairing(make_delta(1, 2, 3)).pairs == ((1, 4), (2, 5), (3, 6))
    assert medial_pairing(make_single_edge()).pairs == ((1, 3), (2, 4))
    assert medial_pairing(make_edgeless(3)).pairs == ((1, 2), (3, 4), (5, 6))


def test_medial_pairing_glued():
    assert medial_pairing(make_glued_tree()).pairs == (
        (1, 7), (2, 6), (3, 12), (4, 5), (8, 10), (9, 11))


def test_minimality_fixtures():
    assert is_minimal(make_y(1, 2, 3))
    assert is_minimal(make_delta(1, 2, 3))
    assert is_minimal(make_glued_tree())
    assert is_minimal(make_edgeless(3))


def test_series_pair_not_minimal():
    net = CactusNetwork.build(
        2, [(1,), (2,)], ["u"],
        [("e1", ("b1", "u"), 1), ("e2", ("u", "b2"), 1)],
        {"b1": ["e1"], "b2": ["e2"], "u": ["e1", "e2"]})
    assert medial_pairing(net).pairs == ((1, 4), (2, 3))
    assert not is_minimal(net)


def test_parallel_pair_not_minimal():
    net = CactusNetwork.build(
        2, [(1,), (2,)], [],
        [("e1", ("b1", "b2"), 1), ("e2", ("b1", "b2"), 1)],
        {"b1": ["e1", "e2"], "b2": ["e2", "e1"]})
    assert validate(net).ok
    assert not is_minimal(net)


def test_medial_pairing_is_rotation_independent():
    """Electrically equivalent attachments of the glued fixture give the
    same strand pairing."""
    base = make_glued_tree()
    variant = CactusNetwork.build(
        6, base.shape, [],
        [("a", ("b1", "b4"), 1), ("b", ("b5", "b6"), 2),
         ("c", ("b1", "b3"), 3)],
        {"b1": ["c", "a"], "b3": ["c"], "b4": ["a"], "b5": ["b"],
         "b6": ["b"]},
    )
    assert validate(variant).ok
    assert medial_pairing(variant).pairs == medial_pairing(base).pairs


def test_y_delta_round_trip_exact():
    net = make_y(Fraction(1), Fraction(2), Fraction(3))
    tri = ydelta(net, "v", "ytod")
    assert validate(tri).ok
    assert tri.internal_vertices == ()
    conds = sorted(e.conductance for e in tri.edges)
    assert conds == [Fraction(1, 3), Fraction(1, 2), Fraction(1)]
    back = ydelta(tri, "b1,b2,b3", "dtoy")
    assert validate(back).ok
    assert sorted(e.conductance for e in back.edges) == [1, 2, 3]
    assert equivalence_factor(net, back) == 1


def test_y_delta_preserves_measurements_up_to_scalar():
    rng = random.Random(3)
    checked = 0
    for _ in range(40):
        n = rng.choice([3, 4])
        net = random_planar_net(rng, n, connected=True)
        if "v" not in net.internal_vertices:
            continue
        if len(net.rotations["v"]) != 3:
            continue
        out = ydelta(net, "v", "ytod")
        assert validate(out).ok
        assert equivalence_factor(net, out) is not None
        checked += 1
    assert checked >= 5


def test_y_delta_rejects_bad_sites():
    net = make_y(1, 2, 3)
    with pytest.raises(ValueError):
        ydelta(net, "b1", "ytod")
    with pytest.raises(ValueError):
        ydelta(net, "v", "sideways")
    with pytest.raises(ValueError):
        ydelta(make_delta(1, 2, 3), "b1,b2,b9", "dtoy")


def test_dual_is_involutive_up_to_equivalence():
    for net in (make_y(1, 2, 3), make_delta(1, 2, 3), make_single_edge(),
                make_glued_tree()):
        d1 = dual(net)
        assert validate(d1).ok
        d2 = dual(d1)
        assert validate(d2).ok
        # conductances return to the originals under the double dual
        assert sorted(e.conductance for e in d2.edges) == sorted(
            e.conductance for e in net.edges)


def test_dual_refuses_loops():
    """The dual of the pendant would be a loop, which validate rejects."""
    net = make_y_with_pendant()
    assert validate(net).ok
    with pytest.raises(ValueError, match=r"dual edges of \['ep'\] would be loops"):
        dual(net)


def test_dual_swaps_series_and_parallel():
    y = make_y(1, 2, 3)
    dy = dual(y)
    # the dual of a star on the boundary is a triangle with reciprocal
    # conductances
    assert dy.internal_vertices == ()
    assert sorted(e.conductance for e in dy.edges) == [
        Fraction(1, 3), Fraction(1, 2), Fraction(1)]


def test_dual_measurement_reciprocity(glued_tree):
    """The dual's measurement vector is the primal one divided by the
    product of conductances, after complement relabeling."""
    from cactusnet.combinat import enumerate_noncrossing, kreweras_complement

    for net in (make_y(1, 2, 3), glued_tree):
        lam = lambda_vector(net)
        lam_d = lambda_vector(dual(net))
        prod = conductance_product(net)
        for sigma in enumerate_noncrossing(net.n):
            assert lam_d[kreweras_complement(sigma)] == lam[sigma] / prod


def test_random_networks_validate_and_trace(rng):
    for _ in range(60):
        n = rng.choice([2, 3, 4, 5])
        net = random_planar_net(rng, n)
        assert validate(net).ok
        pairing = medial_pairing(net)
        flat = sorted(x for p in pairing.pairs for x in p)
        assert flat == list(range(1, 2 * n + 1))


@pytest.fixture
def comb_maps(monkeypatch):
    """The networks of every ``CombMap`` that ``validate`` builds."""
    built = []

    class Counted(CombMap):
        def __init__(self, net):
            built.append(net)
            super().__init__(net)

    monkeypatch.setattr(network, "CombMap", Counted)
    return built


def test_validate_caches_its_report_on_the_network(comb_maps):
    """A second validate of the same object checks nothing again; the
    library entry points that call it reuse the report and its map."""
    net = make_y(1, 2, 3)
    report = validate(net)
    assert comb_maps == [net]
    assert validate(net) is report
    cmap = require_valid(net)
    assert isinstance(cmap, CombMap) and cmap.net is net
    assert require_valid(net) is cmap
    response_matrix(net)
    lambda_vector(net)
    quotient_graph(net)
    medial_pairing(net)
    is_minimal(net)
    dual(net)
    ydelta(net, "v", "ytod")
    assert comb_maps == [net]


def test_a_rewritten_network_is_validated_afresh(comb_maps):
    net = make_y(1, 2, 3)
    validate(net)
    rotated = net.replace(rotations=dict(net.rotations, v=("e3", "e2", "e1")))
    assert not validate(rotated).ok
    assert validate(net).ok
    delta = ydelta(net, "v", "ytod")
    assert validate(delta).ok
    assert comb_maps == [net, rotated, delta]


def test_an_invalid_report_is_cached_too(comb_maps):
    net = make_y(1, 2, 3)
    bad = net.replace(rotations=dict(net.rotations, v=("e3", "e2", "e1")))
    report = validate(bad)
    assert not report.ok
    assert validate(bad) is report
    with pytest.raises(ValueError, match="invalid network"):
        response_matrix(bad)
    assert comb_maps == [bad]


def test_equiv_validates_each_network_once(comb_maps, tmp_path, capsys):
    paths = []
    for name, net in (("y", make_y(1, 2, 3)), ("d", make_delta(1, 2, 3))):
        paths.append(str(tmp_path / f"{name}.json"))
        netfile.save_network(net, paths[-1])
    assert cli.main(["equiv", *paths]) == 0
    assert len(comb_maps) == 2 and comb_maps[0] is not comb_maps[1]
    assert [net.n for net in comb_maps] == [3, 3]
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["medial"], ["minimal"], ["dual"],
    ["ydelta", "--site", "b1,b2,b3", "--direction", "dtoy"],
], ids=lambda argv: argv[-1])
def test_a_map_request_builds_one_map_and_walks_its_faces_once(
        comb_maps, monkeypatch, tmp_path, capsys, argv):
    """The strands, Y-Delta and the dual read the map ``validate`` built,
    and the faces that its Euler check walked."""
    path = str(tmp_path / "delta.json")
    netfile.save_network(make_delta(1, 2, 3), path)
    steps = []
    walk = network.CombMap.face_next
    monkeypatch.setattr(network.CombMap, "face_next",
                        lambda cmap, d: steps.append(cmap) or walk(cmap, d))
    assert cli.main([argv[0], path, *argv[1:]]) == 0
    capsys.readouterr()
    [net] = comb_maps
    cmap = require_valid(net)
    assert steps == [cmap] * len(cmap.vertex_of)


# every library entry point that reads a network, with a site for Y-Delta
ENTRY_POINTS = {
    "quotient_graph": quotient_graph,
    "trace_strands": trace_strands,
    "medial_pairing": medial_pairing,
    "is_minimal": is_minimal,
    "dual": dual,
    "ytod": lambda net: ydelta(net, "v", "ytod"),
    "dtoy": lambda net: ydelta(net, "b1,b2,b3", "dtoy"),
    "response_matrix": response_matrix,
    "resistance_matrix": resistance_matrix,
    "lambda_vector": lambda_vector,
}


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_entry_points_refuse_a_reversed_rotation(name):
    """A star whose hub is listed counterclockwise fails only the
    planar-embedding check, and every entry point refuses it."""
    net = make_y(1, 2, 3)
    bad = net.replace(rotations=dict(net.rotations, v=("e3", "e2", "e1")))
    with pytest.raises(ValueError, match=r"^invalid network: \[\('planar-embedding'"):
        ENTRY_POINTS[name](bad)


def test_entry_points_refuse_every_invalid_mutant():
    """Seeded fuzz on the mutations of the command-line fuzz: each entry
    point, on a fresh copy of a mutant that loads but that ``validate``
    rejects, raises the validation error."""
    rng = random.Random(17)
    docs = mutation_sources()
    rejected = 0
    for _ in range(300):
        doc = mutated(rng, rng.choice(docs))
        try:
            net = netfile.network_from_dict(doc)
        except ValueError:
            continue
        if validate(net).ok:
            continue
        rejected += 1
        for name, entry in ENTRY_POINTS.items():
            with pytest.raises(ValueError, match="^invalid network"):
                entry(netfile.network_from_dict(doc))
    assert rejected >= 100
