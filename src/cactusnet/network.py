"""Cactus networks: data model, validation, medial strands, Y-Delta, duals.

A network is stored pre-quotient: a planar graph in a disc with boundary
vertices ``b1..bn`` in clockwise order, a shape partition describing
which boundary vertices are glued, and a rotation system (clockwise
cyclic order of incident edges at every vertex).  For a boundary vertex
the stored rotation list is read clockwise starting from the side of the
boundary arc that follows the vertex in clockwise order.

All face/strand computations run on an augmented combinatorial map of
the quotient: boundary vertices in one shape block are merged (their
rotations concatenated in increasing label order) and n virtual boundary
arcs are added along the disc boundary.  Faces are orbits of
``d -> sigma(alpha(d))`` on darts.

``validate`` alone builds that map and caches it with its report;
``quotient_graph``, the strands, Y-Delta and ``dual`` take it from
``require_valid``, so each refuses an invalid network with
``ValueError("invalid network: ...")``.
"""

import itertools
from fractions import Fraction

from .combinat import (
    FrozenRecord,
    Matching,
    Record,
    canonical_blocks,
    is_noncrossing,
    is_partition,
)


class Edge(FrozenRecord):
    _fields = ("id", "ends", "conductance")

    def __init__(self, id: str, ends: tuple, conductance: Fraction):
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "ends", ends)
        object.__setattr__(self, "conductance", conductance)


def boundary_name(i: int) -> str:
    return f"b{i}"


class CactusNetwork(Record):
    """Immutable by convention; rewrites return new networks.

    Two networks are equal only when they are the same object.
    """

    _fields = ("n", "shape", "internal_vertices", "edges", "rotations")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, n: int, shape: tuple, internal_vertices: tuple,
                 edges: tuple, rotations: dict):
        self.n = n
        self.shape = shape  # canonical blocks of 1..n (may be invalid; see validate)
        self.internal_vertices = internal_vertices
        self.edges = edges
        self.rotations = rotations  # vertex name -> incident edge ids, clockwise

    @classmethod
    def build(cls, n, shape, internal_vertices, edges, rotations):
        shape = canonical_blocks(shape)
        es = tuple(
            e if isinstance(e, Edge) else
            Edge(e[0], (e[1][0], e[1][1]), Fraction(e[2]))
            for e in edges
        )
        rot = {v: tuple(ids) for v, ids in rotations.items()}
        net = cls(n, shape, tuple(internal_vertices), es, rot)
        # Vertices with no stated rotation get the empty one.
        for v in net.vertex_names():
            rot.setdefault(v, ())
        return net

    def vertex_names(self):
        return [*self.boundary_labels(), *self.internal_vertices]

    def boundary_labels(self) -> dict:
        """Boundary vertex name -> its label: "b1" -> 1, ..."""
        return {boundary_name(i): i for i in range(1, self.n + 1)}

    def edge_by_id(self, eid: str) -> Edge:
        for e in self.edges:
            if e.id == eid:
                return e
        raise KeyError(eid)

    def replace(self, **kw) -> "CactusNetwork":
        data = dict(
            n=self.n, shape=self.shape,
            internal_vertices=self.internal_vertices,
            edges=self.edges, rotations=self.rotations,
        )
        data.update(kw)
        return CactusNetwork.build(**data)


class ValidationReport(Record):
    _fields = ("checks",)

    def __init__(self, checks: list | None = None):
        self.checks = [] if checks is None else checks  # (name, ok, detail)

    def add(self, name: str, ok: bool, detail: str = ""):
        self.checks.append((name, ok, detail))

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def failures(self):
        return [(name, detail) for name, ok, detail in self.checks if not ok]


# ---------------------------------------------------------------------------
# Augmented combinatorial map of the quotient.
#
# A dart is (key, end) with key an edge id or ("arc", i), end in {0, 1}.
# Arc i runs from boundary vertex i (end 0) to vertex i+1 (end 1).
# ---------------------------------------------------------------------------

def arc_key(i: int):
    return ("arc", i)


def is_arc(dart) -> bool:
    return isinstance(dart[0], tuple)


class CombMap:
    def __init__(self, net: CactusNetwork):
        self.net = net
        n = net.n
        label = net.boundary_labels()

        self.rot = {}          # vertex key -> list of darts, clockwise
        self.pre_vertex = {}   # dart -> pre-quotient vertex name

        end_of = {}
        edge_index = {}
        incident = {}
        for e in net.edges:
            if e.ends[0] == e.ends[1]:
                raise ValueError(f"loop edge {e.id} in pre-quotient network")
            end_of[(e.id, e.ends[0])] = 0
            end_of[(e.id, e.ends[1])] = 1
            edge_index[e.id] = e
            for v in e.ends:
                incident.setdefault(v, []).append(e)

        def labels_beyond(o, block):
            """Boundary labels reachable from vertex o without passing
            through the vertices glued by ``block``."""
            seen = {o}
            stack = [o]
            labels = set()
            while stack:
                v = stack.pop()
                if v in label:
                    labels.add(label[v])
                for e2 in incident.get(v, ()):
                    for w in e2.ends:
                        if w not in seen and label.get(w) not in block:
                            seen.add(w)
                            stack.append(w)
            return labels

        def within(x, lo, hi):
            # cyclic interval of labels lo .. hi, endpoints included
            return (x - lo) % n <= (hi - lo) % n

        def lobes(block, j, eid):
            """Whether the edge eid at b_{block[j]} fits the lobe after
            that label and the lobe before it."""
            i, nxt, prv = block[j], block[(j + 1) % len(block)], block[j - 1]
            e = edge_index[eid]
            o = e.ends[1] if e.ends[0] == boundary_name(i) else e.ends[0]
            y = label.get(o)
            if y in block:
                # the edge must sit in a lobe bounded by both labels; in a
                # block of two, the lobe after the smaller one
                after = nxt == y and (prv != y or i < y)
                if not after and prv != y:
                    raise ValueError(f"edge {eid} joins non-adjacent labels "
                                     f"of glued block {block}")
                return after, not after
            # otherwise every label that the far side reaches must lie in
            # the lobe
            other = labels_beyond(o, block)
            after = all(within(x, i, nxt) for x in other)
            before = all(within(x, prv, i) for x in other)
            if not (after or before):
                raise ValueError(f"edge {eid} cannot be embedded in any lobe "
                                 f"at glued block {block}")
            return after, before

        for block in net.shape:
            # Gluing the k labels of a block pinches the disc into k lobes,
            # lobe j running clockwise from label block[j] to block[j+1].
            # Each label's own wheel, read clockwise as stored (the tail of
            # the arc after it, its edges, the head of the arc before it),
            # is cut once: at its first edge that cannot lie in the lobe
            # after the label.  Every edge from there on must fit the lobe
            # before it.  Around the glued point the clockwise order visits
            # each lobe in turn: the first half of one label's wheel, then
            # the second half of the next label's.
            halves = []
            for j, i in enumerate(block):
                name = boundary_name(i)
                rot = net.rotations.get(name, ())
                cut = len(rot)  # a single label's one lobe is the whole disc
                if len(block) > 1:
                    fits = [lobes(block, j, eid) for eid in rot]
                    cut = next((c for c, (after, _) in enumerate(fits)
                                if not after), cut)
                    if not all(before for _, before in fits[cut:]):
                        raise ValueError(f"rotation at {name} interleaves lobes")
                wheel = [(arc_key(i), 0)]
                wheel += [(eid, end_of[(eid, name)]) for eid in rot]
                wheel.append((arc_key(i - 1 or n), 1))
                for d in wheel:
                    self.pre_vertex[d] = name
                halves.append((wheel[:cut + 1], wheel[cut + 1:]))
            self.rot[block] = [d for j, (first, _) in enumerate(halves)
                               for d in first + halves[(j + 1) % len(block)][1]]
        for v in net.internal_vertices:
            darts = [(eid, end_of[(eid, v)]) for eid in net.rotations.get(v, ())]
            for d in darts:
                self.pre_vertex[d] = v
            self.rot[v] = darts

        self.vertex_of = {}
        self.index_of = {}
        for v, darts in self.rot.items():
            for k, d in enumerate(darts):
                if d in self.vertex_of:
                    raise ValueError(f"dart {d} listed twice in rotations")
                self.vertex_of[d] = v
                self.index_of[d] = k
        for e in net.edges:
            for end in (0, 1):
                if (e.id, end) not in self.vertex_of:
                    raise ValueError(
                        f"edge {e.id} missing from rotation of {e.ends[end]}"
                    )

    def alpha(self, d):
        return (d[0], 1 - d[1])

    def sigma_next(self, d):
        darts = self.rot[self.vertex_of[d]]
        return darts[(self.index_of[d] + 1) % len(darts)]

    def sigma_prev(self, d):
        darts = self.rot[self.vertex_of[d]]
        return darts[(self.index_of[d] - 1) % len(darts)]

    def face_next(self, d):
        return self.sigma_next(self.alpha(d))

    def faces(self):
        """Face orbits, each a list of darts in walk order; walked once."""
        if hasattr(self, "_faces"):
            return self._faces
        seen = set()
        out = []
        for d0 in sorted(self.vertex_of, key=_dart_key):
            if d0 in seen:
                continue
            cyc = []
            d = d0
            while d not in seen:
                seen.add(d)
                cyc.append(d)
                d = self.face_next(d)
            if d != d0:
                raise AssertionError("face walk did not close")
            out.append(cyc)
        self._faces = out
        return out

    def euler_ok(self) -> bool:
        """V - E + F = 2 on every connected component (genus 0).

        A component has V - E + F = 2 - 2g <= 2, so the map passes iff the
        counts over the whole map give twice the number of components; a
        lone vertex without darts has one face."""
        components, seen = 0, set()
        for start in self.rot:
            if start in seen:
                continue
            components += 1
            seen.add(start)
            stack = [start]
            while stack:
                for key, end in self.rot[stack.pop()]:
                    w = self.vertex_of[(key, 1 - end)]
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
        lone = sum(1 for darts in self.rot.values() if not darts)
        return (len(self.rot) - len(self.vertex_of) // 2 + len(self.faces())
                + lone == 2 * components)

    def outer_face(self, faces):
        """The face walking the outside of the cactus: one dart per arc."""
        cands = [
            f for f in faces
            if len(f) == self.net.n
            and all(is_arc(d) for d in f)
            and len({d[0] for d in f}) == self.net.n
        ]
        if not cands:
            raise AssertionError("no outer face found; embedding invalid")
        return min(cands, key=lambda f: _dart_key(min(f, key=_dart_key)))


def _dart_key(d):
    key, end = d
    return (1, key[1], end) if isinstance(key, tuple) else (0, key, end)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def validate(net: CactusNetwork) -> ValidationReport:
    """Every check on ``net``, cached with the planarity check's map on the
    network (a rewrite returns a new one): a second call returns the same."""
    if hasattr(net, "_report"):
        return net._report
    rep = ValidationReport()
    part_ok = is_partition(net.n, net.shape)
    rep.add("shape-partition", part_ok,
            "" if part_ok else f"shape does not partition [1..{net.n}]")
    nc_ok = part_ok and is_noncrossing(net.n, net.shape)
    rep.add("shape-noncrossing", nc_ok, "" if nc_ok else "shape crosses")

    bad = [e.id for e in net.edges if e.conductance <= 0]
    rep.add("conductance-positive", not bad,
            "" if not bad else f"nonpositive conductance on {bad}")

    loops = [e.id for e in net.edges if e.ends[0] == e.ends[1]]
    rep.add("no-loops", not loops, "" if not loops else f"loop edges {loops}")

    names = set(net.vertex_names())
    dangling = [e.id for e in net.edges if not set(e.ends) <= names]
    rep.add("edge-endpoints", not dangling,
            "" if not dangling else f"unknown endpoints on {dangling}")

    rot_ok, rot_msg = True, ""
    if not dangling and not loops:
        incident = {v: [] for v in names}
        for e in net.edges:
            incident[e.ends[0]].append(e.id)
            incident[e.ends[1]].append(e.id)
        for v in names:
            if sorted(net.rotations.get(v, ())) != sorted(incident[v]):
                rot_ok, rot_msg = False, f"rotation of {v} != incident edges"
                break
    rep.add("rotations-consistent", rot_ok, rot_msg)

    planar_ok, planar_msg, cmap = False, "skipped (earlier failures)", None
    if nc_ok and not loops and not dangling and rot_ok:
        try:
            cmap = CombMap(net)
            planar_ok = cmap.euler_ok()
            planar_msg = "" if planar_ok else "Euler genus check failed"
        except (ValueError, AssertionError) as exc:
            planar_msg = str(exc)
    rep.add("planar-embedding", planar_ok, planar_msg)
    net._report, net._cmap = rep, cmap
    return rep


def require_valid(net: CactusNetwork) -> CombMap:
    """The combinatorial map ``validate`` built for ``net``; raises
    ``ValueError("invalid network: ...")`` when a check fails."""
    rep = validate(net)
    if not rep.ok:
        raise ValueError(f"invalid network: {rep.failures()}")
    return net._cmap


# ---------------------------------------------------------------------------
# Quotient graph (for Laplacian and groves)
# ---------------------------------------------------------------------------

class QuotientGraph(Record):
    """The graph Gamma: boundary vertices are shape blocks."""

    _fields = ("boundary", "internal", "edges", "loop_ids")

    def __init__(self, boundary: tuple, internal: tuple, edges: tuple,
                 loop_ids: tuple):
        self.boundary = boundary  # block tuples, canonical order
        self.internal = internal  # internal vertex names, sorted
        self.edges = edges        # (edge_id, key_u, key_v, conductance), no loops
        self.loop_ids = loop_ids  # edges collapsed to loops by the quotient

    @property
    def vertices(self):
        return tuple(self.boundary) + tuple(self.internal)


def quotient_graph(net: CactusNetwork) -> QuotientGraph:
    """Gamma of a valid network (checked here), blocks as in ``net.shape``."""
    require_valid(net)
    block = {boundary_name(i): b for b in net.shape for i in b}
    plain, loops = [], []
    for e in net.edges:
        ku, kv = (block.get(v, v) for v in e.ends)
        if ku == kv:
            loops.append(e.id)
        else:
            plain.append((e.id, ku, kv, e.conductance))
    return QuotientGraph(
        boundary=net.shape,
        internal=tuple(sorted(net.internal_vertices)),
        edges=tuple(plain),
        loop_ids=tuple(loops),
    )


# ---------------------------------------------------------------------------
# Medial strands
# ---------------------------------------------------------------------------
#
# A strand state is (dart, parity): the strand is about to cross the
# dart's edge, having approached through the corner at the dart's vertex
# that lies before ("neg") or after ("pos") the dart in clockwise order.
# Crossing flips the parity at the far end.

def _strand_step(cmap: CombMap, state):
    d, par = state
    db = cmap.alpha(d)
    if par == "neg":
        return (cmap.sigma_prev(db), "pos")
    return (cmap.sigma_next(db), "neg")


def _t_start(cmap: CombMap, t: int):
    """Initial strand state for boundary point t (1-based, on the circle)."""
    n = cmap.net.n
    if t % 2 == 0:        # t_{2i}: on arc i, near vertex i
        i = t // 2
        return (cmap.sigma_next((arc_key(i), 0)), "neg")
    i = (t - 1) // 2 or n  # t_{2i+1}: on arc i, near vertex i+1
    return (cmap.sigma_prev((arc_key(i), 1)), "pos")


def _t_end(cmap: CombMap, state) -> int:
    d, par = state
    i = d[0][1]
    n = cmap.net.n
    if par == "pos":
        if d[1] != 0:
            raise AssertionError("strand reached an arc from outside")
        return 2 * i
    if d[1] != 1:
        raise AssertionError("strand reached an arc from outside")
    return 2 * i + 1 if i < n else 1


def trace_strands(net: CactusNetwork):
    """Trace the n medial strands.

    Returns a list of (t_start, t_end, passages) triples, one per
    directed trace from each boundary point; passages are (edge_id,
    parity) pairs identifying each edge crossing.
    """
    cmap = require_valid(net)
    out = []
    for t in range(1, 2 * net.n + 1):
        state = _t_start(cmap, t)
        passages = []
        for _ in range(4 * len(net.edges) + 4 * net.n + 4):
            if is_arc(state[0]):
                out.append((t, _t_end(cmap, state), tuple(passages)))
                break
            passages.append((state[0][0], state[1]))
            state = _strand_step(cmap, state)
        else:
            raise AssertionError("medial strand failed to terminate")
    return out


def medial_pairing(net: CactusNetwork) -> Matching:
    traces = trace_strands(net)
    ends = {t: e for t, e, _ in traces}
    for t, e in ends.items():
        if ends.get(e) != t:
            raise AssertionError("strand tracing is not symmetric")
    pairs = {tuple(sorted((t, e))) for t, e in ends.items()}
    return Matching.from_pairs(net.n, pairs)


def is_minimal(net: CactusNetwork) -> bool:
    """No self-intersecting strand, no bigon, no closed interior loop."""
    traces = trace_strands(net)
    strand_of = {}
    strands = {}
    for t, e, passages in traces:
        sid = min(t, e)
        strands.setdefault(sid, set()).update(passages)
        for p in passages:
            strand_of[p] = sid
    # Passages not met by any boundary strand form closed interior loops.
    if len(strand_of) < 2 * len(net.edges):
        return False
    crossings = {}
    for e in net.edges:
        s1 = strand_of[(e.id, "pos")]
        s2 = strand_of[(e.id, "neg")]
        if s1 == s2:
            return False
        crossings[frozenset((s1, s2))] = crossings.get(frozenset((s1, s2)), 0) + 1
    return all(c <= 1 for c in crossings.values())


# ---------------------------------------------------------------------------
# Y-Delta moves
# ---------------------------------------------------------------------------

def _fresh_tag(net: CactusNetwork) -> str:
    used = {e.id for e in net.edges} | set(net.vertex_names())
    k = 1
    while any(f"yd{k}{s}" in used for s in "abcv"):
        k += 1
    return f"yd{k}"


def _replace_in_rotation(rot, old_ids, new_ids):
    """Replace the consecutive run old_ids by new_ids, in place.

    Boundary rotations are anchored at the boundary arcs, so the list
    must not be rotated.  A run that wraps around the end of the list
    only occurs at internal vertices, where rotating is harmless.
    """
    rot = list(rot)
    m = len(old_ids)
    for start in range(len(rot) - m + 1):
        if rot[start:start + m] == list(old_ids):
            return tuple(rot[:start] + list(new_ids) + rot[start + m:])
    for start in range(len(rot)):
        if [rot[(start + j) % len(rot)] for j in range(m)] == list(old_ids):
            keep = [rot[(start + m + j) % len(rot)] for j in range(len(rot) - m)]
            return tuple(list(new_ids) + keep)
    raise ValueError(f"{old_ids} not consecutive in rotation {rot}")


def ydelta(net: CactusNetwork, site, direction: str) -> CactusNetwork:
    """Apply a Y-Delta move; conductances follow A = bc/(a+b+c) etc."""
    cmap = require_valid(net)
    if direction == "ytod":
        return _y_to_delta(net, site)
    if direction == "dtoy":
        return _delta_to_y(cmap, site)
    raise ValueError(f"unknown direction {direction!r}")


def _y_to_delta(net: CactusNetwork, center: str) -> CactusNetwork:
    if center not in net.internal_vertices:
        raise ValueError(f"{center} is not an internal vertex")
    rot = net.rotations[center]
    if len(rot) != 3:
        raise ValueError(f"{center} does not have degree 3")
    legs = [net.edge_by_id(eid) for eid in rot]
    nbrs = [e.ends[1] if e.ends[0] == center else e.ends[0] for e in legs]
    if len(set(nbrs)) != 3:
        raise ValueError("Y neighbors are not distinct")
    a = [e.conductance for e in legs]
    total = sum(a)
    tag = _fresh_tag(net)
    new_ids = [f"{tag}a", f"{tag}b", f"{tag}c"]
    # new edge j connects neighbor j to neighbor j+1 (clockwise at center)
    new_edges = [
        Edge(new_ids[j], (nbrs[j], nbrs[(j + 1) % 3]),
             a[j] * a[(j + 1) % 3] / total)
        for j in range(3)
    ]
    rotations = dict(net.rotations)
    del rotations[center]
    for j, u in enumerate(nbrs):
        # at neighbor j the old leg is replaced, clockwise, by the edge
        # toward neighbor j+1 then the edge toward neighbor j-1
        rotations[u] = _replace_in_rotation(
            rotations[u], [legs[j].id], [new_ids[j], new_ids[(j - 1) % 3]]
        )
    edges = tuple(e for e in net.edges if e.id not in set(rot)) + tuple(new_edges)
    internal = tuple(v for v in net.internal_vertices if v != center)
    return CactusNetwork.build(net.n, net.shape, internal, edges, rotations)


def _triangular_faces(cmap: CombMap):
    faces = []
    for f in cmap.faces():
        if len(f) != 3 or any(is_arc(d) for d in f):
            continue
        corners = [cmap.pre_vertex[d] for d in f]
        others = [cmap.pre_vertex[cmap.sigma_prev(d)] for d in f]
        if len(set(corners)) == 3 and corners == others:
            faces.append((f, corners))
    return faces


def _delta_to_y(cmap: CombMap, corners) -> CactusNetwork:
    net = cmap.net
    if isinstance(corners, str):
        corners = corners.split(",")
    corners = tuple(corners)
    if len(set(corners)) != 3:
        raise ValueError("a Delta site needs three distinct corner vertices")
    match = [(f, cs) for f, cs in _triangular_faces(cmap) if set(cs) == set(corners)]
    if not match:
        raise ValueError(f"no triangular face with corners {corners}")
    f, walk_corners = min(match, key=lambda fc: _dart_key(min(fc[0], key=_dart_key)))

    tag = _fresh_tag(net)
    center = f"{tag}v"
    cond = {d[0]: net.edge_by_id(d[0]).conductance for d in f}
    numer = sum(
        x * y for x, y in itertools.combinations(cond.values(), 2)
    )
    rotations = dict(net.rotations)
    leg_ids = {}
    new_edges = []
    for k, d in enumerate(f):
        w = cmap.pre_vertex[d]
        pair = (cmap.sigma_prev(d)[0], d[0])          # consecutive at w
        opposite = next(x[0] for x in f if x[0] not in pair)
        leg = f"{tag}{'abc'[k]}"
        leg_ids[w] = leg
        new_edges.append(Edge(leg, (w, center), numer / cond[opposite]))
        rotations[w] = _replace_in_rotation(rotations[w], list(pair), [leg])
    # clockwise rotation at the new center = reversed face-walk order
    rotations[center] = tuple(leg_ids[w] for w in reversed(walk_corners))
    tri_ids = {d[0] for d in f}
    edges = tuple(e for e in net.edges if e.id not in tri_ids) + tuple(new_edges)
    internal = net.internal_vertices + (center,)
    return CactusNetwork.build(net.n, net.shape, internal, edges, rotations)


# ---------------------------------------------------------------------------
# Dual network
# ---------------------------------------------------------------------------

def dual(net: CactusNetwork) -> CactusNetwork:
    """The dual cactus network, with boundary labels already shifted.

    Faces of the quotient map become dual vertices; a face containing
    the inner side of boundary arc i hosts the dual boundary label i~,
    which the clockwise shift s renames to i.  Dual conductances are the
    reciprocals of the primal ones.  Raises ValueError when an edge's dual
    would be a loop, which ``validate`` rejects.
    """
    cmap = require_valid(net)
    faces = cmap.faces()
    outer = cmap.outer_face(faces)
    inner = [f for f in faces if f is not outer]

    owner = {}        # real dart -> dual vertex name
    segments = {}     # dual boundary vertex -> list of real darts, in order
    shape_blocks = []
    internal_names = []
    fcount = 0
    for f in inner:
        arc_positions = [k for k, d in enumerate(f) if is_arc(d)]
        if not arc_positions:
            fcount += 1
            name = f"f{fcount}"
            internal_names.append(name)
            for d in f:
                owner[d] = name
            segments[name] = list(f)
            continue
        labels = [f[k][0][1] for k in arc_positions]
        shape_blocks.append(tuple(sorted(labels)))
        # reals following each arc dart (up to the next arc) belong to it
        for j, k in enumerate(arc_positions):
            stop = arc_positions[(j + 1) % len(arc_positions)]
            name = boundary_name(f[k][0][1])
            seg = []
            p = (k + 1) % len(f)
            while p != stop:
                seg.append(f[p])
                owner[f[p]] = name
                p = (p + 1) % len(f)
            segments[name] = seg

    dual_edges = [Edge(e.id, (owner[(e.id, 0)], owner[(e.id, 1)]),
                       1 / e.conductance) for e in net.edges]
    loops = [e.id for e in dual_edges if e.ends[0] == e.ends[1]]
    if loops:
        # a bridge with one face on both sides
        raise ValueError(f"the dual edges of {loops} would be loops")
    # face walks run counterclockwise as seen from the dual vertex, so
    # clockwise rotations are the reversed segments
    rotations = {
        name: tuple(d[0] for d in reversed(seg))
        for name, seg in segments.items()
    }
    return CactusNetwork.build(
        net.n, shape_blocks, sorted(internal_names), dual_edges, rotations
    )
