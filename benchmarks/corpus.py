"""Seeded network generators and the request corpus of each workload.

Everything here is a pure function of the seed: the same seed gives the
same networks, file contents and request list.  Networks are returned
as plain network-file dicts (the JSON format the CLI reads), so the
generators do not depend on the library under test; the benchmark
validates every generated network with the library before using it.

Each network (which wheel edges exist, which labels are glued, which
edge is subdivided, the multiset of conductances) is drawn from a
generator keyed by the request's slot, not by the seed.  The seed deals
the conductances to the edges, rotates the boundary labels and orders
the requests.  So every seed asks for the same amount of work, which
keeps the metrics of two seeds comparable, while inputs and outputs
differ from seed to seed.

A request is a dict with
  id      stable name, used as the key of the golden digests
  argv    the CLI arguments, network files given by corpus file name
  expect  the exit code the request must end with
  check   the structural check the output must pass (see checks.py)
"""

from __future__ import annotations

import random
from fractions import Fraction

DEFAULT_SEED = 1

WORKLOADS = ("groves", "matrices", "wide")


def _rational(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def small_conductance(rng: random.Random) -> Fraction:
    """The conductance law of the test suite's random networks."""
    return Fraction(rng.randint(1, 6), rng.randint(1, 4))


def wide_conductance(rng: random.Random) -> Fraction:
    """A conductance whose numerator and denominator have ~30 bits."""
    return Fraction(rng.randint(2**29, 2**30), rng.randint(2**29, 2**30))


def _doc(n, shape, internal, edges, rotations) -> dict:
    return {
        "n": n,
        "shape": [list(b) for b in shape],
        "internal_vertices": list(internal),
        "edges": [
            {"id": eid, "ends": [u, v], "conductance": _rational(c)}
            for eid, (u, v), c in edges
        ],
        "rotations": {v: list(r) for v, r in rotations.items()},
    }


def wheel(rng: random.Random, n: int, n_edges: int, spokes_min: int = 3) -> dict:
    """A wheel: boundary polygon chords plus spokes to one hub ``v``.

    Built like the test suite's ``random_planar_net`` (same edge names,
    rotations and conductance law), except that exactly ``n_edges`` of
    the 2n candidate edges are kept, at least ``spokes_min`` of them
    spokes.
    """
    if not (3 <= n and spokes_min <= n_edges <= 2 * n):
        raise ValueError("wheel size out of range")
    while True:
        kept = set(rng.sample(range(2 * n), n_edges))
        spokes = {i + 1 for i in range(n) if n + i in kept}
        if len(spokes) >= spokes_min:
            break
    chords = {i + 1 for i in range(n) if i in kept}
    edges = []
    for u in sorted(chords):
        edges.append((f"p{u}", (f"b{u}", f"b{u % n + 1}"), small_conductance(rng)))
    for i in sorted(spokes):
        edges.append((f"s{i}", (f"b{i}", "v"), small_conductance(rng)))
    rotations = {}
    for i in range(1, n + 1):
        rot = []
        if i in chords:
            rot.append(f"p{i}")          # chord toward the next label
        if i in spokes:
            rot.append(f"s{i}")
        prev = i - 1 if i > 1 else n
        if prev in chords:
            rot.append(f"p{prev}")       # chord toward the previous label
        rotations[f"b{i}"] = rot
    internal = ["v"] if spokes else []
    if spokes:
        rotations["v"] = [f"s{i}" for i in sorted(spokes)]
    return _doc(n, [(i,) for i in range(1, n + 1)], internal, edges, rotations)


def grid(rng: random.Random, k: int, conductance=small_conductance,
         drop_spoke: bool = False) -> dict:
    """The k x k square grid with its four corners removed.

    The (k-2)^2 inner vertices are internal; the other perimeter vertices
    are the boundary, labelled 1..4(k-2) clockwise starting at the left
    end of the top side, each joined to its inner neighbour.  With
    ``drop_spoke`` the edge at label 1 is left out, which leaves the
    inner vertex ``r1c1`` with degree 3 (a Y-Delta site).
    """
    if k < 3:
        raise ValueError("grid needs k >= 3")
    m = k - 2
    side = list(range(1, m + 1))
    perimeter = ([(0, c) for c in side] + [(r, k - 1) for r in side]
                 + [(k - 1, c) for c in reversed(side)]
                 + [(r, 0) for r in reversed(side)])
    label = {rc: i + 1 for i, rc in enumerate(perimeter)}

    def name(rc):
        return f"b{label[rc]}" if rc in label else f"r{rc[0]}c{rc[1]}"

    def present(rc):
        return rc in label or (1 <= rc[0] <= m and 1 <= rc[1] <= m)

    edges = []
    incident = {}
    for a in sorted(set(perimeter) | {(r, c) for r in side for c in side}):
        for tag, b in (("h", (a[0], a[1] + 1)), ("u", (a[0] + 1, a[1]))):
            if not present(b) or (a in label and b in label):
                continue
            if drop_spoke and 1 in (label.get(a), label.get(b)):
                continue
            eid = f"{tag}{a[0]}_{a[1]}"
            edges.append((eid, (name(a), name(b)), conductance(rng)))
            incident.setdefault(a, {})[_direction(a, b)] = eid
            incident.setdefault(b, {})[_direction(b, a)] = eid
    rotations = {}
    for rc in perimeter:
        rotations[name(rc)] = list(incident.get(rc, {}).values())
    internal = []
    for r in side:
        for c in side:
            internal.append(name((r, c)))
            # clockwise on screen (rows grow downward): N, E, S, W
            around = incident.get((r, c), {})
            rotations[name((r, c))] = [around[d] for d in "NESW" if d in around]
    return _doc(len(perimeter), [(i,) for i in range(1, len(perimeter) + 1)],
                internal, edges, rotations)


def _direction(a, b) -> str:
    dr, dc = b[0] - a[0], b[1] - a[1]
    return {(-1, 0): "N", (0, 1): "E", (1, 0): "S", (0, -1): "W"}[(dr, dc)]


def glue(rng: random.Random, doc: dict, pairs: int, is_valid) -> dict:
    """Glue ``pairs`` disjoint pairs of cyclically adjacent labels.

    Candidates are drawn until ``is_valid`` accepts one; a draw whose
    embedding the validator rejects is discarded, never repaired.
    """
    n = doc["n"]
    for _ in range(200):
        starts = rng.sample(range(1, n + 1), n)
        used, blocks = set(), []
        for i in starts:
            j = i % n + 1
            if i in used or j in used:
                continue
            used |= {i, j}
            blocks.append((min(i, j), max(i, j)))
            if len(blocks) == pairs:
                break
        shape = blocks + [(i,) for i in range(1, n + 1) if i not in used]
        cand = dict(doc, shape=sorted([list(b) for b in shape]))
        if len(blocks) == pairs and is_valid(cand):
            return cand
    raise ValueError("no valid gluing found")


def subdivide(rng: random.Random, doc: dict):
    """Split one edge into two in series through a new internal vertex.

    Returns the new network and the factor q = a + b with
    Lambda(new) = q * Lambda(old): every grove of the new network either
    uses both halves (weight ab = c(a + b)) or exactly one of them.
    """
    edge = rng.choice(doc["edges"])
    c = Fraction(edge["conductance"])
    a = small_conductance(rng)
    while a <= c:
        a += 1
    b = a * c / (a - c)              # ab / (a + b) = c
    u, v = edge["ends"]
    mid, e1, e2 = "m", edge["id"] + "x", edge["id"] + "y"
    edges = [e for e in doc["edges"] if e is not edge]
    edges += [{"id": e1, "ends": [u, mid], "conductance": _rational(a)},
              {"id": e2, "ends": [mid, v], "conductance": _rational(b)}]
    rotations = {}
    for w, rot in doc["rotations"].items():
        if w == u:
            rot = [e1 if x == edge["id"] else x for x in rot]
        elif w == v:
            rot = [e2 if x == edge["id"] else x for x in rot]
        rotations[w] = rot
    rotations[mid] = [e1, e2]
    new = dict(doc, internal_vertices=doc["internal_vertices"] + [mid],
               edges=edges, rotations=rotations)
    return new, a + b


def shuffle_conductances(rng: random.Random, doc: dict) -> dict:
    """The same network with its conductances dealt to the edges anew."""
    values = [e["conductance"] for e in doc["edges"]]
    rng.shuffle(values)
    return dict(doc, edges=[dict(e, conductance=c)
                            for e, c in zip(doc["edges"], values)])


def _is_boundary(name: str) -> bool:
    return name[0] == "b" and name[1:].isdigit()


def rotate(doc: dict, r: int) -> dict:
    """The same network with boundary label i renamed i + r (mod n).

    Edge ids and internal names are kept, so the library does the same
    work on the rotated network; only the labels of the output move.
    """
    n = doc["n"]

    def label(i):
        return (i - 1 + r) % n + 1

    def name(v):
        return f"b{label(int(v[1:]))}" if _is_boundary(v) else v

    rotations = {name(v): rot for v, rot in doc["rotations"].items()}
    order = [f"b{i}" for i in range(1, n + 1)] + doc["internal_vertices"]
    return dict(
        doc,
        shape=sorted(sorted(label(i) for i in b) for b in doc["shape"]),
        edges=[dict(e, ends=[name(v) for v in e["ends"]]) for e in doc["edges"]],
        rotations={v: rotations[v] for v in order if v in rotations},
    )


class Corpus:
    """Networks (file name -> dict) and the ordered request list."""

    def __init__(self):
        self.networks = {}
        self.requests = []

    def net(self, name: str, doc: dict) -> str:
        self.networks[name] = doc
        return name

    def add(self, rid, argv, check, expect=0, **params):
        self.requests.append({"id": rid, "argv": list(argv), "expect": expect,
                              "check": dict(params, kind=check)})


def build(workload: str, seed: int, is_valid) -> Corpus:
    """The corpus of one workload; ``is_valid`` decides glued candidates."""
    rng = random.Random(f"{workload}:{seed}")
    corpus = Corpus()
    {"groves": _groves, "matrices": _matrices, "wide": _wide}[workload](
        rng, corpus, is_valid)
    rng.shuffle(corpus.requests)
    return corpus


def _layout(slot: str) -> random.Random:
    """The seed-independent generator of one slot's network and values."""
    return random.Random(f"layout:{slot}")


def _disguise(rng, is_valid, doc):
    """Deal the doc's conductances anew and rotate its labels by a random
    amount (unless the rotated network fails validation)."""
    doc = shuffle_conductances(rng, doc)
    rotated = rotate(doc, rng.randrange(doc["n"]))
    return rotated if is_valid(rotated) else doc


def _groves(rng, corpus, is_valid):
    # (n, edges) per request, in three cost classes.  The middle class
    # (Plucker-family commands at n = 6, lambda at n = 7-8) is a block of
    # similar requests wide enough to hold both the median and the tail
    # percentile, so neither falls in a gap between classes.
    light = {
        "lambda": [(5, 9), (5, 10), (6, 9), (6, 10), (6, 11), (6, 12), (7, 10),
                   (7, 11), (7, 12)],
        "glued": [(6, 11), (7, 12)],
        "equiv": [(5, 9), (5, 10), (6, 10)],
        "plucker": [(5, 9), (5, 10)],
        "tnn": [(5, 9)],
        "isotropy": [(5, 9)],
    }
    middle = {
        "plucker": [(6, 9), (6, 10), (6, 11), (6, 10), (6, 11)],
        "tnn": [(6, 9), (6, 10), (6, 11), (6, 10)],
        "isotropy": [(6, 9), (6, 10), (6, 11), (6, 10)],
        "equiv": [(7, 11), (7, 11)],
        "lambda": [(8, 12), (8, 12), (7, 13)],
        "glued": [(8, 14)],
    }
    heavy = {
        "lambda": [(8, 13), (8, 14), (9, 12), (9, 14)],
        "glued": [(9, 15)],
        "plucker": [(7, 10)],
        "tnn": [(7, 10)],
    }
    slots = {}
    for cls in (light, middle, heavy):
        for cmd, sizes in cls.items():
            slots.setdefault(cmd, []).extend(sizes)
    for cmd, sizes in slots.items():
        for k, (n, e) in enumerate(sizes):
            rid = f"{cmd}-{k}"
            layout = _layout(f"groves/{rid}")
            doc = wheel(layout, n, e)
            if cmd == "glued":
                glued = glue(layout, doc, 1 + k % 2, is_valid)
                doc = _disguise(rng, is_valid, glued)
                corpus.add(rid, ["lambda", corpus.net(f"{rid}.json", doc)],
                           "lambda", n=n)
            elif cmd == "equiv":
                doc = shuffle_conductances(rng, doc)
                sub, q = subdivide(layout, doc)
                r = rng.randrange(n)
                f1 = corpus.net(f"{rid}a.json", rotate(sub, r))
                f2 = corpus.net(f"{rid}b.json", rotate(doc, r))
                corpus.add(rid, ["equiv", f1, f2], "equiv", factor=_rational(q))
            else:
                doc = _disguise(rng, is_valid, doc)
                f = corpus.net(f"{rid}.json", doc)
                if cmd == "plucker":
                    flag = ["--check-isotropy"] if k % 2 else []
                    corpus.add(rid, ["plucker", f] + flag, "plucker", n=n)
                elif cmd in ("isotropy", "tnn"):
                    key = "kappa_zero" if cmd == "isotropy" else "totally_nonnegative"
                    corpus.add(rid, [cmd, f], "true", key=key)
                else:
                    corpus.add(rid, ["lambda", f], "lambda", n=n)


def _matrices(rng, corpus, is_valid):
    response_based = [
        ("response", ["response"], "laplacian"),
        ("chart-response", ["chart", "--from", "response"], "chart"),
        ("extract-not-shorted", ["extract", "--chart", "not-shorted"], "laplacian"),
    ]
    resistance_based = [
        ("resistance", ["resistance"], "resistance"),
        ("lstar", ["lstar"], "laplacian"),
        ("chart-resistance", ["chart", "--from", "resistance"], "chart"),
        ("extract-connected", ["extract", "--chart", "connected"], "laplacian"),
    ]
    # Resistance-based commands cost ~1 s on k = 5, ~5 s on k = 6 and
    # 18 s on k = 6 with ~30-bit conductances, so the larger grids take
    # only some commands.  The ten costliest requests are five of ~1 s or
    # more and five of the ~0.2 s block (k = 4 ~30-bit, k = 5), so that
    # the tail percentile falls inside that block.
    grids = [("k4", 4, small_conductance, response_based + resistance_based),
             ("k5", 5, small_conductance, response_based + resistance_based[:2]),
             ("k6", 6, small_conductance, response_based[:1]),
             ("k4w", 4, wide_conductance, response_based + resistance_based),
             ("k5w", 5, wide_conductance, response_based + resistance_based[:1])]
    for tag, k, cond, commands in grids:
        doc = _disguise(rng, is_valid, grid(_layout(f"matrices/{tag}"), k, cond))
        f = corpus.net(f"mg-{tag}.json", doc)
        for name, argv, check in commands:
            corpus.add(f"{name}-{tag}", [argv[0], f] + argv[1:], check,
                       n=4 * (k - 2))
    # Cheap network-layer requests, on networks of one size (n = 10-12)
    # so that the median is not set by which size happens to sit there.
    # The Y-Delta sites are the degree-3 inner vertex of a grid missing
    # one spoke, and a wheel triangle b_i b_i+1 v.
    cheap = []
    for tag, drop in (("grid5a", False), ("grid5b", False),
                      ("ygrid5a", True), ("ygrid5b", True)):
        doc = _disguise(rng, is_valid,
                         grid(_layout(f"matrices/{tag}"), 5, drop_spoke=drop))
        cheap.append((tag, doc, drop and ("r1c1", "ytod")))
    for k in range(4):
        layout = _layout(f"matrices/cactus{k}")
        doc = _disguise(rng, is_valid,
                         glue(layout, wheel(layout, 10, 13), 2, is_valid))
        site = _delta_site(doc)
        cheap.append((f"cactus{k}", doc, site and (site, "dtoy")))
    for tag, doc, move in cheap:
        f = corpus.net(f"mc-{tag}.json", doc)
        n = doc["n"]
        corpus.add(f"validate-{tag}", ["validate", f], "validate")
        corpus.add(f"medial-{tag}", ["medial", f], "medial", n=n)
        corpus.add(f"minimal-{tag}", ["minimal", f], "minimal")
        corpus.add(f"dual-{tag}", ["dual", f], "network", n=n)
        if move:
            corpus.add(f"ydelta-{tag}", ["ydelta", f, "--site", move[0],
                                          "--direction", move[1]], "network", n=n)
    for n in (4, 5):
        corpus.add(f"kernel-dim-{n}", ["kernel-dim", "--n", str(n)],
                   "kernel_dim", n=n)


def _delta_site(doc: dict):
    """Corners b_i,b_j,v of a triangle of chord and spokes, none glued."""
    glued = {f"b{x}" for b in doc["shape"] if len(b) > 1 for x in b}
    ends = {frozenset(e["ends"]) for e in doc["edges"]}
    for e in doc["edges"]:
        u, w = e["ends"]
        if "v" not in (u, w) and not {u, w} & glued \
                and {frozenset((u, "v")), frozenset((w, "v"))} <= ends:
            return f"{u},{w},v"
    return None


def _wide(rng, corpus, is_valid):
    # The dense Cat_n output dominates: 16,796 / 58,786 / 208,012 entries.
    # The median and the tail percentile (the 11th costliest of 24) both
    # fall inside the block of fourteen n = 10, 11-edge requests.
    sizes = [(10, 11)] * 14 + [(10, 9)] * 7 + [(11, 11), (12, 12)]
    for k, (n, e) in enumerate(sizes):
        doc = _disguise(rng, is_valid, wheel(_layout(f"wide/{k}"), n, e))
        corpus.add(f"lambda-{k}", ["lambda", corpus.net(f"ww{k}.json", doc)],
                   "lambda", n=n)
    doc = _disguise(rng, is_valid, grid(_layout("wide/overcap"), 5))
    corpus.add("lambda-overcap", ["lambda", corpus.net("wg.json", doc)],
               "empty", expect=2)
