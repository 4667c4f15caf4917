"""Structural checks on CLI outputs, independent of the library under test.

Each check takes the request's ``check`` dict and the parsed JSON output
and returns an error message, or None when the output passes.  The
oracles here (noncrossing partitions, Catalan numbers, matrix identities)
are written from their definitions, not taken from ``cactusnet``.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from functools import lru_cache


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


@lru_cache(maxsize=None)
def partition_keys(n: int) -> frozenset:
    """The CLI's names of all noncrossing partitions of 1..n.

    A name is "{a,b},{c}": blocks sorted, ordered by least element.  The
    block of the least label splits the other labels into gaps, and each
    gap is partitioned independently, since no block may cross it.
    """
    memo = {}

    def parts(lo, hi):  # partitions of lo..hi-1, as tuples of block names
        if lo == hi:
            return ((),)
        if (lo, hi) not in memo:
            out = []
            for r in range(hi - lo):
                for chosen in itertools.combinations(range(lo + 1, hi), r):
                    cuts = [lo, *chosen, hi]
                    block = "{" + ",".join(map(str, cuts[:-1])) + "}"
                    gaps = [parts(a + 1, b) for a, b in zip(cuts, cuts[1:])]
                    for rest in itertools.product(*gaps):
                        out.append((block,) + sum(rest, ()))
            memo[(lo, hi)] = tuple(out)
        return memo[(lo, hi)]

    return frozenset(",".join(p) for p in parts(1, n + 1))


def _matrix(doc, rows, cols):
    if not (isinstance(doc, list) and len(doc) == rows
            and all(isinstance(r, list) and len(r) == cols for r in doc)):
        return None
    return [[Fraction(x) for x in r] for r in doc]


def _laplacian(doc, c):
    m = _matrix(doc, c["n"], c["n"])
    if m is None:
        return f"not a {c['n']}x{c['n']} matrix"
    n = c["n"]
    if any(m[i][j] != m[j][i] for i in range(n) for j in range(i)):
        return "matrix is not symmetric"
    if any(sum(row) != 0 for row in m):
        return "a row does not sum to zero"
    return None


def _resistance(doc, c):
    n = c["n"]
    m = _matrix(doc, n, n)
    if m is None:
        return f"not a {n}x{n} matrix"
    if any(m[i][j] != m[j][i] for i in range(n) for j in range(i)):
        return "resistance is not symmetric"
    if any(m[i][i] != 0 for i in range(n)) or any(x < 0 for r in m for x in r):
        return "resistance has a nonzero diagonal or a negative entry"
    return None


def _chart(doc, c):
    n = c["n"]
    return None if _matrix(doc, n + 1, 2 * n) else f"not a {n + 1}x{2 * n} matrix"


def _lambda(doc, c):
    if set(doc) != partition_keys(c["n"]):
        return f"keys are not the Cat_{c['n']} noncrossing partitions"
    values = [Fraction(v) for v in doc.values()]
    if any(v < 0 for v in values) or not any(values):
        return "measurements are negative or all zero"
    return None


def _plucker(doc, c):
    coords = doc.get("coordinates")
    if not coords or doc.get("kappa_zero", True) is not True:
        return "no coordinates, or kappa is not zero"
    if any(len(k.split(",")) != c["n"] + 1 for k in coords):
        return "an index set does not have n + 1 elements"
    signs = {Fraction(v) > 0 for v in coords.values()}
    return None if len(signs) == 1 else "coordinates are not of one sign"


def _medial(doc, c):
    pairs = doc.get("pairing", [])
    flat = sorted(x for p in pairs for x in p)
    ok = flat == list(range(1, 2 * c["n"] + 1)) and all(len(p) == 2 for p in pairs)
    return None if ok else "pairing is not a perfect matching of 1..2n"


def _network(doc, c):
    if set(doc) != {"n", "shape", "internal_vertices", "edges", "rotations"} \
            or doc["n"] != c["n"]:
        return "not a network document of the same n"
    names = {f"b{i}" for i in range(1, c["n"] + 1)} | set(doc["internal_vertices"])
    ends = [v for e in doc["edges"] for v in e["ends"]]
    if not set(ends) <= names or any(Fraction(e["conductance"]) <= 0
                                     for e in doc["edges"]):
        return "an edge has an unknown end or a nonpositive conductance"
    listed = sorted(x for r in doc["rotations"].values() for x in r)
    if listed != sorted(e["id"] for e in doc["edges"] for _ in (0, 1)):
        return "rotations do not list every edge at both ends"
    return None


CHECKS = {
    "lambda": _lambda,
    "laplacian": _laplacian,
    "resistance": _resistance,
    "chart": _chart,
    "plucker": _plucker,
    "medial": _medial,
    "network": _network,
    "true": lambda d, c: None if d == {c["key"]: True} else f"{c['key']} is not true",
    "equiv": lambda d, c: None if d == {"equivalent": True, "factor": c["factor"]}
    else f"expected equivalence with factor {c['factor']}",
    "validate": lambda d, c: None if d.get("valid") is True else "network is invalid",
    "minimal": lambda d, c: None if set(d) == {"minimal"}
    and isinstance(d["minimal"], bool) else "no minimal verdict",
    "kernel_dim": lambda d, c: None if d == {"kernel_dimension": catalan(c["n"])}
    else "kernel dimension is not Cat_n",
}


def check_output(request: dict, exit_code: int, out: bytes):
    """None if the request ended as expected with a well-formed output."""
    if exit_code != request["expect"]:
        return f"exit code {exit_code}, expected {request['expect']}"
    c = request["check"]
    if c["kind"] == "empty":
        return None if not out else "a failing request wrote to stdout"
    try:
        doc = json.loads(out)
    except ValueError:
        return "output is not JSON"
    try:
        return CHECKS[c["kind"]](doc, c)
    except (AttributeError, KeyError, TypeError, ValueError,
            ZeroDivisionError) as exc:
        return f"malformed output: {exc!r}"
