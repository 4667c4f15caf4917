"""Reading and writing network files and structured output documents.

Network files are JSON with keys n, shape, internal_vertices, edges,
rotations; boundary vertices are named "b1".."bn" and rationals are
serialized as "p" or "p/q" in lowest terms.  Output documents reuse the
same rational encoding; ``exterior_to_doc`` keys each coordinate of an
``ExteriorVector`` by the index-set string of its bitmask, like "1,1~,2"
(ground elements in circle order).  ``write_lambda`` streams the dense
Lambda document from the runs of names of ``combinat.noncrossing_runs``,
never holding it whole in memory.
"""

import itertools
import json
import math
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from .combinat import circle_position, format_element
from .grassmann import ExteriorVector
from .linalg import RationalMatrix
from .network import CactusNetwork, boundary_name


def _rational_text(p: int, q: int) -> str:  # p/q in lowest terms, q > 0
    return str(p) if q == 1 else f"{p}/{q}"


def _ratio_text(p: int, q: int) -> str:  # p/q for any p and q > 0
    g = math.gcd(p, q)
    return _rational_text(p // g, q // g)


def format_rational(x: Fraction) -> str:
    x = x if type(x) is Fraction else Fraction(x)
    return _rational_text(x.numerator, x.denominator)


# the characters of "p" and "p/q"; int() alone would also take spaces,
# "+", "_" and non-ASCII digits
_RATIONAL_CHARS = frozenset("-/0123456789")


def _rational(s):
    """The rational of a ``"p"`` or ``"p/q"`` string with q > 0, or None."""
    if not isinstance(s, str) or not _RATIONAL_CHARS.issuperset(s):
        return None
    num, slash, den = s.partition("/")
    try:
        p, q = int(num), int(den) if slash else 1
    except ValueError:
        return None
    return Fraction(p, q) if q > 0 else None


def load_network(path: str) -> CactusNetwork:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except RecursionError as exc:  # arrays or objects nested too deep
            raise ValueError(f"malformed network file: {exc}") from exc
    return network_from_dict(doc)


def network_from_dict(doc: dict) -> CactusNetwork:
    try:
        n = doc["n"]
        shape = [tuple(b) for b in doc["shape"]]
        # a string would be read as its characters, an object as its keys,
        # a longer list cut short
        if not isinstance(doc["internal_vertices"], list):
            raise ValueError("internal_vertices must be a list of names")
        if not isinstance(doc["rotations"], dict):
            raise ValueError("rotations must be an object of edge id lists")
        internal = [str(v) for v in doc["internal_vertices"]]
        for e in doc["edges"]:
            if not isinstance(e["ends"], list) or len(e["ends"]) != 2:
                raise ValueError(f"ends of edge {e['id']} must be a list of two names")
        for v, ids in doc["rotations"].items():
            if not isinstance(ids, list):
                raise ValueError(f"rotation of {v} must be a list of edge ids")
        edges = [
            (str(e["id"]), (str(e["ends"][0]), str(e["ends"][1])), e["conductance"])
            for e in doc["edges"]
        ]
        rotations = {
            str(v): [str(x) for x in ids] for v, ids in doc["rotations"].items()
        }
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed network file: {exc}") from exc
    # bool is an int subclass, and int() would truncate 3.7
    if type(n) is not int:
        raise ValueError(f"n must be a JSON integer: {n!r}")
    bad_labels = [x for b in shape for x in b if type(x) is not int]
    if bad_labels:
        raise ValueError(f"shape labels must be JSON integers: {bad_labels}")
    if n < 1:
        raise ValueError("n must be >= 1")
    nlabels = sum(map(len, shape))  # before any structure of size n
    if n > nlabels:
        raise ValueError(f"n = {n} exceeds the number of labels the shape lists"
                         f" ({nlabels})")
    edges = [(i, ends, _rational(c)) for i, ends, c in edges]
    unquoted = [i for i, _, c in edges if c is None]
    if unquoted:
        raise ValueError(f'conductances must be "p" or "p/q" strings: {unquoted}')
    ids = [e[0] for e in edges]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate edge ids")
    if len(set(internal)) != len(internal):
        raise ValueError("duplicate internal vertex names")
    boundary = {boundary_name(i) for i in range(1, n + 1)}
    clash = sorted(boundary.intersection(internal))
    if clash:
        raise ValueError(f"internal vertices named like boundary vertices: {clash}")
    unknown = set(rotations) - boundary - set(internal)
    if unknown:
        raise ValueError(f"rotations of unknown vertices {sorted(unknown)}")
    return CactusNetwork.build(n, shape, internal, edges, rotations)


def network_to_dict(net: CactusNetwork) -> dict:
    return {
        "n": net.n,
        "shape": [list(b) for b in net.shape],
        "internal_vertices": list(net.internal_vertices),
        "edges": [
            {
                "id": e.id,
                "ends": list(e.ends),
                "conductance": format_rational(e.conductance),
            }
            for e in net.edges
        ],
        "rotations": {v: list(net.rotations.get(v, ())) for v in net.vertex_names()},
    }


def save_network(net: CactusNetwork, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(network_to_dict(net), fh, indent=2)
        fh.write("\n")


def matrix_to_doc(m: RationalMatrix):
    """The entries as text, read from the integer form of ``m``."""
    d = m.denom
    return [[_ratio_text(x, d) for x in row] for row in m.ints]


def exterior_to_doc(vec: ExteriorVector) -> dict:
    """The coordinates of ``vec`` in sorted key order, each named by its
    index-set string.  Each half of the circle, positions 0 .. n - 1 and
    n .. 2n - 1, is read from a table of its 2^n bitmasks: the names of
    its positions, and the bitmask reversed, whose descending order over a
    whole key is the order of the sorted keys."""
    n, denom, terms = vec.n, vec.denom, vec.terms
    label_at = {circle_position(n, x): x for x in range(1, 2 * n + 1)}
    low, high, rev = [""], [""], [0]
    for h in range(1, 1 << n):
        top = h.bit_length() - 1
        rest = h ^ (1 << top)
        low.append(low[rest] + format_element(n, label_at[top]) + ",")
        high.append(high[rest] + format_element(n, label_at[n + top]) + ",")
        rev.append(rev[rest] | 1 << (n - 1 - top))
    half = (1 << n) - 1
    doc = {}
    for mask in sorted(terms, key=lambda m: rev[m & half] << n | rev[m >> n],
                       reverse=True):
        doc[(low[mask & half] + high[mask >> n])[:-1]] = _ratio_text(terms[mask], denom)
    return doc


def dump_document(doc, compact: bool = False) -> str:
    """The text of ``json.dumps(doc, indent=2)``, or with ``compact`` of its
    C-encoded compact form.  Before CPython 3.13 an indent selects json's
    pure-Python encoder, so the indented text is joined here instead."""
    if compact:
        return json.dumps(doc, separators=(",", ":"))
    return _indented(doc, "\n")


def _indented(doc, pad: str) -> str:
    """``doc`` as ``json.dumps(doc, indent=2)`` writes it after ``pad``, the
    newline and spaces that lead its line."""
    if type(doc) is str:
        return _quote(doc)
    if type(doc) is int:
        return repr(doc)
    inner = pad + "  "
    if isinstance(doc, dict) and doc:
        # json writes a key that is not a string as its JSON text, quoted
        items = [_quote(k if type(k) is str else json.dumps(k)) + ": "
                 + (_quote(v) if type(v) is str else _indented(v, inner))
                 for k, v in doc.items()]
    elif isinstance(doc, (list, tuple)) and doc:
        items = [_quote(v) if type(v) is str else _indented(v, inner) for v in doc]
    else:
        return json.dumps(doc)
    # brackets go on the end items, so that only join copies the whole text
    ends = "{}" if isinstance(doc, dict) else "[]"
    items[0] = ends[0] + inner + items[0]
    items[-1] += pad + ends[1]
    return ("," + inner).join(items)


# entries per write of write_lambda
STREAM_BATCH = 4096


def write_lambda(runs, nonzero: dict, stream, compact: bool = False) -> None:
    """Write the document {name: nonzero.get(name, "0")}, the names in the
    order of ``runs``, to ``stream`` as the line
    ``print(dump_document(doc, compact))`` prints, STREAM_BATCH entries per
    write, without holding the document in memory.

    ``runs`` yields ``(first, rests)``, the names ``first + r`` whose first
    block, up to and with its ``"}"``, is ``first``
    (``combinat.noncrossing_runs``).  Names and values are written
    unquoted, so neither may need a JSON escape.  A run with few nonzero
    entries is written as stretches of "0" entries, each joined in one
    call, between its nonzero ones; a run with many, entry by entry.  An
    entry no run names is a naming slip, a bug: it raises
    ``AssertionError`` before the closing brace.
    """
    colon, sep, lead, close = ((":", ",", "{", "}") if compact
                               else (": ", ",\n  ", "{\n  ", "\n}"))
    mid = '"' + colon + '"'
    zero = mid + '0"'
    tails_of = {}  # first block without its "}" -> {rest: end of the entry}
    for name, value in nonzero.items():
        first, _, rest = name.partition("}")
        tails = tails_of.get(first)
        if tails is None:
            tails = tails_of[first] = {}
        tails[rest] = mid + value + '"'
    texts, room, opening = [], STREAM_BATCH, lead
    for first, rests in runs:
        head = '"' + first
        tails = tails_of.pop(first[:-1], None)  # what is left is not placed
        # (start, stop, tail): rests[start:stop] all end in tail, or each
        # in its own tail if tail is None
        if tails is None:
            stretches = ((0, len(rests), zero),)
        elif len(tails) * 10 > len(rests):  # dense: cheaper entry by entry
            stretches = ((0, len(rests), None),)
            placed = sum(map(tails.__contains__, rests))
        else:
            stretches, start = [], 0
            for i in itertools.compress(range(len(rests)),
                                        map(tails.__contains__, rests)):
                stretches += ((start, i, zero), (i, i + 1, tails[rests[i]]))
                start = i + 1
            stretches.append((start, len(rests), zero))
            placed = len(stretches) // 2
        if tails and placed < len(tails):
            tails_of[first[:-1]] = tails.keys() - set(rests)
        for start, stop, tail in stretches:
            while start < stop:
                cut = min(stop, start + room)
                part = rests[start:cut]
                if tail is None:
                    texts += [head + r + tails.get(r, zero) for r in part]
                else:
                    texts.append(head + (zero + sep + head).join(part) + tail)
                room -= cut - start
                start = cut
                if not room:
                    stream.write(opening + sep.join(texts))
                    texts, room, opening = [], STREAM_BATCH, sep
    if texts:
        stream.write(opening + sep.join(texts))
    for name in nonzero if tails_of else ():
        first, _, rest = name.partition("}")
        if rest in tails_of.get(first, ()):
            raise AssertionError(f"no noncrossing partition is named {name}")
    stream.write(close + "\n" if texts or opening == sep else "{}\n")
