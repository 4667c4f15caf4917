"""Serialization round trips and deterministic output documents."""

import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    RecordingStream,
    make_glued_tree,
    make_y,
    parse_rational,
    random_planar_net,
    write_pairs,
)
from cactusnet import netfile
from cactusnet.combinat import noncrossing_names, noncrossing_runs
from cactusnet.grassmann import lam_map
from cactusnet.groves import lambda_vector
from cactusnet.linalg import RationalMatrix


def test_rational_round_trip():
    for x in (Fraction(3), Fraction(-7, 2), Fraction(0), Fraction(22, 4)):
        assert parse_rational(netfile.format_rational(x)) == x
    assert netfile.format_rational(Fraction(22, 4)) == "11/2"
    assert netfile.format_rational(Fraction(5)) == "5"


def test_format_rational_of_ints_and_strings():
    """Values that are not Fractions are converted first, as before."""
    assert netfile.format_rational(4) == "4"
    assert netfile.format_rational(-12) == "-12"
    assert netfile.format_rational("6/4") == "3/2"
    assert netfile.format_rational("-3") == "-3"
    assert netfile.format_rational("2/6") == "1/3"


def test_network_round_trip(tmp_path, rng):
    for net in (make_y(1, 2, 3), make_glued_tree(),
                random_planar_net(rng, 4, connected=True)):
        path = tmp_path / "net.json"
        netfile.save_network(net, path)
        back = netfile.load_network(path)
        assert back.n == net.n
        assert back.shape == net.shape
        assert back.internal_vertices == net.internal_vertices
        assert back.edges == net.edges
        for v in net.vertex_names():
            assert tuple(back.rotations.get(v, ())) == tuple(
                net.rotations.get(v, ()))


def test_save_is_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    netfile.save_network(make_glued_tree(), p1)
    netfile.save_network(make_glued_tree(), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_malformed_documents_rejected():
    with pytest.raises(ValueError):
        netfile.network_from_dict({"n": 2})
    with pytest.raises(ValueError):
        netfile.network_from_dict({
            "n": 2, "shape": [[1], [2]], "internal_vertices": [],
            "edges": [{"id": "e", "ends": ["b1"], "conductance": "1"}],
            "rotations": {},
        })
    with pytest.raises(ValueError):
        netfile.network_from_dict({
            "n": 2, "shape": [[1], [2]], "internal_vertices": [],
            "edges": [{"id": "e", "ends": ["b1", "b2"], "conductance": "x"}],
            "rotations": {},
        })


@pytest.mark.parametrize("field, value, message", [
    ("rotations", [], "rotations must be an object"),
    ("rotations", "b1", "rotations must be an object"),
    ("internal_vertices", "v", "internal_vertices must be a list"),
    ("internal_vertices", {"v": []}, "internal_vertices must be a list"),
])
def test_vertex_fields_have_their_json_types(field, value, message):
    """A string is not read as its characters, nor an object as its keys."""
    doc = netfile.network_to_dict(make_y(1, 2, 3))
    doc[field] = value
    with pytest.raises(ValueError, match=message):
        netfile.network_from_dict(doc)


def test_conductances_are_p_or_p_over_q_strings():
    """Only "p" and "p/q" (q > 0) are read; decimals, exponents, spaces,
    signs on q, zero denominators and JSON numbers are malformed."""
    assert parse_rational("-12/08") == Fraction(-3, 2)
    assert parse_rational("0") == 0
    for bad in ("1.5", "1e2", " 3/4 ", "3/4 ", "+3", "3/-4", "-3/+4", "1/0",
                "1/00", "1/-0", "", "-", "/2", "3/", "1/2/3", "3-4", "--3",
                "1_000", "٣", "²", 3, 1.5, None):
        with pytest.raises(ValueError, match='"p" or "p/q"'):
            parse_rational(bad)
        doc = {"n": 2, "shape": [[1], [2]], "internal_vertices": [],
               "edges": [{"id": "e", "ends": ["b1", "b2"], "conductance": bad}],
               "rotations": {"b1": ["e"], "b2": ["e"]}}
        with pytest.raises(ValueError, match=r"conductances must be .*\['e'\]"):
            netfile.network_from_dict(doc)


def test_duplicate_edge_ids_rejected():
    with pytest.raises(ValueError):
        netfile.network_from_dict({
            "n": 2, "shape": [[1], [2]], "internal_vertices": [],
            "edges": [
                {"id": "e", "ends": ["b1", "b2"], "conductance": "1"},
                {"id": "e", "ends": ["b1", "b2"], "conductance": "2"},
            ],
            "rotations": {"b1": ["e", "e"], "b2": ["e", "e"]},
        })


def test_matrix_and_exterior_docs():
    m = RationalMatrix([[Fraction(1, 2), Fraction(-3)]])
    assert netfile.matrix_to_doc(m) == [["1/2", "-3"]]
    vec = lam_map(lambda_vector(make_y(1, 2, 3)))
    doc = netfile.exterior_to_doc(vec)
    assert all("/" in v or v.lstrip("-").isdigit() for v in doc.values())
    # index sets list plain and tilde labels in circle order
    assert "1,1~,2,2~" in doc


def test_dump_document_modes():
    doc = {"b": 1, "a": 2}
    pretty = netfile.dump_document(doc)
    compact = netfile.dump_document(doc, compact=True)
    assert "\n" in pretty and "\n" not in compact
    assert json.loads(pretty) == json.loads(compact) == doc


PRINTER_DOCS = [
    {"name \u00e9\u2603\U0001F600": "x", 'quote " back \\ slash': "\n\t\x00\x1f\x7f",
     "empty": {}, "none": [], "nested": [[], [{}], [[1, [2, []]]], {"a": [{}]}],
     "flags": [True, False, None], "ints": [0, -1, 2 ** 70], "rows": [["1/2", "-3"]]},
    [], {}, "", "caf\u00e9", 0, True, None, [[["deep"]]],
    {"keys": {"1": 1, "": "", "\u2603": {"\\": ["\""]}}},
]


@pytest.mark.parametrize("doc", PRINTER_DOCS)
def test_dump_document_is_json_dumps_with_an_indent(doc):
    """Byte for byte the text of json.dumps(doc, indent=2): non-ASCII,
    quotes, backslashes and control characters escaped, empty containers,
    nested lists, bools, None and ints."""
    assert netfile.dump_document(doc) == json.dumps(doc, indent=2)
    assert netfile.dump_document(doc, compact=True) == json.dumps(
        doc, separators=(",", ":"))


def printed_document(doc, compact):
    if compact:
        return json.dumps(doc, separators=(",", ":")) + "\n"
    return json.dumps(doc, indent=2) + "\n"


def check_written(doc, compact, batch):
    """The oracle write_pairs prints dump_document's line, one batch per
    write."""
    out = RecordingStream()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(netfile, "STREAM_BATCH", batch)
        write_pairs(doc.items(), out, compact)
    text = "".join(out.writes)
    assert text == printed_document(doc, compact)
    assert text == netfile.dump_document(doc, compact) + "\n"
    assert len(out.writes) == -(-len(doc) // batch) + 1  # batches, then "}"
    # after k writes: exactly the document of the first k batches, open
    close = "}\n" if compact else "\n}\n"
    items = list(doc.items())
    for k in range(1, len(out.writes)):
        head = printed_document(dict(items[:k * batch]), compact)
        assert "".join(out.writes[:k]) == head[:-len(close)]


awkward_text = st.text(st.one_of(
    st.sampled_from('"\\/\x00\x07\x1f\x7f\n\t\u2028é€😀:, {}'),
    st.characters()))


@given(st.data(), st.integers(1, 4), st.booleans())
def test_write_pairs_matches_dump_document(data, batch, compact):
    size = data.draw(st.sampled_from([0, 1, batch - 1, batch, batch + 1]))
    doc = data.draw(st.dictionaries(awkward_text, awkward_text,
                                    min_size=size, max_size=size))
    check_written(doc, compact, batch)


@pytest.mark.parametrize("compact", [False, True])
@pytest.mark.parametrize("size", [0, 1, netfile.STREAM_BATCH - 1,
                                  netfile.STREAM_BATCH, netfile.STREAM_BATCH + 1])
def test_write_pairs_default_batch(size, compact):
    doc = {f'{{{i}}} "\\\x07é': f"{i}/7" for i in range(size)}
    check_written(doc, compact, netfile.STREAM_BATCH)


def nonzero_sets(n):
    """Named sets of nonzero names of [n], each with made-up values."""
    rng = random.Random(n)
    runs = [[first + r for r in rests] for first, rests in noncrossing_runs(n)]
    names = [name for run in runs for name in run]
    longest = max(runs, key=len)
    k = len(runs) // 2
    sets = {
        "empty": [],
        "random 1%": [m for m in names if rng.random() < 0.01],
        "random 30%": [m for m in names if rng.random() < 0.3],
        "ends": [names[0], names[-1]],
        "one run": longest,
        # the last entry of one run and the first of the next
        "boundary": [runs[k - 1][-1], runs[k][0]] if k else [names[0]],
    }
    if n <= 10:
        sets["all"] = names
    return {key: {m: f"{i + 1}/7" for i, m in enumerate(chosen)}
            for key, chosen in sets.items()}


@pytest.mark.parametrize("n", range(1, 13))
def test_write_lambda_matches_write_pairs(n):
    """The run writer makes the writes of the oracle: every name of the
    enumeration, quoted by json, with its value or "0"."""
    batches = [netfile.STREAM_BATCH] + ([5] if n <= 8 else [])
    sets = nonzero_sets(n)
    if n >= 11:  # the oracle names every entry in Python: two sets suffice
        sets = {key: sets[key] for key in ("random 1%", "boundary")}
    for i, (key, nonzero) in enumerate(sets.items()):
        layouts = [False, True] if n <= 9 else [i % 2 == 1]
        for batch in batches:
            for compact in layouts:
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(netfile, "STREAM_BATCH", batch)
                    want, got = RecordingStream(), RecordingStream()
                    write_pairs(((m, nonzero.get(m, "0"))
                                 for m in noncrossing_names(n)), want, compact)
                    netfile.write_lambda(noncrossing_runs(n), nonzero, got,
                                         compact)
                assert got.writes == want.writes, (key, batch, compact)


@pytest.mark.parametrize("n, nonzero, unplaced", [
    (3, {"{2},{1},{3}": "5"}, "{2},{1},{3}"),   # no run starts with {2}
    (4, {"{1,3},{2,4}": "5"}, "{1,3},{2,4}"),   # a dense run
    (4, {"{1},{2},{3},{4}": "2", "{1},{3},{2},{4}": "3", "{1,3},{2,4}": "5"},
     "{1},{3},{2},{4}"),
    (7, {"{1},{2},{3},{4},{5},{6},{7}": "1", "{1},{2,4},{3,5},{6},{7}": "2"},
     "{1},{2,4},{3,5},{6},{7}"),                # a sparse run
])
def test_write_lambda_refuses_an_entry_no_run_names(n, nonzero, unplaced):
    """An entry that names no noncrossing partition of [n] is a naming
    slip: it raises AssertionError, naming the first such entry, before
    the closing brace is written, instead of being left out of an all-"0"
    document."""
    for compact in (False, True):
        out = RecordingStream()
        with pytest.raises(AssertionError, match=re.escape(unplaced) + "$"):
            netfile.write_lambda(noncrossing_runs(n), nonzero, out, compact)
        assert not "".join(out.writes).endswith("}\n")


def test_partition_names_need_no_json_escape():
    """write_lambda writes names unquoted: json quotes each as is."""
    quote = json.encoder.encode_basestring_ascii
    for n in range(1, 13):
        for name in noncrossing_names(n):
            assert quote(name) == '"' + name + '"'
