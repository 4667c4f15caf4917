"""End-to-end command-line behavior: outputs, determinism, exit codes."""

import functools
import json
import os
import random
import subprocess
import sys

import pytest

from conftest import (
    RecordingStream,
    build_parser,
    extreme_coordinates,
    grown_noncrossing_blocks,
    make_delta,
    make_disconnected,
    make_edgeless,
    make_floating_triangle,
    make_glued_tree,
    make_isolated_vertex,
    make_shorted,
    make_y,
    make_y_with_pendant,
    mutated,
    mutation_sources,
    partition_name,
    random_planar_net,
)
from cactusnet import cli, combinat, electrical, grassmann, groves, netfile
from cactusnet.cli import main
from cactusnet.combinat import NoncrossingPartition, catalan
from cactusnet.grassmann import lam_map
from cactusnet.groves import GROVE_EDGE_CAP, lambda_vector
from cactusnet.network import CactusNetwork, validate
from fractions import Fraction


@pytest.fixture
def paths(tmp_path):
    out = {}
    nets = {
        "y": make_y(1, 2, 3),
        "delta": make_delta(Fraction(1, 3), 1, Fraction(1, 2)),
        "glued": make_glued_tree(),
        "disc": make_disconnected(),
    }
    for name, net in nets.items():
        p = tmp_path / f"{name}.json"
        netfile.save_network(net, p)
        out[name] = str(p)
    out["tmp"] = tmp_path
    return out


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(paths, capsys):
    code, out, _ = run(capsys, "validate", paths["y"])
    assert code == 0
    assert json.loads(out)["valid"] is True


def test_validate_reports_failures(paths, capsys, tmp_path):
    doc = json.loads(open(paths["y"]).read())
    doc["edges"][0]["conductance"] = "-1"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "validate", str(bad))
    assert code == 1
    report = json.loads(out)
    assert report["valid"] is False
    assert any(
        c["name"] == "conductance-positive" and not c["ok"]
        for c in report["checks"])


def test_validate_names_an_empty_shape_block(paths, capsys, tmp_path):
    doc = json.loads(open(paths["y"]).read())
    doc["shape"].append([])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "validate", str(bad))
    assert code == 1
    failed = [c["name"] for c in json.loads(out)["checks"] if not c["ok"]]
    assert failed[0] == "shape-partition"


def test_lambda_output(paths, capsys):
    code, out, _ = run(capsys, "lambda", paths["y"], "--compact")
    assert code == 0
    assert json.loads(out) == {
        "{1},{2},{3}": "6", "{1},{2,3}": "6", "{1,2},{3}": "2",
        "{1,2,3}": "6", "{1,3},{2}": "3"}


def lambda_networks():
    rng = random.Random(4)
    nets = [make_glued_tree(), make_shorted(), make_disconnected(),
            make_edgeless(4), make_y(1, Fraction(2, 3), 5)]
    nets += [random_planar_net(rng, n) for n in (2, 3, 5, 6, 7, 9)]
    return nets


def test_lambda_output_matches_the_dense_oracle(capsys, tmp_path):
    """stdout equals the former document: every sorted, grown partition,
    named by the oracle, with its formatted measurement."""
    for k, net in enumerate(lambda_networks()):
        path = tmp_path / f"net{k}.json"
        netfile.save_network(net, path)
        lam = lambda_vector(net)
        doc = {
            partition_name(b): netfile.format_rational(lam[NoncrossingPartition(net.n, b)])
            for b in grown_noncrossing_blocks(net.n)
        }
        assert run(capsys, "lambda", str(path)) == (
            0, json.dumps(doc, indent=2) + "\n", "")
        assert run(capsys, "lambda", str(path), "--compact") == (
            0, json.dumps(doc, separators=(",", ":")) + "\n", "")


def test_lambda_builds_no_partition(paths, capsys, monkeypatch):
    """lambda names its entries from the grove search's root strings: with
    the parser that reads a partition's blocks back from its name broken,
    in every module that binds it, it still prints the document of the
    glued and of the unglued network."""
    want = {name: run(capsys, "lambda", paths[name]) for name in ("glued", "y")}

    def refuse(name, cache):
        raise AssertionError("lambda built a partition")

    for module in (combinat, groves, grassmann):
        monkeypatch.setattr(module, "_name_blocks", refuse)
    for name in ("glued", "y"):
        assert run(capsys, "lambda", paths[name]) == want[name]
        assert want[name][0] == 0


def test_lambda_naming_slip_is_an_internal_error(paths, capsys, monkeypatch):
    """A name that no noncrossing partition has, slipped into the named
    classes, is a bug: lambda exits 3 with one internal error line, after
    the part of the document written before the slip was found."""
    named = groves.GroveMeasurements.named

    def slipped(self):
        return {**named(self), "{2},{1},{3}": (1, 1)}

    monkeypatch.setattr(groves.GroveMeasurements, "named", slipped)
    code, out, err = run(capsys, "lambda", paths["y"])
    assert code == 3
    assert err == ("internal error: AssertionError: "
                   "no noncrossing partition is named {2},{1},{3}\n")
    assert out.startswith('{\n  "{1},{2},{3}": "6"') and not out.endswith("}\n")


def test_over_cap_lambda_fails_before_any_name(capsys, tmp_path, monkeypatch):
    class KeepAll(random.Random):
        def random(self):
            return 0.0  # keep every chord and spoke

    net = random_planar_net(KeepAll(0), 12, connected=True)
    assert len(net.edges) > GROVE_EDGE_CAP
    path = tmp_path / "wheel.json"
    netfile.save_network(net, path)

    def no_names(n):
        raise AssertionError("names built before the edge cap check")

    monkeypatch.setattr(cli, "noncrossing_runs", no_names)
    code, out, err = run(capsys, "lambda", str(path))
    assert (code, out) == (2, "")
    assert "too many edges" in err


def test_dense_lambda_size_budget(capsys, tmp_path, monkeypatch):
    path = tmp_path / "edgeless16.json"
    netfile.save_network(make_edgeless(16), path)

    def no_groves(net):
        raise AssertionError("lambda_vector ran past the size budget")

    monkeypatch.setattr(groves, "lambda_vector", no_groves)
    code, out, err = run(capsys, "lambda", str(path))
    assert (code, out) == (2, "")
    assert "n = 16" in err and "Cat_16 = 35357670" in err
    assert groves.DENSE_LAMBDA_MAX_N == 13


def test_matrix_commands(paths, capsys):
    code, out, _ = run(capsys, "response", paths["y"], "--compact")
    assert code == 0
    assert json.loads(out)[0] == ["-5/6", "1/3", "1/2"]
    code, out, _ = run(capsys, "resistance", paths["glued"], "--compact")
    assert code == 0
    assert json.loads(out)[1][4] == "11/6"
    code, out, _ = run(capsys, "lstar", paths["y"], "--compact")
    assert code == 0
    assert json.loads(out)[0][0] == "-3/2"


def test_plucker_and_flags(paths, capsys):
    code, out, _ = run(capsys, "plucker", paths["y"], "--check-isotropy",
                       "--compact")
    assert code == 0
    doc = json.loads(out)
    assert doc["kappa_zero"] is True
    assert doc["coordinates"]["1,1~,2,2~"] == "6"
    code, out, _ = run(capsys, "isotropy", paths["y"], "--compact")
    assert code == 0 and json.loads(out) == {"kappa_zero": True}
    code, out, _ = run(capsys, "tnn", paths["glued"], "--compact")
    assert code == 0 and json.loads(out) == {"totally_nonnegative": True}


def test_plucker_family_calls_the_grassmann_kernels(paths, capsys, monkeypatch):
    """Each of plucker, tnn and isotropy makes one lam_map call, a kappa
    call when isotropy is asked, an is_totally_nonnegative call for tnn
    and an exterior_to_doc call when coordinates are printed, through the
    module attributes that a tracer wraps."""
    calls = []
    for mod, name in ((grassmann, "lam_map"), (grassmann, "kappa"),
                      (grassmann, "is_totally_nonnegative"),
                      (netfile, "exterior_to_doc")):
        def counted(*args, _fn=getattr(mod, name), _name=name):
            calls.append(_name)
            return _fn(*args)
        monkeypatch.setattr(mod, name, counted)
    for argv, expect in (
            (["plucker"], ["lam_map", "exterior_to_doc"]),
            (["plucker", "--check-isotropy"], ["lam_map", "exterior_to_doc", "kappa"]),
            (["isotropy"], ["lam_map", "kappa"]),
            (["tnn"], ["lam_map", "is_totally_nonnegative"])):
        calls.clear()
        code, _, _ = run(capsys, argv[0], paths["glued"], *argv[1:])
        assert code == 0 and calls == expect


def test_chart_and_extract_consistency(paths, capsys):
    _, resp, _ = run(capsys, "response", paths["y"], "--compact")
    _, extracted, _ = run(capsys, "extract", paths["y"],
                          "--chart", "not-shorted", "--compact")
    assert json.loads(resp) == json.loads(extracted)
    _, lstar, _ = run(capsys, "lstar", paths["y"], "--compact")
    _, extracted, _ = run(capsys, "extract", paths["y"],
                          "--chart", "connected", "--compact")
    assert json.loads(lstar) == json.loads(extracted)
    code, out, _ = run(capsys, "chart", paths["y"], "--from", "response",
                       "--compact")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 4 and len(rows[0]) == 6


def glued_networks():
    """Two glued labels joined by an edge (n = 2), and a four-spoke wheel
    whose labels 1 and 2 are glued, without the chord between them."""
    pair = CactusNetwork.build(
        2, [(1, 2)], [], [("e", ("b1", "b2"), Fraction(1))],
        {"b1": ["e"], "b2": ["e"]})
    wheel = CactusNetwork.build(
        4, [(1, 2), (3,), (4,)], ["v"],
        [("s1", ("b1", "v"), Fraction(1)), ("s2", ("b2", "v"), Fraction(2)),
         ("s3", ("b3", "v"), Fraction(3)), ("s4", ("b4", "v"), Fraction(1, 2)),
         ("p2", ("b2", "b3"), Fraction(1)), ("p3", ("b3", "b4"), Fraction(2)),
         ("p4", ("b4", "b1"), Fraction(3))],
        {"b1": ["s1", "p4"], "b2": ["p2", "s2"], "b3": ["p3", "s3", "p2"],
         "b4": ["p4", "s4", "p3"], "v": ["s1", "s2", "s3", "s4"]})
    return [pair, wheel]


def test_response_chart_refuses_glued_shapes(capsys, tmp_path):
    """A glued shape's response matrix is indexed by blocks, and its point
    has every not-shorted coordinate 0, so it is outside the response
    chart: exit 2 naming the glued blocks.  The resistance chart keeps
    one row and column per label and still answers."""
    for k, net in enumerate(glued_networks()):
        assert validate(net).ok
        assert extreme_coordinates(lam_map(lambda_vector(net)))[0] == 0
        path = tmp_path / f"glued{k}.json"
        netfile.save_network(net, path)
        for argv in (["chart", str(path), "--from", "response"],
                     ["extract", str(path), "--chart", "not-shorted"]):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, "")
            assert "glued blocks: {1,2}" in err
        n = net.n
        for argv, shape in (
                (["chart", str(path), "--from", "resistance"], (n + 1, 2 * n)),
                (["extract", str(path), "--chart", "connected"], (n, n))):
            code, out, _ = run(capsys, *argv)
            rows = json.loads(out)
            assert code == 0 and (len(rows), len(rows[0])) == shape


def test_medial_and_minimal(paths, capsys):
    code, out, _ = run(capsys, "medial", paths["glued"], "--compact")
    assert code == 0
    assert json.loads(out)["pairing"] == [
        [1, 7], [2, 6], [3, 12], [4, 5], [8, 10], [9, 11]]
    code, out, _ = run(capsys, "minimal", paths["glued"], "--compact")
    assert code == 0 and json.loads(out) == {"minimal": True}


def test_equiv(paths, capsys):
    code, out, _ = run(capsys, "equiv", paths["y"], paths["delta"],
                       "--compact")
    assert code == 0
    assert json.loads(out) == {"equivalent": True, "factor": "6"}
    code, out, _ = run(capsys, "equiv", paths["y"], paths["glued"])
    assert code == 2  # different n is a precondition violation


def test_ydelta_writes_equivalent_network(paths, capsys):
    out_path = str(paths["tmp"] / "tri.json")
    code, _, _ = run(capsys, "ydelta", paths["y"], "--site", "v",
                     "--direction", "ytod", "--output", out_path)
    assert code == 0
    code, out, _ = run(capsys, "equiv", paths["y"], out_path, "--compact")
    assert code == 0
    assert json.loads(out)["equivalent"] is True


def test_dual_round_trip(paths, capsys):
    d1 = str(paths["tmp"] / "d1.json")
    d2 = str(paths["tmp"] / "d2.json")
    assert run(capsys, "dual", paths["y"], "--output", d1)[0] == 0
    assert run(capsys, "dual", d1, "--output", d2)[0] == 0
    net = netfile.load_network(d2)
    assert sorted(e.conductance for e in net.edges) == [1, 2, 3]


def test_dual_refusing_a_loop_exits_2_and_writes_nothing(paths, capsys):
    net_path, out_path = paths["tmp"] / "pendant.json", paths["tmp"] / "d.json"
    netfile.save_network(make_y_with_pendant(), net_path)
    code, out, err = run(capsys, "dual", str(net_path), "--output", str(out_path))
    assert (code, out) == (2, "")
    assert err == "error: the dual edges of ['ep'] would be loops\n"
    assert not out_path.exists()


def test_kernel_dim(paths, capsys):
    code, out, _ = run(capsys, "kernel-dim", "--n", "4", "--compact")
    assert code == 0 and json.loads(out) == {"kernel_dimension": 14}
    code, out, _ = run(capsys, "kernel-dim", "--n", "6", "--compact")
    assert code == 0 and json.loads(out) == {"kernel_dimension": 132}
    for n in ("1", "7", "9", "-3"):  # a negative number is a value
        code, out, err = run(capsys, "kernel-dim", "--n", n)
        assert (code, out) == (2, "") and "between 2 and 6" in err


def test_exit_code_invalid_input(paths, capsys, tmp_path):
    assert run(capsys, "lambda", str(tmp_path / "missing.json"))[0] == 1
    junk = tmp_path / "junk.json"
    junk.write_text("not json")
    assert run(capsys, "response", str(junk))[0] == 1


def test_deeply_nested_file_is_invalid_input(paths, capsys, tmp_path):
    """A file nested deeper than the JSON reader can recurse is malformed
    input (exit 1), not an internal error, in either file of equiv."""
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    for argv in (["validate", str(deep)], ["lambda", str(deep)],
                 ["equiv", paths["y"], str(deep)]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: malformed network file:")


def test_exit_code_precondition(paths, capsys):
    assert run(capsys, "resistance", paths["disc"])[0] == 2


def test_network_without_groves_is_a_precondition_failure(capsys, tmp_path):
    """A valid network whose internal triangle has no path to the boundary
    has no grove: every Lambda and matrix command exits 2, printing nothing."""
    path = tmp_path / "floating.json"
    netfile.save_network(make_floating_triangle(), path)
    net = str(path)
    assert run(capsys, "validate", net)[0] == 0
    for argv in (["lambda", net], ["plucker", net], ["tnn", net],
                 ["isotropy", net], ["equiv", net, net], ["response", net],
                 ["resistance", net]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "an internal vertex is isolated from the boundary" in err


def test_isolated_internal_vertex(capsys, tmp_path):
    """An internal vertex with no edges is valid; the commands that need
    it connected exit 2 naming the isolation, and no command exits 3."""
    path = tmp_path / "isolated.json"
    netfile.save_network(make_isolated_vertex(), path)
    net = str(path)
    code, out, _ = run(capsys, "validate", net)
    assert code == 0 and json.loads(out)["valid"] is True
    for command in ("response", "resistance", "lambda"):
        code, out, err = run(capsys, command, net)
        assert (code, out) == (2, "")
        assert "an internal vertex is isolated from the boundary" in err
    for name, args in command_argvs(net, net).items():
        code, _, err = run(capsys, name, *args)
        assert code in (0, 1, 2), (name, code, err)
        assert "Traceback" not in err


def test_outputs_are_deterministic(paths, capsys):
    outs = set()
    for _ in range(3):
        _, out, _ = run(capsys, "plucker", paths["glued"], "--compact")
        outs.add(out)
    assert len(outs) == 1


def test_duplicate_internal_vertex_is_invalid_input(paths, capsys, tmp_path):
    doc = json.loads(open(paths["y"]).read())
    doc["internal_vertices"] = ["v", "v"]
    bad = tmp_path / "dup.json"
    bad.write_text(json.dumps(doc))
    for command in ("validate", "response", "resistance"):
        code, out, err = run(capsys, command, str(bad))
        assert code == 1
        assert out == ""
        assert "duplicate internal vertex names" in err


def test_unexpected_exception_is_internal_error(paths, capsys, monkeypatch):
    def broken(net):
        raise IndexError("list index out of range")

    monkeypatch.setattr(electrical, "response_matrix", broken)
    code, out, err = run(capsys, "response", paths["y"])
    assert code == 3
    assert out == ""
    assert err == "internal error: IndexError: list index out of range\n"


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc["rotations"].update(zz=[]), "rotations of unknown vertices"),
    (lambda doc: doc["edges"][0].update(conductance=1.5), "conductances must be"),
    (lambda doc: doc["edges"][0].update(conductance="1.5"), "conductances must be"),
    (lambda doc: doc.update(n=0), "n must be >= 1"),
    (lambda doc: doc.update(n=3.7), "n must be a JSON integer"),
    (lambda doc: doc.update(n=True), "n must be a JSON integer"),
    (lambda doc: doc.update(shape=[[1], [2.9], [3]]),
     "shape labels must be JSON integers"),
    # the star's centre renamed b2, a boundary vertex of the star
    (lambda doc: doc.update(json.loads(json.dumps(doc).replace('"v"', '"b2"'))),
     "internal vertices named like boundary vertices: ['b2']"),
    (lambda doc: doc["edges"][0].update(ends=["b1", "v", "b2"]),
     "ends of edge e1 must be a list of two names"),
    (lambda doc: doc["edges"][0].update(ends="b1"),
     "ends of edge e1 must be a list of two names"),
    (lambda doc: doc["rotations"].update(b1="e1"),
     "rotation of b1 must be a list of edge ids"),
    (lambda doc: doc.update(rotations=[]), "rotations must be an object"),
    (lambda doc: doc.update(internal_vertices="v"),
     "internal_vertices must be a list"),
    # refused before any structure of 10**5 labels is built
    (lambda doc: doc.update(n=10 ** 5),
     "n = 100000 exceeds the number of labels the shape lists (3)"),
], ids=["unknown-rotation-vertex", "numeric-conductance", "decimal-conductance",
        "n-zero", "n-float", "n-bool", "shape-label-float", "internal-named-b2",
        "edge-three-ends", "edge-ends-string", "rotation-string",
        "rotations-list", "internal-vertices-string", "n-beyond-shape"])
def test_malformed_fields_are_invalid_input(paths, capsys, tmp_path, edit, message):
    doc = json.loads(open(paths["y"]).read())
    edit(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    for command in ("validate", "response", "lambda"):
        code, out, err = run(capsys, command, str(bad))
        assert code == 1
        assert out == ""
        assert message in err


def test_internal_names_like_labels_are_internal(paths, capsys, tmp_path):
    """Only b1..bn are boundary vertices: a centre named b02, or b7 with
    n = 3, is an internal vertex like v."""
    text = open(paths["y"]).read()
    for command in ("lambda", "response"):
        expected = run(capsys, command, paths["y"], "--compact")
        assert expected[0] == 0
        for name in ("b02", "b7"):
            renamed = tmp_path / f"{name}.json"
            renamed.write_text(text.replace('"v"', f'"{name}"'))
            assert run(capsys, command, str(renamed), "--compact") == expected


def command_argvs(y, delta):
    """Valid arguments of every command."""
    return {
        "validate": [y], "lambda": [y], "response": [y], "resistance": [y],
        "lstar": [y], "plucker": [y, "--check-isotropy"], "isotropy": [y],
        "tnn": [y], "chart": [y, "--from", "response"],
        "extract": [y, "--chart", "connected"],
        "ydelta": [y, "--site", "v", "--direction", "ytod"], "dual": [y],
        "medial": [y], "minimal": [y], "equiv": [y, delta],
        "kernel-dim": ["--n", "3"],
    }


def test_every_document_prints_as_json_dumps_with_an_indent(paths, capsys,
                                                           monkeypatch):
    """The printed document of every command but the streamed ``lambda``,
    on a star, a glued tree and a delta with fractional conductances, is
    the text of json.dumps(doc, indent=2)."""
    docs, dump = [], netfile.dump_document
    monkeypatch.setattr(netfile, "dump_document", lambda doc, compact=False:
                        docs.append(doc) or dump(doc, compact))
    for net in ("y", "glued", "delta"):
        argvs = command_argvs(paths[net], paths[net])
        argvs.update(chart=[paths[net], "--from", "resistance"],
                     extract=[paths[net], "--chart", "connected"],
                     ydelta=[paths["delta"], "--site", "b1,b2,b3",
                             "--direction", "dtoy"])
        codes = {command: run(capsys, command, *argv)[0]
                 for command, argv in argvs.items() if command != "lambda"}
        assert set(codes.values()) == {0}, net
    assert len(docs) == 3 * 15
    for doc in docs:
        assert dump(doc) == json.dumps(doc, indent=2)


def parsed(capsys, parse, argv):
    """(argument dict, or ("exit", code)), stdout and stderr of one parse."""
    try:
        result = vars(parse(list(argv)))
    except SystemExit as exc:
        result = ("exit", exc.code)
    captured = capsys.readouterr()
    return result, captured.out, captured.err


ORACLE = build_parser()


def assert_parses_like_argparse(capsys, argv):
    """``cli.parse_args`` agrees with the argparse oracle on ``argv``: the
    same values, or the same exit code; an error prints a usage line and
    the oracle's error line to stderr and nothing to stdout."""
    want, _, want_err = parsed(capsys, ORACLE.parse_args, argv)
    got, out, err = parsed(capsys, cli.parse_args, argv)
    assert got == want, argv
    if got == ("exit", 0):  # help: the text is our own
        assert out.startswith("usage: cactusnet") and err == "", argv
    elif got == ("exit", 2):
        assert out == "" and err.startswith("usage: cactusnet"), argv
        assert err.splitlines()[-1] == want_err.splitlines()[-1], argv
        assert "Traceback" not in err
    return got


def test_parse_args_matches_the_argparse_oracle(paths, capsys):
    y, delta = paths["y"], paths["delta"]
    valid = command_argvs(y, delta)
    assert list(valid) == list(cli.COMMANDS)
    for name, args in valid.items():
        values = assert_parses_like_argparse(capsys, [name] + args)
        assert values["command"] == name and values["func"].__name__ == (
            "cmd_" + name.replace("-", "_"))
        assert assert_parses_like_argparse(capsys, [name, "--compact"] + args)[
            "compact"] is True
        assert main([name] + args) == 0
        capsys.readouterr()
    forms = {  # argv -> the values it must give
        ("chart", y, "--from=resistance"): {"source": "resistance"},
        ("chart", "--fr", "response", y): {"source": "response"},
        ("extract", y, "--ch=connected", "--comp"): {"chart": "connected",
                                                     "compact": True},
        ("equiv", y, "--", "-d.json"): {"network": y, "other": "-d.json"},
        ("validate", "--", y): {"network": y},
        ("dual", y, "--output", "a", "--out", "b"): {"output": "b"},
        ("chart", y, "--from", "response", "--from", "resistance"):
            {"source": "resistance"},
        ("kernel-dim", "--n", "-3"): {"n": -3},
        ("kernel-dim", "--n=-3"): {"n": -3},
        ("ydelta", "--site", "-1", y, "--direction", "dtoy"): {"site": "-1"},
        ("plucker", y, "--check"): {"check_isotropy": True},
    }
    for argv, want in forms.items():
        values = assert_parses_like_argparse(capsys, argv)
        assert {k: values[k] for k in want} == want, argv


def test_malformed_command_lines_exit_2(paths, capsys):
    y, delta = paths["y"], paths["delta"]
    malformed = {
        (): "the following arguments are required: command",
        ("bogus", y): "argument command: invalid choice: 'bogus'",
        ("validate",): "required: network",
        ("equiv", y): "required: other",
        ("validate", y, delta): f"unrecognized arguments: {delta}",
        ("chart", y, "--from", "lstar"): "argument --from: invalid choice",
        ("chart", y): "required: --from",
        ("kernel-dim", "--n", "four"): "argument --n: invalid int value: 'four'",
        ("kernel-dim", "--n"): "argument --n: expected one argument",
        ("lambda", y, "--bogus"): "unrecognized arguments: --bogus",
        ("plucker", y, "--c"): "ambiguous option: --c could match "
                               "--compact, --check-isotropy",
        ("lambda", y, "--compact=yes"): "ignored explicit argument 'yes'",
        ("ydelta", y, "--site", "--direction", "ytod"):
            "argument --site: expected one argument",
        ("--compact", "lambda", y): "unrecognized arguments: --compact",
    }
    for argv, message in malformed.items():
        assert assert_parses_like_argparse(capsys, argv) == ("exit", 2)
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and message in err.splitlines()[-1], argv


def test_help_exits_0_and_lists_commands_or_options(paths, capsys):
    for argv in (["-h"], ["--help"], ["--he", "bogus"]):
        assert assert_parses_like_argparse(capsys, argv) == ("exit", 0)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert all(f"cactusnet {name} " in out for name in cli.COMMANDS)
    for name, args in command_argvs(paths["y"], paths["delta"]).items():
        assert assert_parses_like_argparse(capsys, [name, "-h"] + args) == (
            "exit", 0)
        with pytest.raises(SystemExit):
            main([name] + args + ["--help"])
        out = capsys.readouterr().out
        assert out.startswith(f"usage: cactusnet {name} [-h] [--compact]")
        for flags, kwargs in cli.COMMANDS[name][1]:
            assert flags[0] in out
            assert all(choice in out for choice in kwargs.get("choices", ()))


def test_import_footprint():
    """Importing the CLI loads every layer module (a tracer patches them
    through ``sys.modules``) and none of argparse, dataclasses or inspect."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    code = (f"import sys; sys.path.insert(0, {src!r}); import cactusnet.cli; "
            "print(' '.join(sorted(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, check=True)
    loaded = set(done.stdout.split())
    assert not loaded & {"argparse", "dataclasses", "inspect"}
    layers = ("cli", "netfile", "network", "groves", "electrical", "grassmann",
              "linalg", "combinat")
    assert {f"cactusnet.{layer}" for layer in layers} <= loaded


def test_common_command_lines_do_not_import_argparse(paths):
    """Every command's exact form, with and without --compact, and the
    benchmark corpus's shapes are read without importing argparse."""
    y, delta = paths["y"], paths["delta"]
    argvs = [[name] + args for name, args in command_argvs(y, delta).items()]
    argvs += [argv + ["--compact"] for argv in argvs]
    argvs += [["chart", y, "--from", "resistance"],
              ["extract", y, "--chart", "not-shorted"],
              ["ydelta", y, "--site", "r1c1", "--direction", "dtoy"],
              ["kernel-dim", "--n", "5"], ["plucker", y]]
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    code = (f"import sys; sys.path.insert(0, {src!r}); from cactusnet import cli; "
            f"names = [cli.parse_args(a).command for a in {argvs!r}]; "
            "print(' '.join(names), 'argparse' in sys.modules)")
    done = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, check=True)
    assert done.stdout.split() == [a[0] for a in argvs] + ["False"]


def test_values_that_start_with_a_dash_parse_like_argparse(paths, capsys):
    """Such a value may be an option, a negative number or a lone dash."""
    for value in ("-x", "-1", "-", "--", "--bogus", "--output"):
        for argv in (["ydelta", paths["y"], "--site", value, "--direction", "ytod"],
                     ["kernel-dim", "--n", value]):
            assert_parses_like_argparse(capsys, argv)


def test_lone_double_dash_values_are_user_errors(paths, capsys):
    """argparse gives a lone "--" value as a list; it is read as "--" and
    checked against the argument's type and choices."""
    y = paths["y"]
    for argv in (["equiv", y, "--", "--"],
                 ["ydelta", y, "--site=--", "--direction", "ytod"]):
        code, out, err = run(capsys, *argv)
        assert code in (1, 2) and out == "", argv
        assert "internal error" not in err
    malformed = {
        ("chart", y, "--from=--"): "argument --from: invalid choice: '--'",
        ("extract", y, "--chart=--"): "argument --chart: invalid choice: '--'",
        ("ydelta", y, "--site", "v", "--direction=--"):
            "argument --direction: invalid choice: '--'",
        ("kernel-dim", "--n=--"): "argument --n: invalid int value: '--'",
    }
    for argv, message in malformed.items():
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"usage: cactusnet {argv[0]} ")
        assert message in err.splitlines()[-1], argv


def test_random_command_lines_parse_like_argparse(capsys, monkeypatch):
    """Command lines drawn from valid and invalid pieces: the parser and
    the oracle give the same values or the same exit and error line."""
    monkeypatch.setattr(cli, "_parser", functools.lru_cache(cli._parser))
    pieces = ["y.json", "d.json", "--compact", "--c", "--co", "--compact=1",
              "--check-isotropy", "--from", "response", "--fr=resistance",
              "--from=bad", "--chart", "connected", "--site", "v", "--si=-3",
              "--direction", "ytod", "--dir", "--output", "--o", "--out=x",
              "--n", "3", "--n=4", "-3", "x", "--", "-h", "--he", "--bogus",
              "-x", "-", "-hx", "a b", "-1.5", "--help=1", ""]
    rng = random.Random(12)
    exits = set()
    for _ in range(3000):
        argv = [rng.choice(list(cli.COMMANDS))]
        argv += [rng.choice(pieces) for _ in range(rng.randint(0, 6))]
        if rng.random() < 0.1:
            argv.insert(0, rng.choice(["--bogus", "-h", "--"]))
        got = assert_parses_like_argparse(capsys, argv)
        exits.add(got[1] if isinstance(got, tuple) else None)
    assert exits == {None, 0, 2}


def test_lambda_streams_in_batches(tmp_path, monkeypatch):
    net = random_planar_net(random.Random(1), 10)
    path = tmp_path / "wheel10.json"
    netfile.save_network(net, path)
    out = RecordingStream()
    monkeypatch.setattr(sys, "stdout", out)
    measure = groves.lambda_vector

    def checked(net):
        assert not out.writes, "written before the measurements"
        lam = measure(net)
        assert not out.writes, "written before the measurements"
        return lam

    monkeypatch.setattr(groves, "lambda_vector", checked)
    assert main(["lambda", str(path)]) == 0
    assert len(out.writes) > 1
    assert max(w.count('": "') for w in out.writes) <= netfile.STREAM_BATCH
    assert len(json.loads("".join(out.writes))) == catalan(10)


def test_failed_lambda_writes_nothing(tmp_path, monkeypatch):
    class KeepAll(random.Random):
        def random(self):
            return 0.0  # keep every chord and spoke

    over_cap = tmp_path / "wheel.json"
    netfile.save_network(random_planar_net(KeepAll(0), 12, connected=True),
                         over_cap)
    too_wide = tmp_path / "edgeless14.json"
    netfile.save_network(make_edgeless(14), too_wide)
    missing = tmp_path / "missing.json"
    for path, code in ((over_cap, 2), (too_wide, 2), (missing, 1)):
        out = RecordingStream()
        monkeypatch.setattr(sys, "stdout", out)
        assert main(["lambda", str(path)]) == code
        assert out.writes == []


@pytest.mark.parametrize("command", [
    name for name, (network_arg, _) in cli.COMMANDS.items() if network_arg])
def test_every_network_file_is_loaded_and_validated(paths, capsys, tmp_path, command):
    crossing = tmp_path / "crossing.json"
    netfile.save_network(make_edgeless(4), crossing)
    doc = json.loads(crossing.read_text())
    doc["shape"] = [[1, 3], [2, 4]]
    crossing.write_text(json.dumps(doc))
    missing = str(tmp_path / "missing.json")
    first, *rest = command_argvs(paths["y"], paths["delta"])[command]
    cases = [([bad] + rest, bad) for bad in (missing, str(crossing))]
    if command == "equiv":
        cases += [([first, bad], bad) for bad in (missing, str(crossing))]
    for args, bad in cases:
        code, out, err = run(capsys, command, *args)
        assert code == 1, args
        if bad == missing:
            assert out == "" and "No such file or directory" in err
        elif command == "validate":
            assert err == ""
            failed = [c["name"] for c in json.loads(out)["checks"] if not c["ok"]]
            assert failed == ["shape-noncrossing", "planar-embedding"]
        else:
            assert out == "" and "shape-noncrossing" in err


def test_mutated_networks_exit_0_1_or_2(paths, capsys, tmp_path):
    """Seeded fuzz: every command on mutated fixture networks exits 0, 1
    or 2 and never reports an internal error."""
    rng = random.Random(17)
    docs = mutation_sources()
    commands = [c for c in command_argvs("", "") if c != "kernel-dim"]
    bad = tmp_path / "mutated.json"
    codes = set()
    for _ in range(300):
        bad.write_text(json.dumps(mutated(rng, rng.choice(docs))))
        command = rng.choice(commands)
        _, *rest = command_argvs(str(bad), paths["delta"])[command]
        code, _, err = run(capsys, command, str(bad), *rest)
        assert code in (0, 1, 2) and "internal error" not in err, (command, bad.read_text())
        codes.add(code)
    assert codes == {0, 1, 2}
