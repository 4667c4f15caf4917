"""Tests of the benchmark itself: corpus, golden digests, checks, spans."""

import contextlib
import hashlib
import io
import json
import random
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from cactusnet import cli, netfile, network  # noqa: E402
from cactusnet.combinat import enumerate_noncrossing  # noqa: E402


def is_valid(doc) -> bool:
    return network.validate(netfile.network_from_dict(doc)).ok


@pytest.fixture(scope="module")
def default_corpora():
    return {w: corpus.build(w, corpus.DEFAULT_SEED, is_valid)
            for w in corpus.WORKLOADS}


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_corpus_is_a_function_of_the_seed(workload, default_corpora):
    again = corpus.build(workload, corpus.DEFAULT_SEED, is_valid)
    first = default_corpora[workload]
    assert again.networks == first.networks
    assert again.requests == first.requests
    other = corpus.build(workload, corpus.DEFAULT_SEED + 1, is_valid)
    assert other.networks != first.networks
    assert [r["id"] for r in other.requests] != [r["id"] for r in first.requests]
    assert sorted(r["id"] for r in other.requests) == sorted(
        r["id"] for r in first.requests)


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_every_generated_network_validates(workload, default_corpora):
    for name, doc in default_corpora[workload].networks.items():
        assert is_valid(doc), name


def test_grid_sizes_and_y_site():
    for k, n, internal, edges in [(4, 8, 4, 12), (5, 12, 9, 24), (6, 16, 16, 40)]:
        doc = corpus.grid(random.Random(0), k)
        assert (doc["n"], len(doc["internal_vertices"]), len(doc["edges"])) == (
            n, internal, edges)
        assert is_valid(doc)
    y = corpus.grid(random.Random(0), 4, drop_spoke=True)
    assert len(y["rotations"]["r1c1"]) == 3 and y["rotations"]["b1"] == []
    assert is_valid(y)


def test_golden_covers_every_request(default_corpora):
    golden = json.loads(run.GOLDEN.read_text())
    for workload, built in default_corpora.items():
        assert set(golden[workload]) == {r["id"] for r in built.requests}
        failing = [r["id"] for r in built.requests if r["expect"] != 0]
        assert all(golden[workload][i][0] == 2 for i in failing)


def _cheap(req) -> bool:
    cmd = req["argv"][0]
    if cmd in ("validate", "medial", "minimal", "dual", "ydelta"):
        return True
    return req["id"] in ("kernel-dim-4", "response-k4", "lstar-k4") or (
        cmd == "lambda" and req["check"].get("n", 99) <= 6)


def test_golden_digests_match_the_cli(default_corpora, tmp_path):
    """The checked-in digests pin today's CLI output, byte for byte."""
    golden = json.loads(run.GOLDEN.read_text())
    checked = 0
    for workload in ("groves", "matrices"):
        built = default_corpora[workload]
        for name, doc in built.networks.items():
            (tmp_path / name).write_text(json.dumps(doc))
        for req in filter(_cheap, built.requests):
            argv = [str(tmp_path / a) if a in built.networks else a
                    for a in req["argv"]]
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
            assert [code, digest] == golden[workload][req["id"]], req["id"]
            assert checks.check_output(req, code, buf.getvalue().encode()) is None
            checked += 1
    assert checked >= 40


def test_partition_keys_match_the_library():
    for n in range(1, 9):
        assert checks.partition_keys(n) == {str(s) for s in enumerate_noncrossing(n)}
        assert len(checks.partition_keys(n)) == checks.catalan(n)


def test_checks_reject_wrong_outputs():
    lap = {"id": "x", "expect": 0, "check": {"kind": "laplacian", "n": 2}}
    assert checks.check_output(lap, 0, b'[["-1","1"],["1","-1"]]') is None
    assert checks.check_output(lap, 0, b'[["-1","1"],["2","-2"]]') is not None
    assert checks.check_output(lap, 0, b'[["-1","2"],["2","-1"]]') is not None
    assert checks.check_output(lap, 2, b"") is not None
    lam = {"id": "y", "expect": 0, "check": {"kind": "lambda", "n": 2}}
    assert checks.check_output(lam, 0, b'{"{1},{2}": "1", "{1,2}": "2"}') is None
    assert checks.check_output(lam, 0, b'{"{1},{2}": "1"}') is not None
    assert checks.check_output(lam, 0, b'{"{1},{2}": "0", "{1,2}": "0"}') is not None
    over = {"id": "z", "expect": 2, "check": {"kind": "empty"}}
    assert checks.check_output(over, 2, b"") is None
    assert checks.check_output(over, 0, b"") is not None
    assert checks.check_output(over, 2, b"{}") is not None


def test_self_time_is_duration_minus_covered_children():
    # root [0,10] with children a [1,4], b [3,6] (overlapping a), c [8,12]
    # (sticking out of root); a has one child [2,3]
    parent = [-1, 0, 0, 0, 1]
    start = [0.0, 1.0, 3.0, 8.0, 2.0]
    end = [10.0, 4.0, 6.0, 12.0, 3.0]
    assert spans.self_times(parent, start, end) == [3.0, 2.0, 3.0, 4.0, 1.0]
    assert spans.union_length([(0, 2), (1, 3), (5, 6)]) == 4


def test_tail_percentile_leaves_ten_beyond():
    assert run.tail_percentile(43) == 76
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(11) == 9
    with pytest.raises(ValueError):
        run.tail_percentile(9)


def test_traced_child_counts_validation_and_groves(tmp_path):
    star = {"n": 3, "shape": [[1], [2], [3]], "internal_vertices": ["v"],
            "edges": [{"id": f"e{i}", "ends": [f"b{i}", "v"], "conductance": str(i)}
                      for i in (1, 2, 3)],
            "rotations": {"b1": ["e1"], "b2": ["e2"], "b3": ["e3"],
                          "v": ["e1", "e2", "e3"]}}
    path = tmp_path / "y.json"
    path.write_text(json.dumps(star))
    rec = run.run_child(["lambda", str(path)], True, time.monotonic() + 60)
    tr = rec["trace"]
    assert rec["exit"] == 0
    assert tr["calls"]["network.validate"] == 2
    assert tr["calls"]["cli.main"] == 1
    assert tr["counts"]["groves.enumerate_groves.yields"] == 7
    assert tr["counts"]["groves.nonzero"] == tr["counts"]["groves.held"] == 5
    assert 0 <= tr["self"]["cli.main"] <= tr["busy"]["cli.main"]
    assert any(p.startswith("cli.main > cli.cmd_lambda > groves.lambda_vector")
               for p in tr["profile"])


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, _, _ in run.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(corpus.WORKLOADS)
