"""Fresh-process benchmark of the ``cactusnet`` command line.

    python3 benchmarks/run.py --workload {groves,matrices,wide} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  Set-up generates the workload's corpus
from the seed (corpus.py), writes it under ``.bench_work/`` (removed at
the end) and validates every network with the library.  Then one client
sends the requests one at a time in a closed loop, each
``cactusnet.cli.main(argv)`` call in a fresh interpreter (child.py) with
``PYTHONHASHSEED`` fixed, cycling over the corpus until S seconds have
passed and at least one full round is done.  Every output is checked
(checks.py) and, for the default seed, compared with the digests in
``golden.json``.

The machine's speed drifts while it runs (its cores are shared), so each
timing is scaled to a nominal speed.  Between requests the client times
a fixed pure-Python task, often enough to spend REFERENCE_SHARE of the
run on it, and the run's times are multiplied by REFERENCE_NOMINAL_S
over the mean of those reference times.

With ``--trace 0`` the end-to-end metrics are reported; ``--trace 1``
runs each request untraced and then traced (spans.py) and reports the
per-layer metrics, with the tracing overhead between the two.  The last
line of stdout is one JSON object with keys correct, attempted, failed
and metrics.  The exit code is 0 only if every request passed its checks.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
GOLDEN = HERE / "golden.json"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import corpus  # noqa: E402

SETUP_REPEATS = 9
HASH_SEED = "0"
# No request starts after this many seconds, so that the run ends well
# within three minutes even if a change makes the program much slower.
HARD_LIMIT_S = 150.0
TAIL_BEYOND = 10
# mean time of reference_s() on the 2-vCPU Xeon VM the bounds were set on
REFERENCE_NOMINAL_S = 0.014
REFERENCE_SHARE = 0.05

END_TO_END = [
    ("requests_per_s", "req/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("import_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]

# per-layer metric -> (unit, statistic, traced names).  "busy", "calls"
# and "count" are per-request means over the traced requests; "self" sums
# the self time of every span of a layer.
PER_LAYER = [
    ("groves.groves_visited", "count/req", "count",
     ["groves.enumerate_groves.yields"]),
    ("groves.grove_partition_ms", "ms/req", "busy", ["groves.grove_partition"]),
    ("combinat.from_blocks_calls", "count/req", "calls",
     ["combinat.NoncrossingPartition.from_blocks"]),
    ("groves.self_ms", "ms/req", "self", ["groves"]),
    ("groves.nonzero_ratio", "ratio", "ratio", ["groves.nonzero", "groves.held"]),
    ("grassmann.lam_map_ms", "ms/req", "busy", ["grassmann.lam_map"]),
    ("grassmann.kappa_ms", "ms/req", "busy", ["grassmann.kappa"]),
    ("grassmann.exterior_terms", "count/req", "count", ["grassmann.exterior_terms"]),
    ("grassmann.coords_copied", "count/req", "count", ["grassmann.coords_copied"]),
    ("combinat.kreweras_calls", "count/req", "calls",
     ["combinat.KrewerasPair.of", "combinat.kreweras_complement"]),
    ("linalg.solve_calls", "count/req", "calls", ["linalg.solve_linear"]),
    ("linalg.solve_ms", "ms/req", "busy", ["linalg.solve_linear"]),
    ("linalg.det_calls", "count/req", "calls", ["linalg.RationalMatrix.determinant"]),
    ("linalg.rank_ms", "ms/req", "busy", ["linalg.RationalMatrix.rank"]),
    ("linalg.max_bits", "bits", "max", ["linalg.max_bits"]),
    ("electrical.response_ms", "ms/req", "busy", ["electrical.response_matrix"]),
    ("electrical.resistance_ms", "ms/req", "busy", ["electrical.resistance_matrix"]),
    ("electrical.lstar_ms", "ms/req", "busy", ["electrical.lstar_from_resistance"]),
    ("grassmann.chart_ms", "ms/req", "busy",
     ["grassmann.chart_from_response", "grassmann.chart_from_lstar"]),
    ("grassmann.extract_ms", "ms/req", "busy", ["grassmann.extract_symmetric"]),
    ("grassmann.kernel_dim_ms", "ms/req", "busy",
     ["grassmann.kernel_dimension_of_kappa"]),
    ("combinat.enumerate_ms", "ms/req", "busy", ["combinat.enumerate_noncrossing"]),
    ("combinat.partitions_enumerated", "count/req", "count",
     ["combinat.partitions_enumerated"]),
    ("cli.self_ms", "ms/req", "self", ["cli"]),
    ("netfile.dump_ms", "ms/req", "busy", ["netfile.dump_document"]),
    ("netfile.output_bytes", "bytes/req", "count", ["netfile.output_bytes"]),
    ("network.validate_calls", "count/req", "calls", ["network.validate"]),
    ("network.validate_ms", "ms/req", "busy", ["network.validate"]),
    ("network.quotient_ms", "ms/req", "busy", ["network.quotient_graph"]),
    ("network.rewrite_ms", "ms/req", "busy", ["network.ydelta", "network.dual"]),
    ("netfile.load_ms", "ms/req", "busy", ["netfile.load_network"]),
    ("trace.overhead_pct", "%", "overhead", []),
]


def reference_s() -> float:
    """Time of a fixed task that does not touch the library under test."""
    t0 = time.perf_counter()
    acc = {}
    for i in range(3000):
        key = (i % 97, i % 89)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i, 7)
    return time.perf_counter() - t0


class BenchError(Exception):
    """The benchmark cannot run here (no library, or a broken corpus)."""


def load_library():
    """Import the library under test from this checkout's ``src``."""
    if not (SRC / "cactusnet" / "cli.py").is_file():
        raise BenchError(f"no cactusnet sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from cactusnet import netfile, network
    return netfile, network


def setup(workload: str, seed: int, netfile, network):
    """Generate, write and validate the corpus; return it and its directory."""
    work = WORK / f"{workload}-{seed}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)

    def is_valid(doc) -> bool:
        try:
            return network.validate(netfile.network_from_dict(doc)).ok
        except ValueError:
            return False

    built = corpus.build(workload, seed, is_valid)
    for name, doc in built.networks.items():
        path = work / name
        path.write_text(json.dumps(doc, indent=2) + "\n")
        report = network.validate(netfile.load_network(str(path)))
        if not report.ok:
            raise BenchError(f"generated network {name} is invalid: "
                             f"{report.failures()}")
    return built, work


def run_child(argv, trace: bool, deadline: float) -> dict:
    """One request in a fresh interpreter; the child's report plus output."""
    cmd = [sys.executable, str(HERE / "child.py"), str(SRC),
           "1" if trace else "0", *argv]
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED, PYTHONPATH=str(SRC))
    # an installed package imports from cached bytecode, so let the
    # warm-up request write it whatever the caller's environment says
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return {"error": "timed out"}
    head, _, out = proc.stdout.partition(b"\n")
    try:
        result = json.loads(head)
    except ValueError:
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-3:]
        return {"error": f"child failed (exit {proc.returncode}): {tail}"}
    result["out"] = out
    return result


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least TAIL_BEYOND of n beyond it."""
    for p in range(99, -1, -1):
        if n - math.ceil(p * n / 100) >= TAIL_BEYOND:
            return p
    raise ValueError(f"{n} requests leave no percentile with "
                     f"{TAIL_BEYOND} beyond it")


def nearest_rank(values, p: int) -> float:
    ordered = sorted(values)
    return ordered[max(1, math.ceil(p * len(ordered) / 100)) - 1]


def end_to_end(records, setups, speed: float) -> tuple:
    """The end-to-end metrics (times scaled by ``speed``) and a note."""
    by_request = {}
    for r in records:
        if "main_s" in r:
            by_request.setdefault(r["id"], []).append(r["main_s"] * speed)
    mains = [statistics.median(v) for v in by_request.values()]
    p = tail_percentile(len(mains))
    metrics = {
        "requests_per_s": len(mains) / sum(mains),
        "latency_p50_ms": statistics.median(mains) * 1e3,
        "latency_tail_ms": nearest_rank(mains, p) * 1e3,
        "import_ms": statistics.median(r["import_s"] for r in records
                                       if "import_s" in r) * speed * 1e3,
        "peak_rss_mb": max(r["rss_kb"] for r in records if "rss_kb" in r) / 1024,
        "setup_s": statistics.median(setups) * speed,
    }
    return metrics, f"tail is p{p} of {len(mains)} requests"


def per_layer(pairs, speed: float) -> dict:
    """Per-layer metrics from (untraced, traced) record pairs."""
    traced = [t["trace"] for _, t in pairs if "trace" in t]
    k = max(1, len(traced))

    def total(field, names):
        return sum(tr[field].get(n, 0) for tr in traced for n in names)

    out = {}
    for name, _, stat, names in PER_LAYER:
        if stat == "busy":
            out[name] = total("busy", names) * speed * 1e3 / k
        elif stat == "calls":
            out[name] = total("calls", names) / k
        elif stat == "count":
            out[name] = total("counts", names) / k
        elif stat == "self":
            out[name] = sum(s for tr in traced for fn, s in tr["self"].items()
                            if fn.split(".")[0] in names) * speed * 1e3 / k
        elif stat == "max":
            out[name] = max((tr["maxima"].get(names[0], 0) for tr in traced),
                            default=0)
        elif stat == "ratio":
            held = total("counts", names[1:])
            out[name] = total("counts", names[:1]) / held if held else 0.0
        elif stat == "overhead":
            both = [(u["main_s"], t["main_s"]) for u, t in pairs
                    if "main_s" in u and "main_s" in t]
            out[name] = (sum(t for _, t in both) / sum(u for u, _ in both) - 1) * 100
    return out


def check_record(record, request, golden) -> None:
    """Set record["error"] if the request failed a check."""
    if "error" in record:
        return
    err = checks.check_output(request, record["exit"], record.pop("out"))
    if err is None and golden is not None:
        want = golden.get(request["id"])
        if want != [record["exit"], record["sha256"]]:
            err = "output differs from the golden digest of the default seed"
    if err is not None:
        record["error"] = err


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    netfile, network = load_library()
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        built, work = setup(workload, seed, netfile, network)
        setups.append(time.perf_counter() - t0)
    rel = work.relative_to(ROOT)
    requests = [dict(r, argv=[str(rel / a) if a in built.networks else a
                              for a in r["argv"]]) for r in built.requests]
    golden = None
    if seed == corpus.DEFAULT_SEED:
        golden = json.loads(GOLDEN.read_text())[workload]

    # untimed warm-up: the first import in a checkout compiles and caches
    # the bytecode
    run_child(["--help"], False, time.monotonic() + HARD_LIMIT_S)

    records, pairs, refs = [], [], []
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    i = rounds = 0
    while True:
        if i == len(requests):
            i, rounds = 0, rounds + 1
        now = time.monotonic()
        if (rounds and now - start >= seconds) or now >= deadline:
            break
        req = requests[i]
        while not refs or sum(refs) < REFERENCE_SHARE * (now - start):
            refs.append(reference_s())
        sample = []
        for traced in ((False, True) if trace else (False,)):
            rec = run_child(req["argv"], traced, deadline)
            rec["id"] = req["id"]
            check_record(rec, req, golden)
            records.append(rec)
            sample.append(rec)
        if trace:
            pairs.append(tuple(sample))
        i += 1
    shutil.rmtree(work)
    missed = 0 if rounds else len(requests) - i
    failed = [r for r in records if "error" in r]
    attempted = len(records) + missed
    for r in failed[:10]:
        print(f"FAILED {r['id']}: {r['error']}", file=sys.stderr)
    if missed:
        print(f"FAILED {missed} requests not run within {HARD_LIMIT_S:.0f} s",
              file=sys.stderr)

    error_rate = (len(failed) + missed) / attempted
    print(f"workload {workload}, seed {seed}: {len(requests)} requests per "
          f"round, {rounds} full round(s), {attempted} attempted, "
          f"{len(failed) + missed} failed")
    speed = REFERENCE_NOMINAL_S / statistics.fmean(refs)
    print(f"speed factor {speed:.4f}: reference task mean "
          f"{statistics.fmean(refs) * 1e3:.2f} ms over {len(refs)} runs, nominal "
          f"{REFERENCE_NOMINAL_S * 1e3:.2f} ms; times below are scaled by it")
    if trace:
        metrics = per_layer(pairs, speed)
        units = {name: unit for name, unit, _, _ in PER_LAYER}
        write_trace(workload, seed, pairs)
    else:
        metrics, note = end_to_end(records, setups, speed)
        units = dict(END_TO_END)
        print(note)
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.4f} {units[name]}")
    # never 0 when all is well, so reported here and not in the result
    print(f"  {'error_rate':32s} {error_rate:14.4f} failed/attempted")
    ok = not failed and not missed
    print(json.dumps({
        "correct": ok,
        "attempted": attempted,
        "failed": len(failed) + missed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0 if ok else 1


def write_trace(workload: str, seed: int, pairs) -> None:
    """Write each traced request's call-path profile for later reading."""
    path = WORK / f"trace-{workload}-{seed}.json"
    rows = [{"id": t["id"], "main_s": t.get("main_s"),
             "profile": t.get("trace", {}).get("profile", {})} for _, t in pairs]
    path.write_text(json.dumps(rows, indent=1) + "\n")
    print(f"call-path profiles of {len(rows)} traced requests in "
          f"{path.relative_to(ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, default=corpus.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, ImportError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
