"""Record the golden exit codes and output digests of the default seed.

    python3 benchmarks/record_golden.py

Runs every request of every workload once, at the default seed, in a
fresh interpreter as the benchmark does, and rewrites golden.json.  Run
it only when a change is meant to alter the CLI's output, and say so.
"""

import json
import sys
import time

import run
from checks import check_output
from corpus import DEFAULT_SEED, WORKLOADS


def main() -> int:
    netfile, network = run.load_library()
    golden = {}
    for workload in WORKLOADS:
        built, work = run.setup(workload, DEFAULT_SEED, netfile, network)
        rel = work.relative_to(run.ROOT)
        golden[workload] = {}
        for req in built.requests:
            argv = [str(rel / a) if a in built.networks else a for a in req["argv"]]
            rec = run.run_child(argv, False, time.monotonic() + 600)
            err = rec.get("error") or check_output(req, rec["exit"], rec["out"])
            if err:
                print(f"{workload} {req['id']}: {err}", file=sys.stderr)
                return 1
            golden[workload][req["id"]] = [rec["exit"], rec["sha256"]]
    run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
