"""Run one CLI request in this fresh interpreter and report its costs.

    python3 child.py SRC_DIR TRACE ARG...

Times the import of ``cactusnet.cli`` and the ``main(ARG...)`` call
separately, with the request's stdout captured in memory.  Writes one
JSON line to the real stdout (import and main time in seconds, exit
code, sha256 of the captured output, peak RSS in KiB and, with TRACE=1,
the per-layer profile of the request), followed by the captured output
itself so that the parent can check it.
"""

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time


def run(src: str, trace: bool, argv: list) -> dict:
    t0 = time.perf_counter()
    import cactusnet.cli
    t1 = time.perf_counter()
    here = os.path.dirname(os.path.abspath(cactusnet.cli.__file__))
    if os.path.commonpath([here, src]) != src:
        raise SystemExit(f"cactusnet was imported from {here}, not {src}")
    tracer = None
    if trace:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    buf = io.StringIO()
    t2 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        try:
            code = cactusnet.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 2
    t3 = time.perf_counter()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out = buf.getvalue().encode()
    result = {
        "import_s": t1 - t0,
        "main_s": t3 - t2,
        "exit": code,
        "sha256": hashlib.sha256(out).hexdigest(),
        "rss_kb": rss_kb,
    }
    if tracer is not None:
        result["trace"] = tracer.report()
    return result, out


def main() -> None:
    src, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    sys.path.insert(0, src)
    result, out = run(os.path.abspath(src), trace, argv)
    stream = sys.stdout.buffer
    stream.write(json.dumps(result).encode() + b"\n")
    stream.write(out)
    stream.flush()
    sys.stderr.flush()
    # skip the interpreter's teardown: it is not part of the request's
    # timed costs, and freeing a large Lambda dict takes a while
    os._exit(0)


if __name__ == "__main__":
    main()
