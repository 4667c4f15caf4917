"""Command-line surface: every computation behind one deterministic tool.

``main`` runs each request as one pipeline: parse the arguments with the
named command's parser, load each network file (``equiv`` takes two,
``kernel-dim`` none) and validate it once, call the compute-only handler
``cmd_<name>(*networks, args)``, and print the document it returns with
``netfile.dump_document``.  The handler of ``validate`` gets the report
instead of the network.  A handler that writes its own output returns
None: ``lambda`` streams its entries, ``ydelta`` and ``dual`` may write
a network file.

Exit codes: 0 success, 1 invalid input file (one that does not load or
fails validation; ``validate`` prints its report first), 2 precondition
violation, 3 internal error (an identity the library guarantees broke,
or any other unexpected exception; always a bug, reported without a
traceback).
"""

from __future__ import annotations

import argparse
import sys

from . import electrical, grassmann, groves, netfile, network
from .combinat import catalan, noncrossing_names


class _InvalidInput(Exception):
    pass


class _Precondition(Exception):
    pass


def cmd_validate(report, args):
    return {
        "valid": report.ok,
        "checks": [{"name": name, "ok": ok, "detail": detail}
                   for name, ok, detail in report.checks],
    }


def cmd_lambda(net, args):
    if net.n > groves.DENSE_LAMBDA_MAX_N:
        raise _Precondition(
            f"dense lambda output for n = {net.n} has Cat_{net.n} = "
            f"{catalan(net.n)} entries (limit n <= {groves.DENSE_LAMBDA_MAX_N})"
        )
    lam = groves.lambda_vector(net)
    nonzero = {str(s): netfile.format_rational(v) for s, v in lam.values.items()}
    # streamed: the Cat_n entries are written as they are named
    netfile.write_pairs(
        ((name, nonzero.get(name, "0")) for name in noncrossing_names(net.n)),
        sys.stdout, compact=args.compact)


def cmd_response(net, args):
    return netfile.matrix_to_doc(electrical.response_matrix(net))


def cmd_resistance(net, args):
    return netfile.matrix_to_doc(electrical.resistance_matrix(net))


def _lstar(net):
    return electrical.lstar_from_resistance(electrical.resistance_matrix(net))


def cmd_lstar(net, args):
    return netfile.matrix_to_doc(_lstar(net))


def _point(net):
    """The Grassmannian point of the network: lam_map of its Lambda."""
    return grassmann.lam_map(groves.lambda_vector(net))


def _kappa_zero(vec) -> bool:
    return grassmann.kappa(grassmann.omega(vec.n), vec).is_zero()


def cmd_plucker(net, args):
    vec = _point(net)
    doc = {"coordinates": netfile.exterior_to_doc(vec)}
    if args.check_isotropy:
        doc["kappa_zero"] = _kappa_zero(vec)
    return doc


def cmd_isotropy(net, args):
    return {"kappa_zero": _kappa_zero(_point(net))}


def cmd_tnn(net, args):
    return {"totally_nonnegative": grassmann.is_totally_nonnegative(_point(net))}


def _chart(net, source: str):
    """Representing matrix from the response or the resistance chart."""
    if source == "response":
        # a glued shape's response matrix is indexed by blocks, and its
        # point has the not-shorted coordinate Lambda(singletons) = 0
        glued = [b for b in net.shape_partition().blocks if len(b) > 1]
        if glued:
            raise _Precondition(
                "the not-shorted (response) chart needs every label in its "
                "own shape block; glued blocks: "
                + ", ".join("{" + ",".join(map(str, b)) + "}" for b in glued))
        return grassmann.chart_from_response(electrical.response_matrix(net))
    return grassmann.chart_from_lstar(_lstar(net))


def cmd_chart(net, args):
    return netfile.matrix_to_doc(_chart(net, args.source))


def cmd_extract(net, args):
    source, mode = (("response", "response") if args.chart == "not-shorted"
                    else ("resistance", "dual"))
    return netfile.matrix_to_doc(
        grassmann.extract_symmetric(_chart(net, source), mode))


def _rewritten(out, args):
    """The document of a rewritten network, or None once saved to --output."""
    if args.output:
        netfile.save_network(out, args.output)
        return None
    return netfile.network_to_dict(out)


def cmd_ydelta(net, args):
    return _rewritten(network.ydelta(net, args.site, args.direction), args)


def cmd_dual(net, args):
    return _rewritten(network.dual(net), args)


def cmd_medial(net, args):
    return {"pairing": [list(p) for p in network.medial_pairing(net).pairs]}


def cmd_minimal(net, args):
    return {"minimal": network.is_minimal(net)}


def cmd_equiv(net1, net2, args):
    if net1.n != net2.n:
        raise _Precondition("networks have different n")
    factor = groves.equivalence_factor(net1, net2)
    doc = {"equivalent": factor is not None}
    if factor is not None:
        doc["factor"] = netfile.format_rational(factor)
    return doc


def cmd_kernel_dim(args):
    if args.n < 2 or args.n > 6:
        raise _Precondition("n must be between 2 and 6")
    return {"kernel_dimension": grassmann.kernel_dimension_of_kappa(args.n)}


def _arg(*flags, **kwargs):
    return flags, kwargs


# command -> (takes a network file, further arguments).  The handler of
# "kernel-dim" is cmd_kernel_dim; it is looked up when the parser is
# built, so a rebound handler is the one called.
COMMANDS = {
    "validate": (True, ()),
    "lambda": (True, ()),
    "response": (True, ()),
    "resistance": (True, ()),
    "lstar": (True, ()),
    "plucker": (True, (_arg("--check-isotropy", action="store_true"),)),
    "isotropy": (True, ()),
    "tnn": (True, ()),
    "chart": (True, (_arg("--from", dest="source", required=True,
                          choices=["response", "resistance"]),)),
    "extract": (True, (_arg("--chart", required=True,
                            choices=["not-shorted", "connected"]),)),
    "ydelta": (True, (
        _arg("--site", required=True),
        _arg("--direction", required=True, choices=["ytod", "dtoy"]),
        _arg("--output", help="write the rewritten network here"))),
    "dual": (True, (_arg("--output", help="write the dual network here"),)),
    "medial": (True, ()),
    "minimal": (True, ()),
    "equiv": (True, (_arg("other", help="path to the second network file"),)),
    "kernel-dim": (False, (_arg("--n", type=int, required=True),)),
}


def build_parser(only=None) -> argparse.ArgumentParser:
    """The parser of every command, or of the command ``only`` alone.

    A parser for one command still lists every command in its usage line,
    so it prints the same help and errors for that command as the full
    parser.  The full parser lists them as its choices, and its errors
    name the argument "command", which a metavar would replace.
    """
    parser = argparse.ArgumentParser(
        prog="cactusnet",
        description="Exact electrical invariants of planar cactus networks "
        "and their Grassmannian coordinates.",
    )
    metavar = None if only is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in COMMANDS if only is None else (only,):
        network_arg, extra = COMMANDS[name]
        p = sub.add_parser(name)
        if network_arg:
            p.add_argument("network", help="path to a network file")
        p.add_argument("--compact", action="store_true",
                       help="single-line output")
        for flags, kwargs in extra:
            p.add_argument(*flags, **kwargs)
        p.set_defaults(func=globals()["cmd_" + name.replace("-", "_")])
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # only the named command's parser; help and bad commands get them all
    only = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(only).parse_args(argv)
    try:
        code, inputs = 0, []
        for dest in ("network", "other"):  # "other": equiv's second file
            if not hasattr(args, dest):
                continue
            try:
                net = netfile.load_network(getattr(args, dest))
            except (OSError, ValueError) as exc:
                raise _InvalidInput(str(exc)) from exc
            report = network.validate(net)
            if args.command == "validate":
                net, code = report, 0 if report.ok else 1
            elif not report.ok:
                raise _InvalidInput(
                    f"network fails validation: {report.failures()}")
            inputs.append(net)
        doc = args.func(*inputs, args)
        if doc is not None:
            print(netfile.dump_document(doc, compact=args.compact))
        return code
    except _InvalidInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (_Precondition, OSError, ValueError) as exc:
        # the input parsed and validated, so a failure here means a
        # precondition of the requested computation does not hold
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # anything else, assertion failures included, is a bug
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
