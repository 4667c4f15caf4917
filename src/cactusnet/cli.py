"""Command-line surface: every computation behind one deterministic tool.

Exit codes: 0 success, 1 invalid input file, 2 precondition violation,
3 internal error (an identity the library guarantees broke, or any other
unexpected exception; always a bug, reported without a traceback).
"""

from __future__ import annotations

import argparse
import sys

from . import electrical, grassmann, groves, netfile, network
from .combinat import catalan, noncrossing_names


def _load_valid(path: str) -> network.CactusNetwork:
    try:
        net = netfile.load_network(path)
    except (OSError, ValueError) as exc:
        raise _InvalidInput(str(exc)) from exc
    rep = network.validate(net)
    if not rep.ok:
        raise _InvalidInput(f"network fails validation: {rep.failures()}")
    return net


class _InvalidInput(Exception):
    pass


class _Precondition(Exception):
    pass


def _emit(doc, args) -> None:
    print(netfile.dump_document(doc, compact=getattr(args, "compact", False)))


def cmd_validate(args):
    try:
        net = netfile.load_network(args.network)
    except (OSError, ValueError) as exc:
        raise _InvalidInput(str(exc)) from exc
    rep = network.validate(net)
    _emit(
        {
            "valid": rep.ok,
            "checks": [
                {"name": name, "ok": ok, "detail": detail}
                for name, ok, detail in rep.checks
            ],
        },
        args,
    )
    return 0 if rep.ok else 1


def cmd_lambda(args):
    net = _load_valid(args.network)
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
    return 0


def cmd_response(args):
    net = _load_valid(args.network)
    _emit(netfile.matrix_to_doc(electrical.response_matrix(net)), args)
    return 0


def cmd_resistance(args):
    net = _load_valid(args.network)
    _emit(netfile.matrix_to_doc(electrical.resistance_matrix(net)), args)
    return 0


def cmd_lstar(args):
    net = _load_valid(args.network)
    r = electrical.resistance_matrix(net)
    _emit(netfile.matrix_to_doc(electrical.lstar_from_resistance(r)), args)
    return 0


def cmd_plucker(args):
    net = _load_valid(args.network)
    vec = grassmann.lam_map(groves.lambda_vector(net))
    doc = {"coordinates": netfile.exterior_to_doc(vec)}
    if args.check_isotropy:
        doc["kappa_zero"] = grassmann.kappa(grassmann.omega(net.n), vec).is_zero()
    _emit(doc, args)
    return 0


def cmd_isotropy(args):
    net = _load_valid(args.network)
    vec = grassmann.lam_map(groves.lambda_vector(net))
    _emit(
        {"kappa_zero": grassmann.kappa(grassmann.omega(net.n), vec).is_zero()},
        args,
    )
    return 0


def cmd_tnn(args):
    net = _load_valid(args.network)
    vec = grassmann.lam_map(groves.lambda_vector(net))
    _emit({"totally_nonnegative": grassmann.is_totally_nonnegative(vec)}, args)
    return 0


def _chart(net, source: str):
    """Representing matrix from the response or the resistance chart."""
    if source == "response":
        return grassmann.chart_from_response(electrical.response_matrix(net))
    r = electrical.resistance_matrix(net)
    return grassmann.chart_from_lstar(electrical.lstar_from_resistance(r))


def cmd_chart(args):
    net = _load_valid(args.network)
    _emit(netfile.matrix_to_doc(_chart(net, args.source)), args)
    return 0


def cmd_extract(args):
    net = _load_valid(args.network)
    if args.chart == "not-shorted":
        m, mode = _chart(net, "response"), "response"
    else:
        m, mode = _chart(net, "resistance"), "dual"
    _emit(netfile.matrix_to_doc(grassmann.extract_symmetric(m, mode)), args)
    return 0


def cmd_ydelta(args):
    net = _load_valid(args.network)
    out = network.ydelta(net, args.site, args.direction)
    if args.output:
        netfile.save_network(out, args.output)
    else:
        _emit(netfile.network_to_dict(out), args)
    return 0


def cmd_dual(args):
    net = _load_valid(args.network)
    out = network.dual(net)
    if args.output:
        netfile.save_network(out, args.output)
    else:
        _emit(netfile.network_to_dict(out), args)
    return 0


def cmd_medial(args):
    net = _load_valid(args.network)
    pairing = network.medial_pairing(net)
    _emit({"pairing": [list(p) for p in pairing.pairs]}, args)
    return 0


def cmd_minimal(args):
    net = _load_valid(args.network)
    _emit({"minimal": network.is_minimal(net)}, args)
    return 0


def cmd_equiv(args):
    net1 = _load_valid(args.network)
    net2 = _load_valid(args.other)
    if net1.n != net2.n:
        raise _Precondition("networks have different n")
    factor = groves.equivalence_factor(net1, net2)
    doc = {"equivalent": factor is not None}
    if factor is not None:
        doc["factor"] = netfile.format_rational(factor)
    _emit(doc, args)
    return 0


def cmd_kernel_dim(args):
    if args.n < 2 or args.n > 5:
        raise _Precondition("n must be between 2 and 5")
    _emit({"kernel_dimension": grassmann.kernel_dimension_of_kappa(args.n)}, args)
    return 0


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
        return args.func(args)
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
