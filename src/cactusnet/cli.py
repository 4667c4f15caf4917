"""Command-line surface: every computation behind one deterministic tool.

``main`` runs each request as one pipeline: parse the arguments against
the ``COMMANDS`` table (``parse_args``), load each network file
(``equiv`` takes two, ``kernel-dim`` none) and validate it once, call the
compute-only handler ``cmd_<name>(*networks, args)``, and print the
document it returns with ``netfile.dump_document``.  The handler of
``validate`` gets the report instead of the network.  A handler that
writes its own output returns None: ``lambda`` streams its entries,
``ydelta`` and ``dual`` may write a network file.

Exit codes: 0 success, 1 invalid input file (one that does not load or
fails validation; ``validate`` prints its report first), 2 precondition
violation, 3 internal error (an identity the library guarantees broke,
or any other unexpected exception; always a bug, reported without a
traceback; a streamed ``lambda`` may have written part of its
document).  Only a command line that ``parse_args`` cannot read in one
pass imports argparse; a malformed one raises ``SystemExit(2)`` after
argparse's usage message, ``-h`` ``SystemExit(0)`` after its help.
"""

import sys
from types import SimpleNamespace

from . import electrical, grassmann, groves, netfile, network
from .combinat import catalan, noncrossing_runs


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
    nonzero = {name: netfile._rational_text(*pq)
               for name, pq in groves.lambda_vector(net).named().items()}
    # streamed: the Cat_n entries are written run by run as they are named
    netfile.write_lambda(noncrossing_runs(net.n), nonzero, sys.stdout,
                         compact=args.compact)


def cmd_response(net, args):
    return netfile.matrix_to_doc(electrical.response_matrix(net))


def cmd_resistance(net, args):
    return netfile.matrix_to_doc(electrical.resistance_matrix(net))


def _lstar(net):
    return electrical.lstar_from_resistance(electrical.resistance_matrix(net))


def cmd_lstar(net, args):
    return netfile.matrix_to_doc(_lstar(net))


def _point(net):
    """The Grassmannian point of the network, lam_map of its Lambda."""
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
        glued = [b for b in net.shape if len(b) > 1]
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


# command -> (takes a network file, further arguments).  An argument is
# its flags and the argparse keywords it uses: action="store_true", dest,
# required, choices, type and help.  The handler of "kernel-dim" is
# cmd_kernel_dim.
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

DESCRIPTION = ("Exact electrical invariants of planar cactus networks "
               "and their Grassmannian coordinates.")


def _quick(argv):
    """The namespace of a command line in its common form, or None.

    The common form is the command, then its positionals and its exact
    flags or ``--compact``, each value in its own token, and no other
    token that starts with ``-``.  Types, choices and required arguments
    are checked.  Any other command line, well formed or not, gives None.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    network_arg, extra = COMMANDS[argv[0]]
    options = {"--compact": ("compact", {"action": "store_true"})}
    free = ["network"] if network_arg else []
    for flags, kw in extra:
        dest = kw.get("dest") or flags[0].lstrip("-").replace("-", "_")
        if flags[0][0] == "-":
            options[flags[0]] = (dest, kw)
        else:
            free.append(dest)
    values = {dest: False if kw.get("action") else None
              for dest, kw in options.values()}
    values["command"] = argv[0]
    positionals, tokens = [], iter(argv[1:])
    for token in tokens:
        if token[:1] != "-":
            positionals.append(token)
            continue
        if token not in options:
            return None
        dest, kw = options[token]
        if kw.get("action"):
            values[dest] = True
            continue
        value = next(tokens, "-")
        if value[:1] == "-":
            return None
        try:
            value = kw.get("type", str)(value)
        except ValueError:
            return None
        if value not in kw.get("choices", (value,)):
            return None
        values[dest] = value
    if len(positionals) != len(free) or any(
            kw.get("required") and values[dest] is None
            for dest, kw in options.values()):
        return None
    values.update(zip(free, positionals))
    return SimpleNamespace(**values)


def _parser():
    """argparse over ``COMMANDS`` (its help lists every command's usage),
    and the sub-parser and action of each ``COMMANDS`` argument."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="cactusnet", description=DESCRIPTION,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    usages, actions = [], {}
    for name, (network_arg, extra) in COMMANDS.items():
        p = sub.add_parser(name)
        if network_arg:
            p.add_argument("network", help="path to a network file")
        p.add_argument("--compact", action="store_true",
                       help="single-line output")
        for flags, kw in extra:
            action = p.add_argument(*flags, **kw)
            actions[name, action.dest] = p, action
        usages.append(p.format_usage().replace("usage: ", "  ", 1)
                      .replace("\n     ", "\n"))
    parser.epilog = "commands:\n" + "".join(usages)
    return parser, actions


def parse_args(argv):
    """The namespace of a command line: ``command``, its handler ``func``
    and one attribute per argument.  ``_quick`` reads the common form and
    argparse every other one.  A lone ``--`` value (``--site=--``), which
    argparse gives as an unchecked list, is read and checked as ``--``.
    """
    args = _quick(argv)
    if args is None:
        import argparse

        parser, actions = _parser()
        args = parser.parse_args(argv)
        for dest, value in list(vars(args).items()):
            if isinstance(value, list):
                sub, action = actions[args.command, dest]
                try:
                    value = sub._get_value(action, "--")
                    sub._check_value(action, value)
                except argparse.ArgumentError as exc:
                    sub.error(str(exc))
                setattr(args, dest, value)
    # looked up now, so a rebound handler is the one called
    args.func = globals()["cmd_" + args.command.replace("-", "_")]
    return args


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
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
