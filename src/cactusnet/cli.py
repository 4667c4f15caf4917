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
traceback).  A malformed command line raises ``SystemExit(2)`` after a
usage message on stderr, and ``-h`` raises ``SystemExit(0)`` after the
help on stdout, as argparse would.
"""

import sys
from types import SimpleNamespace

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


# command -> (takes a network file, further arguments).  An argument is
# its flags and the argparse keywords it uses: action="store_true", dest,
# required, choices, type and help.  The handler of "kernel-dim" is
# cmd_kernel_dim; it is looked up when the arguments are parsed, so a
# rebound handler is the one called.
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
_HELP = _arg("-h", "--help", action="help",
             help="show this help message and exit")
_NETWORK = _arg("network", help="path to a network file")
_COMPACT = _arg("--compact", action="store_true", help="single-line output")


def _arguments(name):
    """The arguments of command ``name`` in the order argparse would
    list them: help, the network file, ``--compact``, then the table's."""
    network_arg, extra = COMMANDS[name]
    return (_HELP, *((_NETWORK,) if network_arg else ()), _COMPACT, *extra)


def _dest(flags, kw):
    return kw.get("dest") or flags[-1].lstrip("-").replace("-", "_")


def _label(flags, kw):
    """An argument as usage and help show it: ``--from {a,b}``, ``--n N``."""
    if flags[0][0] != "-" or kw.get("action"):
        return flags[0]
    choices = kw.get("choices")
    metavar = "{" + ",".join(choices) + "}" if choices else _dest(flags, kw).upper()
    return f"{flags[0]} {metavar}"


def _usage(name=None) -> str:
    if name is None:
        return "usage: cactusnet [-h] {" + ",".join(COMMANDS) + "} ..."
    words, positional = ["usage: cactusnet", name], []
    for flags, kw in _arguments(name):
        if flags[0][0] != "-":
            positional.append(flags[0])
        else:
            label = _label(flags, kw)
            words.append(label if kw.get("required") else f"[{label}]")
    return " ".join(words + positional)


def _help(name=None):
    """Print the usage and arguments of ``name``, or every command's usage,
    to stdout and exit 0."""
    lines = [_usage(name), ""]
    if name is None:
        lines += [DESCRIPTION, "", "commands:"]
        lines += ["  " + _usage(c).removeprefix("usage: ") for c in COMMANDS]
    else:
        lines.append("arguments:")
        for flags, kw in sorted(_arguments(name), key=lambda a: a[0][0][0] == "-"):
            label = ", ".join(flags) if flags is _HELP[0] else _label(flags, kw)
            lines.append(f"  {label:<30} {kw.get('help', '')}".rstrip())
    print("\n".join(lines))
    raise SystemExit(0)


def _fail(name, message):
    """Report a malformed command line as argparse does: the usage and one
    ``error:`` line on stderr, then exit 2."""
    prog = "cactusnet" if name is None else "cactusnet " + name
    sys.stderr.write(f"{_usage(name)}\n{prog}: error: {message}\n")
    raise SystemExit(2)


def _help_option(name, flag, value):
    """Act on -h or --help given as ``flag`` with an explicit ``value``
    (None if there is none); ``-hh`` is ``-h -h``."""
    if flag == "-h" and value:
        value = value.lstrip("h") or None
    if value is None:
        _help(name)
    _fail(name, f"argument -h/--help: ignored explicit argument {value!r}")


def _negative_number(token: str) -> bool:
    whole, dot, frac = token[1:].partition(".")
    if not dot:
        return whole.isdecimal()
    return frac.isdecimal() and (not whole or whole.isdecimal())


def _option(token, options, name):
    """How argparse reads ``token`` given the flags in ``options``: None for
    a value, ``(flag, explicit value or None)`` for an option, with a flag
    of None for an unknown option.  A flag may be abbreviated to a unique
    prefix; an ambiguous prefix is an error."""
    if token[:1] != "-":
        return None
    if token in options:
        return token, None
    if len(token) == 1:
        return None
    head, eq, value = token.partition("=")
    if eq and head in options:
        return head, value
    if token[1] == "-":
        matches = [(f, value if eq else None) for f in options if f.startswith(head)]
    else:  # only -h is a one-dash flag; -hX gives it the value X
        matches = [("-h", token[2:])] if token[:2] == "-h" else []
    if len(matches) > 1:
        _fail(name, f"ambiguous option: {token} could match "
              + ", ".join(f for f, _ in matches))
    if matches:
        return matches[0]
    if _negative_number(token) or " " in token:
        return None
    return None, None


def parse_args(argv):
    """Parse a command line against ``COMMANDS`` in one pass, the way an
    argparse parser with one sub-parser per command does.

    Options and positionals may interleave, ``--opt=value`` and unique
    prefixes of a flag are accepted, ``--`` ends the options, and an
    option given twice keeps its last value.  ``-h`` prints help and
    exits 0; a malformed command line exits 2 (see ``_fail``).  Returns a
    namespace holding ``command``, its handler ``func`` and one attribute
    per argument of the command.
    """
    top, extras, i = {f: _HELP for f in _HELP[0]}, [], 0
    while i < len(argv) and argv[i] != "--":
        kind = _option(argv[i], top, None)
        if kind is None:
            break
        if kind[0] is not None:  # before the command only -h is known
            _help_option(None, *kind)
        extras.append(argv[i])
        i += 1
    if argv[i:] in ([], ["--"]):
        _fail(None, "the following arguments are required: command")
    name = argv[i]
    if name not in COMMANDS:
        _fail(None, f"argument command: invalid choice: {name!r} (choose from "
              + ", ".join(map(repr, COMMANDS)) + ")")
    args = _parse_command(name, argv[i + 1:], extras)
    if extras:
        _fail(None, "unrecognized arguments: " + " ".join(extras))
    return args


def _parse_command(name, argv, extras):
    """The namespace of ``name`` from its arguments; unknown options and
    surplus positionals are appended to ``extras``."""
    arguments = _arguments(name)
    options = {f: (flags, kw) for flags, kw in arguments
               for f in flags if f[0] == "-"}
    free = [_dest(*a) for a in arguments if a[0][0][0] != "-"]
    values = {"command": name}
    for flags, kw in arguments:
        if flags[0][0] == "-" and flags is not _HELP[0]:
            values[_dest(flags, kw)] = False if kw.get("action") else None
    # every token is read before any is used, so an ambiguous prefix
    # fails even after -h
    kinds = []
    for k, token in enumerate(argv):
        if token == "--":
            kinds += ["--"] + [None] * (len(argv) - k - 1)
            break
        kinds.append(_option(token, options, name))
    seen, run, stray, i = set(), 0, False, 0
    while i < len(argv):
        token, kind = argv[i], kinds[i]
        i += 1
        if kind is None:  # a positional, or a surplus one
            run += 1
            if free:
                values[free.pop(0)] = token
            else:
                extras.append(token)
                stray = True
        elif kind == "--":
            # argparse drops "--" only next to a positional it fills
            if stray or not (run or (free and i < len(argv))):
                extras.append(token)
        elif kind[0] is None:
            extras.append(token)
            run, stray = 0, False
        else:
            flag, value = kind
            flags, kw = options[flag]
            label = "/".join(flags)
            if flags is _HELP[0]:
                _help_option(name, flag, value)
            if kw.get("action"):
                if value is not None:
                    _fail(name, f"argument {label}: ignored explicit argument {value!r}")
                value = True
            elif value is None:
                if i == len(argv) or kinds[i] is not None:
                    _fail(name, f"argument {label}: expected one argument")
                value, i = argv[i], i + 1
            if "type" in kw:
                try:
                    value = kw["type"](value)
                except (TypeError, ValueError):
                    _fail(name, f"argument {label}: invalid "
                          f"{kw['type'].__name__} value: {value!r}")
            choices = kw.get("choices")
            if choices and value not in choices:
                _fail(name, f"argument {label}: invalid choice: {value!r} "
                      "(choose from " + ", ".join(map(repr, choices)) + ")")
            values[_dest(flags, kw)] = value
            seen.add(flags)
            run, stray = 0, False
    missing = ["/".join(flags) if flags[0][0] == "-" else _dest(flags, kw)
               for flags, kw in arguments if _dest(flags, kw) in free
               or (kw.get("required") and flags not in seen)]
    if missing:
        _fail(name, "the following arguments are required: " + ", ".join(missing))
    values["func"] = globals()["cmd_" + name.replace("-", "_")]
    return SimpleNamespace(**values)


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
