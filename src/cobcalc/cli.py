"""Command-line interface: group-law expansions, Chern numbers of the
variety catalog, and the fixed-locus verifiers, all speaking JSON.

Every command writes one JSON object {"command", "payload", "checks",
"status"} (sorted keys, so output is byte-deterministic).  Exit codes:
0 for pass, 1 for a failed verification, 2 for usage or data errors
(among them an --out that cannot be written), 3 for an internal
self-check that failed (a fault of the program).

Each command imports only the layers it runs: `chern` the Chow models and
the characteristic classes, `fgl` the law store, `verify` and `catalog` the
verifiers, which bring in every layer.  The parser lists the theorem names
itself, so parsing and `--help` load no layer beyond `core_algebra`.
"""

from __future__ import annotations

import argparse
import json
import sys

from .core_algebra import is_int, partitions

DEFAULT_ORDER = 8

# the theorem names of `verify --theorem`, the keys of fixedpoint.VERIFIERS
# in sorted order; written out so that building the parser loads no verifier
_THEOREMS = ("additive", "all", "decomposable", "euler", "ks", "l2", "lmod2", "trivial-normal")


class UsageError(Exception):
    pass


def series_json(series):
    """Serialize a truncated series: exponents with monomial lists."""
    dom = series.dom
    terms = [
        {"exp": list(e), "coeff": dom.monomials(c)}
        for e, c in sorted(series.coeffs.items())
    ]
    return {"vars": list(series.vars), "order": series.order, "terms": terms}


def _alpha_key(alpha):
    return ",".join(str(a) for a in alpha) or "-"


def _parse_json(text, what):
    try:
        return json.loads(text)
    except ValueError as e:
        raise UsageError("invalid JSON for %s: %s" % (what, e))


def _read_input(path):
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as e:
        raise UsageError("cannot read %s: %s" % (path, e))


def _parse_alpha(text):
    obj = _parse_json(text, "--alpha")
    if not isinstance(obj, list) or not all(is_int(a) and a > 0 for a in obj):
        raise UsageError("--alpha must be a JSON list of positive integers")
    return tuple(obj)


def cmd_fgl(args):
    from .fgl import (
        additive_fgl, cha_fgl, chx_fgl, formal_mult, universal_fgl, universal_fgl_mod_p,
    )

    order = args.order
    if order < 2:
        raise UsageError("--order must be at least 2")
    if args.p is not None and args.law != "universal-mod-p":
        raise UsageError("--p applies only to --law universal-mod-p")
    if args.law == "universal":
        law = universal_fgl(order)
    elif args.law == "chx":
        law = chx_fgl(order)
    elif args.law == "cha":
        law = cha_fgl(order)
    elif args.law == "additive":
        law = additive_fgl(order)
    else:
        if args.p is None:
            raise UsageError("--law universal-mod-p needs --p")
        law = universal_fgl_mod_p(order, args.p)
    payload = {"law": args.law, "order": order, "series": series_json(law.series)}
    if args.law == "universal-mod-p":
        payload["p"] = args.p
    if args.mult is not None:
        payload["mult"] = {
            "a": args.mult,
            "series": series_json(formal_mult(law, args.mult)),
        }
    return {"command": "fgl", "payload": payload, "checks": [], "status": "pass"}, 0


def _load_spec(args):
    from .chow_models import VarietySpec

    if args.spec and args.infile:
        raise UsageError("give --spec or --in, not both")
    if args.spec:
        return VarietySpec.from_json(_parse_json(args.spec, "--spec"))
    if args.infile:
        return VarietySpec.from_json(_parse_json(_read_input(args.infile), "input"))
    raise UsageError("need --spec or --in")


def cmd_chern(args):
    from .chow_models import additive_chern_number, chern_number, euler_number, fundamental_class

    spec = _load_spec(args)
    n = spec.dim()
    payload = {"spec": spec.to_json(), "dim": n}
    if args.alpha:
        alpha = _parse_alpha(args.alpha)
        payload["alpha"] = list(alpha)
        payload["chern_number"] = chern_number(spec, alpha)
    else:
        payload["euler_number"] = euler_number(spec)
        payload["additive_chern_number"] = additive_chern_number(spec)
        cls = fundamental_class(spec, "L")
        payload["chern_numbers"] = {_alpha_key(a): cls.get(a, 0) for a in partitions(n)}
    return {"command": "chern", "payload": payload, "checks": [], "status": "pass"}, 0


def _load_action(args):
    from .chow_models import VarietySpec
    from .fixedpoint import BUILTIN_CATALOG, MuTwoActionModel, builtin_action

    sources = [s for s in (args.builtin, args.action, args.infile) if s]
    if len(sources) > 1:
        raise UsageError("give exactly one of --builtin, --action, --in")
    # an unknown builtin is named before its parameters are checked; a
    # builtin parameter that the chosen source does not read is refused
    # rather than ignored; the catalog lists each builtin's parameters
    if args.builtin and args.builtin not in [e["name"] for e in BUILTIN_CATALOG]:
        raise UsageError("unknown builtin action %r" % args.builtin)
    for param in ("n", "a", "spec"):
        readers = [e["name"] for e in BUILTIN_CATALOG if param in e["params"]]
        if getattr(args, param) is not None and args.builtin not in readers:
            raise UsageError("--%s applies only to --builtin %s" % (param, " or ".join(readers)))
    if args.builtin:
        spec = None
        if args.spec:
            spec = VarietySpec.from_json(_parse_json(args.spec, "--spec"))
        return builtin_action(args.builtin, n=args.n, a=args.a, spec=spec)
    if args.action:
        return MuTwoActionModel.from_json(_parse_json(args.action, "--action"))
    if args.infile:
        return MuTwoActionModel.from_json(_parse_json(_read_input(args.infile), "input"))
    raise UsageError("need one of --builtin, --action, --in")


# the verifier options of `verify`: flag dest -> (verifier keyword, the
# theorems whose verifiers read it, how its text becomes the value); a flag
# given to any other theorem is refused rather than ignored
_VERIFY_OPTIONS = {
    "max_m": ("max_m", ("l2", "lmod2", "all"), None),
    "alpha": ("alphas", ("ks",), lambda text: [_parse_alpha(text)]),
    "p": ("p", ("decomposable",), None),
}


def cmd_verify(args):
    from .fixedpoint import VERIFIERS

    kwargs = {}
    for dest, (keyword, theorems, parse) in _VERIFY_OPTIONS.items():
        value = getattr(args, dest)
        if value is None:
            continue
        if args.theorem not in theorems:
            raise UsageError("--%s applies only to --theorem %s"
                             % (dest.replace("_", "-"), " or ".join(theorems)))
        kwargs[keyword] = parse(value) if parse else value
    action = _load_action(args)
    report = VERIFIERS[args.theorem](action, **kwargs)
    obj = {
        "command": "verify",
        "payload": {
            "theorem": args.theorem,
            "name": action.name,
            "action": action.to_json(),
        },
        "checks": [c.to_json() for c in report.checks],
        "status": "pass" if report.ok else "fail",
    }
    return obj, 0 if report.ok else 1


def cmd_catalog(args):
    from .fixedpoint import BUILTIN_CATALOG

    entries = [e for e in BUILTIN_CATALOG if not args.builtin or e["name"] == args.builtin]
    if args.builtin and not entries:
        raise UsageError("unknown builtin %r" % args.builtin)
    payload = {"builtins": entries}
    return {"command": "catalog", "payload": payload, "checks": [], "status": "pass"}, 0


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--pretty", action="store_true", help="indent the JSON output")
    common.add_argument("--out", default="-", help="output file ('-' for stdout)")

    p = argparse.ArgumentParser(
        prog="cobcalc",
        description="exact computations with formal group laws, Chern numbers, "
        "and involution fixed-locus parity checks",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pf = sub.add_parser("fgl", parents=[common], help="expand a formal group law")
    pf.add_argument(
        "--law",
        choices=["universal", "chx", "cha", "additive", "universal-mod-p"],
        default="universal",
    )
    pf.add_argument("--order", type=int, default=DEFAULT_ORDER, help="truncation order (default %(default)s)")
    pf.add_argument("--p", type=int, help="prime for universal-mod-p")
    pf.add_argument("--mult", type=int, help="also expand the formal a-fold multiple")

    pc = sub.add_parser("chern", parents=[common], help="Chern numbers of a variety")
    pc.add_argument("--spec", help="variety descriptor as inline JSON")
    pc.add_argument("--in", dest="infile", help="read the descriptor from a file ('-' for stdin)")
    pc.add_argument("--alpha", help="partition as a JSON list; omit for all top numbers")

    pv = sub.add_parser("verify", parents=[common], help="run a fixed-locus verifier")
    pv.add_argument("--theorem", choices=_THEOREMS, required=True)
    pv.add_argument("--builtin", help="name of a builtin action (see catalog)")
    pv.add_argument("--n", type=int, help="builtin parameter n")
    pv.add_argument("--a", type=int, help="builtin parameter a")
    pv.add_argument("--spec", help="builtin parameter spec (inline JSON)")
    pv.add_argument("--action", help="action model as inline JSON")
    pv.add_argument("--in", dest="infile", help="read the action from a file ('-' for stdin)")
    pv.add_argument("--alpha", help="restrict the ks verifier to one partition")
    pv.add_argument("--max-m", type=int, help="largest twist to check")
    pv.add_argument("--p", type=int, help="prime for the decomposable verifier")

    pcat = sub.add_parser("catalog", parents=[common], help="list the builtin actions")
    pcat.add_argument("--builtin", help="show a single builtin")
    return p


def _emit(obj, args):
    """Write obj as JSON to --out and return True.  When --out cannot be
    opened, write an error naming it to stdout instead and return False."""
    def dump(o):
        return json.dumps(o, sort_keys=True, indent=2 if args.pretty else None) + "\n"

    if args.out == "-":
        sys.stdout.write(dump(obj))
        return True
    try:
        with open(args.out, "w") as fh:
            fh.write(dump(obj))
    except OSError as e:
        sys.stdout.write(dump({"command": args.command, "status": "error",
                               "error": "cannot write %s: %s" % (args.out, e.strerror)}))
        return False
    return True


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "fgl": cmd_fgl,
        "chern": cmd_chern,
        "verify": cmd_verify,
        "catalog": cmd_catalog,
    }
    try:
        obj, code = handlers[args.command](args)
    except (UsageError, ValueError) as e:
        obj, code = {"command": args.command, "error": str(e), "status": "error"}, 2
    except AssertionError as e:
        obj, code = {"command": args.command, "error": str(e), "status": "internal-error"}, 3
    return code if _emit(obj, args) else 2


if __name__ == "__main__":
    sys.exit(main())
