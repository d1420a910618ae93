"""Command-line interface: group-law expansions, Chern numbers of the
variety catalog, and the fixed-locus verifiers, all speaking JSON.

Every command writes one JSON object {"command", "payload", "checks",
"status"} (sorted keys, so output is byte-deterministic).  Exit codes:
0 for pass, 1 for a failed verification, 2 for usage or data errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .chow_models import (
    VarietySpec,
    additive_chern_number,
    chern_number,
    euler_number,
    fundamental_class,
)
from .core_algebra import is_int, partitions
from .fgl import (
    additive_fgl,
    cha_fgl,
    chx_fgl,
    formal_mult,
    universal_fgl,
    universal_fgl_mod_p,
)
from .fixedpoint import BUILTIN_CATALOG, VERIFIERS, MuTwoActionModel, builtin_action

ORDER_ENV = "COBORDISM_ORDER"
DEFAULT_ORDER = 8


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


def _default_order(arg_order):
    if arg_order is not None:
        return arg_order
    env = os.environ.get(ORDER_ENV)
    if env:
        try:
            return int(env)
        except ValueError:
            raise UsageError("%s must be an integer, got %r" % (ORDER_ENV, env))
    return DEFAULT_ORDER


def cmd_fgl(args):
    order = _default_order(args.order)
    if order < 2:
        raise UsageError("--order must be at least 2")
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
    if args.p is not None:
        payload["p"] = args.p
    if args.mult is not None:
        payload["mult"] = {
            "a": args.mult,
            "series": series_json(formal_mult(law, args.mult)),
        }
    return {"command": "fgl", "payload": payload, "checks": [], "status": "pass"}, 0


def _load_spec(args):
    if args.spec and args.infile:
        raise UsageError("give --spec or --in, not both")
    if args.spec:
        return VarietySpec.from_json(_parse_json(args.spec, "--spec"))
    if args.infile:
        return VarietySpec.from_json(_parse_json(_read_input(args.infile), "input"))
    raise UsageError("need --spec or --in")


def cmd_chern(args):
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
    sources = [s for s in (args.builtin, args.action, args.infile) if s]
    if len(sources) > 1:
        raise UsageError("give exactly one of --builtin, --action, --in")
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


def cmd_verify(args):
    action = _load_action(args)
    fn = VERIFIERS[args.theorem]
    kwargs = {}
    if args.theorem in ("l2", "lmod2", "all") and args.max_m is not None:
        kwargs["max_m"] = args.max_m
    if args.theorem in ("lmod2", "all") and args.order is not None:
        kwargs["order"] = args.order
    if args.theorem == "ks" and args.alpha:
        kwargs["alphas"] = [_parse_alpha(args.alpha)]
    if args.theorem == "decomposable" and args.p is not None:
        kwargs["p"] = args.p
    report = fn(action, **kwargs)
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
    pf.add_argument("--order", type=int, help="truncation order (default %s or $%s)" % (DEFAULT_ORDER, ORDER_ENV))
    pf.add_argument("--p", type=int, help="prime for universal-mod-p")
    pf.add_argument("--mult", type=int, help="also expand the formal a-fold multiple")

    pc = sub.add_parser("chern", parents=[common], help="Chern numbers of a variety")
    pc.add_argument("--spec", help="variety descriptor as inline JSON")
    pc.add_argument("--in", dest="infile", help="read the descriptor from a file ('-' for stdin)")
    pc.add_argument("--alpha", help="partition as a JSON list; omit for all top numbers")

    pv = sub.add_parser("verify", parents=[common], help="run a fixed-locus verifier")
    pv.add_argument("--theorem", choices=sorted(VERIFIERS), required=True)
    pv.add_argument("--builtin", help="name of a builtin action (see catalog)")
    pv.add_argument("--n", type=int, help="builtin parameter n")
    pv.add_argument("--a", type=int, help="builtin parameter a")
    pv.add_argument("--spec", help="builtin parameter spec (inline JSON)")
    pv.add_argument("--action", help="action model as inline JSON")
    pv.add_argument("--in", dest="infile", help="read the action from a file ('-' for stdin)")
    pv.add_argument("--alpha", help="restrict the ks verifier to one partition")
    pv.add_argument("--order", type=int, help="series order for lmod2")
    pv.add_argument("--max-m", type=int, help="largest twist to check")
    pv.add_argument("--p", type=int, help="prime for the decomposable verifier")

    pcat = sub.add_parser("catalog", parents=[common], help="list the builtin actions")
    pcat.add_argument("--builtin", help="show a single builtin")
    return p


def _emit(obj, args):
    text = json.dumps(obj, sort_keys=True, indent=2 if args.pretty else None)
    if args.out == "-":
        sys.stdout.write(text + "\n")
    else:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")


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
        _emit({"command": args.command, "error": str(e), "status": "error"}, args)
        return 2
    _emit(obj, args)
    return code


if __name__ == "__main__":
    sys.exit(main())
