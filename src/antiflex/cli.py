"""Command-line front end: batch checks, constructions, bounded searches,
and the random-element oracle.

Exit codes: 0 = pass/success, 1 = check failed, 2 = input or usage error.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache

from .algebra import PreconditionError, ALGEBRA_KINDS, \
    FROM_ASSOCIATIVE_VARIANTS, PREALGEBRA_KINDS
from .coboundary import SPECIAL_CASES
from .harness import FormatError, SearchSpec, CHECK_COMMANDS, CONSTRUCTIONS, \
    SEARCH_TARGETS, dumps, grid_search, load_inputs, parse_scalar, \
    random_element_oracle, run_check, run_construction, save_file, \
    search_results
from .linalg import SingularMatrixError


def _cmd_check(args):
    inputs = load_inputs("check", args.command, args.files)
    report = run_check(args.command, inputs, kind=args.kind,
                       all_failures=args.all_witnesses)
    if args.json:
        print(dumps(report))
    else:
        line = "%s: %s" % (report["command"], report["verdict"])
        if report["witness"] is not None:
            line += "  [%s at %s]" % (report["witness"]["identity"],
                                      tuple(report["witness"]["indices"]))
        print(line)
    return 0 if report["verdict"] == "pass" else 1


def _cmd_construct(args):
    primary, secondary = run_construction(
        args.what, load_inputs("construct", args.what, args.files),
        args.case, args.variant)
    save_file(args.output, primary)
    print("wrote %s" % args.output)
    if args.secondary:
        if secondary is None:
            raise FormatError("construction %r has no secondary output"
                              % (args.what,))
        save_file(args.secondary, secondary)
        print("wrote %s" % args.secondary)
    elif secondary is not None:
        print("(secondary object available; pass --secondary to save it)")
    return 0


def _cmd_search(args):
    (subject,) = load_inputs("search", args.target, [args.subject])
    coeffs = tuple(parse_scalar(c, "--coeffs")
                   for c in args.coeffs.split(","))
    spec = SearchSpec(args.target, coeffs, args.bound)
    found, report = grid_search(spec, subject)
    if args.output:
        doc = {"report": report,
               "results": search_results(args.target, found)}
        with open(args.output, "w") as fh:
            fh.write(dumps(doc) + "\n")
    print(dumps(report))
    return 0


def _cmd_oracle(args):
    (subject,) = load_inputs("oracle", args.kind, [args.subject])
    report = random_element_oracle(args.kind, subject, args.trials, args.seed)
    print(dumps(report))
    return 0 if report["verdict"] == "pass" else 1


@cache
def build_parser():
    """The command-line parser, built once per process: parsing leaves it
    unchanged, as every parse fills a namespace of its own."""
    top = argparse.ArgumentParser(
        prog="antiflex",
        description="Exact checks and constructions for anti-flexible and "
                    "pre-anti-flexible algebras over the rationals.")
    sub = top.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("check", help="run an identity checker")
    p.add_argument("command", choices=CHECK_COMMANDS)
    p.add_argument("files", nargs="+")
    p.add_argument("--kind", default=None,
                   choices=ALGEBRA_KINDS + PREALGEBRA_KINDS,
                   help="identity family for algebra/pre-algebra checks")
    p.add_argument("--all-witnesses", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("construct", help="build a derived object")
    p.add_argument("what", choices=CONSTRUCTIONS)
    p.add_argument("files", nargs="+")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--secondary", default=None,
                   help="where to save the companion object (e.g. the "
                        "double carrying a constructed r)")
    p.add_argument("--variant", default="succ-left",
                   choices=FROM_ASSOCIATIVE_VARIANTS,
                   help="half-product placement for from-associative")
    p.add_argument("--case", default=None, choices=SPECIAL_CASES,
                   help="special-case comultiplications for a single-matrix "
                        "r-element")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("search", help="bounded exhaustive grid search")
    p.add_argument("target", choices=SEARCH_TARGETS)
    p.add_argument("subject")
    p.add_argument("--bound", type=int, default=3)
    p.add_argument("--coeffs", default="-1,0,1")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("oracle", help="random-element agreement oracle")
    p.add_argument("kind", choices=ALGEBRA_KINDS + PREALGEBRA_KINDS)
    p.add_argument("subject")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_oracle)
    return top


def _attached_coeffs(argv):
    """argv with `--coeffs LIST` written `--coeffs=LIST` where LIST starts
    with a minus sign, as in -1,0,1: argparse would take it for an
    option."""
    out = []
    for arg in argv:
        if out and out[-1] == "--coeffs" and arg[:1] == "-" \
                and arg[1:2].isdigit():
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None):
    args = build_parser().parse_args(_attached_coeffs(
        sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except (FormatError, PreconditionError, SingularMatrixError,
            OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
