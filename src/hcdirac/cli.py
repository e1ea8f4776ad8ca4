"""Command-line front end: run any verification, emit deterministic JSON.

Every subcommand prints a single JSON report to stdout and exits 0 when all
sub-checks pass, 1 otherwise.  `main` is the one place a report is built: a
subcommand returns (params, checks, extra), and `main` times it and writes
suite, schema_version, params, checks, status and elapsed_ms, then extra
(the `result` of cohomology).  A failed certificate, such as a module
given to `dirac_cohomology` whose relations do not hold, raises
AssertionError; `main` turns it into a report with empty params and one
failed check, "certificate", whose details are the message, and exits 1
with no traceback.  `steinberg` reports its module's relations itself, as
the check "module_relations".  `all` concatenates the check lists of the
other subcommands, each name prefixed by its sub-suite.

Bad input exits 2 through argparse, with a usage message and no report,
before any check runs:

- a rational flag (--k, --ks, --N) that is not "p/q" or an integer, or has
  a zero denominator; decimals and exponents such as 0.5 or 1e0 are refused,
  and sqrt2-valued parameters are not accepted on the command line;
- an out-of-range integer: --n < 1 everywhere, center --n outside 2..6, and
  --trials or --max-r < 1, so that no run passes on an empty check list;
- a --lambda that is not a comma-separated non-increasing list of positive
  integers;
- an integer flag or --lambda part that is not ASCII digits after an
  optional sign, such as 1_0 or a non-ASCII digit;
- a flag the chosen type does not take (--ks on types A and D, --N on type
  A), and a steinberg --N of type B or D that differs from the forced value
  2(n-1)k^2 + sqrt2 k ks.

A negative rational may follow its flag after a space or after "=": --k -1/2
and --k=-1/2 give the same report.  argparse alone would read "-1/2" as a
flag, since it takes only decimal-looking strings for negative numbers, so
`main` first joins a rational flag and a following word that starts with "-"
into the "=" form; a word that is not a rational then still exits 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import time
from fractions import Fraction

from . import REPORT_SCHEMA_VERSION
from .centers import MAX_ZETA_N, jucys_murphy_elements, verify_zeta_surjective, zeta_on_dirac
from .cohomology import acts_by_zero, dirac_cohomology, verify_vogan
from .dirac import dirac_element, verify_identities
from .engine import AlgebraParams, check_pbw_consistency, check_relations_in_engine
from .modules import forced_n_constant, induced_module, steinberg_module
from .partitions import ASCII_INTEGER, Partition, all_partitions, phi_maps
from .scalars import ZERO, Scalar

_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")
_RATIONAL_FLAGS = ("--k", "--ks", "--N")


def _scalar_flag(text: str) -> Scalar:
    # Fraction alone would also take "0.5", "1e0" and non-ASCII digits.
    if not _RATIONAL.fullmatch(text):
        raise argparse.ArgumentTypeError(f"not a rational p/q: {text!r}")
    try:
        return Scalar(Fraction(text))
    except ZeroDivisionError as exc:
        raise argparse.ArgumentTypeError(f"zero denominator: {text!r}") from exc


def _join_negative_values(argv: list[str]) -> list[str]:
    """argv with each rational flag and a following "-..." word joined by "="."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _RATIONAL_FLAGS and arg.startswith("-"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _integer(text: str) -> int:
    # int alone would also take "1_0", " 3" and non-ASCII digits.
    if not ASCII_INTEGER.fullmatch(text):
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    return int(text)


def _int_flag(low: int, high: int | None = None):
    """An argparse type: an int in [low, high]."""

    def parse(text: str) -> int:
        value = _integer(text)
        if value < low or (high is not None and value > high):
            bound = f"at least {low}" if high is None else f"in {low}..{high}"
            raise argparse.ArgumentTypeError(f"must be {bound}: {value}")
        return value

    return parse


def _partition_flag(text: str) -> Partition:
    try:
        return Partition.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a partition {text!r}: {exc}") from exc


def _flag_conflict(args) -> str | None:
    """Why the algebra flags do not fit the chosen type, or None if they do."""
    if getattr(args, "type", None) is None:
        return None
    unused = [
        flag
        for flag, value, types in (("--ks", args.ks, "B"), ("--N", args.N, "BD"))
        if value is not None and args.type not in types
    ]
    if unused:
        return f"type {args.type} takes no {' or '.join(unused)}"
    if args.command == "steinberg" and args.type != "A" and args.N is not None:
        forced = forced_n_constant(_params_from_args(args))
        if args.N != forced:
            return (
                f"the type {args.type} Steinberg module forces --N {forced.compact()}, "
                f"got {args.N.compact()}"
            )
    return None


def _params_from_args(args) -> AlgebraParams:
    kwargs = {}
    if args.type in ("B", "D"):
        kwargs["N"] = args.N if args.N is not None else ZERO
    if args.type == "B":
        kwargs["k_short"] = args.ks if args.ks is not None else ZERO
    return AlgebraParams(args.type, args.n, args.k, **kwargs)


def _add_algebra_flags(sub, with_trials=False):
    sub.add_argument("--type", required=True, choices=("A", "B", "D"))
    sub.add_argument("--n", required=True, type=_int_flag(1))
    sub.add_argument("--k", required=True, type=_scalar_flag)
    sub.add_argument("--ks", type=_scalar_flag, default=None)
    sub.add_argument("--N", type=_scalar_flag, default=None)
    if with_trials:
        sub.add_argument("--trials", type=_int_flag(1), default=100)
        sub.add_argument("--seed", type=_integer, default=0)


def _check(name: str, status: bool, details) -> dict:
    return {"name": name, "status": "pass" if status else "fail", "details": details}


def _cmd_pbw(args):
    params = _params_from_args(args)
    rels = check_relations_in_engine(params)
    assoc = check_pbw_consistency(params, trials=args.trials, seed=args.seed)
    checks = [
        _check("relation_closure", not rels, rels),
        _check("associativity", not assoc, {"trials": args.trials, "failures": assoc}),
    ]
    return _echo_params(params, seed=args.seed, trials=args.trials), checks, {}


def _cmd_dirac_square(args):
    params = _params_from_args(args)
    return _echo_params(params), [_check(*check) for check in verify_identities(params)], {}


def _cmd_steinberg(args):
    base = _params_from_args(args)
    if base.type == "A":
        params = base
    else:
        params = AlgebraParams(
            base.type, base.n, base.k_long, k_short=base.k_short, N=forced_n_constant(base)
        )
    # No constructor checks relations: module_relations reports the check,
    # failing with the names of the failing relations.
    module = steinberg_module(params)
    checks = [
        _check("module_relations", module.relations == [], module.relations),
        _check("dirac_vanishes", acts_by_zero(module, dirac_element(params)), {"dim": module.dim}),
    ]
    return _echo_params(params), checks, {}


def _cmd_cohomology(args):
    lam = args.lam
    if lam.has_distinct_parts() and args.k:
        vogan, result = verify_vogan(lam, args.k)
        checks = [_check(name, ok, None) for name, ok in vogan.items()]
    else:
        result = dirac_cohomology(induced_module(lam, args.k)).to_json()
        checks = [_check("pipeline", result["status"] == "pass", None)]
    return {"lambda": str(lam), "k": args.k.compact()}, checks, {"result": result}


def _cmd_phi(args):
    # phi_maps raises unless the norm identity holds, so every row passed it.
    rows = []
    for lam in all_partitions(args.n):
        phi1, norm_sq, _ = phi_maps(lam)
        rows.append({"lambda": str(lam), "phi1": list(phi1), "norm_sq": norm_sq})
    return {"n": args.n}, [_check("norm_identity", True, rows)], {}


def _cmd_center(args):
    jms = jucys_murphy_elements(args.n, args.k)
    dirac_zero = zeta_on_dirac(jms).is_zero()
    max_r = args.max_r or args.n
    surjective, sizes = verify_zeta_surjective(jms, max_r)
    checks = [_check("zeta_dirac_zero", dirac_zero, None), _check("zeta_surjective", surjective, sizes)]
    return {"n": args.n, "k": args.k.compact(), "max_r": max_r}, checks, {}


def _cmd_all(args):
    """The checks of every suite at one n and k, each name prefixed by its sub-suite."""
    n, k = args.n, args.k
    checks = []

    def run(prefix: str, cmd, **flags) -> None:
        sub_checks = cmd(argparse.Namespace(**flags))[1]
        checks.extend(dict(c, name=f"{prefix}:{c['name']}") for c in sub_checks)

    run(f"pbw-A{n}", _cmd_pbw, type="A", n=n, k=k, ks=None, N=None, trials=40, seed=args.seed)
    run(f"dirac-A{n}", _cmd_dirac_square, type="A", n=n, k=k, ks=None, N=None)
    nb, nd = min(n, 2), min(n, 3)
    run(f"dirac-B{nb}", _cmd_dirac_square, type="B", n=nb, k=k, ks=k, N=None)
    run(f"dirac-D{nd}", _cmd_dirac_square, type="D", n=nd, k=k, ks=None, N=None)
    run(f"steinberg-A{n}", _cmd_steinberg, type="A", n=n, k=k, ks=None, N=None)
    run(f"steinberg-B{nd}", _cmd_steinberg, type="B", n=nd, k=k, ks=k, N=None)
    run(f"steinberg-D{nd}", _cmd_steinberg, type="D", n=nd, k=k, ks=None, N=None)
    for lam in all_partitions(n):
        if lam.has_distinct_parts():
            run(f"cohomology-{lam}", _cmd_cohomology, lam=lam, k=k)
    run(f"phi-{n}", _cmd_phi, n=n)
    if 2 <= n <= MAX_ZETA_N:
        run(f"center-{n}", _cmd_center, n=n, k=k, max_r=n)
    return {"n": n, "k": k.compact(), "seed": args.seed}, checks, {}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared by every later `main`.

    parse_args keeps no state between calls (each gets a fresh Namespace),
    so one parser serves any number of runs in a process.
    """
    parser = argparse.ArgumentParser(
        prog="hcdirac", description="Exact Hecke-Clifford / Dirac verification harness"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pbw", help="relation closure and associativity")
    _add_algebra_flags(p, with_trials=True)
    p.set_defaults(func=_cmd_pbw)

    p = sub.add_parser("dirac-square", help="D^2 and commutation identities")
    _add_algebra_flags(p)
    p.set_defaults(func=_cmd_dirac_square)

    p = sub.add_parser("steinberg", help="Steinberg module relations and D-vanishing")
    _add_algebra_flags(p)
    p.set_defaults(func=_cmd_steinberg)

    p = sub.add_parser("cohomology", help="Dirac cohomology of an induced module")
    p.add_argument("--lambda", dest="lam", required=True, type=_partition_flag)
    p.add_argument("--k", required=True, type=_scalar_flag)
    p.set_defaults(func=_cmd_cohomology)

    p = sub.add_parser("phi", help="partition weight maps and the norm identity")
    p.add_argument("--n", required=True, type=_int_flag(1))
    p.set_defaults(func=_cmd_phi)

    p = sub.add_parser("center", help="Jucys-Murphy center map checks")
    # verify_zeta_surjective is sized for 2 <= n <= MAX_ZETA_N
    p.add_argument("--n", required=True, type=_int_flag(2, MAX_ZETA_N))
    p.add_argument("--k", required=True, type=_scalar_flag)
    p.add_argument("--max-r", dest="max_r", type=_int_flag(1), default=None)
    p.set_defaults(func=_cmd_center)

    p = sub.add_parser("all", help="full verification suite")
    p.add_argument("--n", required=True, type=_int_flag(1))
    p.add_argument("--k", required=True, type=_scalar_flag)
    p.add_argument("--seed", type=_integer, default=0)
    p.set_defaults(func=_cmd_all)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    conflict = _flag_conflict(args)
    if conflict is not None:
        parser.error(conflict)
    started = time.monotonic()
    try:
        params, checks, extra = args.func(args)
    except AssertionError as exc:  # a certificate failed: report it, with no traceback
        params, checks, extra = {}, [_check("certificate", False, str(exc))], {}
    report = {
        "suite": args.command,
        "schema_version": REPORT_SCHEMA_VERSION,
        "params": params,
        "checks": checks,
        "status": "pass" if all(c["status"] == "pass" for c in checks) else "fail",
        "elapsed_ms": int((time.monotonic() - started) * 1000),
        **extra,
    }
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0 if report["status"] == "pass" else 1


def _echo_params(params: AlgebraParams, **extra) -> dict:
    out = {
        "type": params.type,
        "n": params.n,
        "k": params.k_long.compact(),
        "ks": params.k_short.compact(),
        "N": params.N.compact(),
    }
    out.update(extra)
    return out


if __name__ == "__main__":
    sys.exit(main())
