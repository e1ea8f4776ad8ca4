"""Command-line front end: run any verification, emit deterministic JSON.

Every subcommand prints a single JSON report to stdout and exits 0 when all
sub-checks pass, 1 otherwise.  Bad input exits 2 through argparse, with a
usage message and no report, before any check runs:

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

from . import REPORT_SCHEMA_VERSION, report_schema_version
from .centers import MAX_ZETA_N, jucys_murphy_elements, verify_zeta_surjective, zeta_on_dirac
from .cohomology import dirac_cohomology, verify_vogan
from .dirac import dirac_element, verify_identities
from .engine import AlgebraParams, check_pbw_consistency, check_relations_in_engine
from .modules import forced_n_constant, induced_module, steinberg_module
from .partitions import Partition, all_partitions, phi_maps
from .scalars import ZERO, Scalar

_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")
_INTEGER = re.compile(r"[+-]?[0-9]+")
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
    if not _INTEGER.fullmatch(text):
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


def _assemble(suite: str, params: dict, checks: list[dict], started: float) -> dict:
    status = "pass" if all(c.get("status") == "pass" for c in checks) else "fail"
    return {
        "suite": suite,
        "schema_version": REPORT_SCHEMA_VERSION,
        "params": params,
        "checks": checks,
        "status": status,
        "elapsed_ms": int((time.monotonic() - started) * 1000),
    }


def _check(name: str, status: bool, details) -> dict:
    return {"name": name, "status": "pass" if status else "fail", "details": details}


def _cmd_pbw(args) -> dict:
    started = time.monotonic()
    params = _params_from_args(args)
    rels = check_relations_in_engine(params)
    assoc = check_pbw_consistency(params, trials=args.trials, seed=args.seed)
    checks = [
        _check("relation_closure", rels["status"] == "pass", rels["failures"]),
        _check("associativity", assoc["status"] == "pass", {"trials": args.trials, "failures": assoc["failures"]}),
    ]
    return _assemble("pbw", _echo_params(params, seed=args.seed, trials=args.trials), checks, started)


def _cmd_dirac_square(args) -> dict:
    started = time.monotonic()
    params = _params_from_args(args)
    rep = verify_identities(params)
    checks = [
        _check(c["check"], c["status"] == "pass", {k: v for k, v in c.items() if k not in ("check", "status")})
        for c in rep["checks"]
    ]
    return _assemble("dirac-square", _echo_params(params), checks, started)


def _cmd_steinberg(args) -> dict:
    started = time.monotonic()
    base = _params_from_args(args)
    if base.type == "A":
        params = base
    else:
        params = AlgebraParams(
            base.type, base.n, base.k_long, k_short=base.k_short, N=forced_n_constant(base)
        )
    module = steinberg_module(params)
    rels = module.relations
    d_zero = module.act(dirac_element(params)).is_zero()
    checks = [
        _check("module_relations", rels["status"] == "pass", rels["failures"]),
        _check("dirac_vanishes", d_zero, {"dim": module.dim}),
    ]
    return _assemble("steinberg", _echo_params(params), checks, started)


def _cmd_cohomology(args) -> dict:
    started = time.monotonic()
    lam = args.lam
    if lam.has_distinct_parts() and args.k:
        rep = verify_vogan(lam, args.k)
        checks = [_check(name, ok, None) for name, ok in rep["checks"].items()]
        details = {k: v for k, v in rep.items() if k not in ("checks", "status", "check")}
    else:
        module = induced_module(lam, args.k)
        cohom = dirac_cohomology(module).to_json()
        checks = [_check("pipeline", cohom["status"] in ("pass",), None)]
        details = cohom
    out = _assemble(
        "cohomology", {"lambda": str(lam), "k": args.k.compact()}, checks, started
    )
    out["result"] = details
    return out


def _cmd_phi(args) -> dict:
    started = time.monotonic()
    rows = []
    ok = True
    for lam in all_partitions(args.n):
        try:
            phi1, n1, n2 = phi_maps(lam)
            rows.append({"lambda": str(lam), "phi1": list(phi1), "norm_sq": n1})
        except AssertionError as exc:  # pragma: no cover - the identity holds
            ok = False
            rows.append({"lambda": str(lam), "error": str(exc)})
    checks = [_check("norm_identity", ok, rows)]
    return _assemble("phi", {"n": args.n}, checks, started)


def _cmd_center(args) -> dict:
    started = time.monotonic()
    jms = jucys_murphy_elements(args.n, args.k)
    zd = zeta_on_dirac(jms)
    surj = verify_zeta_surjective(jms, args.max_r)
    checks = [
        _check("zeta_dirac_zero", zd.is_zero(), None),
        _check("zeta_surjective", surj["status"] == "pass",
               {"rank": surj["rank"], "center_dim": surj["center_dim"]}),
    ]
    return _assemble(
        "center", {"n": args.n, "k": args.k.compact(), "max_r": args.max_r}, checks, started
    )


def _cmd_all(args) -> dict:
    started = time.monotonic()
    n, k = args.n, args.k
    checks = []

    def fold(report: dict, prefix: str):
        for c in report["checks"]:
            checks.append(
                {"name": f"{prefix}:{c['name']}", "status": c["status"], "details": c["details"]}
            )

    ns = argparse.Namespace
    fold(_cmd_pbw(ns(type="A", n=n, k=k, ks=None, N=None, trials=40, seed=args.seed)), f"pbw-A{n}")
    fold(_cmd_dirac_square(ns(type="A", n=n, k=k, ks=None, N=None)), f"dirac-A{n}")
    nb = min(n, 2)
    fold(_cmd_dirac_square(ns(type="B", n=nb, k=k, ks=k, N=None)), f"dirac-B{nb}")
    nd = min(n, 3)
    fold(_cmd_dirac_square(ns(type="D", n=nd, k=k, ks=None, N=None)), f"dirac-D{nd}")
    fold(_cmd_steinberg(ns(type="A", n=n, k=k, ks=None, N=None)), f"steinberg-A{n}")
    fold(_cmd_steinberg(ns(type="B", n=nd, k=k, ks=k, N=None)), f"steinberg-B{nd}")
    fold(_cmd_steinberg(ns(type="D", n=nd, k=k, ks=None, N=None)), f"steinberg-D{nd}")
    for lam in all_partitions(n):
        if lam.has_distinct_parts():
            fold(_cmd_cohomology(ns(lam=lam, k=k)), f"cohomology-{lam}")
    fold(_cmd_phi(ns(n=n)), f"phi-{n}")
    if 2 <= n <= MAX_ZETA_N:
        fold(_cmd_center(ns(n=n, k=k, max_r=n)), f"center-{n}")
    return _assemble("all", {"n": n, "k": k.compact(), "seed": args.seed}, checks, started)


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
    if getattr(args, "max_r", 0) is None:
        args.max_r = args.n
    report = args.func(args)
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
