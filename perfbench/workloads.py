"""Workload definitions, the k pool, and the correctness gate.

A workload is a fixed, ordered list of CLI cases.  The benchmark seed picks
the deformation parameter k from K_POOL.  Everything pinned here is an
answer that does not depend on the seed.
"""

from __future__ import annotations

import hashlib
import json
from math import factorial

# Nonzero rationals of small height.  Every entry passes every case of every
# workload at the parent commit (see perfbench/README.md, "k pool").
K_POOL = ("1", "-1", "2", "-2", "1/2", "-1/2", "3", "-3", "2/3", "3/2")

PBW_TRIALS = 50
TINY_PBW_TRIALS = 2
# The random triples of the associativity check use this fixed seed, not the
# benchmark seed: the work of 50 trials varies 2.6-fold between triple seeds
# 0-9 (256k to 671k Scalar products), which would swamp every other change.
PBW_TRIPLES_SEED = 5

# Seed-independent answers of the Vogan check, per distinct-part lambda:
# dim H_D and |lambda|^2 of phi(lambda) (the report's "norms_sq").
VOGAN_PINS = {
    "3": {"dim_HD": 8, "norms_sq": 8},
    "2,1": {"dim_HD": 8, "norms_sq": 2},
    "4": {"dim_HD": 16, "norms_sq": 20},
    "3,1": {"dim_HD": 32, "norms_sq": 8},
}

VOGAN_CHECKS = ["hd_nonzero", "ker_equals_ker_sq", "ker_cap_im_zero", "omega_h_scalar",
                "single_eigenvalue", "eigenvalue_matches_norm", "eigenvalue_matches_chi",
                "label_recovers_lambda"]

STEINBERG_DIMS = {("A", 3): 8, ("A", 5): 32, ("B", 4): 16, ("D", 4): 16}


def k_for_seed(seed: int) -> str:
    return K_POOL[seed % len(K_POOL)]


def induced_dim(lam: str) -> int:
    """dim X_lambda = |S_n / S_lambda| * 2^n."""
    parts = [int(p) for p in lam.split(",")]
    n = sum(parts)
    cosets = factorial(n)
    for p in parts:
        cosets //= factorial(p)
    return cosets << n


def _vogan_case(lam: str, k: str) -> dict:
    pins = dict(VOGAN_PINS[lam], checks=VOGAN_CHECKS, module_dims=[induced_dim(lam)])
    return {"id": f"cohomology:{lam}", "argv": ["cohomology", f"--lambda={lam}", f"--k={k}"],
            "pins": pins}


def _steinberg_case(typ: str, n: int, k: str) -> dict:
    argv = ["steinberg", f"--type={typ}", f"--n={n}", f"--k={k}"]
    if typ == "B":
        argv.append(f"--ks={k}")
    dim = STEINBERG_DIMS[(typ, n)]
    return {"id": f"steinberg:{typ}{n}", "argv": argv,
            "pins": {"checks": ["module_relations", "dirac_vanishes"], "dim": dim,
                     "module_dims": [dim]}}


def _algebra_cases(k: str, trials: int) -> list[dict]:
    def square(typ: str, n: int, extra: list[str], n_correction: str) -> dict:
        names = (["d_squared"] + [f"w_comm_s{i}" for i in range(1, n + 1)]
                 + [f"c{i}_anticomm" for i in range(1, n + 1)]
                 + ["root_sum_sq_long", "root_sum_sq_short", "root_sum_sq_mixed"])
        return {"id": f"dirac-square:{typ}{n}",
                "argv": ["dirac-square", f"--type={typ}", f"--n={n}", f"--k={k}", *extra],
                "pins": {"checks": names, "n_correction": n_correction}}

    return [
        {"id": "pbw:B3",
         "argv": ["pbw", "--type=B", "--n=3", f"--k={k}", "--ks=1", "--N=1",
                  f"--trials={trials}", f"--seed={PBW_TRIPLES_SEED}"],
         "pins": {"checks": ["relation_closure", "associativity"]}},
        square("B", 3, ["--ks=1", "--N=1"], "3"),
        square("D", 4, ["--N=1"], "6"),
        {"id": "center:4", "argv": ["center", "--n=4", f"--k={k}"],
         "pins": {"checks": ["zeta_dirac_zero", "zeta_surjective"], "rank": 2, "center_dim": 2}},
    ]


def cases(workload: str, seed: int, tiny: bool = False) -> list[dict]:
    """The ordered cases of one workload; `tiny` gives the test-sized variant."""
    k = k_for_seed(seed)
    if workload == "vogan":
        lams = ["2,1"] if tiny else ["3", "2,1", "4", "3,1"]
        return [_vogan_case(lam, k) for lam in lams]
    if workload == "steinberg":
        shapes = [("A", 3)] if tiny else [("A", 5), ("B", 4), ("D", 4)]
        return [_steinberg_case(typ, n, k) for typ, n in shapes]
    if workload == "algebra":
        return _algebra_cases(k, TINY_PBW_TRIALS if tiny else PBW_TRIALS)
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("vogan", "steinberg", "algebra")


def digest(report: dict) -> str:
    """sha256 of the report without its timing field, for byte-for-byte comparison."""
    stable = {key: value for key, value in report.items() if key != "elapsed_ms"}
    text = json.dumps(stable, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def answers(report: dict, module_dims: list[int]) -> dict:
    """The seed-independent answers of one report, keyed like the pins."""
    checks = report.get("checks", [])
    details = {c["name"]: c.get("details") for c in checks}
    out = {"checks": [c["name"] for c in checks], "module_dims": module_dims}
    suite = report.get("suite")
    if suite == "cohomology":
        result = report.get("result", {})
        out["dim_HD"] = result.get("dim_HD")
        out["norms_sq"] = result.get("norms_sq")
    elif suite == "steinberg":
        out["dim"] = (details.get("dirac_vanishes") or {}).get("dim")
    elif suite == "dirac-square":
        out["n_correction"] = (details.get("d_squared") or {}).get("n_correction")
    elif suite == "center":
        surj = details.get("zeta_surjective") or {}
        out["rank"], out["center_dim"] = surj.get("rank"), surj.get("center_dim")
    return out


def case_problems(case: dict, exit_code: int, report: dict | None, module_dims: list[int]) -> list[str]:
    """Why a finished case counts as failed; empty when it passed."""
    if report is None:
        return [f"no report (exit code {exit_code})"]
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    if report.get("status") != "pass":
        problems.append(f"status {report.get('status')!r}")
    checks = report.get("checks") or []
    if not checks:
        problems.append("empty check list")
    problems += [f"check {c.get('name')} is {c.get('status')!r}"
                 for c in checks if c.get("status") != "pass"]
    got = answers(report, module_dims)
    problems += [f"{key} = {got.get(key)!r}, pinned {want!r}"
                 for key, want in case["pins"].items() if got.get(key) != want]
    return problems
