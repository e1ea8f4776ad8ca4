"""Command-line harness: exit codes, JSON schema, determinism."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import pytest

import hcdirac
from hcdirac import centers, cohomology, modules
from hcdirac.cli import build_parser, main
from hcdirac.dirac import dirac_element
from hcdirac.engine import AlgebraParams
from hcdirac.linalg import Subspace
from hcdirac.modules import ModuleRep
from hcdirac.scalars import ONE


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_schema_version():
    assert hcdirac.REPORT_SCHEMA_VERSION == "1.0.0"


def test_pbw_command(capsys):
    code, report = run_cli(
        capsys, ["pbw", "--type", "A", "--n", "2", "--k", "1", "--trials", "10", "--seed", "7"]
    )
    assert code == 0
    assert report["suite"] == "pbw"
    assert report["schema_version"] == "1.0.0"
    assert {"name", "status", "details"} <= set(report["checks"][0])
    assert isinstance(report["elapsed_ms"], int)


def test_pbw_accepts_rational_and_free_n(capsys):
    code, report = run_cli(
        capsys,
        ["pbw", "--type", "B", "--n", "2", "--k", "1/2", "--ks", "1", "--N", "3",
         "--trials", "5", "--seed", "1"],
    )
    assert code == 0
    assert report["params"]["k"] == "1/2"
    assert report["params"]["N"] == "3"


def test_dirac_square_trivial_rank_one(capsys):
    code, report = run_cli(capsys, ["dirac-square", "--type", "A", "--n", "1", "--k", "1"])
    assert code == 0
    assert report["status"] == "pass"


def test_steinberg_forces_n(capsys):
    code, report = run_cli(
        capsys, ["steinberg", "--type", "B", "--n", "2", "--k", "1", "--ks", "1"]
    )
    assert code == 0
    names = [c["name"] for c in report["checks"]]
    assert names == ["module_relations", "dirac_vanishes"]
    # the forced value 2k^2 + sqrt2 k ks is echoed in the params
    assert report["params"]["N"] == "2+1*r2"


def test_cohomology_command(capsys):
    code, report = run_cli(capsys, ["cohomology", "--lambda", "2,1", "--k", "1"])
    assert code == 0
    assert report["result"]["dim_HD"] == 8
    assert report["result"]["omega_seg_spectrum"] == [["2", 8]]


def test_cohomology_non_distinct_runs(capsys):
    code, report = run_cli(capsys, ["cohomology", "--lambda", "1,1", "--k", "1"])
    assert code == 0
    assert "dim_HD" in report["result"]


@pytest.mark.parametrize(
    "lam, dim_hd, spectrum", [("8", 256, [["168", 256]]), ("7,1", 1536, [["112", 1536]])]
)
def test_cohomology_n8_reads_the_trace(capsys, monkeypatch, lam, dim_hd, spectrum):
    # The class sums of Z(Seg_n)_0 exist for every n, so n = 8 runs no
    # elimination, and (d) reads the one root column of pi(D), never all of it.
    kernels, acts, columns = [], [], []
    real, real_sparse = Subspace.kernel, cohomology.sparse_kernel
    real_act, real_columns = ModuleRep.act, ModuleRep.act_columns
    monkeypatch.setattr(Subspace, "kernel", lambda matrix: kernels.append(matrix) or real(matrix))
    monkeypatch.setattr(cohomology, "sparse_kernel", lambda cols: kernels.append(cols) or real_sparse(cols))
    monkeypatch.setattr(ModuleRep, "act", lambda self, elem: acts.append(elem) or real_act(self, elem))
    monkeypatch.setattr(ModuleRep, "act_columns",
                        lambda self, elem, ncols: columns.append((elem, ncols)) or real_columns(self, elem, ncols))
    code, report = run_cli(capsys, ["cohomology", "--lambda", lam, "--k", "1"])
    assert (code, kernels) == (0, [])
    d = dirac_element(AlgebraParams("A", 8, ONE))
    assert d not in acts and [ncols for elem, ncols in columns if elem == d] == [1]
    assert (report["result"]["dim_HD"], report["result"]["omega_seg_spectrum"]) == (dim_hd, spectrum)


def test_phi_command(capsys):
    code, report = run_cli(capsys, ["phi", "--n", "4"])
    assert code == 0
    rows = report["checks"][0]["details"]
    assert {"lambda": "3,1", "phi1": [-2, 0, 2, 0], "norm_sq": 8} in rows


def test_center_command(capsys):
    code, report = run_cli(capsys, ["center", "--n", "2", "--k", "1", "--max-r", "2"])
    assert code == 0
    assert report["checks"][1]["details"] == {"rank": 1, "center_dim": 1}


def test_center_builds_each_jucys_murphy_element_once(capsys, monkeypatch):
    built = []
    real = centers.jucys_murphy
    monkeypatch.setattr(centers, "jucys_murphy", lambda n, i, k: built.append(i) or real(n, i, k))
    code, _ = run_cli(capsys, ["center", "--n", "3", "--k", "1"])
    assert code == 0
    assert built == [1, 2, 3]


@pytest.mark.parametrize("k", ["1", "-1/2"])
def test_center_n5_passes(capsys, k):
    code, report = run_cli(capsys, ["center", "--n", "5", "--k", k])
    assert code == 0
    assert report["checks"][1]["details"] == {"rank": 3, "center_dim": 3}


def test_center_fails_at_k_zero(capsys):
    code, report = run_cli(capsys, ["center", "--n", "2", "--k", "0", "--max-r", "2"])
    assert code == 1
    assert report["status"] == "fail"


def test_flag_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["pbw", "--type", "Z", "--n", "2", "--k", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["pbw", "--type", "A", "--n", "2", "--k", "0.5"])  # not p/q
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["pbw", "--type", "A", "--n", "2", "--k", "1e0"],
        ["pbw", "--type", "A", "--n", "2", "--k", "1/0"],
        ["pbw", "--type", "A", "--n", "0", "--k", "1"],
        ["dirac-square", "--type", "A", "--n", "0", "--k", "1"],
        ["steinberg", "--type", "A", "--n", "0", "--k", "1"],
        ["all", "--n", "0", "--k", "1"],
        ["cohomology", "--lambda", "2,3", "--k", "1"],
        ["cohomology", "--lambda", "2,x", "--k", "1"],
        ["center", "--n", "7", "--k", "1"],
        ["center", "--n", "1", "--k", "1"],
        ["center", "--n", "2", "--k", "1", "--max-r", "0"],
        ["phi", "--n", "-1"],
        ["pbw", "--type", "A", "--n", "2", "--k", "1", "--trials", "-3"],
        ["pbw", "--type", "A", "--n", "2", "--k", "1", "--trials", "0"],
        ["pbw", "--type", "A", "--n", "2", "--k", "1", "--N", "1"],
        ["pbw", "--type", "A", "--n", "2", "--k", "1", "--ks", "1"],
        ["dirac-square", "--type", "D", "--n", "2", "--k", "1", "--ks", "1"],
        ["steinberg", "--type", "B", "--n", "2", "--k", "1", "--ks", "1", "--N", "3"],
        ["steinberg", "--type", "D", "--n", "3", "--k", "1", "--N", "1"],
        ["phi", "--n", "1_0"],  # int() would read 10
        ["phi", "--n", "\u0663"],  # Arabic-Indic 3
        ["cohomology", "--lambda", "\u0662,\u0661", "--k", "1"],
        ["pbw", "--type", "A", "--n", "2", "--k", "1", "--trials", "1_0"],
        ["pbw", "--type", "A", "--n", "2", "--k", "1", "--seed", "1_0"],
        ["all", "--n", "1", "--k", "1", "--seed", "\u0663"],
    ],
)
def test_bad_input_exits_two_without_report(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage:" in captured.err
    assert "Traceback" not in captured.err


def test_integer_and_negative_rationals_still_parse(capsys):
    code, report = run_cli(capsys, ["dirac-square", "--type", "A", "--n", "1", "--k=-1"])
    assert code == 0
    assert report["params"]["k"] == "-1"
    code, report = run_cli(capsys, ["dirac-square", "--type", "A", "--n", "1", "--k", "2/3"])
    assert code == 0
    assert report["params"]["k"] == "2/3"


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (["cohomology", "--lambda", "2,1"], "--k", "-1/2"),
        (["pbw", "--type", "B", "--n", "2", "--k", "1", "--N", "1", "--trials", "3"],
         "--ks", "-1/2"),
        (["dirac-square", "--type", "D", "--n", "2", "--k", "1"], "--N", "-3/2"),
    ],
)
def test_negative_rational_after_a_space(capsys, argv, flag, value):
    code, spaced = run_cli(capsys, argv + [flag, value])
    assert code == 0
    code, joined = run_cli(capsys, argv + [f"{flag}={value}"])
    assert code == 0
    del spaced["elapsed_ms"], joined["elapsed_ms"]
    assert spaced == joined


@pytest.mark.parametrize(
    "argv",
    [
        ["cohomology", "--lambda", "2,1", "--k", "-x"],
        ["cohomology", "--lambda", "2,1", "--k", "-0.5"],
        ["pbw", "--type", "B", "--n", "2", "--k", "1", "--ks", "-1/0"],
        ["dirac-square", "--type", "D", "--n", "2", "--k", "1", "--N", "-1e0"],
        ["dirac-square", "--type", "D", "--n", "2", "--k", "--N", "1"],
    ],
)
def test_negative_non_rational_exits_two(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage:" in captured.err


@pytest.mark.parametrize("argv", [
    ["steinberg", "--type", "A", "--n", "5", "--k", "1"],
    ["steinberg", "--type", "B", "--n", "4", "--k", "1", "--ks", "1"],
    ["steinberg", "--type", "D", "--n", "4", "--k", "1"],
], ids=["A5", "B4", "D4"])
def test_steinberg_enumerates_no_group(capsys, monkeypatch, argv):
    """pi(w) comes from left descents: no run asks for a reduced word, whose
    table is a search over the whole group."""
    def refuse(self, *args):
        raise AssertionError(f"{self} enumerated its group")

    for name in ("_build_words", "reduced_word", "elements"):
        monkeypatch.setattr(hcdirac.RootSystemCtx, name, refuse)
    code, report = run_cli(capsys, argv)
    assert code == 0 and report["status"] == "pass"


def test_steinberg_accepts_the_forced_n(capsys):
    code, report = run_cli(
        capsys, ["steinberg", "--type", "D", "--n", "3", "--k", "1", "--N", "4"]
    )
    assert code == 0
    assert report["params"]["N"] == "4"


def test_deterministic_output_modulo_elapsed(capsys):
    argv = ["pbw", "--type", "A", "--n", "2", "--k", "1", "--trials", "8", "--seed", "3"]
    _, first = run_cli(capsys, argv)
    _, second = run_cli(capsys, argv)
    first["elapsed_ms"] = second["elapsed_ms"] = 0
    assert json.dumps(first) == json.dumps(second)


def test_all_suite_small(capsys):
    code, report = run_cli(capsys, ["all", "--n", "2", "--k", "1", "--seed", "5"])
    assert code == 0
    assert report["suite"] == "all"
    names = [c["name"] for c in report["checks"]]
    assert any(name.startswith("pbw-A2") for name in names)
    assert any(name.startswith("cohomology-2") for name in names)
    assert any(name.startswith("center-2") for name in names)


def test_all_suite_folds_center_at_n5(capsys):
    code, report = run_cli(capsys, ["all", "--n", "5", "--k", "1"])
    assert code == 0
    center = {c["name"]: c for c in report["checks"] if c["name"].startswith("center-5:")}
    assert center["center-5:zeta_surjective"]["details"] == {"rank": 3, "center_dim": 3}


def test_all_suite_n1_passes_without_center(capsys):
    code, report = run_cli(capsys, ["all", "--n", "1", "--k", "1"])
    assert code == 0
    assert not any(c["name"].startswith("center-") for c in report["checks"])


def test_module_run_writes_nothing_to_stderr():
    # The package must not import cli itself, or `python -m hcdirac.cli`
    # warns that hcdirac.cli is already in sys.modules.
    src = os.path.dirname(os.path.dirname(hcdirac.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "hcdirac.cli", "phi", "--n", "2"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["status"] == "pass"


def test_main_reuses_one_parser_with_fresh_reports(capsys):
    # One process runs several commands on one parser; each report must equal
    # the one a fresh interpreter gives, so no flag value leaks between runs:
    # center --n 4 without --max-r takes max_r 4 after center --n 3 did 3.
    runs = [
        ["center", "--n", "3", "--k", "1"],
        ["center", "--n", "4", "--k", "1"],
        ["pbw", "--type", "A", "--n", "2", "--k", "1", "--trials", "3", "--seed", "7"],
        ["pbw", "--type", "A", "--n", "2", "--k", "1", "--trials", "3"],
        ["cohomology", "--lambda", "2,1", "--k", "-1/2"],
    ]
    build_parser.cache_clear()
    in_process = [run_cli(capsys, argv) for argv in runs]
    assert build_parser.cache_info().misses == 1
    assert [report["params"]["max_r"] for _, report in in_process[:2]] == [3, 4]
    assert [report["params"]["seed"] for _, report in in_process[2:4]] == [7, 0]
    src = os.path.dirname(os.path.dirname(hcdirac.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for argv, (code, report) in zip(runs, in_process):
        proc = subprocess.run([sys.executable, "-m", "hcdirac.cli", *argv],
                              capture_output=True, text=True, env=env)
        fresh = json.loads(proc.stdout)
        assert (code, proc.returncode) == (0, 0)
        del report["elapsed_ms"], fresh["elapsed_ms"]
        assert report == fresh


def test_schema_version_exported_by_package(capsys):
    _, report = run_cli(capsys, ["phi", "--n", "1"])
    assert report["schema_version"] == hcdirac.REPORT_SCHEMA_VERSION


# sha256 of each report without elapsed_ms, serialised with sorted keys and
# compact separators.  A refactor must leave every report byte-identical, so
# these digests change only with a deliberate change to what a suite reports.
REPORT_DIGESTS = [
    (["cohomology", "--lambda", "2,1", "--k", "1"],
     "9be6e2f638d5bd66e8bb7bfab73922d87cbb55accbfb9c9f0bd6ae3764ee1388"),
    (["cohomology", "--lambda", "2,2", "--k", "1/2"],
     "dae847e322b63d15810f1426b1b1f2fe6563ca37b2cd4c7022ebd03db80f4626"),
    (["cohomology", "--lambda", "3,1", "--k=-2/3"],
     "35fb06c3ff3a18cbc5ff0fa15ad09f7476add9cea7872df98c1cbaad5bdc0e33"),
    (["cohomology", "--lambda", "2,1,1", "--k", "1"],
     "df0ebf68eef2da8a50ce292a416086c399ed92abf846d4e41724808fed7b7b04"),
    # The largest distinct-part module of n = 6, and a fractional k on another.
    (["cohomology", "--lambda", "3,2,1", "--k", "1"],
     "107019a14f798a587bb3440ed870882c71982caf328358a582e108905eda31fe"),
    (["cohomology", "--lambda", "4,2", "--k", "2/3"],
     "f2c6d9924265e99b0919b83559c94413f88822e9b6e307ff6b5dbecad3c4e095"),
    # n = 8 reads dim H_D off the trace (test_cohomology_n8_reads_the_trace),
    # which must give the report that exact elimination gives.
    (["cohomology", "--lambda", "8", "--k", "1"],
     "dca72ed5d8c2f23d6589f4ba83254d5cad6f2a32651affa70f7563a5cf920d57"),
    (["steinberg", "--type", "A", "--n", "4", "--k", "1"],
     "46a1343c30fef896eacb9435ffa81a94a512a1f72d277e145aaf7c39b66ab13a"),
    (["steinberg", "--type", "B", "--n", "3", "--k", "1", "--ks", "1/2"],
     "82839dc27271ef18146e6975363a65945a4132599a0eca6e43a9930387ad75c8"),
    (["steinberg", "--type", "D", "--n", "3", "--k", "2/3"],
     "e7bca1855291407620aaafeab5411a0b8c8c361a659b6085919ab7ec00b9cac5"),
    # The sizes of the perfbench steinberg workload.
    (["steinberg", "--type", "B", "--n", "4", "--k", "1", "--ks", "1"],
     "12ecfec55531fdfbab73b5b01ebb61f28f762e03360f1ad672f897b4e72350a9"),
    (["steinberg", "--type", "B", "--n", "4", "--k", "-1/2", "--ks", "-1/2"],
     "83010956a5400b557de743d02e95fbb2cfe9b4d90c564a63680b99d3fc417adb"),
    (["steinberg", "--type", "D", "--n", "4", "--k", "1"],
     "507d3a3331d7a4e699e77f4fb67c5ba01c4ae8440de162c07668035fcac99e66"),
    (["steinberg", "--type", "D", "--n", "4", "--k", "-1/2"],
     "239ac67ed342e771f3c2d782e70cb6a4c1803c3d9c625517fe36108be51e82cf"),
    (["dirac-square", "--type", "B", "--n", "2", "--k", "1", "--ks", "1", "--N", "1"],
     "c77a786ce8425fa4eff18c010524fc1b16bc779829aa38e08a45cc74175be03a"),
    (["pbw", "--type", "A", "--n", "3", "--k", "2/3", "--trials", "5"],
     "4abb51cfe045b7d068c9b2a71ad013928cabbea3a6a46356928125696758c0b0"),
    (["center", "--n", "3", "--k", "1/2"],
     "9b8677e94a202f9d19ed3980e31d4d0bc651b5edabaeb934f729cc5ea5a7bb51"),
    (["phi", "--n", "5"],
     "cc09f7eae8ad7c9e1253f0446f26fc44967b52d73da43eaadd05821f5f3b6850"),
    (["all", "--n", "2", "--k", "1"],
     "2cd1598f56acef260347b82b45b5328dc7828fbe909ed4b7535b78d62b12b520"),
    # center-4, the cohomology sub-suites of (4) and (3,1), and a negative k
    # inside `all`.
    (["all", "--n", "4", "--k", "-1/2"],
     "76333ebadf88dc14ecea15656c10286b9a6097de67d11553c6dbcadc49b1f998"),
]


@pytest.mark.parametrize("argv, digest", REPORT_DIGESTS, ids=[" ".join(a) for a, _ in REPORT_DIGESTS])
def test_report_digest_pinned(capsys, argv, digest):
    code, report = run_cli(capsys, argv)
    assert code == 0
    del report["elapsed_ms"]
    text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


ENVELOPE_RUNS = [
    ["pbw", "--type", "A", "--n", "2", "--k", "1", "--trials", "2"],
    ["dirac-square", "--type", "A", "--n", "2", "--k", "1"],
    ["steinberg", "--type", "A", "--n", "2", "--k", "1"],
    ["cohomology", "--lambda", "2,1", "--k", "1"],
    ["phi", "--n", "2"],
    ["center", "--n", "2", "--k", "1"],
    ["all", "--n", "1", "--k", "1"],
]


def test_every_subcommand_reports_in_one_envelope(capsys):
    commands = next(action.choices for action in build_parser()._actions if action.dest == "command")
    assert sorted(argv[0] for argv in ENVELOPE_RUNS) == sorted(commands)
    for argv in ENVELOPE_RUNS:
        code, report = run_cli(capsys, argv)
        assert code == 0
        keys = ["suite", "schema_version", "params", "checks", "status", "elapsed_ms"]
        assert list(report) == keys + (["result"] if argv[0] == "cohomology" else [])
        assert report["suite"] == argv[0]


@pytest.mark.parametrize("argv", [
    ["steinberg", "--type", "B", "--n", "2", "--k", "1", "--ks", "1"],
    ["cohomology", "--lambda", "2,1", "--k", "1"],
    ["all", "--n", "2", "--k", "1"],
], ids=["steinberg", "cohomology", "all"])
def test_failed_certificate_exits_one_with_a_report(capsys, monkeypatch, argv):
    """A module whose relation check fails gives a failed report and exit 1, not a traceback.

    steinberg reports the failing relations as its module_relations check;
    cohomology, and all at its first cohomology run, fail the certificate.
    """
    real = modules.generating_relations

    def false_x1_x2(params):
        return [(name, terms + [(ONE, ())] if name == "x1_x2" else terms) for name, terms in real(params)]

    monkeypatch.setattr(modules, "generating_relations", false_x1_x2)
    code = main(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert (code, report["suite"], report["status"]) == (1, argv[0], "fail")
    if argv[0] == "steinberg":
        check = report["checks"][0]
        assert (check["name"], check["status"], check["details"]) == ("module_relations", "fail", ["x1_x2"])
    else:
        [check] = report["checks"]
        assert (check["name"], check["status"]) == ("certificate", "fail")
        assert "x1_x2" in check["details"]
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ["steinberg", "--type", "B", "--n", "3", "--k", "1", "--ks", "1"],
    ["cohomology", "--lambda", "3,1", "--k", "1"],
], ids=["steinberg", "cohomology"])
def test_relations_are_checked_once_per_module(capsys, monkeypatch, argv):
    """No constructor runs the relation check; each run checks its module exactly once."""
    built, checked = [], []
    real_init, real_check = ModuleRep.__init__, modules.check_module_relations

    def init(self, *args, **kwargs):
        before = len(checked)
        real_init(self, *args, **kwargs)
        assert len(checked) == before, "a constructor ran the relation check"
        built.append(self)

    monkeypatch.setattr(ModuleRep, "__init__", init)
    monkeypatch.setattr(modules, "check_module_relations",
                        lambda module: checked.append(module) or real_check(module))
    code, report = run_cli(capsys, argv)
    assert (code, report["status"]) == (0, "pass")
    assert len(built) == 1 and checked == built
