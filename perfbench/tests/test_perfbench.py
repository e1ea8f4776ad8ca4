"""The benchmark itself, at tiny sizes: metric names and units, the gate, determinism."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str) -> tuple[subprocess.CompletedProcess, dict]:
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--tiny", "--seed", "4", *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


def _worker(workload: str, hash_seed: str, trace_file: Path) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), "--workload", workload,
                           "--seed", "1", "--tiny", "--trace", str(trace_file)],
                          cwd=ROOT, capture_output=True, text=True, timeout=170, env=env, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    proc, result = _bench("--workload", workload, "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert f"{workload} failed_ratio 0 1 " in proc.stdout


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_emits_every_layer_metric(workload):
    proc, result = _bench("--workload", workload, "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] is True
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    spans = json.loads((ROOT / ".perfbench" / f"trace-{workload}-seed4.json").read_text())
    assert spans["spans"] and all(len(span) == 4 for span in spans["spans"])


def _steinberg_report(relations: str = "pass", dim: int = 8) -> dict:
    return {"suite": "steinberg", "status": "pass", "checks": [
        {"name": "module_relations", "status": relations, "details": []},
        {"name": "dirac_vanishes", "status": "pass", "details": {"dim": dim}}]}


def _one_pass(case: dict, report: dict, module_dims: list[int]) -> dict:
    return {"cases": [{"id": case["id"], "digest": workloads.digest(report),
                       "problems": workloads.case_problems(case, 0, report, module_dims)}]}


def test_forged_failing_reports_count_in_failed_ratio():
    case = workloads.cases("steinberg", 0, tiny=True)[0]
    good = _steinberg_report()
    assert run.count_failures([_one_pass(case, good, [8])]) == (1, 0)
    for forged, dims in ((_steinberg_report(relations="fail"), [8]),  # a failed check
                         (_steinberg_report(dim=9), [8]),  # a pinned answer missed
                         (good, [4])):  # a module of the wrong size
        assert run.count_failures([_one_pass(case, forged, dims)]) == (1, 1)
    assert workloads.case_problems(case, 1, None, []) == ["no report (exit code 1)"]
    # A report that changes between passes of one run is a failure too.
    changed = dict(good, params={"k": "2"})
    assert run.count_failures([_one_pass(case, good, [8]), _one_pass(case, changed, [8])]) == (2, 1)


@pytest.mark.parametrize("workload", ["vogan", "algebra"])
def test_traced_counts_and_digests_do_not_depend_on_hash_seed(workload, tmp_path):
    first = _worker(workload, "0", tmp_path / "a.json")
    second = _worker(workload, "1", tmp_path / "b.json")
    exact = [name for name in first["layers"]
             if name.endswith("_calls") or name in ("modules.dim_max", "modules.d_nnz")]
    assert {n: first["layers"][n] for n in exact} == {n: second["layers"][n] for n in exact}
    assert [c["digest"] for c in first["cases"]] == [c["digest"] for c in second["cases"]]
