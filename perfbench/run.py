"""Benchmark of hcdirac's exact verification: three workloads, one run at a time.

    python3 perfbench/run.py --workload vogan --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 0

Every pass of a workload runs in a fresh interpreter (perfbench/worker.py),
so the engine's memo tables start cold, as for every CLI invocation.  Passes
run one after another, never two at once.

--trace 0 runs at least MIN_PASSES passes, more while another one (with its
imports) still fits in --seconds, and before each pass times `import hcdirac` in IMPORTS_PER_PASS
further fresh interpreters.  It reports the median of each end-to-end metric;
wall_s and setup_s are calibrated to the host's speed (see worker.py).

--trace 1 runs one untraced and one traced pass and reports the per-layer
metrics of the traced pass, with the tracing overhead.  The spans are written
to .perfbench/ in the checkout.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 when every case passed the
correctness gate, 1 when some case failed it, and 2 when the benchmark could
not run at all.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
TRACE_DIR = ROOT / ".perfbench"

MIN_PASSES = 3
IMPORTS_PER_PASS = 8
DEADLINE_S = 170  # per workload; a run of one workload must end within 180 s

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _child(args: list[str], deadline: float) -> dict:
    """Run the worker in a fresh interpreter and return its JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the next pass")
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _pass_args(workload: str, seed: int, tiny: bool) -> list[str]:
    return ["--workload", workload, "--seed", str(seed)] + (["--tiny"] if tiny else [])


def count_failures(passes: list[dict]) -> tuple[int, int]:
    """(cases attempted, cases failed) over all passes of one run.

    A case fails when the gate found a problem with it, or when its report
    digest differs from the one of the same case in the first pass.
    """
    first = {case["id"]: case["digest"] for case in passes[0]["cases"]}
    attempted = failed = 0
    for one in passes:
        for case in one["cases"]:
            attempted += 1
            failed += bool(case["problems"]) or case["digest"] != first[case["id"]]
    return attempted, failed


def case_median_sum(passes: list[dict], key: str) -> float:
    """Sum over the cases of each case's median time over the passes."""
    per_case = zip(*([case[key] for case in one["cases"]] for one in passes))
    return sum(statistics.median(times) for times in per_case)


def _print_cases(passes: list[dict]) -> None:
    first = {case["id"]: case["digest"] for case in passes[0]["cases"]}
    for number, one in enumerate(passes, start=1):
        print(f"  pass {number}: wall {one['wall_s']:.3f} s, setup {one['setup_s']:.4f} s "
              f"(calibrated {one['setup_cal_s']:.4f} s), peak rss {one['peak_rss_mb']:.1f} MB")
        for case in one["cases"]:
            problems = list(case["problems"])
            if case["digest"] != first[case["id"]]:
                problems.append("report digest differs from pass 1")
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print(f"    {case['id']:<18} {case['seconds']:8.3f} s "
                  f"(calibrated {case['cal_seconds']:8.3f} s)  {status}")
    print("  report digests (sha256 without elapsed_ms):")
    for case_id, digest in first.items():
        print(f"    {case_id:<18} {digest}")


def measure(workload: str, seed: int, seconds: float, tiny: bool, deadline: float) -> dict:
    """Untraced run: end-to-end metrics as medians over passes."""
    started = time.monotonic()
    _child(["--import-only"], deadline)  # writes bytecode caches; not a sample
    setup, passes, longest = [], [], 0.0
    while True:
        # Import samples are spread over the run, so that they do not all
        # fall into one slow or fast stretch of a shared host.
        begun = time.monotonic()
        setup += [_child(["--import-only"], deadline) for _ in range(IMPORTS_PER_PASS)]
        passes.append(_child(_pass_args(workload, seed, tiny), deadline))
        longest = max(longest, time.monotonic() - begun)
        if len(passes) >= MIN_PASSES and time.monotonic() - started + longest > seconds:
            break
    _print_cases(passes)
    setup += passes
    print(f"  measured, not calibrated: wall {case_median_sum(passes, 'seconds'):.4f} s, "
          f"setup {statistics.median(one['setup_s'] for one in setup):.4f} s")
    attempted, failed = count_failures(passes)
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "wall_s": case_median_sum(passes, "cal_seconds"),
            "setup_s": statistics.median(one["setup_cal_s"] for one in setup),
            "peak_rss_mb": statistics.median(one["peak_rss_mb"] for one in passes),
        },
        "units": END_TO_END,
        "note": f"median of {len(passes)} passes; setup_s of {len(setup)} imports",
    }


def measure_traced(workload: str, seed: int, tiny: bool, deadline: float) -> dict:
    """Traced run: per-layer metrics of one traced pass, plus the tracing overhead."""
    TRACE_DIR.mkdir(exist_ok=True)
    trace_file = TRACE_DIR / f"trace-{workload}-seed{seed}.json"
    plain = _child(_pass_args(workload, seed, tiny), deadline)
    traced = _child(_pass_args(workload, seed, tiny) + ["--trace", str(trace_file)], deadline)
    passes = [plain, traced]
    _print_cases(passes)
    attempted, failed = count_failures(passes)
    metrics = dict(traced["layers"])
    name, unit = tracer.OVERHEAD_METRIC
    metrics[name] = traced["wall_s"] / plain["wall_s"]
    units = {metric: spec[0] for metric, spec in tracer.LAYER_METRICS.items()}
    units[name] = unit
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "units": units,
            "note": f"traced pass, spans in {trace_file.relative_to(ROOT)}"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hcdirac verification benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="test-sized cases")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hcdirac" / "__init__.py").is_file():
        print(f"hcdirac sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    chosen = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(chosen)
    results = {}
    try:
        for workload in chosen:
            print(f"workload {workload}, seed {args.seed}, k = {workloads.k_for_seed(args.seed)}, "
                  f"{'traced' if args.trace else 'untraced'}")
            if args.trace:
                result = measure_traced(workload, args.seed, args.tiny, deadline)
            else:
                result = measure(workload, args.seed, args.seconds / len(chosen), args.tiny, deadline)
            for metric, value in result["metrics"].items():
                shown = value if isinstance(value, int) else f"{value:.6g}"
                print(f"{workload} {metric} {shown} {result['units'][metric]}")
            ratio = result["failed"] / result["attempted"]
            print(f"{workload} failed_ratio {ratio:.6g} 1 "
                  f"({result['failed']} of {result['attempted']} cases; {result['note']})")
            results[workload] = result
    except BenchError as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    metrics = {}
    for workload, result in results.items():
        prefix = "" if len(results) == 1 else f"{workload}."
        for metric, value in result["metrics"].items():
            metrics[prefix + metric] = {"value": value, "unit": result["units"][metric]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
