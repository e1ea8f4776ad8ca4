"""One pass of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload vogan --seed 0 [--tiny] [--trace FILE]
    python3 perfbench/worker.py --import-only

Prints one JSON object: the time `import hcdirac` took, and unless
--import-only, the wall time of the workload, its peak resident memory, and
per case its time, report digest and the problems found by the gate.  With
--trace, also the per-layer metrics, and every span is written to FILE.

Every time is given twice: as measured, and calibrated to the host's current
speed.  The host is shared, and its speed for the same work swings by up to
2x over seconds to minutes.  A fixed probe loop is timed before and after the
import and after every case; a calibrated time is the measured time scaled by
NOMINAL_PROBE_S over the mean of the probe times on either side of it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# The probe loop's time on an unloaded core of the host the bounds were set on.
NOMINAL_PROBE_S = 0.05


def probe_s() -> float:
    """Time of a fixed pure-Python loop of Fraction arithmetic, like hcdirac's own."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 20000):
        acc += Fraction(1, i % 97 + 1)
    return time.perf_counter() - start


def _run_case(main, case: dict, module_dims: list[int]) -> dict:
    module_dims.clear()
    buf = io.StringIO()
    exit_code, error = None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            exit_code = main(case["argv"])
    except SystemExit as exc:
        exit_code = exc.code
    except Exception as exc:  # a raising case is a failed case, not a crashed run
        error = f"{type(exc).__name__}: {exc}"
    end = time.perf_counter()
    return {"start": start, "end": end, "exit_code": exit_code, "error": error,
            "stdout": buf.getvalue(), "module_dims": list(module_dims)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--trace", metavar="FILE")
    parser.add_argument("--import-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    before = probe_s()
    started = time.perf_counter()
    import hcdirac.cli
    setup_s = time.perf_counter() - started
    probes = [probe_s()]
    setup = {"setup_s": setup_s,
             "setup_cal_s": setup_s * NOMINAL_PROBE_S / ((before + probes[0]) / 2)}
    if args.import_only:
        print(json.dumps(setup))
        return 0

    import tracer
    import workloads

    cases = workloads.cases(args.workload, args.seed, tiny=args.tiny)
    module_dims: list[int] = []
    trace = None
    if args.trace:
        trace = tracer.Tracer(module_dims)
        trace.install()
    else:
        tracer.probe_module_dims(module_dims)

    runs = []
    for case in cases:
        runs.append(_run_case(hcdirac.cli.main, case, module_dims))
        probes.append(probe_s())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    out_cases = []
    for index, (case, run) in enumerate(zip(cases, runs)):
        report = None
        if run["error"] is None:
            try:
                report = json.loads(run["stdout"])
            except json.JSONDecodeError:
                pass
        problems = workloads.case_problems(case, run["exit_code"], report, run["module_dims"])
        if run["error"] is not None:
            problems.insert(0, f"raised {run['error']}")
        seconds = run["end"] - run["start"]
        around = (probes[index] + probes[index + 1]) / 2
        out_cases.append({
            "id": case["id"],
            "seconds": seconds,
            "cal_seconds": seconds * NOMINAL_PROBE_S / around,
            "digest": workloads.digest(report) if report is not None else None,
            "problems": problems,
        })
    result = dict(setup, wall_s=sum(c["seconds"] for c in out_cases), peak_rss_mb=peak_rss_mb,
                  cases=out_cases)
    if trace is not None:
        trace.write(args.trace)
        result["layers"] = trace.metrics()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
