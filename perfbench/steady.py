"""Steadiness check: repeat one workload over several seeds and report the spread.

    python3 perfbench/steady.py --workload vogan --runs 10

Each run is a separate `perfbench/run.py --trace 0` invocation with its own
seed and the run length from BENCHMARK.json.  For every end-to-end metric it
prints the median, the quartiles (statistics.quantiles, n=4) and the spread,
(q3 - q1) / median, beside the metric's bound.  A spread above a third of
the bound is flagged: such a metric is too noisy to guard against a
regression of that size.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in range(args.runs):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stdout[-3000:], proc.stderr[-3000:], sep="\n", file=sys.stderr)
            print(f"seed {seed}: run.py exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: " + ", ".join(f"{name} {m['value']:.4f} {m['unit']}"
                                           for name, m in result["metrics"].items()), flush=True)
        for name in values:
            values[name].append(result["metrics"][name]["value"])

    flagged = False
    for metric in bench["end_to_end"]:
        median, q1, q3, share = spread(values[metric["name"]])
        flag = share > metric["bound"] / 3
        flagged |= flag
        print(f"{args.workload} {metric['name']}: median {median:.4f} {metric['unit']}, "
              f"q1 {q1:.4f}, q3 {q3:.4f}, spread {share:.3f} (bound {metric['bound']})"
              + ("  TOO WIDE" if flag else ""))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
