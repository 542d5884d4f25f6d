#!/usr/bin/env python3
"""Run the benchmark at several seeds and report each metric's spread.

Usage:
    python3 perfbench/steadiness.py --workload sweep_ou [--seeds 1-10]

Each run is `--trace 0` for BENCHMARK.json's run_seconds.

For each end-to-end metric it prints the median over the runs and the
spread: the distance between the first and third quartiles
(statistics.quantiles, n=4) as a share of the median.  The bounds in
BENCHMARK.json are compared with these spreads.  Runs are sequential,
since another busy process changes the timings of the sweeps.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="a-b or a,b,c")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = []
    for seed in parse_seeds(args.seeds):
        cmd = [*bench["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct {result['correct']} failed {result['failed']}/"
              f"{result['attempted']} {values}", flush=True)

    if len(runs) >= 2:
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            print(f"{name}: median {statistics.median(values):.6g} "
                  f"spread {spread(values):.4f} bound {bounds[name]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
