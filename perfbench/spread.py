"""Run one workload once per seed and report each metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --workload NAME [--seeds 1-10] [--seconds 38] [--trace 0]

Runs are sequential, each in its own process. For every metric it
prints the median and the distance between the first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of the
median, the figure BENCHMARK.json's bounds are checked against. The last
line is a JSON summary.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    parser.add_argument("--seconds", default="38")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    args = parser.parse_args(argv)

    values: dict[str, list[float]] = {}
    correct = True
    for seed in args.seeds:
        cmd = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
               "--seconds", args.seconds, "--trace", args.trace]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stdout + proc.stderr)
            print(f"seed {seed}: exit {proc.returncode}")
            return 1
        result = json.loads(lines[-1])
        correct &= result["correct"]
        row = {k: m["value"] for k, m in result["metrics"].items()}
        print(f"seed {seed}: correct {result['correct']} "
              + " ".join(f"{k} {v:.6g}" for k, v in row.items()), flush=True)
        for key, value in row.items():
            values.setdefault(key, []).append(value)

    summary = {}
    for key, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        summary[key] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
        print(f"{key:14s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.4f}")
    print(json.dumps({"workload": args.workload, "seeds": args.seeds, "correct": correct,
                      "metrics": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
