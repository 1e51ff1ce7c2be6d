"""Summarise perfbench result files into one ``BENCH_<label>.json``.

Usage::

    python tools/bench_record.py LABEL [RESULT_DIR]

Reads every ``result-*.json`` that ``perfbench/run.py`` wrote into
RESULT_DIR (default: ``.perfbench`` at the repository root). The files
must all come from one git revision. Writes ``BENCH_<LABEL>.json`` at the
repository root with, per workload:

* ``end_to_end``: the median of each end-to-end metric over the untraced
  runs, one run per seed;
* ``per_layer``: the median of each per-layer metric over the traced runs,
  when there are any;
* ``end_to_end_quartiles`` and ``per_layer_quartiles``: the first and
  third quartiles of the same runs, ``[q1, q3]`` as
  ``statistics.quantiles(values, n=4)`` gives them (as
  ``perfbench/spread.py`` does), or ``[v, v]`` for a single run;
* the seeds of the untraced and traced runs and the number of failed
  checks;

plus the revision, the versions and the machine that the runs shared.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SHARED = ("git_rev", "python", "numpy", "speclab", "cpu_model", "nproc")


def quartiles(values: list[float]) -> list[float]:
    if len(values) == 1:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, q3]


def spread(runs: list[dict], key: str) -> tuple[dict, dict]:
    """Median and quartiles of each ``runs[i][key]`` metric."""
    values = {k: [r[key][k] for r in runs] for k in (runs[0][key] if runs else ())}
    return ({k: statistics.median(v) for k, v in values.items()},
            {k: quartiles(v) for k, v in values.items()})


def summarise(label: str, records: list[dict]) -> dict:
    if not records:
        raise SystemExit("bench_record: no result-*.json files")
    shared = {}
    for key in SHARED:
        values = {json.dumps(r["meta"][key]) for r in records}
        if len(values) != 1:
            raise SystemExit(f"bench_record: results differ in {key}: {sorted(values)}")
        shared[key] = records[0]["meta"][key]
    workloads = {}
    for name in sorted({r["meta"]["workload"] for r in records}):
        runs = [r for r in records if r["meta"]["workload"] == name]
        plain = [r for r in runs if not r["meta"]["trace"]]
        traced = [r for r in runs if r["meta"]["trace"]]
        entry = {
            "seeds": sorted(r["meta"]["seed"] for r in plain),
            "traced_seeds": sorted(r["meta"]["seed"] for r in traced),
            "failed": sum(len(r["checks"]["failures"]) for r in runs),
        }
        entry["end_to_end"], entry["end_to_end_quartiles"] = spread(plain, "end_to_end")
        if traced:
            entry["per_layer"], entry["per_layer_quartiles"] = spread(traced, "per_layer")
        workloads[name] = entry
    return {"label": label, **shared, "workloads": workloads}


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    label = argv[0]
    result_dir = Path(argv[1]) if len(argv) == 2 else ROOT / ".perfbench"
    records = [json.loads(p.read_text()) for p in sorted(result_dir.glob("result-*.json"))]
    out = ROOT / f"BENCH_{label}.json"
    out.write_text(json.dumps(summarise(label, records), indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
