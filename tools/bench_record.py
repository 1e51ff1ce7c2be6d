"""Summarise perfbench result files into one ``BENCH_<label>.json``, or compare two.

Usage::

    python tools/bench_record.py LABEL [RESULT_DIR]
    python tools/bench_record.py compare PARENT.json CHANGE.json

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
* ``end_to_end_by_seed``: each untraced run's end-to-end values, keyed by
  its seed;
* the seeds of the untraced and traced runs and the number of failed
  checks;

plus the revision, the versions and the machine that the runs shared.

``compare`` reads two such files, a parent's and a change's. It names
each workload that only one of them holds, then prints for each shared
workload both sides' failed checks, and for each end-to-end metric: the
runs paired by seed and how many of them the change won; both medians and quartiles over those pairs
and their ratio; whether the gain rule holds (at least 9 in 10 pairs won,
and a median gap wider than the parent's interquartile range); and
whether the change's median stays within the metric's no-regression
bound, which it reads from ``BENCHMARK.json``.
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
        entry["end_to_end_by_seed"] = {str(r["meta"]["seed"]): r["end_to_end"] for r in plain}
        if traced:
            entry["per_layer"], entry["per_layer_quartiles"] = spread(traced, "per_layer")
        workloads[name] = entry
    return {"label": label, **shared, "workloads": workloads}


def compare(parent: dict, change: dict, metrics: list[dict]) -> list[str]:
    """Report lines comparing two summaries, run by run over shared seeds.

    ``metrics`` are ``BENCHMARK.json``'s end-to-end entries: a name, the
    direction that is ``better`` and a relative ``bound``.
    """
    for name, summary in (("parent", parent), ("change", change)):
        for workload, entry in summary["workloads"].items():
            if "end_to_end_by_seed" not in entry:
                raise SystemExit(f"bench_record: the {name} file has no per-seed values for "
                                 f"{workload}; record it again with this tool")
    lines = []
    for workload in sorted(set(parent["workloads"]) ^ set(change["workloads"])):
        side = "parent" if workload in parent["workloads"] else "change"
        lines.append(f"{workload}: only in the {side} file, not compared")
    for workload in sorted(set(parent["workloads"]) & set(change["workloads"])):
        old_entry, new_entry = parent["workloads"][workload], change["workloads"][workload]
        old, new = old_entry["end_to_end_by_seed"], new_entry["end_to_end_by_seed"]
        seeds = sorted(set(old) & set(new), key=int)
        lines.append(f"{workload}: {len(seeds)} pairs by seed; failed checks: "
                     f"parent {old_entry['failed']}, change {new_entry['failed']}")
        if not seeds:
            continue
        for metric in metrics:
            name, lower = metric["name"], metric["better"] == "lower"
            a = [old[s][name] for s in seeds]
            b = [new[s][name] for s in seeds]
            wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
            a_med, b_med = statistics.median(a), statistics.median(b)
            a_q, b_q = quartiles(a), quartiles(b)
            ratio = b_med / a_med
            gap = (a_med - b_med) if lower else (b_med - a_med)
            gain = wins >= 0.9 * len(seeds) and gap > a_q[1] - a_q[0]
            worst = 1 + metric["bound"] if lower else 1 - metric["bound"]
            within = ratio <= worst if lower else ratio >= worst
            lines.append(
                f"  {name} ({metric['better']} is better): change won {wins}/{len(seeds)}; "
                f"parent {a_med:.6g} [{a_q[0]:.6g}, {a_q[1]:.6g}], "
                f"change {b_med:.6g} [{b_q[0]:.6g}, {b_q[1]:.6g}], ratio {ratio:.3f}; "
                f"gain rule {'holds' if gain else 'fails'} (gap {gap:.6g}, "
                f"parent IQR {a_q[1] - a_q[0]:.6g}); "
                f"bound {metric['bound']} {'kept' if within else 'BROKEN'}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "compare":
        parent, change = (json.loads(Path(p).read_text()) for p in argv[1:])
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        print("\n".join(compare(parent, change, spec["end_to_end"])))
        return 0
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
