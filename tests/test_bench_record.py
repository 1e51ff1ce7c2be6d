"""The summary that tools/bench_record.py writes from perfbench result files."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def record(workload, seed, *, trace=False, wall=1.0, layer=0.0, failures=(), git_rev="abc"):
    meta = {"git_rev": git_rev, "python": "3.11.7", "numpy": "2.4.6", "speclab": "0.1",
            "cpu_model": "cpu", "nproc": 2, "workload": workload, "seed": seed,
            "trace": trace}
    return {"meta": meta, "checks": {"failures": list(failures)},
            "end_to_end": {"wall_probes": wall, "peak_rss_mb": 40.0 + wall},
            "per_layer": {"specdec.rounds": layer}}


def test_summarise_takes_medians_over_untraced_runs_only():
    records = [record("sweep_decode", 3, wall=30.0), record("sweep_decode", 1, wall=10.0),
               record("sweep_decode", 2, wall=20.0),
               record("sweep_decode", 9, trace=True, wall=999.0, layer=4.0),
               record("sweep_decode", 8, trace=True, wall=999.0, layer=6.0),
               record("teacher_pretrain", 5, wall=7.0)]
    summary = load_tool().summarise("demo", records)
    assert summary["label"] == "demo"
    assert summary["git_rev"] == "abc" and summary["nproc"] == 2
    sweep = summary["workloads"]["sweep_decode"]
    assert sweep["end_to_end"] == {"wall_probes": 20.0, "peak_rss_mb": 60.0}
    assert sweep["per_layer"] == {"specdec.rounds": 5.0}
    assert sweep["seeds"] == [1, 2, 3]
    assert sweep["traced_seeds"] == [8, 9]
    pretrain = summary["workloads"]["teacher_pretrain"]
    assert pretrain["end_to_end"]["wall_probes"] == 7.0
    assert pretrain["traced_seeds"] == [] and "per_layer" not in pretrain
    assert "per_layer_quartiles" not in pretrain


def test_summarise_writes_quartiles_beside_each_median():
    walls = [1.0, 2.0, 3.0, 4.0, 10.0]
    records = [record("sweep_decode", seed, wall=w) for seed, w in enumerate(walls)]
    records += [record("sweep_decode", 9, trace=True, layer=4.0),
                record("sweep_decode", 8, trace=True, layer=6.0),
                record("teacher_pretrain", 5, wall=7.0)]
    workloads = load_tool().summarise("demo", records)["workloads"]
    sweep = workloads["sweep_decode"]
    # statistics.quantiles(n=4), as perfbench/spread.py takes them.
    assert sweep["end_to_end"] == {"wall_probes": 3.0, "peak_rss_mb": 43.0}
    assert sweep["end_to_end_quartiles"] == {"wall_probes": [1.5, 7.0],
                                             "peak_rss_mb": [41.5, 47.0]}
    assert sweep["per_layer"] == {"specdec.rounds": 5.0}
    assert sweep["per_layer_quartiles"] == {"specdec.rounds": [3.5, 6.5]}
    # One run is its own quartiles.
    assert workloads["teacher_pretrain"]["end_to_end_quartiles"]["wall_probes"] == [7.0, 7.0]


def test_summarise_sums_failed_checks_over_all_runs():
    records = [record("draft_distill", 1, failures=["a", "b"]),
               record("draft_distill", 2),
               record("draft_distill", 3, trace=True, failures=["c"])]
    assert load_tool().summarise("demo", records)["workloads"]["draft_distill"]["failed"] == 3


def test_summarise_refuses_records_of_two_revisions():
    records = [record("sweep_decode", 1, git_rev="abc"), record("sweep_decode", 2, git_rev="def")]
    with pytest.raises(SystemExit, match="git_rev"):
        load_tool().summarise("demo", records)


def test_summarise_refuses_no_records():
    with pytest.raises(SystemExit):
        load_tool().summarise("demo", [])
