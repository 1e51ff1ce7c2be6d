"""The summary that tools/bench_record.py writes from perfbench result files."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_record", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def record(workload, seed, *, trace=False, wall=1.0, layer=0.0, failures=(), git_rev="abc",
           raw=None):
    """A result file's record; ``raw`` is ``(wall_s, probe_s)`` when it holds them."""
    meta = {"git_rev": git_rev, "python": "3.11.7", "numpy": "2.4.6", "speclab": "0.1",
            "cpu_model": "cpu", "nproc": 2, "workload": workload, "seed": seed,
            "trace": trace}
    end_to_end = {"wall_probes": wall, "peak_rss_mb": 40.0 + wall}
    if raw is not None:
        end_to_end["wall_s"], end_to_end["probe_s"] = raw
    return {"meta": meta, "checks": {"failures": list(failures)}, "end_to_end": end_to_end,
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


def test_summarise_keeps_each_untraced_runs_values_by_seed():
    records = [record("sweep_decode", 3, wall=30.0), record("sweep_decode", 1, wall=10.0),
               record("sweep_decode", 9, trace=True, wall=999.0)]
    by_seed = load_tool().summarise("demo", records)["workloads"]["sweep_decode"][
        "end_to_end_by_seed"]
    assert by_seed == {"3": {"wall_probes": 30.0, "peak_rss_mb": 70.0},
                       "1": {"wall_probes": 10.0, "peak_rss_mb": 50.0}}


METRICS = [{"name": "wall_probes", "better": "lower", "bound": 0.25},
           {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]


def summary_of(walls, first_seed=1):
    records = [record("draft_distill", first_seed + k, wall=w) for k, w in enumerate(walls)]
    return load_tool().summarise("demo", records)


def test_compare_pairs_runs_by_seed_and_applies_the_gain_rule():
    tool = load_tool()
    parent = summary_of([100.0, 102.0, 98.0, 101.0, 99.0, 103.0, 97.0, 100.0, 104.0, 96.0])
    change = summary_of([80.0, 81.0, 79.0, 82.0, 78.0, 80.0, 81.0, 79.0, 80.0, 83.0])
    wall, rss = tool.compare(parent, change, METRICS)[1:]
    assert "change won 10/10" in wall and "ratio 0.8" in wall
    assert "parent 100 [97.75, 102.25]" in wall and "change 80 [79, 81.25]" in wall
    assert "gain rule holds (gap 20, parent IQR 4.5)" in wall and "bound 0.25 kept" in wall
    # peak_rss_mb is 40 + wall in these records: 140 -> 120 MB.
    assert "change won 10/10" in rss and "ratio 0.857" in rss


def test_compare_gain_rule_needs_nine_in_ten_pairs_and_a_gap_past_the_iqr():
    tool = load_tool()
    parent = summary_of([100.0] * 8 + [90.0, 110.0])
    # 8 of 10 pairs won: the rule fails, though the median falls.
    eight = tool.compare(parent, summary_of([90.0] * 8 + [95.0, 115.0]), METRICS)[1]
    assert "change won 8/10" in eight and "gain rule fails" in eight
    # Every pair won, by less than the parent's interquartile range.
    narrow = tool.compare(summary_of([100.0, 90.0, 110.0, 95.0, 105.0]),
                          summary_of([99.0, 89.0, 109.0, 94.0, 104.0]), METRICS)[1]
    assert "change won 5/5" in narrow and "gain rule fails" in narrow


def test_compare_flags_a_change_past_its_bound_and_skips_unpaired_seeds():
    tool = load_tool()
    parent = summary_of([100.0, 100.0, 100.0])
    change = summary_of([130.0, 130.0, 130.0, 1.0], first_seed=2)  # seeds 2-5
    lines = tool.compare(parent, change, METRICS)
    assert lines[0] == "draft_distill: 2 pairs by seed; failed checks: parent 0, change 0"
    assert "change won 0/2" in lines[1] and "ratio 1.300" in lines[1]
    assert "bound 0.25 BROKEN" in lines[1]


def test_compare_refuses_a_file_without_per_seed_values():
    tool = load_tool()
    old = summary_of([100.0, 101.0])
    del old["workloads"]["draft_distill"]["end_to_end_by_seed"]
    with pytest.raises(SystemExit, match="parent file has no per-seed values for draft_distill"):
        tool.compare(old, summary_of([90.0, 91.0]), METRICS)


def test_compare_command_reads_the_bounds_of_benchmark_json(tmp_path, capsys):
    tool = load_tool()
    paths = []
    for name, walls in (("parent", [100.0, 101.0]), ("change", [90.0, 91.0])):
        summary = summary_of(walls)
        for values in summary["workloads"]["draft_distill"]["end_to_end_by_seed"].values():
            values["setup_s"] = 0.5
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(summary))
    assert tool.main(["compare", *map(str, paths)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "draft_distill: 2 pairs by seed; failed checks: parent 0, change 0"
    assert [line.split()[0] for line in out[1:]] == ["wall_probes", "setup_s", "peak_rss_mb"]


def test_compare_prints_each_sides_failed_checks():
    tool = load_tool()
    parent = tool.summarise("demo", [record("draft_distill", 1, failures=["a"]),
                                     record("draft_distill", 2)])
    change = tool.summarise("demo", [record("draft_distill", 1),
                                     record("draft_distill", 2, failures=["b", "c"]),
                                     record("draft_distill", 3, trace=True, failures=["d"])])
    lines = tool.compare(parent, change, METRICS)
    assert lines[0] == "draft_distill: 2 pairs by seed; failed checks: parent 1, change 3"


def test_compare_names_the_workloads_of_one_file_only():
    tool = load_tool()
    parent = tool.summarise("demo", [record("draft_distill", 1), record("sweep_decode", 1),
                                     record("teacher_pretrain", 1)])
    change = tool.summarise("demo", [record("draft_distill", 1), record("alpha", 1)])
    lines = tool.compare(parent, change, METRICS)
    assert lines[:3] == ["alpha: only in the change file, not compared",
                         "sweep_decode: only in the parent file, not compared",
                         "teacher_pretrain: only in the parent file, not compared"]
    assert lines[3] == "draft_distill: 1 pairs by seed; failed checks: parent 0, change 0"
    assert len(lines) == 4 + len(METRICS)


def test_compare_prints_the_raw_timings_beside_wall_probes():
    tool = load_tool()

    def summary(raws):  # (wall_s, probe_s) of seeds 1, 2, 3
        return tool.summarise("demo", [record("draft_distill", seed, wall=w / p, raw=(w, p))
                                       for seed, (w, p) in enumerate(raws, start=1)])

    parent = summary([(1.0, 0.001), (2.0, 0.002), (1.0, 0.001)])
    change = summary([(0.5, 0.001), (2.0, 0.001), (1.5, 0.0005)])
    lines = tool.compare(parent, change, METRICS)
    # wall_probes 1000, 1000, 1000 -> 500, 2000, 3000: its rule reads it alone.
    assert "change won 1/3" in lines[1] and "ratio 2.000" in lines[1]
    assert lines[2] == ("    wall_s (printed only): change lower in 1/3; "
                        "ratio by seed 1: 0.500, 2: 1.000, 3: 1.500")
    assert lines[3] == ("    probe_s (printed only): change lower in 2/3; "
                        "ratio by seed 1: 1.000, 2: 0.500, 3: 0.500")
    assert lines[4].startswith("  peak_rss_mb (lower is better): change won 1/3;")
    # A side whose runs lack them prints neither line.
    lines = tool.compare(summary_of([1.0, 2.0, 3.0]), change, METRICS)
    assert [line.split()[0] for line in lines[1:]] == ["wall_probes", "peak_rss_mb"]
