import re
import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speclab import cli
from speclab.bench import parse_sweep_csv, recount_alpha
from speclab.cli import load_config, main, parse_config_text
from speclab.corpus import CorpusSpec
from speclab.distill import KDConfig
from speclab.errors import ConfigError
from speclab.lm import FAMILY_NEURAL, FAMILY_NGRAM
from speclab.specdec import GenerationConfig

BASE = """\
corpus.vocab_size = 12
corpus.order = 1
corpus.concentration = 0.7
corpus.n_prompts = 8
corpus.prompt_len = 4
corpus.seed = 3
corpus.pretrain_budget = 200000
models.draft_init_scale = 1.0
kd.steps = 150
kd.data_repeats = 1
kd.gen_max_len = 16
decode.max_new_tokens = 16
decode.runs = 2
sweep.kd_taus = 0.0,1.0
sweep.decode_taus = 0.5,1.0
sweep.seeds = 1,2
compose.tau_set = 1.0,0.8
compose.seeds = 1,2
"""


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    run = root / "run"
    cfg = root / "base.cfg"
    cfg.write_text(BASE + f"io.output_dir = {run}\n")
    assert main(["corpus", "--config", str(cfg)]) == 0
    return root, run, cfg


@pytest.fixture(scope="module")
def distilled(ws):
    root, run, cfg = ws
    assert main(["distill", "--config", str(cfg)]) == 0
    return root, run, cfg


def test_parse_config_empty_gives_defaults():
    values = parse_config_text("")
    assert values["corpus.vocab_size"] == 32
    assert values["corpus.concentration"] == 0.5
    assert values["kd.steps"] == 3000
    assert values["kd.data_repeats"] == 5
    assert values["compose.data_repeats"] == 1
    assert values["sweep.seeds"] == (1, 2, 3, 4, 5)
    assert values["decode.block_size"] == 4


def test_parse_config_skips_comments_and_blanks():
    values = parse_config_text("# a comment\n\n  \nkd.steps = 7\n")
    assert values["kd.steps"] == 7


def test_parse_config_unknown_key_names_source_and_line():
    with pytest.raises(ConfigError, match=r"lab\.cfg:3: unknown key 'corpus\.flavor'"):
        parse_config_text("# c\nkd.steps = 2\ncorpus.flavor = mild\n", source="lab.cfg")


def test_parse_config_duplicate_key_names_both_lines():
    text = "kd.steps = 2\n# c\nkd.mode = online\nkd.steps = 3\n"
    with pytest.raises(ConfigError,
                       match=r"lab\.cfg:4: duplicate key 'kd\.steps', first set on line 1"):
        parse_config_text(text, source="lab.cfg")


def test_parse_config_bad_value_names_key():
    with pytest.raises(ConfigError, match=r"bad value for 'corpus\.vocab_size'"):
        parse_config_text("corpus.vocab_size = soup\n")


def test_parse_config_requires_assignment():
    with pytest.raises(ConfigError, match=r"<config>:1: expected"):
        parse_config_text("corpus.vocab_size\n")


def test_parse_config_bad_bool():
    with pytest.raises(ConfigError, match="sweep.traces"):
        parse_config_text("sweep.traces = maybe\n")


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.cfg")


def test_load_config_seed_override(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("corpus.seed = 3\nkd.seed = 4\ndecode.seed = 5\n")
    config = load_config(path, seed_override=9)
    assert config.corpus.seed == 9
    assert config.kd.seed == 9
    assert config.decode.seed == 9
    untouched = load_config(path)
    assert (untouched.corpus.seed, untouched.kd.seed, untouched.decode.seed) == (3, 4, 5)


def test_library_defaults_are_the_empty_configs(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("")
    config = load_config(path)
    assert config.corpus == CorpusSpec()
    assert config.kd == KDConfig()
    assert config.decode == GenerationConfig()


_INTS = st.integers(4, 2**40)  # corpus.vocab_size is the highest lower bound
_FLOATS = st.floats(min_value=0.0, allow_infinity=False)
# An in-range value per parser, and per key where a key's range is narrower.
_VALUES_BY_PARSER = {
    int: _INTS,
    float: _FLOATS,
    str: st.text("abz09_-./", min_size=1, max_size=12),
    cli._parse_bool: st.booleans(),
    cli._parse_int_list: st.lists(_INTS, min_size=1, max_size=4, unique=True).map(tuple),
    cli._parse_float_list: st.lists(_FLOATS, min_size=1, max_size=4, unique=True).map(tuple),
}
_VALUES_BY_KEY = {
    "corpus.concentration": st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    "kd.on_policy_frac": st.floats(0.0, 1.0),
    "kd.mode": st.sampled_from(("offline", "online")),
    "models.draft_family": st.sampled_from((FAMILY_NGRAM, FAMILY_NEURAL)),
}


def _render(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(map(_render, value))
    return repr(value) if isinstance(value, float) else str(value)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.fixed_dictionaries({key: _VALUES_BY_KEY.get(key, _VALUES_BY_PARSER[parse])
                              for key, (parse, _, _) in cli._SCHEMA.items()}))
def test_config_text_round_trips_every_key(values):
    text = "".join(f"{key} = {_render(value)}\n" for key, value in values.items())
    parsed = parse_config_text(text)
    assert parsed == values
    types = {key: type(value) for key, value in values.items()}
    assert {key: type(value) for key, value in parsed.items()} == types
    cli._build_run_config(parsed, None)  # every drawn value is in range


def test_canonical_config_sets_every_key_once_at_its_default():
    text = (Path(__file__).resolve().parent.parent / "configs" / "canonical.cfg").read_text()
    keys = [line.partition("=")[0].strip() for line in text.splitlines()
            if line.strip() and not line.startswith("#")]
    assert sorted(keys) == sorted(parse_config_text(""))
    assert parse_config_text(text) == parse_config_text("")


def test_config_rejects_neural_teacher(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("models.teacher_family = neural\n")
    with pytest.raises(ConfigError, match="teacher_family"):
        load_config(path)


def test_config_rejects_unknown_draft_family(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("models.draft_family = transformer\n")
    with pytest.raises(ConfigError, match="draft_family"):
        load_config(path)


def test_corpus_writes_artifacts(ws):
    _, run, _ = ws
    for name in ("ground_truth.ckpt", "teacher.ckpt", "prompts_in.txt", "corpus_meta.txt"):
        assert (run / name).is_file()
    meta = (run / "corpus_meta.txt").read_text()
    assert "teacher_heldout_ce = " in meta
    assert "heldout_entropy_rate = " in meta


def test_corpus_rerun_is_byte_identical(ws, capsys):
    _, run, cfg = ws
    names = ("ground_truth.ckpt", "teacher.ckpt", "prompts_in.txt", "corpus_meta.txt")
    before = {name: (run / name).read_bytes() for name in names}
    assert main(["corpus", "--config", str(cfg)]) == 0
    assert "corpus written to" in capsys.readouterr().out
    for name in names:
        assert (run / name).read_bytes() == before[name]


def test_distill_writes_training_artifacts(distilled):
    _, run, _ = distilled
    assert (run / "draft.ckpt").is_file()
    assert (run / "kd_dataset.txt").is_file()
    log_lines = (run / "train_log.csv").read_text().splitlines()
    assert log_lines[0] == "step,lm_loss,fkl"
    assert len(log_lines) == 1 + 150


def test_decode_writes_stats_and_matching_traces(distilled, capsys):
    _, run, cfg = distilled
    assert main(["decode", "--config", str(cfg), "--no-timing"]) == 0
    assert "decode stats written" in capsys.readouterr().out
    stats = dict(
        line.split(" = ") for line in (run / "decode_stats.txt").read_text().splitlines()
    )
    assert stats["speedup"] == "0.000000"
    assert stats["wall_spec_s"] == "0.000000"
    assert int(stats["draft_accepted"]) <= int(stats["draft_proposed"])
    recount = recount_alpha((run / "traces" / "decode_traces.txt").read_text())
    assert abs(recount - float(stats["alpha"])) < 5e-7


def test_decode_without_draft_fails_cleanly(ws, tmp_path, capsys):
    root, _, _ = ws
    cfg = tmp_path / "c.cfg"
    cfg.write_text(BASE + f"io.output_dir = {tmp_path / 'empty'}\n")
    assert main(["decode", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "run the corpus command first" in err


def test_unconverged_teacher_names_the_budget_key(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    text = BASE.replace("corpus.pretrain_budget = 200000", "corpus.pretrain_budget = 2000")
    cfg.write_text(text + f"models.teacher_order = 3\nio.output_dir = {tmp_path / 'run'}\n")
    assert main(["corpus", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: teacher not converged in 2000 tokens")
    assert err.rstrip().endswith("; raise corpus.pretrain_budget (now 2000)")
    assert not (tmp_path / "run" / "teacher.ckpt").exists()


def test_sweep_writes_grid_and_reruns_identically(ws, capsys):
    _, run, cfg = ws
    assert main(["sweep", "--config", str(cfg), "--no-timing"]) == 0
    assert "sweep written to" in capsys.readouterr().out
    first = (run / "sweep.csv").read_bytes()
    rows = parse_sweep_csv(first.decode("ascii"))
    assert len(rows) == 2 * 2 * 2
    assert (run / "drafts" / "draft_offline_tau0.00.ckpt").is_file()
    assert (run / "drafts" / "draft_offline_tau1.00.ckpt").is_file()
    assert main(["sweep", "--config", str(cfg), "--no-timing"]) == 0
    assert (run / "sweep.csv").read_bytes() == first
    with pytest.raises(SystemExit):  # sweeps run serially: no worker flag
        main(["sweep", "--config", str(cfg), "--no-timing", "--jobs", "2"])
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


def test_sweep_traces_recount_to_csv_alphas(ws, tmp_path):
    root, run, _ = ws
    cfg = tmp_path / "traces.cfg"
    cfg.write_text(BASE + f"io.output_dir = {run}\nsweep.traces = true\n")
    assert main(["sweep", "--config", str(cfg), "--no-timing"]) == 0
    rows = parse_sweep_csv((run / "sweep.csv").read_text())
    for row in rows:
        name = (
            f"sweep_kd{row['kd_tau']:.2f}_dec{row['decode_tau']:.2f}"
            f"_seed{row['seed']}.txt"
        )
        recount = recount_alpha((run / "traces" / name).read_text())
        assert f"{recount:.6f}" == f"{row['alpha']:.6f}"


def test_compose_writes_comparison_rows(ws, capsys):
    _, run, cfg = ws
    assert main(["compose", "--config", str(cfg), "--no-timing"]) == 0
    assert "comparison written" in capsys.readouterr().out
    lines = (run / "comparison.csv").read_text().splitlines()
    assert lines[0] == "decode_tau,seed,delta_alpha,delta_speedup"
    assert len(lines) == 1 + 2
    for line in lines[1:]:
        tau, seed, d_alpha, d_speedup = line.split(",")
        assert float(tau) == 1.0
        assert int(seed) in (1, 2)
        assert -1.0 <= float(d_alpha) <= 1.0
        assert float(d_speedup) == 0.0


@pytest.mark.parametrize("key", ["sweep.kd_taus", "sweep.decode_taus", "compose.decode_taus"])
def test_repeated_temperatures_are_rejected_on_load(tmp_path, key):
    # A repeat would give two row sets with one key, which report averages.
    cfg = tmp_path / "repeat.cfg"
    cfg.write_text(f"{key} = 0.5,1.0,0.5\n")
    with pytest.raises(ConfigError, match=re.escape(f"{key} must be one or more finite "
                                                    "temperatures >= 0, none repeated, got")):
        load_config(cfg)


def test_a_repeated_mixture_temperature_weights_the_mixture(tmp_path):
    cfg = tmp_path / "weights.cfg"
    cfg.write_text("compose.tau_set = 1.0,1.0,0.8\n")
    assert load_config(cfg).values["compose.tau_set"] == (1.0, 1.0, 0.8)


@pytest.mark.parametrize("key, value", [
    ("sweep.kd_taus", "1.0,-0.5"),
    ("sweep.kd_taus", ""),
    ("sweep.decode_taus", "1.0,-0.5"),
    ("compose.tau_set", "1.0,-0.5"),
    ("compose.tau_set", "1.0,nan"),
    ("compose.decode_taus", "inf"),
    ("compose.single_tau", "-0.5"),
    ("sweep.runs_per_seed", "0"),
    ("decode.runs", "0"),
    ("corpus.pretrain_budget", "-5"),
    ("corpus.pretrain_budget", "0"),
    ("corpus.tolerance", "nan"),
    ("corpus.tolerance", "-1"),
    # A retired key is an unknown key.
    ("corpus.out_concentration", "0"),
    ("compose.data_repeats", "0"),
    ("models.teacher_order", "0"),
    ("models.draft_order", "0"),
    ("models.draft_context_size", "0"),
    ("models.draft_d_emb", "-1"),
    ("models.draft_d_hid", "0"),
    ("models.draft_init_scale", "-1"),
    ("models.draft_init_scale", "inf"),
    ("sweep.seeds", "1,1"),
    ("compose.seeds", ""),
    # Checked by the dataclass built from the key's section.
    ("kd.steps", "-1"),
    ("decode.block_size", "0"),
    ("corpus.vocab_size", "3"),
    ("corpus.n_prompts", "0"),
])
def test_bad_temperature_fails_on_load_before_any_training(ws, tmp_path, capsys, key, value):
    _, run, _ = ws
    out = tmp_path / "run"
    out.mkdir()
    for name in ("teacher.ckpt", "prompts_in.txt"):
        shutil.copy(run / name, out / name)
    base = "".join(line + "\n" for line in BASE.splitlines() if not line.startswith(key + " "))
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(base + f"{key} = {value}\nio.output_dir = {out}\n")
    with pytest.raises(ConfigError, match=re.escape(key)):
        load_config(cfg)
    section = key.split(".")[0]
    command = "distill" if section in ("models", "kd") else section
    assert main([command, "--config", str(cfg)]) == 1
    assert key in capsys.readouterr().err
    assert not (out / "drafts").exists()
    assert sorted(path.name for path in out.iterdir()) == ["prompts_in.txt", "teacher.ckpt"]


def test_online_with_both_weights_zero_matches_offline(ws, tmp_path):
    _, run, _ = ws
    results = {}
    for mode, extra in (
        ("offline", "kd.mode = offline\n"),
        ("online", "kd.mode = online\nkd.on_policy_frac = 0\nkd.loss_ratio = 0\n"),
    ):
        out = tmp_path / mode
        out.mkdir()
        for name in ("teacher.ckpt", "prompts_in.txt"):
            shutil.copy(run / name, out / name)
        cfg = tmp_path / f"{mode}.cfg"
        cfg.write_text(BASE + f"io.output_dir = {out}\n" + extra)
        assert main(["distill", "--config", str(cfg)]) == 0
        results[mode] = (out / "draft.ckpt").read_bytes()
    assert results["offline"] == results["online"]


@pytest.mark.parametrize("mode", ["offline", "online"])
def test_distill_rejects_a_draft_vocabulary_unlike_the_teachers(ws, tmp_path, capsys, mode):
    _, run, _ = ws
    out = tmp_path / "run"
    out.mkdir()
    for name in ("teacher.ckpt", "prompts_in.txt"):
        shutil.copy(run / name, out / name)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(BASE.replace("corpus.vocab_size = 12", "corpus.vocab_size = 16")
                   + f"kd.mode = {mode}\nio.output_dir = {out}\n")
    assert main(["distill", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == "error: teacher and student must share a vocabulary\n"
    assert sorted(path.name for path in out.iterdir()) == ["prompts_in.txt", "teacher.ckpt"]


REPORT_CSV = "kd_tau,decode_tau,seed,alpha,speedup,tokens_out,wall_spec_s,wall_base_s\n" + "".join(
    f"{kd:.6f},{dec:.6f},{seed},{alpha:.6f},{alpha + 1.0:.6f},10,1.000000,1.000000\n"
    for (kd, dec), cell in {
        (0.0, 0.0): (0.2, 0.4),
        (0.0, 1.0): (0.5, 0.5),
        (1.0, 0.0): (0.1, 0.3),
        (1.0, 1.0): (0.6, 0.8),
    }.items()
    for seed, alpha in zip((1, 2), cell)
)


def test_report_recomputes_cell_means(tmp_path, capsys):
    path = tmp_path / "sweep.csv"
    path.write_text(REPORT_CSV)
    assert main(["report", str(path)]) == 0
    out = capsys.readouterr().out
    # Hand-computed pooled means: cells (.3, .5 / .2, .7), column means .25 and .6.
    assert "rows: 8  seeds: 2  cells: 4  kd_taus: 2  decode_taus: 2" in out
    assert "0.300000 0.500000" in out.replace(" ", " ")
    assert "decode 0.00 -> kd 0.00 (alpha 0.300000)" in out
    assert "decode 1.00 -> kd 1.00 (alpha 0.700000)" in out
    assert "decode 0.00: alpha 0.250000" in out
    assert "decode 1.00: alpha 0.600000" in out
    assert ("kd 0.00 / decode 1.00: 0.500000  vs  kd 1.00 / decode 0.00: 0.200000"
            in out)


def test_report_writes_file_and_notes_zeroed_timing(tmp_path, capsys):
    zeroed = REPORT_CSV.replace(",1.000000,1.000000", ",0.000000,0.000000")
    lines = [line for line in zeroed.splitlines()]
    body = [lines[0]]
    for line in lines[1:]:
        parts = line.split(",")
        parts[4] = "0.000000"
        body.append(",".join(parts))
    path = tmp_path / "sweep.csv"
    path.write_text("".join(line + "\n" for line in body))
    out_path = tmp_path / "report.txt"
    assert main(["report", str(path), "--out", str(out_path)]) == 0
    assert "report written" in capsys.readouterr().out
    text = out_path.read_text()
    assert "decode 0.00: alpha 0.250000  speedup 0.000000" in text
    assert "spearman" not in text


def test_report_missing_file_fails_cleanly(tmp_path, capsys):
    assert main(["report", str(tmp_path / "nope.csv")]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_report_rejects_empty_csv(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text("kd_tau,decode_tau,seed,alpha,speedup,tokens_out,wall_spec_s,wall_base_s\n")
    assert main(["report", str(path)]) == 1
    assert "no data rows" in capsys.readouterr().err


def test_report_rejects_out_of_range_csv_values(tmp_path, capsys):
    path = tmp_path / "sweep.csv"
    lines = REPORT_CSV.splitlines()
    parts = lines[3].split(",")
    parts[3] = "nan"
    lines[3] = ",".join(parts)
    path.write_text("".join(line + "\n" for line in lines))
    assert main(["report", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "line 4: alpha" in err


@pytest.mark.parametrize("artifact, text, named", [
    ("prompts_in.txt", "2,3\n3,4,\n", "prompts_in.txt line 2"),
    ("prompts_in.txt", "2,3\n3,1", "prompts_in.txt line 2"),
    ("draft.ckpt", "[1, 2]\n", "not a model checkpoint"),
    ("teacher.ckpt", '{"format": "speclab-model", "version": 1}\n', "has no vocab"),
])
def test_decode_reports_a_malformed_artifact_on_stderr(distilled, tmp_path, capsys,
                                                       artifact, text, named):
    _, run, _ = distilled
    copy = tmp_path / "run"
    shutil.copytree(run, copy)
    (copy / artifact).write_text(text)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(BASE + f"io.output_dir = {copy}\n")
    assert main(["decode", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert named in err


def test_main_usage_errors_exit_2():
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["swoop"])
    assert info.value.code == 2


def test_main_reports_config_errors_on_stderr(tmp_path, capsys):
    assert main(["corpus", "--config", str(tmp_path / "nope.cfg")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "not found" in err
