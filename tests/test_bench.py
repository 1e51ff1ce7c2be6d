import numpy as np
import pytest

from speclab import bench
from speclab.bench import (
    DEFAULT_DECODE_TAUS,
    DEFAULT_KD_TAUS,
    SWEEP_CSV_HEADER,
    DecodeStats,
    SweepResult,
    best_kd_per_decode,
    compare_drafts,
    measure_cells,
    measure_decode,
    parse_sweep_csv,
    recount_alpha,
    run_sweep,
    sweep_csv_text,
)
from speclab.corpus import CorpusBundle, CorpusSpec, build_ground_truth
from speclab.distill import KDConfig
from speclab.errors import DomainError, TrainingError
from speclab.lm import NGramLogitLM, TinyNeuralLM, Vocab, load_checkpoint
from speclab.sampling import STREAM_EVAL, derive_seed, make_rng
from speclab.specdec import GenerationConfig, dump_trace, speculative_generate

V8 = Vocab(size=8, bos_id=0, eos_id=1)


def random_lm(seed: int, scale: float = 2.0, order: int = 1) -> NGramLogitLM:
    return NGramLogitLM.create(V8, order, init_scale=scale, init_seed=seed)


def tiny_bundle(concentration: float = 1.0, n_prompts: int = 6) -> CorpusBundle:
    """A corpus bundle with a stand-in teacher, no pretraining involved."""
    spec = CorpusSpec(vocab_size=8, order=1, concentration=concentration,
                      n_prompts=n_prompts, prompt_len=3, seed=5)
    gt = build_ground_truth(spec, make_rng(spec.seed))
    rng = make_rng(44)
    prompts = [[int(rng.integers(2, 8)) for _ in range(3)] for _ in range(n_prompts)]
    return CorpusBundle(spec=spec, vocab=spec.vocab(), ground_truth=gt, teacher=gt,
                        prompts=prompts, heldout_contexts=[], teacher_ce=0.0,
                        entropy_rate=0.0)


def small_config(tau: float = 1.0, seed: int = 0) -> GenerationConfig:
    return GenerationConfig(tau=tau, block_size=3, max_new_tokens=12, seed=seed)


def stats_with(alpha: float, proposed: int = 100, runs: int = 1,
               speedup: float = 1.0) -> DecodeStats:
    accepted = round(alpha * proposed)
    return DecodeStats(alpha=accepted / proposed, speedup=speedup, tokens_out=50,
                       wall_time_spec=1.0, wall_time_base=speedup, runs=runs,
                       draft_proposed=proposed, draft_accepted=accepted)


def test_decode_stats_validation():
    with pytest.raises(DomainError):
        DecodeStats(alpha=1.2, speedup=1.0, tokens_out=1, wall_time_spec=1.0,
                    wall_time_base=1.0)
    with pytest.raises(DomainError):
        DecodeStats(alpha=0.5, speedup=0.0, tokens_out=1, wall_time_spec=1.0,
                    wall_time_base=1.0)
    with pytest.raises(DomainError):
        DecodeStats(alpha=0.5, speedup=1.0, tokens_out=1, wall_time_spec=1.0,
                    wall_time_base=1.0, runs=0)
    with pytest.raises(DomainError):
        DecodeStats(alpha=0.5, speedup=1.0, tokens_out=1, wall_time_spec=1.0,
                    wall_time_base=1.0, draft_proposed=5, draft_accepted=6)


def test_measure_decode_draft_equal_to_target_gives_alpha_one():
    model = random_lm(seed=9)
    prompts = [[2, 3], [4, 5], [6]]
    stats = measure_decode(model, model, prompts, small_config(), runs=2)
    assert stats.alpha == 1.0
    assert stats.draft_accepted == stats.draft_proposed > 0
    assert stats.speedup > 0
    assert stats.runs == 2


def test_measure_decode_disjoint_argmax_greedy_gives_alpha_zero():
    # At tau=0 the verifier's distribution is one-hot; a draft whose argmax
    # never matches gets every proposal rejected.
    target = NGramLogitLM.create(V8, 1)
    draft = NGramLogitLM.create(V8, 1)
    target.table[:, 2] = 5.0
    draft.table[:, 3] = 5.0
    stats = measure_decode(target, draft, [[4], [5]], small_config(tau=0.0), runs=1)
    assert stats.alpha == 0.0
    assert stats.draft_accepted == 0


def test_measure_decode_validation():
    model = random_lm(seed=9)
    with pytest.raises(DomainError):
        measure_decode(model, model, [], small_config(), runs=1)
    with pytest.raises(DomainError):
        measure_decode(model, model, [[2]], small_config(), runs=0)


def test_measure_decode_deterministic_counts():
    target = random_lm(seed=9)
    draft = random_lm(seed=10)
    prompts = [[2, 3], [4]]
    a = measure_decode(target, draft, prompts, small_config(seed=3), runs=2)
    b = measure_decode(target, draft, prompts, small_config(seed=3), runs=2)
    assert (a.alpha, a.tokens_out, a.draft_proposed, a.draft_accepted) == (
        b.alpha, b.tokens_out, b.draft_proposed, b.draft_accepted
    )


def test_measure_decode_trace_recount_matches_alpha():
    target = random_lm(seed=9)
    draft = random_lm(seed=10)
    blocks = []
    stats = measure_decode(target, draft, [[2], [3], [4]], small_config(seed=1),
                           runs=2, on_trace=lambda run, j, tr: blocks.append(dump_trace(tr)))
    assert len(blocks) == 2 * 3
    assert recount_alpha("\n".join(blocks)) == stats.alpha


@pytest.mark.parametrize("tau", [0.0, 0.6])
def test_measure_decode_equals_the_one_prompt_decoders(tau):
    # Three runs of four prompts decode as twelve lockstep streams; each
    # gives what the one-prompt decoders give with its (run, prompt) seed.
    target = random_lm(seed=11, order=2)
    draft = random_lm(seed=12)
    prompts = [[2], [3, 4], [5, 6, 7], []]
    cfg = small_config(tau=tau, seed=4)
    seen = []
    stats = measure_decode(target, draft, prompts, cfg, runs=3,
                           on_trace=lambda run, j, tr: seen.append((run, j, dump_trace(tr))))
    want = []
    proposed = accepted = tokens = 0
    for run in range(3):
        for j, prompt in enumerate(prompts):
            seed = derive_seed(cfg.seed, STREAM_EVAL, run, j)
            out, trace = speculative_generate(target, draft, prompt, cfg, make_rng(seed))
            want.append((run, j, dump_trace(trace)))
            proposed += trace.draft_proposed
            accepted += trace.draft_accepted
            tokens += len(out)
    assert seen == want
    assert (stats.draft_proposed, stats.draft_accepted, stats.tokens_out) == (
        proposed, accepted, tokens)
    assert stats.alpha == accepted / proposed


def one_cell(target, draft, prompts, cfg, runs):
    """``measure_decode`` of one cell: its stats and its dumped traces in (run, prompt) order."""
    blocks = []
    stats = measure_decode(target, draft, prompts, cfg, runs,
                           on_trace=lambda run, j, trace: blocks.append(dump_trace(trace)))
    return stats, "\n".join(blocks)


def same_decode(a: DecodeStats, b: DecodeStats) -> bool:
    return ((a.alpha, a.draft_proposed, a.draft_accepted, a.tokens_out, a.runs)
            == (b.alpha, b.draft_proposed, b.draft_accepted, b.tokens_out, b.runs))


def neural_draft(seed: int) -> TinyNeuralLM:
    return TinyNeuralLM.create(V8, context_size=2, d_emb=4, d_hid=8, seed=seed)


@pytest.mark.parametrize("tau", [0.0, 0.6, 1.0])
@pytest.mark.parametrize("drafts", ["order1", "order2", "neural", "one_neural", "mixed"])
def test_measure_cells_equal_one_cell_at_a_time(tau, drafts):
    # Whole n-grams of one width stack into one decode, as does one draft of
    # any kind; distinct tiny-neural drafts, or drafts of two widths, fall
    # back to one group per cell.
    target = random_lm(seed=11, order=2)
    models = {"order1": [random_lm(seed=s) for s in (12, 13, 14)],
              "order2": [random_lm(seed=s, order=2) for s in (12, 13, 14)],
              "neural": [neural_draft(s) for s in (12, 13, 14)],
              "one_neural": [neural_draft(12)] * 3,
              "mixed": [random_lm(seed=12), random_lm(seed=13, order=2), neural_draft(14)]}[drafts]
    prompts = [[2], [3, 4], [5, 6, 7], []]
    cells = [(models[k], small_config(tau=tau, seed=seed))
             for k, seed in ((0, 3), (1, 3), (2, 5), (0, 6))]
    blocks = [[] for _ in cells]
    got = measure_cells(target, cells, prompts, runs=2,
                        on_trace=lambda c, run, j, tr: blocks[c].append(dump_trace(tr)))
    assert len(got) == len(cells)
    for (draft, cfg), stats, block in zip(cells, got, blocks):
        want, text = one_cell(target, draft, prompts, cfg, 2)
        assert same_decode(stats, want)
        assert "\n".join(block) == text


def count_decodes(monkeypatch) -> list:
    """Patch ``bench.decode_lockstep`` to record, per call, whether it had a draft."""
    calls = []
    real = bench.decode_lockstep

    def counting(target, draft, *args, **kwargs):
        calls.append(draft is not None)
        return real(target, draft, *args, **kwargs)

    monkeypatch.setattr(bench, "decode_lockstep", counting)
    return calls


@pytest.mark.parametrize("order", [1, 2])
def test_run_sweep_cells_equal_one_cell_at_a_time(tmp_path, monkeypatch, order):
    bundle = tiny_bundle()
    base = small_config(seed=6)
    decode_taus = (0.0, 0.6, 1.0)
    traces = {}
    calls = count_decodes(monkeypatch)
    result = run_sweep((0.0, 1.0), decode_taus, "offline", bundle, base, (1, 2),
                       kd_template=KDConfig(mode="offline", learning_rate=0.4, steps=60, seed=2),
                       cache_dir=tmp_path, draft_factory=lambda: random_lm(seed=77, order=order),
                       trace_sink=lambda kd, dec, seed, text: traces.__setitem__((kd, dec, seed),
                                                                                  text))
    # One speculative and one baseline decode per decode tau.
    assert calls == [True, False] * len(decode_taus)
    monkeypatch.undo()
    for kd_tau, decode_tau, seed, stats in result.seed_stats:
        ki, di = result.kd_taus.index(kd_tau), decode_taus.index(decode_tau)
        draft = load_checkpoint(tmp_path / f"draft_offline_tau{kd_tau:.2f}.ckpt")
        cfg = small_config(tau=decode_tau,
                           seed=derive_seed(base.seed, bench._TAG_SWEEP_CELL, ki, di, seed))
        want, text = one_cell(bundle.teacher, draft, bundle.prompts, cfg, 1)
        assert same_decode(stats, want)
        assert traces[kd_tau, decode_tau, seed] == text


@pytest.mark.parametrize("family", ["ngram", "neural"])
def test_compare_drafts_cells_equal_one_cell_at_a_time(monkeypatch, family):
    bundle = tiny_bundle()
    base = small_config(seed=4)
    decode_taus = (0.0, 0.6, 1.0)
    make = random_lm if family == "ngram" else neural_draft
    drafts = {seed: (make(10 + seed), make(20 + seed)) for seed in (2, 1)}
    calls = count_decodes(monkeypatch)
    rows = compare_drafts(bundle.teacher, drafts, bundle.prompts, decode_taus, base)
    # Stacked n-grams decode once per side and tau; tiny-neural drafts once per cell.
    per_tau = 1 if family == "ngram" else 4
    assert calls == [True, False] * per_tau * len(decode_taus)
    monkeypatch.undo()
    assert [(tau, seed) for tau, seed, *_ in rows] == [
        (tau, seed) for tau in decode_taus for seed in (1, 2)]
    for tau, seed, *stats in rows:
        cfg = small_config(tau=tau, seed=derive_seed(base.seed, bench._TAG_ARM_CELL,
                                                     decode_taus.index(tau), seed))
        for draft, got in zip(drafts[seed], stats):
            assert same_decode(got, one_cell(bundle.teacher, draft, bundle.prompts, cfg, 1)[0])


def fake_clock(monkeypatch, ticks):
    """Make ``bench.perf_counter`` return ``ticks`` one call after another."""
    ticks = iter(ticks)
    monkeypatch.setattr(bench, "perf_counter", lambda: next(ticks))


def test_measure_cells_split_the_group_wall_times_by_stream_share(monkeypatch):
    target = random_lm(seed=11)
    cells = [(random_lm(seed=s), small_config(seed=s)) for s in (12, 13, 14, 15)]
    # Speculative decode from 10 to 18 s, baseline from 20 to 22 s.
    fake_clock(monkeypatch, [10.0, 18.0, 20.0, 22.0])
    got = measure_cells(target, cells, [[2], [3]], runs=3)
    assert [(s.wall_time_spec, s.wall_time_base, s.speedup) for s in got] == [(2.0, 0.5, 0.25)] * 4
    # One cell keeps its whole timed decodes and their ratio.
    fake_clock(monkeypatch, [10.0, 18.0, 20.0, 22.0])
    one = measure_decode(target, cells[0][0], [[2], [3]], cells[0][1], runs=3)
    assert (one.wall_time_spec, one.wall_time_base, one.speedup, one.runs) == (8.0, 2.0, 0.25, 3)
    assert same_decode(one, got[0])


def test_measure_cells_fall_back_to_timing_each_cell_alone(monkeypatch):
    target = random_lm(seed=11)
    cells = [(neural_draft(12), small_config(seed=1)), (neural_draft(13), small_config(seed=2))]
    fake_clock(monkeypatch, [0.0, 4.0, 4.0, 5.0, 10.0, 12.0, 12.0, 18.0])
    got = measure_cells(target, cells, [[2], [3]], runs=1)
    assert [(s.wall_time_spec, s.wall_time_base, s.speedup) for s in got] == [
        (4.0, 1.0, 0.25), (2.0, 6.0, 3.0)]


def test_sweep_cells_of_one_decode_tau_share_speedup_and_wall_times(small_sweep):
    _, _, result = small_sweep
    for decode_tau in result.decode_taus:
        column = [s for _, d, _, s in result.seed_stats if d == decode_tau]
        assert len(column) == 4
        assert len({(s.speedup, s.wall_time_spec, s.wall_time_base) for s in column}) == 1


def test_measure_cells_validation():
    model = random_lm(seed=9)
    with pytest.raises(DomainError, match="cell list is empty"):
        measure_cells(model, [], [[2]], runs=1)
    with pytest.raises(DomainError, match="share tau, block_size and max_new_tokens"):
        measure_cells(model, [(model, small_config(tau=1.0)), (model, small_config(tau=0.5))],
                      [[2]], runs=1)
    other = GenerationConfig(tau=1.0, block_size=2, max_new_tokens=12)
    with pytest.raises(DomainError, match="share tau, block_size and max_new_tokens"):
        measure_cells(model, [(model, small_config()), (model, other)], [[2]], runs=1)


def test_recount_alpha_rejects_empty_text():
    with pytest.raises(DomainError):
        recount_alpha("\n\n")


def test_recount_alpha_names_the_block_and_the_line_of_a_bad_round():
    text = ("round=0 proposed=2,3 accepted=2 correction=4 kind=bonus\n"
            "\n"
            "round=0 proposed=2,3 accepted=1 correction=4 kind=resample\n"
            "round=1 proposed=2 accepted=9 correction=4 kind=resample\n")
    with pytest.raises(DomainError, match=r"^trace block 2, line 4: accepted 9 of 1 proposed$"):
        recount_alpha(text)


def make_result(alphas, kd_taus, decode_taus):
    seed_stats = tuple(
        (kd_taus[ki], decode_taus[di], 1, stats_with(alphas[ki][di]))
        for ki in range(len(kd_taus))
        for di in range(len(decode_taus))
    )
    return SweepResult(kd_taus, decode_taus, seed_stats)


def test_best_kd_per_decode_picks_column_max():
    result = make_result([[0.30, 0.60], [0.50, 0.40]], (0.0, 0.5), (0.2, 1.0))
    assert best_kd_per_decode(result) == [(0.2, 0.5), (1.0, 0.0)]


def test_best_kd_per_decode_tie_goes_to_lowest_kd():
    result = make_result([[0.50], [0.50]], (0.1, 0.9), (1.0,))
    assert best_kd_per_decode(result) == [(1.0, 0.1)]


def test_best_kd_per_decode_pools_counts_over_seeds():
    # kd 0.0: 10/100 and 90/100 accepted, pooled 0.50 (mean of alphas 0.50);
    # kd 0.5: 45/100 and 6/10, pooled 51/110 = 0.464 (mean of alphas 0.525).
    rows = [(0.0, 1.0, 1, stats_with(0.1)), (0.0, 1.0, 2, stats_with(0.9)),
            (0.5, 1.0, 1, stats_with(0.45)), (0.5, 1.0, 2, stats_with(0.6, proposed=10))]
    assert best_kd_per_decode(SweepResult((0.0, 0.5), (1.0,), tuple(rows))) == [(1.0, 0.0)]


def test_sweep_csv_round_trip_and_formatting():
    result = make_result([[0.125]], (0.3,), (0.7,))
    text = sweep_csv_text(result)
    lines = text.splitlines()
    assert lines[0] == SWEEP_CSV_HEADER
    assert lines[1] == "0.300000,0.700000,1,0.120000,1.000000,50,1.000000,1.000000"
    rows = parse_sweep_csv(text)
    assert rows[0]["kd_tau"] == 0.3 and rows[0]["seed"] == 1
    assert rows[0]["tokens_out"] == 50


def test_sweep_csv_no_timing_zeroes_clock_fields():
    result = make_result([[0.125]], (0.3,), (0.7,))
    row = sweep_csv_text(result, no_timing=True).splitlines()[1]
    assert row.split(",")[4:] == ["0.000000", "50", "0.000000", "0.000000"]


def test_parse_sweep_csv_rejects_bad_input():
    with pytest.raises(DomainError, match="header"):
        parse_sweep_csv("alpha,beta\n")
    good = SWEEP_CSV_HEADER + "\n"
    with pytest.raises(DomainError, match="line 2"):
        parse_sweep_csv(good + "0.1,0.2,1\n")
    with pytest.raises(DomainError, match="line 2"):
        parse_sweep_csv(good + "0.1,0.2,x,0.5,1.0,10,1.0,1.0\n")


@pytest.mark.parametrize("field, value", [
    (3, "nan"), (3, "1.5"), (3, "-0.1"), (4, "-1.0"), (4, "inf"), (5, "-3"),
    (6, "-0.5"), (6, "inf"), (7, "nan"), (0, "-0.2"), (1, "inf"),
])
def test_parse_sweep_csv_rejects_out_of_range_values(field, value):
    good = "0.100000,0.200000,1,0.500000,1.000000,10,1.000000,1.000000"
    parts = good.split(",")
    parts[field] = value
    name = SWEEP_CSV_HEADER.split(",")[field]
    text = SWEEP_CSV_HEADER + "\n" + good + "\n" + ",".join(parts) + "\n"
    with pytest.raises(DomainError, match=f"line 3: {name} "):
        parse_sweep_csv(text)


def test_run_sweep_validation():
    bundle = tiny_bundle()
    cfg = small_config()
    training = {"kd_template": KDConfig(mode="offline", steps=10, seed=1),
                "draft_factory": lambda: random_lm(seed=77)}
    with pytest.raises(DomainError):
        run_sweep((), (1.0,), "offline", bundle, cfg, (1,), **training)
    with pytest.raises(DomainError):
        run_sweep((0.5,), (1.0,), "offline", bundle, cfg, (), **training)
    with pytest.raises(DomainError):
        run_sweep((0.5,), (1.0,), "offline", bundle, cfg, (1, 1), **training)
    with pytest.raises(DomainError):
        run_sweep((0.5,), (1.0,), "hybrid", bundle, cfg, (1,), **training)
    for jobs in (0, 2):
        with pytest.raises(DomainError, match=f"jobs must be 1 .*got {jobs}"):
            run_sweep((0.5,), (1.0,), "offline", bundle, cfg, (1,), jobs=jobs, **training)


@pytest.mark.parametrize("kd_taus, named", [
    ((0.124, 0.5, 0.121), r"kd_taus 0\.121 and 0\.124 share the cached draft "
                          r"draft_offline_tau0\.12\.ckpt"),
], ids=["close"])
def test_run_sweep_rejects_kd_taus_that_share_a_cache_file(tmp_path, kd_taus, named):
    bundle = tiny_bundle()
    with pytest.raises(DomainError, match=named):
        run_sweep(kd_taus, (1.0,), "offline", bundle, small_config(), (1,),
                  kd_template=KDConfig(mode="offline", steps=10, seed=1), cache_dir=tmp_path,
                  draft_factory=lambda: random_lm(seed=77))
    assert list(tmp_path.iterdir()) == []
    # Without a cache each temperature trains its own draft.
    result = run_sweep(kd_taus, (1.0,), "offline", bundle, small_config(), (1,),
                       kd_template=KDConfig(mode="offline", steps=10, seed=1),
                       draft_factory=lambda: random_lm(seed=77))
    assert result.kd_taus == tuple(sorted(kd_taus))


@pytest.mark.parametrize("cached", [False, True])
@pytest.mark.parametrize("kd_taus, decode_taus, named", [
    ((0.5, 0.5), (1.0,), r"kd_taus repeat a value: \(0\.5, 0\.5\)"),
    ((0.5,), (1.0, 0.0, 1.0), r"decode_taus repeat a value: \(0\.0, 1\.0, 1\.0\)"),
], ids=["kd", "decode"])
def test_run_sweep_rejects_repeated_temperatures(tmp_path, cached, kd_taus, decode_taus, named):
    # A repeat would write two row sets with one (kd_tau, decode_tau, seed) key.
    with pytest.raises(DomainError, match=named):
        run_sweep(kd_taus, decode_taus, "offline", tiny_bundle(), small_config(), (1,),
                  kd_template=KDConfig(mode="offline", steps=10, seed=1),
                  cache_dir=tmp_path if cached else None,
                  draft_factory=lambda: random_lm(seed=77))
    assert list(tmp_path.iterdir()) == []


@pytest.fixture(scope="module")
def small_sweep():
    bundle = tiny_bundle()
    template = KDConfig(mode="offline", learning_rate=0.4, steps=120, seed=2)
    result = run_sweep((0.0, 1.0), (0.0, 1.0), "offline", bundle, small_config(seed=6),
                       (1, 2), kd_template=template,
                       draft_factory=lambda: random_lm(seed=77))
    return bundle, template, result


def test_run_sweep_shapes(small_sweep):
    bundle, template, result = small_sweep
    assert result.kd_taus == (0.0, 1.0)
    assert result.decode_taus == (0.0, 1.0)
    assert len(result.seed_stats) == 2 * 2 * 2


def test_run_sweep_cells_pool_their_seed_stats(small_sweep):
    # The best kd per decode tau reads each cell's counts pooled over its seeds.
    _, _, result = small_sweep
    pooled = {}
    for kd in result.kd_taus:
        for dec in result.decode_taus:
            parts = [s for k, d, _, s in result.seed_stats if k == kd and d == dec]
            assert len(parts) == 2
            pooled[kd, dec] = (sum(p.draft_accepted for p in parts)
                               / sum(p.draft_proposed for p in parts))
    assert best_kd_per_decode(result) == [
        (dec, max(result.kd_taus, key=lambda kd: (pooled[kd, dec], -kd)))
        for dec in result.decode_taus]


def test_run_sweep_rerun_is_byte_identical(small_sweep):
    bundle, template, result = small_sweep
    again = run_sweep((0.0, 1.0), (0.0, 1.0), "offline", bundle, small_config(seed=6),
                      (1, 2), kd_template=template,
                      draft_factory=lambda: random_lm(seed=77))
    assert sweep_csv_text(result, no_timing=True) == sweep_csv_text(again, no_timing=True)


def test_run_sweep_trace_sink_recounts_to_seed_stats(small_sweep):
    bundle, template, _ = small_sweep
    captured = {}
    result = run_sweep((0.5,), (1.0,), "offline", bundle, small_config(seed=6),
                       (1, 2), kd_template=template,
                       draft_factory=lambda: random_lm(seed=77),
                       trace_sink=lambda kd, dec, seed, text: captured.__setitem__(
                           (kd, dec, seed), text))
    assert set(captured) == {(0.5, 1.0, 1), (0.5, 1.0, 2)}
    for (kd, dec, seed), text in captured.items():
        row = [s for k, d, sd, s in result.seed_stats if (k, d, sd) == (kd, dec, seed)]
        assert recount_alpha(text) == row[0].alpha


def test_run_sweep_cache_dir_skips_retraining(small_sweep, tmp_path):
    bundle, template, result = small_sweep
    first = run_sweep((0.0, 1.0), (0.0, 1.0), "offline", bundle, small_config(seed=6),
                      (1, 2), kd_template=template, cache_dir=tmp_path,
                      draft_factory=lambda: random_lm(seed=77))
    assert (tmp_path / "draft_offline_tau0.00.ckpt").exists()
    assert (tmp_path / "draft_offline_tau1.00.ckpt").exists()
    # A factory that would diverge proves the cache short-circuits training.
    def poisoned():
        model = random_lm(seed=77)
        model.table[...] = np.inf
        return model

    second = run_sweep((0.0, 1.0), (0.0, 1.0), "offline", bundle, small_config(seed=6),
                       (1, 2), kd_template=template, cache_dir=tmp_path,
                       draft_factory=poisoned)
    assert sweep_csv_text(first, no_timing=True) == sweep_csv_text(second, no_timing=True)
    assert sweep_csv_text(first, no_timing=True) == sweep_csv_text(result, no_timing=True)


def test_run_sweep_training_failure_names_the_cell():
    bundle = tiny_bundle()

    def poisoned():
        model = random_lm(seed=77)
        model.table[...] = np.inf
        return model

    with np.errstate(invalid="ignore"):
        with pytest.raises(TrainingError, match=r"sweep aborted at kd_tau=0\.5"):
            run_sweep((0.5,), (1.0,), "offline", bundle, small_config(),
                      (1,), kd_template=KDConfig(mode="offline", steps=10, seed=1),
                      draft_factory=poisoned)


def test_compare_drafts_same_draft_all_deltas_zero():
    bundle = tiny_bundle()
    draft = random_lm(seed=12)
    rows = compare_drafts(bundle.teacher, {seed: (draft, draft) for seed in (3, 1, 2)},
                          bundle.prompts, (1.0, 0.5), small_config(seed=4))
    assert [(tau, seed) for tau, seed, _, _ in rows] == [
        (0.5, 1), (0.5, 2), (0.5, 3), (1.0, 1), (1.0, 2), (1.0, 3)
    ]
    assert all(a.alpha == b.alpha and a.tokens_out == b.tokens_out for _, _, a, b in rows)
    with pytest.raises(DomainError, match="drafts must map one or more seeds"):
        compare_drafts(bundle.teacher, {}, bundle.prompts, (1.0,), small_config(seed=4))


def test_compare_drafts_rejects_repeated_decode_temperatures():
    bundle = tiny_bundle()
    draft = random_lm(seed=12)
    with pytest.raises(DomainError, match=r"decode_taus repeat a value: \(0\.5, 1\.0, 1\.0\)"):
        compare_drafts(bundle.teacher, {1: (draft,)}, bundle.prompts, (1.0, 0.5, 1.0),
                       small_config(seed=4))


def test_default_grids():
    assert DEFAULT_KD_TAUS == (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
    assert DEFAULT_DECODE_TAUS == (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
