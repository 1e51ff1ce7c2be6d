import math
import re
import warnings

import numpy as np
import pytest

from speclab.corpus import heldout_scores
from speclab.distill import (
    KDConfig,
    Pair,
    load_dataset,
    make_kd_dataset,
    save_dataset,
    train_log_rows,
    train_draft,
    train_offline,
    train_online,
)
from speclab import distill, specdec
from speclab.errors import ConfigError, DomainError, NumericError, TrainingError
from speclab.lm import (
    NGramLogitLM,
    TinyNeuralLM,
    Vocab,
    apply_update,
    checkpoint_bytes,
)
from speclab.sampling import make_rng, softmax_with_temperature, step_draws
from speclab.specdec import GenerationConfig, RowTable, generate_autoregressive
from oracles import (
    gradient_vector,
    reference_apply_update,
    reference_generate_autoregressive,
    reference_pair_step,
    reference_train_offline,
    reference_train_online,
)
from test_acceptance import finite_difference_grad

V8 = Vocab(size=8, bos_id=0, eos_id=1)


def constant_row_lm(vocab: Vocab, probs) -> NGramLogitLM:
    """Order-1 model whose every context shares one next-token distribution."""
    model = NGramLogitLM.create(vocab, 1)
    model.table[...] = np.log(np.asarray(probs, dtype=float))
    return model


def random_lm(vocab: Vocab, seed: int, scale: float = 1.0) -> NGramLogitLM:
    return NGramLogitLM.create(vocab, 1, init_scale=scale, init_seed=seed)


def no_eos_probs(vocab: Vocab, rng) -> np.ndarray:
    """A distribution over content tokens only, markers get ~zero mass."""
    probs = np.full(vocab.size, 1e-18)
    content = rng.dirichlet(np.ones(vocab.size - 2))
    probs[2:] = content
    return probs / probs.sum()


def test_pair_validation():
    with pytest.raises(DomainError):
        Pair([2], [], "teacher", 1.0)
    with pytest.raises(DomainError):
        Pair([2], [3], "oracle", 1.0)


@pytest.mark.parametrize("field, value", [
    ("tau_gen", float("nan")), ("tau_gen", float("inf")),
    ("loss_ratio", float("nan")), ("loss_ratio", float("inf")),
    ("learning_rate", float("nan")), ("learning_rate", float("inf")),
    ("learning_rate", -1.0),
])
def test_kdconfig_rejects_non_finite_or_negative(field, value):
    with pytest.raises(DomainError, match=field):
        KDConfig(**{field: value})


def test_kdconfig_zero_rates_stay_legal():
    cfg = KDConfig(tau_gen=0.0, loss_ratio=0.0, learning_rate=0.0)
    assert cfg.learning_rate == 0.0


def test_kdconfig_validation():
    with pytest.raises(DomainError):
        KDConfig(mode="offline2")
    with pytest.raises(DomainError):
        KDConfig(tau_gen=-0.1)
    with pytest.raises(DomainError):
        KDConfig(on_policy_frac=1.5)
    with pytest.raises(DomainError):
        KDConfig(loss_ratio=-1.0)
    with pytest.raises(DomainError):
        KDConfig(steps=-1)
    with pytest.raises(DomainError):
        KDConfig(gen_max_len=0)
    with pytest.raises(DomainError):
        KDConfig(data_repeats=0)


def test_seqkd_greedy_is_identical_across_invocations():
    teacher = random_lm(V8, seed=3, scale=2.0)
    prompts = [[2, 3], [4], [5, 6, 7]]
    a = make_kd_dataset(teacher, prompts, 0.0, make_rng(1), max_len=20)
    b = make_kd_dataset(teacher, prompts, 0.0, make_rng(999), max_len=20)
    assert [p.response for p in a] == [p.response for p in b]


def test_seqkd_same_rng_seed_reproduces():
    teacher = random_lm(V8, seed=3)
    prompts = [[2], [3], [4]]
    a = make_kd_dataset(teacher, prompts, 1.0, make_rng(5), max_len=15)
    b = make_kd_dataset(teacher, prompts, 1.0, make_rng(5), max_len=15)
    assert [(p.prompt, p.response) for p in a] == [(p.prompt, p.response) for p in b]


def test_seqkd_empty_prompts_empty_dataset():
    teacher = random_lm(V8, seed=3)
    assert make_kd_dataset(teacher, [], 1.0, make_rng(0)) == []


def test_seqkd_provenance_tags():
    teacher = random_lm(V8, seed=3)
    data = make_kd_dataset(teacher, [[2], [3]], 0.7, make_rng(1), max_len=5)
    assert all(p.source == "teacher" and p.tau_gen == 0.7 for p in data)
    assert [p.prompt for p in data] == [[2], [3]]


def test_seqkd_unigram_frequencies_match_teacher_softmax():
    # Constant-row teacher that never emits the end marker: every response
    # position is an iid draw from the row, so pooled frequencies are
    # binomial around the row probabilities.
    rng = make_rng(17)
    probs = no_eos_probs(V8, rng)
    teacher = constant_row_lm(V8, probs)
    prompts = [[int(rng.integers(2, 8))] for _ in range(40)]
    data = make_kd_dataset(teacher, prompts, 1.0, make_rng(23), max_len=50)
    tokens = [t for pair in data for t in pair.response]
    n = len(tokens)
    assert n == 40 * 50
    counts = np.bincount(tokens, minlength=8)
    for k in range(2, 8):
        sigma = math.sqrt(probs[k] * (1 - probs[k]) / n)
        assert abs(counts[k] / n - probs[k]) < 3 * sigma + 1e-12


def test_make_kd_dataset_repeats_extend_the_seed_stream():
    # Five prompts, which three temperatures do not divide: each pass
    # restarts the temperature cycle at prompt 0.
    teacher = random_lm(V8, seed=3)
    prompts = [[2], [3], [4], [5], [6]]
    for taus in ([1.0], [1.0, 0.9, 0.8]):
        tau_gen = taus[0] if len(taus) == 1 else tuple(taus)
        triple = make_kd_dataset(teacher, prompts, tau_gen, make_rng(9), repeats=3, max_len=10)
        single_stream = make_rng(9)
        seeds = [int(single_stream.integers(1 << 62)) for _ in range(15)]
        expected = []
        for i, seed in enumerate(seeds):
            prompt = prompts[i % 5]
            tau = taus[(i % 5) % len(taus)]
            cfg = GenerationConfig(tau=tau, max_new_tokens=10)
            response = generate_autoregressive(teacher, prompt, cfg, make_rng(seed))
            expected.append((prompt, response, tau))
        assert [(p.prompt, p.response, p.tau_gen) for p in triple] == expected


def test_make_kd_dataset_single_repeat_matches_seqkd():
    # One pass is the first half of a pass over the prompt list doubled.
    teacher = random_lm(V8, seed=3)
    prompts = [[2], [3]]
    a = make_kd_dataset(teacher, prompts, 0.8, make_rng(4), repeats=1, max_len=10)
    b = make_kd_dataset(teacher, prompts * 2, 0.8, make_rng(4), max_len=10)
    assert [(p.prompt, p.response) for p in a] == [(p.prompt, p.response) for p in b[:2]]


def test_make_kd_dataset_rejects_zero_repeats():
    rng = make_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(DomainError):
        make_kd_dataset(random_lm(V8, 1), [[2]], 1.0, rng, repeats=0)
    assert rng.bit_generator.state == before


def reference_kd_dataset(teacher, prompts, taus, rng, repeats, max_len):
    """make_kd_dataset as a per-pair loop of the per-token reference decoder."""
    seeds = [int(rng.integers(1 << 62)) for _ in range(repeats * len(prompts))]
    data = []
    for i, seed in enumerate(seeds):
        prompt = prompts[i % len(prompts)]
        tau = taus[i % len(prompts) % len(taus)]
        cfg = GenerationConfig(tau=tau, max_new_tokens=max_len)
        response = reference_generate_autoregressive(teacher, prompt, cfg, make_rng(seed))
        data.append((prompt, response, tau, "teacher"))
    return data


def kd_teacher(family):
    if family == "ngram3":
        return NGramLogitLM.create(V8, 3, init_scale=1.5, init_seed=31)
    return TinyNeuralLM.create(V8, context_size=3, d_emb=4, d_hid=8, seed=32)


@pytest.mark.parametrize("family", ["ngram3", "neural"])
@pytest.mark.parametrize("taus", [(0.0,), (0.7,), (1.0, 0.5)])
def test_make_kd_dataset_equals_the_per_pair_reference_loop(family, taus):
    # Both teachers fill their row tables lazily, one window at a time.
    teacher = kd_teacher(family)
    prompts = [[], [2], [5, 3, 7], [4, 4, 2, 6, 5], [3, 3], [7]]
    tau_gen = taus[0] if len(taus) == 1 else taus
    got_rng, want_rng = make_rng(41), make_rng(41)
    got = make_kd_dataset(teacher, prompts, tau_gen, got_rng, repeats=2, max_len=12)
    want = reference_kd_dataset(teacher, prompts, taus, want_rng, 2, 12)
    assert [(p.prompt, p.response, p.tau_gen, p.source) for p in got] == want
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_make_kd_dataset_skips_a_temperature_without_pairs(monkeypatch):
    # Three temperatures over two prompts: 0.3 answers no prompt.
    teacher = kd_teacher("ngram3")
    calls = []
    decode_lockstep = distill.decode_lockstep

    def counting(table, draft, prompts, config, rngs, **kw):
        calls.append((table.tau, len(prompts)))
        return decode_lockstep(table, draft, prompts, config, rngs, **kw)

    monkeypatch.setattr(distill, "decode_lockstep", counting)
    got = make_kd_dataset(teacher, [[2], [3]], (1.0, 0.5, 0.3), make_rng(42), repeats=3,
                          max_len=8)
    want = reference_kd_dataset(teacher, [[2], [3]], (1.0, 0.5, 0.3), make_rng(42), 3, 8)
    assert [(p.prompt, p.response, p.tau_gen, p.source) for p in got] == want
    assert calls == [(1.0, 3), (0.5, 3)]
    assert make_kd_dataset(teacher, [], (1.0, 0.5), make_rng(42), repeats=3) == []
    assert calls == [(1.0, 3), (0.5, 3)]


def test_make_kd_dataset_decodes_at_most_kd_streams_pairs_per_call(monkeypatch):
    # Responses of up to 70 tokens read past a seed bank stream's first chunk.
    teacher = kd_teacher("ngram3")
    teacher.table[:, V8.eos_id] -= 6.0
    calls = []
    decode_lockstep = distill.decode_lockstep

    def counting(table, draft, prompts, config, rngs, **kw):
        calls.append((table.tau, len(prompts)))
        return decode_lockstep(table, draft, prompts, config, rngs, **kw)

    monkeypatch.setattr(distill, "decode_lockstep", counting)
    monkeypatch.setattr(distill, "_KD_STREAMS", 4)
    prompts = [[], [2], [5, 3, 7], [4, 4, 2, 6, 5], [3, 3], [7]]
    got = make_kd_dataset(teacher, prompts, (1.0, 0.5), make_rng(44), repeats=2, max_len=70)
    want = reference_kd_dataset(teacher, prompts, (1.0, 0.5), make_rng(44), 2, 70)
    assert [(p.prompt, p.response, p.tau_gen, p.source) for p in got] == want
    assert calls == [(1.0, 4), (1.0, 2), (0.5, 4), (0.5, 2)]
    assert max(len(p.response) for p in got) > 64


@pytest.mark.parametrize("prompts", [
    [[2], [3, 9], [4]],
    [[2], [9], [-1]],  # the first bad prompt is not at the first temperature
    [[2], [4], [-1, 3], [8, 1, 2, 3]],
])
def test_make_kd_dataset_raises_the_per_pair_error_for_a_bad_prompt(prompts):
    teacher = kd_teacher("ngram3")
    with pytest.raises(DomainError) as want:
        reference_kd_dataset(teacher, prompts, (1.0, 0.5), make_rng(43), 2, 8)
    with pytest.raises(DomainError) as got:
        make_kd_dataset(teacher, prompts, (1.0, 0.5), make_rng(43), repeats=2, max_len=8)
    assert str(got.value) == str(want.value)
    assert "outside vocab of size 8" in str(got.value)


def test_make_kd_dataset_rejects_a_teacher_window_too_wide_to_index():
    teacher = TinyNeuralLM.create(Vocab(size=32, bos_id=0, eos_id=1), context_size=13,
                                  d_emb=2, d_hid=2)
    with pytest.raises(DomainError, match="too many rows to index"):
        make_kd_dataset(teacher, [[2]], 1.0, make_rng(0), max_len=4)


def test_offline_single_pair_memorization():
    # One pair with self-consistent order-1 transitions: the student must
    # end up assigning every response token probability > 0.9.
    student = NGramLogitLM.create(V8, 1)
    pair = Pair([2], [3, 4, 5, 3, 4, 5], "teacher", 1.0)
    cfg = KDConfig(mode="offline", learning_rate=0.5, steps=2000, seed=0)
    train_offline(student, [pair], cfg)
    ctx = list(pair.prompt)
    for tok in pair.response:
        dist = softmax_with_temperature(student.forward(ctx), 1.0)
        assert dist[tok] > 0.9
        ctx.append(tok)


def test_offline_zero_learning_rate_keeps_parameters():
    student = random_lm(V8, seed=2)
    before = student.table.copy()
    data = [Pair([2], [3, 4], "teacher", 1.0)]
    log = train_offline(student, data, KDConfig(mode="offline", learning_rate=0.0,
                                                steps=50, seed=1))
    assert np.array_equal(student.table, before)
    assert len(log) == 50


def test_offline_zero_steps_returns_empty_log():
    student = random_lm(V8, seed=2)
    before = student.table.copy()
    log = train_offline(student, [Pair([2], [3], "teacher", 1.0)],
                        KDConfig(mode="offline", steps=0))
    assert log == []
    assert np.array_equal(student.table, before)


def test_offline_empty_dataset_rejected():
    with pytest.raises(DomainError):
        train_offline(random_lm(V8, 1), [], KDConfig(mode="offline"))


def test_offline_log_steps_strictly_increasing():
    student = random_lm(V8, seed=2)
    log = train_offline(student, [Pair([2], [3], "teacher", 1.0)],
                        KDConfig(mode="offline", steps=20, seed=3))
    assert [e.step for e in log] == list(range(1, 21))
    assert all(e.fkl is None for e in log)


def test_offline_converges_toward_teacher_fkl_drops():
    # CE on teacher samples is forward-KL minimization in expectation, so
    # the held-out forward KL must shrink for every seed. Every content
    # token keeps enough mass that its row gets well estimated.
    probs = [1e-18, 1e-18, 0.30, 0.25, 0.20, 0.12, 0.08, 0.05]
    teacher = constant_row_lm(V8, probs)
    prompts = [[k] for k in range(2, 8)]
    contexts = [(k,) for k in range(2, 8)]
    for seed in range(5):
        student = random_lm(V8, seed=seed + 100, scale=2.0)
        ce, ent = heldout_scores(teacher, student, contexts)
        initial = ce - ent
        data = make_kd_dataset(teacher, prompts, 1.0, make_rng(seed), repeats=5,
                               max_len=40)
        train_offline(student, data, KDConfig(mode="offline", learning_rate=0.3,
                                              steps=3000, seed=seed))
        ce, ent = heldout_scores(teacher, student, contexts)
        final = ce - ent
        assert final < initial
        assert final < 0.1


def test_offline_training_is_seed_deterministic():
    teacher = random_lm(V8, seed=3)
    data = make_kd_dataset(teacher, [[2], [3]], 1.0, make_rng(7), max_len=10)
    cfg = KDConfig(mode="offline", learning_rate=0.3, steps=200, seed=11)
    a = random_lm(V8, seed=50)
    b = random_lm(V8, seed=50)
    log_a = train_offline(a, data, cfg)
    log_b = train_offline(b, data, cfg)
    assert np.array_equal(a.table, b.table)
    assert [e.lm_loss for e in log_a] == [e.lm_loss for e in log_b]


def test_offline_divergence_raises_training_error():
    # A student whose logits have overflowed to infinity produces a
    # non-finite loss; the loop must stop and report step and rate.
    student = random_lm(V8, seed=2)
    student.table[2, :] = np.inf
    data = [Pair([2], [3, 4, 5], "teacher", 1.0)]
    with np.errstate(invalid="ignore"):
        with pytest.raises(TrainingError,
                           match=r"non-finite loss at step 1 .*learning_rate=0\.3"):
            train_offline(student, data, KDConfig(mode="offline", learning_rate=0.3,
                                                  steps=50, seed=0))


def test_online_divergence_raises_training_error():
    teacher = random_lm(V8, seed=3)
    student = random_lm(V8, seed=2)
    student.table[2, :] = np.inf
    data = [Pair([2], [3, 4, 5], "teacher", 1.0)]
    with np.errstate(invalid="ignore"):
        with pytest.raises(TrainingError, match=r"non-finite loss at step \d+"):
            train_online(student, teacher, data,
                         KDConfig(mode="online", on_policy_frac=0.0, loss_ratio=1.0,
                                  learning_rate=0.3, steps=50, seed=0))


def test_online_lambda_zero_gamma_zero_is_bitwise_offline():
    teacher = random_lm(V8, seed=3, scale=2.0)
    data = make_kd_dataset(teacher, [[2], [3], [4]], 1.0, make_rng(8), max_len=12)
    off_cfg = KDConfig(mode="offline", learning_rate=0.3, steps=300, seed=21)
    on_cfg = KDConfig(mode="online", on_policy_frac=0.0, loss_ratio=0.0,
                      learning_rate=0.3, steps=300, seed=21)
    a = random_lm(V8, seed=60)
    b = random_lm(V8, seed=60)
    log_a = train_offline(a, data, off_cfg)
    log_b = train_online(b, teacher, data, on_cfg)
    assert np.array_equal(a.table, b.table)
    assert [e.lm_loss for e in log_a] == [e.lm_loss for e in log_b]


def test_online_self_training_greedy_fixed_point():
    # lambda=1, loss_ratio=0, tau_gen=0: the student trains on its own
    # greedy outputs, which only reinforces them, so the loss collapses.
    teacher = random_lm(V8, seed=3)
    fixed = [Pair([k], [2], "teacher", 1.0) for k in range(2, 8)]
    student = random_lm(V8, seed=61, scale=1.0)
    cfg = KDConfig(mode="online", tau_gen=0.0, on_policy_frac=1.0, loss_ratio=0.0,
                   learning_rate=0.5, steps=800, seed=5, gen_max_len=16)
    log = train_online(student, teacher, fixed, cfg)
    assert log[-1].lm_loss < 0.05
    assert log[-1].lm_loss < log[0].lm_loss


def test_online_fkl_descends_at_least_two_fold():
    rng = make_rng(41)
    probs = no_eos_probs(V8, rng)
    teacher = constant_row_lm(V8, probs)
    fixed = make_kd_dataset(teacher, [[k] for k in range(2, 8)], 1.0, make_rng(2),
                           max_len=30)
    student = random_lm(V8, seed=62, scale=2.0)
    cfg = KDConfig(mode="online", tau_gen=1.0, on_policy_frac=0.5, loss_ratio=1.0,
                   learning_rate=0.3, steps=500, seed=6, gen_max_len=30)
    log = train_online(student, teacher, fixed, cfg)
    assert all(e.fkl is not None for e in log)
    assert log[-1].fkl <= log[0].fkl / 2


def test_online_empty_dataset_rejected():
    with pytest.raises(DomainError):
        train_online(random_lm(V8, 1), random_lm(V8, 2), [], KDConfig(mode="online"))


def test_online_training_is_seed_deterministic():
    teacher = random_lm(V8, seed=3)
    data = make_kd_dataset(teacher, [[2], [3]], 1.0, make_rng(7), max_len=10)
    cfg = KDConfig(mode="online", learning_rate=0.3, steps=150, seed=13,
                   on_policy_frac=0.5, loss_ratio=1.0, gen_max_len=10)
    a = random_lm(V8, seed=70)
    b = random_lm(V8, seed=70)
    train_online(a, teacher, data, cfg)
    train_online(b, teacher, data, cfg)
    assert np.array_equal(a.table, b.table)


def test_compose_singleton_matches_seqkd_bitwise():
    teacher = random_lm(V8, seed=3)
    prompts = [[2], [3], [4]]
    a = make_kd_dataset(teacher, prompts, (0.9,), make_rng(12), repeats=2, max_len=10)
    b = make_kd_dataset(teacher, prompts, 0.9, make_rng(12), repeats=2, max_len=10)
    assert [(p.prompt, p.response, p.tau_gen) for p in a] == [
        (p.prompt, p.response, p.tau_gen) for p in b
    ]


def test_compose_round_robin_counts():
    teacher = random_lm(V8, seed=3)
    prompts = [[k % 6 + 2] for k in range(9)]
    data = make_kd_dataset(teacher, prompts, (1.0, 0.9, 0.8), make_rng(1), max_len=6)
    assert len(data) == 9
    for tau in (1.0, 0.9, 0.8):
        assert sum(1 for p in data if p.tau_gen == tau) == 3
    assert [p.tau_gen for p in data[:3]] == [1.0, 0.9, 0.8]


def test_compose_greedy_half_is_deterministic_sampled_half_is_not():
    teacher = random_lm(V8, seed=3, scale=2.0)
    prompts = [[k % 6 + 2] for k in range(12)]
    a = make_kd_dataset(teacher, prompts, (0.0, 1.0), make_rng(100), max_len=25)
    b = make_kd_dataset(teacher, prompts, (0.0, 1.0), make_rng(200), max_len=25)
    greedy_a = [p.response for p in a if p.tau_gen == 0.0]
    greedy_b = [p.response for p in b if p.tau_gen == 0.0]
    sampled_a = [p.response for p in a if p.tau_gen == 1.0]
    sampled_b = [p.response for p in b if p.tau_gen == 1.0]
    assert greedy_a == greedy_b
    assert sampled_a != sampled_b


def test_compose_validation():
    for tau_gen in ((), (1.0, -0.5), -0.5, float("nan"), (1.0, float("inf"))):
        rng = make_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(DomainError):
            make_kd_dataset(random_lm(V8, 1), [[2]], tau_gen, rng)
        assert rng.bit_generator.state == before


def test_dataset_file_round_trip(tmp_path):
    data = [
        Pair([2, 3], [4, 5, 1], "teacher", 1.0),
        Pair([6], [7], "student", 0.25),
        Pair([4], [2, 2], "fixed", 0.0),
    ]
    path = tmp_path / "data.txt"
    save_dataset(data, path)
    loaded = load_dataset(path)
    assert [(p.prompt, p.response, p.source, p.tau_gen) for p in loaded] == [
        (p.prompt, p.response, p.source, p.tau_gen) for p in data
    ]


def test_dataset_load_rejects_unknown_fields(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("tau=1.0 src=teacher prompt=2 response=3 extra=1\n")
    with pytest.raises(DomainError, match="unexpected fields"):
        load_dataset(path)


def test_dataset_load_rejects_a_repeated_field_naming_path_and_line(tmp_path):
    # The last copy must not silently win: this line would load with tau 9.0.
    path = tmp_path / "bad.txt"
    path.write_text("tau=1.0 src=teacher prompt=2 response=3\n"
                    "tau=1.0 src=teacher prompt=2 response=3 tau=9.0\n")
    with pytest.raises(DomainError, match=re.escape(f"{path} line 2: repeated field 'tau'")):
        load_dataset(path)


@pytest.mark.parametrize("line", [
    "tau=1.0 src=teacher prompt=3,4, response=3",
    "tau=1.0 src=teacher prompt=2,x response=3",
    "tau=1.0 src=teacher prompt response=3",
    "tau=hot src=teacher prompt=2 response=3",
])
def test_dataset_load_rejects_malformed_lines_naming_path_and_line(tmp_path, line):
    path = tmp_path / "bad.txt"
    path.write_text("tau=1.0 src=teacher prompt= response=3\n" + line + "\n")
    with pytest.raises(DomainError, match=re.escape(f"{path} line 2: ")):
        load_dataset(path)


@pytest.mark.parametrize("tau", ["nan", "inf", "-inf", "-0.5"])
def test_dataset_load_rejects_a_bad_tau_naming_path_and_line(tmp_path, tau):
    path = tmp_path / "bad.txt"
    path.write_text(f"tau=1.0 src=teacher prompt= response=3\ntau={tau} src=teacher prompt=2 "
                    "response=3\n")
    with pytest.raises(DomainError, match=re.escape(f"{path} line 2: ") + ".*tau"):
        load_dataset(path)


@pytest.mark.parametrize("text, lineno", [
    ("tau=1.0 src=teacher prompt=2 response=3\ntau=1.0 src=teacher prompt=2 response=3,1", 2),
    ("tau=1.0 src=teacher prompt=2 response=3", 1),
])
def test_dataset_load_rejects_a_truncated_last_line_naming_path_and_line(tmp_path, text, lineno):
    # save_dataset ends every line with a newline: without one the file was cut short.
    path = tmp_path / "data.txt"
    path.write_text(text)
    with pytest.raises(DomainError, match=re.escape(f"{path} line {lineno}: ") + ".*newline"):
        load_dataset(path)
    path.write_text(text + "\n")
    assert len(load_dataset(path)) == lineno


def test_train_log_rows_format():
    from speclab.distill import TrainStep

    rows = train_log_rows([
        TrainStep(step=1, lm_loss=2.5),
        TrainStep(step=2, lm_loss=1.25, fkl=0.5),
    ])
    assert rows[0] == "step,lm_loss,fkl"
    assert rows[1] == "1,2.500000,"
    assert rows[2] == "2,1.250000,0.500000"


# --- Batched pair steps against the per-position loop ----------------------


def pair_step(student, teacher, prompt, response, loss_ratio):
    """``distill._pair_step`` on a teacher model, its parts summed into one bundle.

    The parts are summed as a training step sums them: a tiny-neural
    student's by ``_backprop_parts``, an n-gram student's by ``_add_parts``
    into a zeroed table, keyed by row in order of first appearance.
    """
    rows = None if teacher is None else RowTable(teacher, 1.0)
    lm_loss, fkl, parts = distill._pair_step(student, rows, prompt, response, loss_ratio)
    if isinstance(student, TinyNeuralLM):
        return lm_loss, fkl, student._backprop_parts(*parts)
    grads = np.zeros_like(student.table)
    at = student._add_parts(grads, *parts)
    return lm_loss, fkl, {row: grads[row] for row in dict.fromkeys(at.tolist())}


def bits(x):
    return None if x is None else np.float64(x).tobytes()


def assert_same_step(got, want):
    assert bits(got[0]) == bits(want[0])
    assert bits(got[1]) == bits(want[1])
    assert list(got[2]) == list(want[2])
    for key, g in want[2].items():
        assert got[2][key].tobytes() == g.tobytes()


V16 = Vocab(size=16, bos_id=0, eos_id=1)


def step_case(seed, student_order, *, teacher_order=2, student_scale=1.5,
              prompt_len=5, response_len=30, zero_teacher_tokens=()):
    rng = make_rng(seed)
    student = NGramLogitLM.create(V16, student_order, init_scale=student_scale,
                                  init_seed=seed + 1)
    teacher = NGramLogitLM.create(V16, teacher_order, init_scale=2.0, init_seed=seed + 2)
    teacher.table[:, list(zero_teacher_tokens)] = -np.inf
    prompt = rng.integers(2, 16, size=prompt_len).tolist()
    # Few distinct tokens, so contexts repeat and rows collect several parts.
    response = rng.integers(1, 6, size=response_len).tolist()
    return student, teacher, prompt, response


def neural_student(seed, context_size, *, floored=False):
    student = TinyNeuralLM.create(V16, context_size=context_size, d_emb=4, d_hid=8, seed=seed)
    if floored:
        # Logits 40 below the rest put half the tokens under FKL_PROB_FLOOR.
        student.b2[::2] = -40.0
    return student


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("with_teacher, loss_ratio", [(False, 0.0), (True, 1.0), (True, 0.0),
                                                      (True, 0.37)])
def test_pair_step_bit_equals_per_position_loop(order, with_teacher, loss_ratio):
    for seed in range(4):
        student, teacher, prompt, response = step_case(seed, order, teacher_order=4 - order,
                                                       prompt_len=seed)
        teacher = teacher if with_teacher else None
        assert_same_step(pair_step(student, teacher, prompt, response, loss_ratio),
                         reference_pair_step(student, teacher, prompt, response, loss_ratio))


@pytest.mark.parametrize("order", [1, 2])
def test_pair_step_bit_equal_with_zero_teacher_probabilities(order):
    student, teacher, prompt, response = step_case(5, order, zero_teacher_tokens=(0, 7, 8))
    got = pair_step(student, teacher, prompt, response, 1.0)
    assert_same_step(got, reference_pair_step(student, teacher, prompt, response, 1.0))
    assert np.isfinite(got[1])


@pytest.mark.parametrize("order", [1, 2])
def test_pair_step_bit_equal_with_floored_student(order):
    # Logits this spread starve most tokens below FKL_PROB_FLOOR.
    student, teacher, prompt, response = step_case(6, order, student_scale=40.0)
    probs = softmax_with_temperature(student.table, 1.0)
    assert (probs < distill.FKL_PROB_FLOOR).mean() > 0.5
    assert_same_step(pair_step(student, teacher, prompt, response, 1.0),
                     reference_pair_step(student, teacher, prompt, response, 1.0))


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("prompt_len", [0, 1, 4])
def test_pair_step_bit_equal_on_one_token_responses(order, prompt_len):
    for seed in range(3):
        student, teacher, prompt, response = step_case(seed, order, prompt_len=prompt_len,
                                                       response_len=1)
        for t, ratio in ((None, 0.0), (teacher, 1.0)):
            assert_same_step(pair_step(student, t, prompt, response, ratio),
                             reference_pair_step(student, t, prompt, response, ratio))


def test_pair_step_certain_student_loss_is_positive_zero():
    # p(target) rounds to exactly 1, so the position's loss is -0.0; the
    # loop's 0.0 + -0.0 makes the step's loss +0.0, and so must the batch.
    student = NGramLogitLM.create(V16, 1)
    student.table[3] = -100.0
    student.table[3, 4] = 0.0
    got = pair_step(student, None, [3], [4], 0.0)
    assert_same_step(got, reference_pair_step(student, None, [3], [4], 0.0))
    assert train_log_rows([distill.TrainStep(step=1, lm_loss=got[0])])[1] == "1,0.000000,"


@pytest.mark.parametrize("prompt, response", [
    ([2, 3], [99, 4, 5]),       # first target
    ([2, 3], [4, 99, 5]),       # a target that later contexts read
    ([2, 3], [4, 5, 99]),       # last target, read by no context
    ([2, 77], [99, 4]),         # first target before a context token
    ([2, 77], [4, 99]),         # a context token before a later target
    ([77, 2, 3], [4, 99]),      # only the student's order-3 window reads 77
    ([-1, 2, 3, 4], [5, 6]),    # read by no window: both accept it
    ([2, 3], [2**70, 4]),       # past int64: a DomainError, not an OverflowError
    ([2, 2**70], [4, 5]),
    ([2, 3], [4, 5, -2**70]),
    ([2**70, 2, 3, 4], [5, 6]),
])
@pytest.mark.parametrize("student_order", [1, 3, "neural"])
def test_pair_step_token_errors_match_the_loop(prompt, response, student_order):
    if student_order == "neural":  # reads the windows of an order-3 student
        student = neural_student(3, 3)
    else:
        student = NGramLogitLM.create(V16, student_order, init_scale=1.0, init_seed=3)
    teacher = NGramLogitLM.create(V16, 2, init_scale=1.0, init_seed=4)
    for t, ratio in ((None, 0.0), (teacher, 1.0)):
        outcomes = []
        for fn in (pair_step, reference_pair_step):
            try:
                outcomes.append(fn(student, t, prompt, response, ratio))
            except DomainError as exc:
                outcomes.append(str(exc))
        if isinstance(outcomes[1], str):
            assert outcomes[0] == outcomes[1]
        else:
            assert_same_step(*outcomes)


def test_pair_step_nan_table_error_texts_match_the_loop():
    student, teacher, prompt, response = step_case(7, 1, prompt_len=2)
    # Poison the row of the second distinct context, so the first row is fine.
    student.table[response[0]] = np.nan
    messages = []
    for step_fn, update_fn in ((pair_step, apply_update),
                               (reference_pair_step, reference_apply_update)):
        for t, ratio in ((None, 0.0), (teacher, 1.0)):
            model = NGramLogitLM(V16, 1, student.table.copy())
            with np.errstate(invalid="ignore"):
                loss, fkl, grads = step_fn(model, t, prompt, response, ratio)
                with pytest.raises(NumericError) as info:
                    update_fn(model, grads, 0.3)
            assert np.isnan(loss)
            messages.append(str(info.value))
    assert messages[:2] == messages[2:]
    assert messages[0] == f"non-finite gradient for context row {response[0]}"


@pytest.mark.parametrize("context_size", [1, 2, 3])
@pytest.mark.parametrize("with_teacher, loss_ratio", [(False, 0.0), (True, 1.0), (True, 0.0),
                                                      (True, 0.37)])
def test_neural_pair_step_bit_equals_per_position_loop(context_size, with_teacher, loss_ratio):
    for seed in range(4):
        _, teacher, prompt, response = step_case(
            seed, 1, prompt_len=seed, zero_teacher_tokens=(0, 7) if seed % 2 else ())
        student = neural_student(seed, context_size, floored=seed >= 2)
        teacher = teacher if with_teacher else None
        for resp in (response, response[:1]):
            assert_same_step(pair_step(student, teacher, prompt, resp, loss_ratio),
                             reference_pair_step(student, teacher, prompt, resp, loss_ratio))


def test_neural_pair_step_keeps_the_sign_of_a_zero_gradient():
    # A certain student's CE gradient is +0.0 at the target logit, so a
    # negative hidden unit gives a w2 entry of -0.0, as the loop keeps it.
    vocab4 = Vocab(size=4, bos_id=0, eos_id=1)
    student = TinyNeuralLM.create(vocab4, context_size=1, d_emb=1, d_hid=8, seed=0)
    student.b2[[1, 2, 3]] = -40.0
    got = pair_step(student, None, [], [0], 0.0)
    assert np.signbit(got[2]["w2"][:, 0]).any()
    assert_same_step(got, reference_pair_step(student, None, [], [0], 0.0))


@pytest.mark.parametrize("name", ["embedding", "w1", "b1", "w2", "b2"])
def test_neural_pair_step_nan_parameter_error_texts_match_the_loop(name):
    _, teacher, prompt, response = step_case(7, 1, prompt_len=2)
    messages = []
    for step_fn, update_fn in ((pair_step, apply_update),
                               (reference_pair_step, reference_apply_update)):
        for t, ratio in ((None, 0.0), (teacher, 1.0)):
            model = neural_student(7, 2)
            # The embedding row of a token the first window reads, or the first row.
            getattr(model, name)[prompt[-1] if name == "embedding" else 0] = np.nan
            with np.errstate(invalid="ignore"):
                loss, fkl, grads = step_fn(model, t, prompt, response, ratio)
                with pytest.raises(NumericError) as info:
                    update_fn(model, grads, 0.3)
            assert np.isnan(loss)
            messages.append(str(info.value))
    assert messages[:2] == messages[2:]


def _train(monkeypatch, oracle, mode, student, teacher, data, cfg):
    if oracle and mode == "offline" and isinstance(student, NGramLogitLM):
        # An offline n-gram student trains as a row wavefront, which calls
        # neither _pair_step nor _sgd_update: its oracle is the per-step loop.
        return reference_train_offline(student, data, cfg)
    if oracle:
        # The per-position loop on the teacher model behind the trainer's
        # rows, and its bundle applied one row or parameter at a time.
        monkeypatch.setattr(distill, "_pair_step", lambda s, rows, *args: reference_pair_step(
            s, None if rows is None else rows.model, *args))
        monkeypatch.setattr(distill, "_sgd_update",
                            lambda s, lr: lambda grads: reference_apply_update(s, grads, lr))
    try:
        if mode == "offline":
            return distill.train_offline(student, data, cfg)
        return distill.train_online(student, teacher, data, cfg)
    finally:
        monkeypatch.undo()


@pytest.mark.parametrize("order", [1, 2, "neural"])
@pytest.mark.parametrize("mode, on_policy_frac, loss_ratio", [
    ("offline", 0.5, 1.0), ("online", 0.5, 1.0), ("online", 0.0, 0.0), ("online", 1.0, 2.5),
])
def test_training_bit_equals_oracle_driven_loop(monkeypatch, order, mode, on_policy_frac,
                                                loss_ratio):
    teacher = NGramLogitLM.create(V16, 2, init_scale=2.0, init_seed=9)
    data = make_kd_dataset(teacher, [[k] for k in range(2, 10)], 1.0, make_rng(3),
                           repeats=2, max_len=20)
    cfg = KDConfig(mode=mode, on_policy_frac=on_policy_frac, loss_ratio=loss_ratio,
                   learning_rate=0.4, steps=120, seed=3 if order == "neural" else order,
                   gen_max_len=20)
    results = []
    for oracle in (False, True):
        if order == "neural":
            student = TinyNeuralLM.create(V16, context_size=3, d_emb=4, d_hid=8, seed=10)
        else:
            student = NGramLogitLM.create(V16, order, init_scale=1.5, init_seed=10)
        log = _train(monkeypatch, oracle, mode, student, teacher, data, cfg)
        results.append((checkpoint_bytes(student), [(bits(e.lm_loss), bits(e.fkl)) for e in log],
                        train_log_rows(log)))
    assert results[0] == results[1]


# --- Trainers against per-step generator loops ------------------------------


def kd_pairs(count):
    rng = make_rng(600 + count)
    return [Pair(rng.integers(2, 16, size=1 + k % 3).tolist(),
                 rng.integers(1, 16, size=1 + k % 5).tolist(), "teacher", 1.0)
            for k in range(count)]


TRAIN_STUDENTS = {
    "ngram": lambda: NGramLogitLM.create(V16, 1, init_scale=1.5, init_seed=21),
    "neural": lambda: TinyNeuralLM.create(V16, context_size=2, d_emb=4, d_hid=8, seed=21),
}


@pytest.mark.parametrize("family", ["ngram", "neural"])
@pytest.mark.parametrize("pairs", [1, 2, 40])
@pytest.mark.parametrize("steps", [0, 130])
@pytest.mark.parametrize("mode, on_policy_frac", [
    ("offline", 0.5), ("online", 0.0), ("online", 0.5), ("online", 1.0),
])
def test_trainers_bit_equal_a_generator_per_step(family, pairs, steps, mode, on_policy_frac):
    # The trainers draw every step's pair index and coin in bulk; the
    # oracles build each step's make_rng(derive_seed(seed, step)).
    teacher = NGramLogitLM.create(V16, 2, init_scale=2.0, init_seed=22)
    data = kd_pairs(pairs)
    cfg = KDConfig(mode=mode, on_policy_frac=on_policy_frac, loss_ratio=0.7, learning_rate=0.4,
                   steps=steps, seed=23, gen_max_len=12)
    got_student, want_student = TRAIN_STUDENTS[family](), TRAIN_STUDENTS[family]()
    if mode == "offline":
        got = train_offline(got_student, data, cfg)
        want = reference_train_offline(want_student, data, cfg)
    else:
        got = train_online(got_student, teacher, data, cfg)
        want = reference_train_online(want_student, teacher, data, cfg)
    assert checkpoint_bytes(got_student) == checkpoint_bytes(want_student)
    assert train_log_rows(got) == train_log_rows(want)
    assert ([(e.step, bits(e.lm_loss), bits(e.fkl)) for e in got]
            == [(e.step, bits(e.lm_loss), bits(e.fkl)) for e in want])
    assert len(got) == steps


# --- A whole pair step against central differences ---------------------------


@pytest.mark.parametrize("family", ["ngram", "neural"])
def test_pair_step_gradients_match_central_differences(family):
    # Mean CE plus loss_ratio times mean FKL over a multi-position response,
    # as one training step computes them.
    vocab6 = Vocab(size=6, bos_id=0, eos_id=1)
    rng = make_rng(700)
    teacher = NGramLogitLM.create(vocab6, 2, init_scale=1.5, init_seed=701)
    worst = 0.0
    for point in range(4):
        if family == "ngram":
            student = NGramLogitLM.create(vocab6, 2, init_scale=1.0, init_seed=710 + point)
        else:
            student = TinyNeuralLM.create(vocab6, context_size=2, d_emb=4, d_hid=8,
                                          seed=710 + point)
        prompt = rng.integers(2, 6, size=3).tolist()
        response = rng.integers(1, 6, size=9).tolist()
        loss_ratio = (0.0, 0.7, 1.0, 2.5)[point]

        def value(model):
            lm_loss, fkl, _ = pair_step(model, teacher, prompt, response, loss_ratio)
            return lm_loss + (0.0 if fkl is None else loss_ratio * fkl)

        _, _, grads = pair_step(student, teacher, prompt, response, loss_ratio)
        analytic = gradient_vector(student, grads)
        numeric = finite_difference_grad(value, student)
        tol = 1e-5 * np.maximum(np.abs(analytic), np.abs(numeric)) + 1e-9
        worst = max(worst, float(np.max(np.abs(analytic - numeric) / tol)))
    assert worst <= 1.0


# --- The n-gram trainers' table buffer and the teacher's row table ----------

V20 = Vocab(size=20, bos_id=0, eos_id=1)  # an order-3 n-gram has 8,000 rows


def repeating_pairs(count, seed):
    # Responses over three content tokens and eos, so a step visits few rows many times.
    rng = make_rng(seed)
    return [Pair(rng.integers(2, 20, size=1 + k % 3).tolist(),
                 rng.choice([1, 2, 3, 4], size=4 + k % 17, p=[0.04, 0.32, 0.32, 0.32]).tolist(),
                 "teacher", 1.0)
            for k in range(count)]


def fkl_teacher(kind):
    if kind == "neural":
        return TinyNeuralLM.create(V20, context_size=2, d_emb=4, d_hid=8, seed=31)
    teacher = NGramLogitLM.create(V20, 3 if kind == "ngram3" else 2, init_scale=2.0,
                                  init_seed=32)
    if kind == "zero":  # rows with zero-probability tokens take _fkl_rows' fallback
        teacher.table[:, [0, 5, 6]] = -np.inf
    return teacher


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("mode, teacher_kind, cap", [
    ("offline", None, None),
    ("online", "ngram2", None),  # a RowTable takes it whole
    ("online", "zero", None),
    ("online", "ngram3", None),  # filled lazily
    ("online", "neural", None),
    ("online", "neural", 3),  # most rows built again at every lookup
])
def test_ngram_trainers_bit_equal_the_reference_trainers(monkeypatch, order, mode, teacher_kind,
                                                        cap):
    if cap is not None:
        monkeypatch.setattr(specdec, "MAX_CACHED_ROWS", cap)
    teacher = None if teacher_kind is None else fkl_teacher(teacher_kind)
    if teacher_kind in ("ngram3", "neural"):
        assert not RowTable(teacher, 1.0).whole
    data = repeating_pairs(12, 40 + order)
    cfg = KDConfig(mode=mode, on_policy_frac=0.3, loss_ratio=0.7, learning_rate=0.4, steps=70,
                   seed=41, gen_max_len=16)
    got_student = NGramLogitLM.create(V20, order, init_scale=1.0, init_seed=42)
    want_student = NGramLogitLM.create(V20, order, init_scale=1.0, init_seed=42)
    if mode == "offline":
        got = train_offline(got_student, data, cfg)
        want = reference_train_offline(want_student, data, cfg)
    else:
        got = train_online(got_student, teacher, data, cfg)
        want = reference_train_online(want_student, teacher, data, cfg)
        assert all(np.isfinite(e.fkl) for e in got)
    assert checkpoint_bytes(got_student) == checkpoint_bytes(want_student)
    assert ([(e.step, bits(e.lm_loss), bits(e.fkl)) for e in got]
            == [(e.step, bits(e.lm_loss), bits(e.fkl)) for e in want])


def test_train_online_reads_the_teacher_from_one_row_table(monkeypatch):
    calls = []  # the rows of each softmax call
    monkeypatch.setattr(specdec, "softmax_with_temperature",
                        lambda logits, tau: calls.append(len(logits))
                        or softmax_with_temperature(logits, tau))
    teacher = fkl_teacher("ngram2")
    student = TinyNeuralLM.create(V20, context_size=2, d_emb=4, d_hid=8, seed=43)
    cfg = KDConfig(mode="online", on_policy_frac=0.0, loss_ratio=1.0, steps=30, seed=44)
    train_online(student, teacher, repeating_pairs(5, 45), cfg)
    assert calls == [len(teacher.table)]
    calls.clear()
    train_online(student, teacher, repeating_pairs(5, 45), KDConfig(
        mode="online", on_policy_frac=0.0, loss_ratio=0.0, steps=30, seed=44))
    assert calls == []


@pytest.mark.parametrize("with_teacher", [False, True])
def test_sgd_update_names_the_first_bad_row_in_part_order_and_moves_nothing(with_teacher):
    # Order 1: the rows visited are 4, 5, 3, 5, 2; rows 5 and 3 are poisoned,
    # so the first bad row in part order is 5, not the smallest bad row.
    student = NGramLogitLM.create(V16, 1, init_scale=1.0, init_seed=46)
    student.table[[5, 3]] = np.nan
    teacher = NGramLogitLM.create(V16, 2, init_scale=2.0, init_seed=47) if with_teacher else None
    prompt, response = [4], [5, 3, 5, 2, 6]
    rows = None if teacher is None else RowTable(teacher, 1.0)
    before = student.table.tobytes()
    with np.errstate(invalid="ignore"):
        _, _, parts = distill._pair_step(student, rows, prompt, response, 1.0)
        update = distill._sgd_update(student, 0.3)
        with pytest.raises(NumericError, match="^non-finite gradient for context row 5$"):
            update(parts)
        assert student.table.tobytes() == before
        # The loop names the same row, though it moves row 4 first.
        _, _, grads = reference_pair_step(student, teacher, prompt, response, 1.0)
        with pytest.raises(NumericError, match="^non-finite gradient for context row 5$"):
            reference_apply_update(student, grads, 0.3)


def test_train_online_rejects_a_teacher_window_too_wide_to_index():
    vocab = Vocab(size=32, bos_id=0, eos_id=1)
    teacher = TinyNeuralLM.create(vocab, context_size=13, d_emb=2, d_hid=2)
    student = NGramLogitLM.create(vocab, 1)
    data = [Pair([2], [3, 1], "teacher", 1.0)]
    with pytest.raises(DomainError, match="too many rows to index"):
        train_online(student, teacher, data, KDConfig(mode="online", steps=2))
    # Without an FKL term the teacher is not read.
    train_online(student, teacher, data, KDConfig(mode="online", steps=2, loss_ratio=0.0))


# --- Offline n-gram training as a row wavefront ------------------------------


def wave_pairs(count, seed):
    """Ragged pairs: prompts of 0-3 tokens from 2-9, responses of 1-9 tokens
    over four content tokens, every third one ending at eos, and one
    response that visits one row at every position. No pair reads a
    token from 10 to 19, so their rows are left for one pair to visit."""
    rng = make_rng(seed)
    pairs = [Pair(rng.integers(2, 10, size=k % 4).tolist(),
                  rng.choice([2, 3, 4, 5], size=1 + k % 9).tolist(), "teacher", 1.0)
             for k in range(count)]
    for k in range(0, count, 3):
        pairs[k].response[-1] = 1
    pairs[-1] = Pair([3], [3, 3, 3, 3, 3], "teacher", 1.0)
    return pairs


def wave_outcome(train):
    """``train()``'s training log rows, or its error's type and text; and its warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = train_log_rows(train())
        except (DomainError, TrainingError, NumericError) as exc:
            result = (type(exc), str(exc))
    return result, [str(w.message) for w in caught]


def wavefront_results(monkeypatch):
    """What each ``_wavefront_block`` call returns: the block's losses or None."""
    results = []
    block = distill._wavefront_block
    monkeypatch.setattr(distill, "_wavefront_block",
                        lambda *args: results.append(block(*args)) or results[-1])
    return results


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("steps", [1, 511, 512, 513, 1100])
def test_offline_ngram_wavefront_bit_equals_the_reference_trainer(monkeypatch, order, steps):
    data = wave_pairs(30, 60 + order)
    cfg = KDConfig(mode="offline", learning_rate=0.4, steps=steps, seed=61)
    got_student = NGramLogitLM.create(V20, order, init_scale=1.0, init_seed=62)
    want_student = NGramLogitLM.create(V20, order, init_scale=1.0, init_seed=62)
    blocks = wavefront_results(monkeypatch)
    got = train_offline(got_student, data, cfg)
    want = reference_train_offline(want_student, data, cfg)
    assert len(blocks) == -(-steps // 512) and None not in blocks
    assert checkpoint_bytes(got_student) == checkpoint_bytes(want_student)
    assert train_log_rows(got) == train_log_rows(want)
    assert ([(e.step, bits(e.lm_loss), e.fkl) for e in got]
            == [(e.step, bits(e.lm_loss), e.fkl) for e in want])


@pytest.mark.parametrize("order", [1, 2, 3])
def test_offline_ngram_wavefront_on_one_pair_bit_equals_the_reference_trainer(order):
    # Every step visits the same rows, so each wave moves them by one step.
    data = [Pair([4, 2], [2, 2, 5, 2, 1], "teacher", 1.0)]
    cfg = KDConfig(mode="offline", learning_rate=0.4, steps=600, seed=63)
    got_student = NGramLogitLM.create(V20, order, init_scale=1.0, init_seed=64)
    want_student = NGramLogitLM.create(V20, order, init_scale=1.0, init_seed=64)
    got = train_offline(got_student, data, cfg)
    want = reference_train_offline(want_student, data, cfg)
    assert checkpoint_bytes(got_student) == checkpoint_bytes(want_student)
    assert train_log_rows(got) == train_log_rows(want)


def first_fresh_step(seed, steps, n, after):
    """The first step past ``after`` whose pair no earlier step drew, and that pair."""
    seen = set()
    for step, (index, _, _) in enumerate(step_draws(seed, steps, n), start=1):
        if step > after and index not in seen:
            return step, index
        seen.add(index)
    raise AssertionError("no fresh pair")


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("fault", ["nan_row", "bad_token", "overflow"])
def test_offline_ngram_wavefront_errors_match_the_step_loop(monkeypatch, order, fault):
    # A NaN row or a bad token meets its first step in the second block, so
    # the first block trains as a wavefront and the second is replayed;
    # an overflowing rate breaks the first block.
    data = wave_pairs(400, 65)
    cfg = KDConfig(mode="offline", learning_rate=1e308 if fault == "overflow" else 0.4,
                   steps=700, seed=66)
    step, index = first_fresh_step(cfg.seed, cfg.steps, len(data), after=512)
    data[index] = Pair([12, 15], [2, 99, 3] if fault == "bad_token" else [2, 3], "teacher", 1.0)
    student = NGramLogitLM.create(V20, order, init_scale=1.0, init_seed=67)
    if fault == "nan_row":
        student.table[student.context_index(data[index].prompt)] = np.nan
    outcomes = []
    for wavefront in (True, False):
        model = NGramLogitLM(V20, order, student.table.copy())
        blocks = wavefront_results(monkeypatch)
        if not wavefront:
            monkeypatch.setattr(distill, "_wavefront_block", lambda *args: None)
        outcomes.append((wave_outcome(lambda: train_offline(model, data, cfg)),
                         model.table.tobytes()))
        if wavefront:
            assert blocks[-1] is None and all(b is not None for b in blocks[:-1])
            assert len(blocks) == (1 if fault == "overflow" else 2)
        monkeypatch.undo()
    assert outcomes[0] == outcomes[1]
    (result, caught), _ = outcomes[0]
    if fault == "bad_token":
        assert result == (DomainError, "token id 99 outside vocab of size 20")
    else:
        assert result[0] is TrainingError
        if fault == "nan_row":
            assert result[1].startswith(f"non-finite loss at step {step} (lm_loss=nan")
        else:
            assert any(message.startswith("overflow encountered") for message in caught)


def test_only_offline_ngram_training_takes_the_wavefront(monkeypatch):
    teacher = NGramLogitLM.create(V20, 2, init_scale=2.0, init_seed=68)
    data = wave_pairs(12, 69)
    blocks = wavefront_results(monkeypatch)
    cfg = KDConfig(mode="offline", steps=600, seed=70)
    train_offline(NGramLogitLM.create(V20, 1, init_scale=1.0, init_seed=71), data, cfg)
    assert len(blocks) == 2
    train_offline(TinyNeuralLM.create(V20, context_size=2, d_emb=4, d_hid=8, seed=72), data,
                  KDConfig(mode="offline", steps=20, seed=70))
    train_online(NGramLogitLM.create(V20, 1, init_scale=1.0, init_seed=71), teacher, data,
                 KDConfig(mode="online", on_policy_frac=0.0, loss_ratio=0.0, steps=20, seed=70))
    assert len(blocks) == 2


# --- One draft-training function --------------------------------------------


@pytest.mark.parametrize("family", ["ngram", "neural"])
@pytest.mark.parametrize("mode", ["offline", "online"])
@pytest.mark.parametrize("taus", [None, 0.6, (1.0, 0.0, 0.8)])
def test_train_draft_equals_make_kd_dataset_then_the_trainer(family, mode, taus):
    teacher = NGramLogitLM.create(V16, 2, init_scale=2.0, init_seed=51)
    prompts = [[k, k + 1] for k in range(2, 9)]
    cfg = KDConfig(mode=mode, tau_gen=0.7, on_policy_frac=0.4, loss_ratio=0.8, learning_rate=0.4,
                   steps=90, seed=52, gen_max_len=14, data_repeats=2)
    got_student, want_student = TRAIN_STUDENTS[family](), TRAIN_STUDENTS[family]()
    got_data, got_log = train_draft(got_student, teacher, prompts, cfg, 53, taus)
    want_data = make_kd_dataset(teacher, prompts, cfg.tau_gen if taus is None else taus,
                                make_rng(53), repeats=2, max_len=14)
    if mode == "offline":
        want_log = train_offline(want_student, want_data, cfg)
    else:
        want_log = train_online(want_student, teacher, want_data, cfg)
    assert got_data == want_data
    assert checkpoint_bytes(got_student) == checkpoint_bytes(want_student)
    assert ([(e.step, bits(e.lm_loss), bits(e.fkl)) for e in got_log]
            == [(e.step, bits(e.lm_loss), bits(e.fkl)) for e in want_log])
    assert train_log_rows(got_log) == train_log_rows(want_log)


@pytest.mark.parametrize("mode", ["offline", "online"])
def test_train_draft_rejects_a_student_of_another_vocabulary_before_decoding(monkeypatch, mode):
    teacher = NGramLogitLM.create(V16, 2, init_scale=2.0, init_seed=54)
    student = NGramLogitLM.create(V20, 1, init_scale=1.0, init_seed=55)
    monkeypatch.setattr(distill, "make_kd_dataset",
                        lambda *args, **kwargs: pytest.fail("decoded a dataset"))
    before = student.table.tobytes()
    with pytest.raises(ConfigError, match="^teacher and student must share a vocabulary$"):
        train_draft(student, teacher, [[2]], KDConfig(mode=mode, steps=5), 56)
    assert student.table.tobytes() == before


def test_train_online_rejects_a_student_of_another_vocabulary():
    teacher = NGramLogitLM.create(V16, 2, init_scale=2.0, init_seed=57)
    student = TinyNeuralLM.create(V20, context_size=2, d_emb=4, d_hid=8, seed=58)
    with pytest.raises(ConfigError, match="^teacher and student must share a vocabulary$"):
        train_online(student, teacher, [Pair([2], [3, 1], "teacher", 1.0)],
                     KDConfig(mode="online", steps=5, loss_ratio=0.0))
