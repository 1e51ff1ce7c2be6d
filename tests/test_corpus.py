import dataclasses
import math
import re

import numpy as np
import pytest

from speclab.corpus import (
    BOS_ID,
    EOS_ID,
    CorpusBundle,
    CorpusSpec,
    _apply_wavefront,
    build_corpus,
    build_ground_truth,
    canonical_prompts,
    collect_heldout_contexts,
    heldout_scores,
    load_prompts,
    pretrain_teacher,
    save_prompts,
)
from speclab.errors import DomainError, NumericError, TrainingError
from speclab.lm import NGramLogitLM, Vocab, apply_update
from speclab.sampling import STREAM_HELDOUT, derive_seed, make_rng, softmax_with_temperature
from speclab import corpus, specdec
from speclab.specdec import GenerationConfig, generate_autoregressive

from oracles import reference_ce_gradient, reference_generate_autoregressive, reference_prompt

# A small spec keeps the pretraining tests fast; the full-size corpus is
# exercised by the acceptance suite.
SMALL = CorpusSpec(vocab_size=16, order=1, concentration=1.0, n_prompts=20,
                   prompt_len=6, seed=3)


def test_spec_validation():
    with pytest.raises(DomainError):
        CorpusSpec(vocab_size=3)
    with pytest.raises(DomainError):
        CorpusSpec(order=0)
    with pytest.raises(DomainError):
        CorpusSpec(concentration=0.0)
    with pytest.raises(DomainError):
        CorpusSpec(concentration=-1.0)
    with pytest.raises(DomainError, match="concentration"):
        CorpusSpec(concentration=float("nan"))
    with pytest.raises(DomainError, match="concentration"):
        CorpusSpec(concentration=float("inf"))
    with pytest.raises(DomainError):
        CorpusSpec(prompt_len=0)
    with pytest.raises(DomainError):
        CorpusSpec(n_prompts=-1)


def test_spec_vocab_markers():
    vocab = CorpusSpec().vocab()
    assert vocab.bos_id == BOS_ID == 0
    assert vocab.eos_id == EOS_ID == 1
    assert vocab.size == 32


def test_ground_truth_rows_are_probability_rows():
    spec = CorpusSpec(vocab_size=8, order=2, concentration=0.7, seed=11)
    gt = build_ground_truth(spec, make_rng(spec.seed))
    assert gt.table.shape == (8 ** 2, 8)
    sums = np.exp(gt.table).sum(axis=1)
    assert np.max(np.abs(sums - 1.0)) < 1e-9


def test_ground_truth_huge_concentration_is_near_uniform():
    # Dirichlet(c,...,c) with c -> inf concentrates on the uniform vector.
    spec = CorpusSpec(vocab_size=16, order=1, concentration=1e6, seed=5)
    gt = build_ground_truth(spec, make_rng(spec.seed))
    rows = np.exp(gt.table)
    assert np.max(rows) <= 1.0 / 16 + 0.01


def test_ground_truth_tiny_concentration_is_peaky():
    # Dirichlet(0.01,...) puts almost all mass on one coordinate per row.
    spec = CorpusSpec(vocab_size=16, order=1, concentration=0.01, seed=6)
    gt = build_ground_truth(spec, make_rng(spec.seed))
    row_max = np.exp(gt.table).max(axis=1)
    assert np.median(row_max) > 0.8


def test_ground_truth_same_seed_identical():
    spec = CorpusSpec(vocab_size=8, order=1, concentration=0.5, seed=21)
    a = build_ground_truth(spec, make_rng(spec.seed))
    b = build_ground_truth(spec, make_rng(spec.seed))
    assert np.array_equal(a.table, b.table)


def test_sample_sequence_tokens_in_vocab_and_stops_at_eos():
    gt = build_ground_truth(SMALL, make_rng(SMALL.seed))
    rng = make_rng(4)
    cfg = GenerationConfig(tau=1.0, max_new_tokens=30)
    for _ in range(20):
        seq = generate_autoregressive(gt, [], cfg, rng)
        assert 1 <= len(seq) <= 30
        assert all(0 <= t < SMALL.vocab_size for t in seq)
        assert EOS_ID not in seq[:-1]


def test_canonical_prompts_contain_only_content_tokens():
    gt = build_ground_truth(SMALL, make_rng(SMALL.seed))
    for prompt in canonical_prompts(gt, dataclasses.replace(SMALL, n_prompts=50, prompt_len=7)):
        assert len(prompt) == 7
        assert BOS_ID not in prompt
        assert EOS_ID not in prompt


def test_canonical_prompts_deterministic_given_seed():
    gt = build_ground_truth(SMALL, make_rng(SMALL.seed))
    spec = dataclasses.replace(SMALL, n_prompts=3, prompt_len=5, seed=77)
    a = canonical_prompts(gt, spec)
    b = canonical_prompts(gt, spec)
    assert a[0] == b[0]


def _masked_rows(case):
    """A spec and its chain for the prompt cases; some rows lose all content mass."""
    spec = {"order1": SMALL,
            "zero-prob-content": dataclasses.replace(ORDER2, n_prompts=40, prompt_len=9),
            "no-content-row": CorpusSpec(vocab_size=6, order=1, n_prompts=30, prompt_len=12,
                                         seed=9),
            "order3": CorpusSpec(vocab_size=5, order=3, concentration=0.3, n_prompts=25,
                                 prompt_len=7, seed=2)}[case]
    gt = build_ground_truth(spec, make_rng(spec.seed))
    # exp(-1000) underflows to 0, so these tokens have probability exactly 0.
    if case == "zero-prob-content":
        gt.table[:, [2, 5]] = -1000.0
        gt.table[::3, 7] = -1000.0
    if case == "no-content-row":
        gt.table[[0, 3], 2:] = -1000.0  # the start row, and the row after token 3
    return spec, gt


@pytest.mark.parametrize("case", ["order1", "zero-prob-content", "no-content-row", "order3"])
def test_canonical_prompts_equal_token_by_token_prompts(monkeypatch, case):
    # The masked tau=1 table, built once, against one softmax, mask and
    # sample() per token: the same prompts and the same generator state.
    spec, gt = _masked_rows(case)
    rngs = []
    monkeypatch.setattr(corpus, "make_rng", lambda seed: rngs.append(make_rng(seed)) or rngs[-1])
    got = canonical_prompts(gt, spec)
    want_rng = make_rng(derive_seed(spec.seed, corpus._TAG_PROMPTS))
    want = [reference_prompt(gt, spec.prompt_len, want_rng) for _ in range(spec.n_prompts)]
    assert got == want
    assert rngs[0].bit_generator.state == want_rng.bit_generator.state
    if case == "no-content-row":  # the uniform fallback ran, after the start and after 3
        assert any(p[i] == 3 for p in got for i in range(len(p) - 1))


@pytest.mark.parametrize("order, cap", [(1, None), (2, None), (2, 3)])
def test_heldout_contexts_equal_token_by_token_rollouts(monkeypatch, order, cap):
    # A chain that a RowTable takes whole is one softmax table for all 48
    # rollouts; above the row cap, each window's row is computed once, by a
    # one-row softmax. One function computes both, told apart by row count.
    if cap is not None:
        monkeypatch.setattr(specdec, "MAX_CACHED_ROWS", cap)
    calls = {"rows": 0, "row": 0}

    def softmax(logits, tau):
        calls["rows" if len(logits) > 1 else "row"] += 1
        return softmax_with_temperature(logits, tau)

    monkeypatch.setattr(specdec, "softmax_with_temperature", softmax)
    gt = build_ground_truth(CorpusSpec(vocab_size=16, order=order, seed=4), make_rng(4))
    got_rng, want_rng = make_rng(14), make_rng(14)
    got = collect_heldout_contexts(gt, got_rng)
    counts = dict(calls)
    monkeypatch.undo()
    want = []
    cfg = GenerationConfig(tau=1.0, max_new_tokens=40)
    for _ in range(48):
        seq = reference_generate_autoregressive(gt, [], cfg, want_rng)
        want += [tuple(seq[:i]) for i in range(len(seq))]
    assert got == want
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    windows = len({gt.context_index(c) for c in got})
    if cap is None:
        assert counts == {"rows": 1, "row": 0}
    else:
        assert counts == {"rows": 0, "row": windows}


def test_heldout_contexts_index_the_rows_of_their_full_prefixes():
    # An order-9 chain reads 9 tokens of context; with eos made rare its
    # rollouts run long enough that a context cut to fewer tokens would
    # index another row, and held-out scoring would read it.
    gt = build_ground_truth(CorpusSpec(vocab_size=4, order=9, seed=2), make_rng(2))
    gt.table[:, EOS_ID] -= 5.0
    got = collect_heldout_contexts(gt, make_rng(15))
    want_rng = make_rng(15)
    cfg = GenerationConfig(tau=1.0, max_new_tokens=40)
    prefixes = []
    for _ in range(48):
        seq = reference_generate_autoregressive(gt, [], cfg, want_rng)
        prefixes += [seq[:i] for i in range(len(seq))]
    assert max(map(len, prefixes)) > 9
    assert [gt.context_index(c) for c in got] == [gt.context_index(p) for p in prefixes]


def test_heldout_scores_satisfy_gibbs_bound():
    # Cross entropy of any model can never undercut the reference entropy;
    # both sides are computed from full rows, so the bound is exact.
    gt = build_ground_truth(SMALL, make_rng(SMALL.seed))
    contexts = collect_heldout_contexts(gt, make_rng(13))
    rng = make_rng(14)
    for _ in range(10):
        other = NGramLogitLM.create(SMALL.vocab(), 1)
        other.table[...] = rng.normal(0, 3, size=other.table.shape)
        ce, ent = heldout_scores(gt, other, contexts)
        assert ce >= ent - 1e-9
    ce_self, ent_self = heldout_scores(gt, gt, contexts)
    assert abs(ce_self - ent_self) < 1e-9


def test_pretrain_reaches_small_fkl_to_ground_truth():
    # Forward KL is held-out CE minus entropy; a tight tolerance on the CE
    # ratio pins it below 0.05 nats per token.
    gt = build_ground_truth(SMALL, make_rng(SMALL.seed))
    teacher, *_ = pretrain_teacher(gt, SMALL, 400_000, make_rng(2), tolerance=0.015)
    contexts = collect_heldout_contexts(gt, make_rng(13))
    ce, ent = heldout_scores(gt, teacher, contexts)
    assert ce - ent < 0.05
    assert ce >= ent - 1e-9


def test_pretrain_zero_budget_raises_with_gap():
    gt = build_ground_truth(SMALL, make_rng(SMALL.seed))
    with pytest.raises(TrainingError, match="not converged"):
        pretrain_teacher(gt, SMALL, 0, make_rng(2))


def test_pretrain_zero_budget_near_uniform_chain_returns_untrained_model():
    # With a near-uniform ground truth the fresh (all-zero logits) teacher
    # is already within tolerance, so a zero budget returns it unchanged.
    spec = CorpusSpec(vocab_size=8, order=1, concentration=1e6, seed=1)
    gt = build_ground_truth(spec, make_rng(spec.seed))
    teacher, *_ = pretrain_teacher(gt, spec, 0, make_rng(2))
    assert np.array_equal(teacher.table, np.zeros_like(teacher.table))


def test_pretrain_insufficient_budget_reports_gap_numbers():
    gt = build_ground_truth(SMALL, make_rng(SMALL.seed))
    with pytest.raises(TrainingError, match=r"held-out CE .* entropy rate"):
        pretrain_teacher(gt, SMALL, 50, make_rng(2))


def test_out_of_domain_continuations_have_lower_entropy():
    # The difficulty knob: peaky rows (c=0.05) mean the ground truth is far
    # more predictable per token than the flat-row c=1.0 chain.
    spec_in = CorpusSpec(vocab_size=16, order=1, concentration=1.0, n_prompts=12,
                         prompt_len=4, seed=1)
    spec_out = CorpusSpec(vocab_size=16, order=1, concentration=0.05, n_prompts=12,
                          prompt_len=4, seed=2)
    gt_in = build_ground_truth(spec_in, make_rng(spec_in.seed))
    gt_out = build_ground_truth(spec_out, make_rng(spec_out.seed))
    prompts_in = canonical_prompts(gt_in, spec_in)
    prompts_out = canonical_prompts(gt_out, spec_out)

    def continuation_entropy(gt, prompts, rng):
        contexts = []
        cfg = GenerationConfig(tau=1.0, max_new_tokens=24)
        for prompt in prompts:
            seq = list(prompt) + generate_autoregressive(gt, list(prompt), cfg, rng)
            for i in range(len(prompt), len(seq)):
                contexts.append(tuple(seq[max(0, i - 8):i]))
        _, ent = heldout_scores(gt, gt, contexts)
        return ent

    ent_in = continuation_entropy(gt_in, prompts_in, make_rng(31))
    ent_out = continuation_entropy(gt_out, prompts_out, make_rng(32))
    assert ent_out < ent_in


def test_prompt_file_round_trip(tmp_path):
    prompts = [[2, 3, 4], [5], [6, 7]]
    path = tmp_path / "prompts.txt"
    save_prompts(prompts, path)
    assert load_prompts(path) == prompts
    assert path.read_text() == "2,3,4\n5\n6,7\n"


def test_prompt_file_round_trip_empty(tmp_path):
    path = tmp_path / "prompts.txt"
    save_prompts([], path)
    assert load_prompts(path) == []


def test_load_prompts_skips_blank_lines(tmp_path):
    path = tmp_path / "prompts.txt"
    path.write_text("2,3\n\n4,5\n")
    assert load_prompts(path) == [[2, 3], [4, 5]]


@pytest.mark.parametrize("text, lineno", [("3,4,\n", 1), ("2,3\n2,x\n", 2), ("2,3\n\n4,,5\n", 3)])
def test_load_prompts_rejects_bad_tokens_naming_path_and_line(tmp_path, text, lineno):
    path = tmp_path / "prompts.txt"
    path.write_text(text)
    with pytest.raises(DomainError, match=re.escape(f"{path} line {lineno}: ")):
        load_prompts(path)


@pytest.mark.parametrize("text, lineno", [("3,17\n3,1", 2), ("3,1", 1), ("2,3\n\n4", 3)])
def test_load_prompts_rejects_a_truncated_last_line_naming_path_and_line(tmp_path, text, lineno):
    # save_prompts ends every line with a newline: without one the file was cut short.
    path = tmp_path / "prompts.txt"
    path.write_text(text)
    with pytest.raises(DomainError, match=re.escape(f"{path} line {lineno}: ") + ".*newline"):
        load_prompts(path)
    path.write_text(text + "\n\n")
    assert load_prompts(path)


def test_build_corpus_small_end_to_end():
    bundle = build_corpus(SMALL, pretrain_budget=400_000)
    assert isinstance(bundle, CorpusBundle)
    assert bundle.teacher_ce <= 1.05 * bundle.entropy_rate + 1e-9
    assert bundle.teacher_ce >= bundle.entropy_rate - 1e-9
    assert len(bundle.prompts) == SMALL.n_prompts
    assert all(len(p) == SMALL.prompt_len for p in bundle.prompts)
    for prompt in bundle.prompts:
        assert BOS_ID not in prompt and EOS_ID not in prompt
    assert bundle.prompts == canonical_prompts(bundle.ground_truth, SMALL)


def test_build_corpus_is_deterministic():
    a = build_corpus(SMALL, pretrain_budget=400_000)
    b = build_corpus(SMALL, pretrain_budget=400_000)
    assert np.array_equal(a.ground_truth.table, b.ground_truth.table)
    assert np.array_equal(a.teacher.table, b.teacher.table)
    assert a.prompts == b.prompts
    assert a.teacher_ce == b.teacher_ce


@pytest.mark.parametrize("teacher_order", [None, 2])
def test_build_corpus_reports_a_fresh_heldout_evaluation(teacher_order):
    # The bundle reuses pretraining's held-out rollout and final scores;
    # they equal a second rollout from the same stream and a fresh score.
    bundle = build_corpus(SMALL, teacher_order=teacher_order, pretrain_budget=400_000)
    heldout = collect_heldout_contexts(
        bundle.ground_truth, make_rng(derive_seed(SMALL.seed, STREAM_HELDOUT))
    )
    assert bundle.heldout_contexts == heldout
    ce, entropy = heldout_scores(bundle.ground_truth, bundle.teacher, heldout)
    assert (bundle.teacher_ce, bundle.entropy_rate) == (ce, entropy)


def test_build_corpus_teacher_order_can_exceed_ground_truth():
    bundle = build_corpus(SMALL, teacher_order=2, pretrain_budget=400_000)
    assert bundle.teacher.order == 2
    assert bundle.teacher_ce <= 1.05 * bundle.entropy_rate + 1e-9


def test_entropy_rate_tracks_concentration():
    flat = build_ground_truth(CorpusSpec(vocab_size=16, order=1, concentration=1.0,
                                         seed=8), make_rng(8))
    peaky = build_ground_truth(CorpusSpec(vocab_size=16, order=1, concentration=0.05,
                                          seed=8), make_rng(8))
    ctx_flat = collect_heldout_contexts(flat, make_rng(1))
    ctx_peaky = collect_heldout_contexts(peaky, make_rng(1))
    _, ent_flat = heldout_scores(flat, flat, ctx_flat)
    _, ent_peaky = heldout_scores(peaky, peaky, ctx_peaky)
    assert ent_peaky < ent_flat < math.log(16)


def reference_pretrain(ground_truth, spec, steps, rng, *, order=None, tolerance=0.05):
    """The token-by-token pretraining loop: one rollout, then one SGD step per token.

    Rollouts of at most 40 tokens, a check after the first rollout that
    brings the tokens since the last one to 8192, a learning rate of 0.8
    halved at each sixth of the budget. Returns ``(teacher, heldout, ce,
    entropy)``, as :func:`pretrain_teacher` does.
    """
    teacher = NGramLogitLM.create(spec.vocab(), order if order is not None else ground_truth.order)
    heldout = collect_heldout_contexts(
        ground_truth, make_rng(derive_seed(spec.seed, STREAM_HELDOUT)))
    _, entropy = heldout_scores(ground_truth, ground_truth, heldout)
    target_ce = (1.0 + tolerance) * entropy
    used = 0
    since_check = 0
    cfg = GenerationConfig(tau=1.0, max_new_tokens=40)
    while used < steps:
        seq = reference_generate_autoregressive(ground_truth, [], cfg, rng)
        prefix = []
        for tok in seq:
            lr = 0.8 * 0.5 ** int(6 * used / steps)
            _, grads = reference_ce_gradient(teacher, prefix, tok)
            apply_update(teacher, grads, lr)
            prefix.append(tok)
            used += 1
            since_check += 1
            if used >= steps:
                break
        if since_check >= 8192:
            since_check = 0
            ce, _ = heldout_scores(ground_truth, teacher, heldout)
            if ce <= target_ce:
                return teacher, heldout, ce, entropy
    ce, _ = heldout_scores(ground_truth, teacher, heldout)
    if ce <= target_ce:
        return teacher, heldout, ce, entropy
    raise TrainingError(
        f"teacher not converged in {steps} tokens: held-out CE {ce:.4f} vs "
        f"entropy rate {entropy:.4f} (target {target_ce:.4f})")


def _outcome(fn, gt, spec, steps, seed, **kwargs):
    rng = make_rng(seed)
    try:
        model, *_ = fn(gt, spec, steps, rng, **kwargs)
    except TrainingError as exc:
        return None, str(exc), rng.random()
    return model.table, None, rng.random()


ORDER2 = CorpusSpec(vocab_size=12, order=2, concentration=0.5, seed=4)


@pytest.mark.parametrize("spec, steps, kwargs", [
    (SMALL, 50_000, {}),
    (ORDER2, 50_000, {}),
    (SMALL, 50_000, {"order": 3}),
    (SMALL, 4_001, {"tolerance": 0.002}),
    (ORDER2, 8_292, {}),
    (SMALL, 0, {}),
    (SMALL, 50, {}),
    (SMALL, 63, {}),
    (SMALL, 64, {}),
    (SMALL, 65, {}),
], ids=["small", "order2", "order1-teacher3", "mid-sequence", "past-first-check",
        "budget0", "budget50", "budget63", "budget64", "budget65"])
def test_pretrain_matches_token_by_token_reference(spec, steps, kwargs):
    # Same teacher table bit for bit, same error text, and the same
    # generator state afterwards, as the per-token loop. Uniforms are
    # drawn 64 at a time: the rollouts of budgets 63 and 64 read exactly
    # one chunk, those of budget 65 one uniform of the next. A budget of
    # 8,292 tokens is more than a rollout (at most 40) past the first
    # check, which the order-2 teacher fails, so a second chunk follows it.
    gt = build_ground_truth(spec, make_rng(spec.seed))
    table, err, after = _outcome(pretrain_teacher, gt, spec, steps, 2, **kwargs)
    ref_table, ref_err, ref_after = _outcome(reference_pretrain, gt, spec, steps, 2, **kwargs)
    assert err == ref_err
    if ref_err is None:
        assert np.array_equal(table, ref_table)
    assert after == ref_after


def test_pretrain_matches_reference_on_chain_with_zero_probability_tokens():
    # exp(-1000) underflows to 0, so these tokens have probability exactly 0.
    gt = build_ground_truth(ORDER2, make_rng(ORDER2.seed))
    gt.table[:, [2, 5]] = -1000.0
    gt.table[::3, 7] = -1000.0
    table, err, after = _outcome(pretrain_teacher, gt, ORDER2, 50_000, 2)
    ref_table, ref_err, ref_after = _outcome(reference_pretrain, gt, ORDER2, 50_000, 2)
    assert err is None and ref_err is None
    assert np.array_equal(table, ref_table)
    assert after == ref_after


def test_pretrain_reference_cases_cover_both_outcomes():
    gt = build_ground_truth(SMALL, make_rng(SMALL.seed))
    _, err, _ = _outcome(reference_pretrain, gt, SMALL, 50_000, 2)
    assert err is None
    _, err, _ = _outcome(reference_pretrain, gt, SMALL, 4_001, 2, tolerance=0.002)
    assert err is not None and "not converged in 4001 tokens" in err
    # The order-2 teacher fails its check at 8,192 tokens and trains on.
    gt2 = build_ground_truth(ORDER2, make_rng(ORDER2.seed))
    _, err, _ = _outcome(reference_pretrain, gt2, ORDER2, 8_292, 2)
    assert err is not None and "not converged in 8292 tokens" in err
    # The 4001-token budget runs out part-way through a rollout.
    rng = make_rng(2)
    lengths = []
    cfg = GenerationConfig(tau=1.0, max_new_tokens=40)
    while sum(lengths) < 4_001:
        lengths.append(len(reference_generate_autoregressive(gt, [], cfg, rng)))
    assert sum(lengths) - lengths[-1] < 4_001 < sum(lengths)


def _infinite_rate_updates(spec, n_rollouts):
    """Pretraining's rows and tokens over ``n_rollouts`` rollouts, at an infinite rate.

    Returns ``(teacher, rows, tokens, lrs)`` for :func:`_apply_wavefront`.
    """
    gt = build_ground_truth(spec, make_rng(spec.seed))
    teacher = NGramLogitLM.create(spec.vocab(), spec.order)
    rng = make_rng(2)
    cfg = GenerationConfig(tau=1.0, max_new_tokens=40)
    rows, tokens = [], []
    for _ in range(n_rollouts):
        seq = reference_generate_autoregressive(gt, [], cfg, rng)
        rows += [teacher.context_index(seq[:i]) for i in range(len(seq))]
        tokens += seq
    return teacher, rows, tokens, [np.inf] * len(rows)


def test_pretrain_non_finite_update_raises_numeric_error():
    teacher, rows, tokens, lrs = _infinite_rate_updates(SMALL, 20)
    _, err = wavefront_outcome(_apply_wavefront, teacher, rows, tokens, lrs)
    assert re.fullmatch(r"non-finite gradient for context row \d+", err)


def test_pretrain_non_finite_update_names_the_reference_row():
    teacher, rows, tokens, lrs = _infinite_rate_updates(ORDER2, 20)
    _, err = wavefront_outcome(_apply_wavefront, teacher, rows, tokens, lrs)
    _, ref_err = wavefront_outcome(reference_wavefront, teacher, rows, tokens, lrs)
    assert err is not None and err == ref_err


def test_pretrain_rewinds_the_generator_when_a_chain_row_fails_mid_rollout():
    gt = build_ground_truth(ORDER2, make_rng(ORDER2.seed))
    heldout = {gt.context_index(c) for c in collect_heldout_contexts(
        gt, make_rng(derive_seed(ORDER2.seed, STREAM_HELDOUT)))}
    # The first chain row that training's rollouts reach after at least one
    # token and the held-out rollouts never reach.
    rng = make_rng(2)
    cfg = GenerationConfig(tau=1.0, max_new_tokens=40)
    bad = None
    while bad is None:
        seq = reference_generate_autoregressive(gt, [], cfg, rng)
        bad = next((gt.context_index(seq[:i]) for i in range(1, len(seq))
                    if gt.context_index(seq[:i]) not in heldout), None)
    gt.table[bad, 3] = np.inf  # its tau=1 row is NaN, so it does not total 1
    afters, messages = [], []
    for fn in (pretrain_teacher, reference_pretrain):
        rng = make_rng(2)
        with np.errstate(invalid="ignore"), pytest.raises(NumericError,
                                                          match="cannot sample") as info:
            fn(gt, ORDER2, 50_000, rng)
        afters.append(rng.random())
        messages.append(str(info.value))
    assert afters[0] == afters[1]
    assert messages[0] == messages[1]


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Bit-equal arrays, with every NaN taken as equal to every other."""
    return np.where(np.isnan(a), np.nan, a).tobytes() == np.where(np.isnan(b), np.nan, b).tobytes()


def reference_wavefront(teacher, rows, tokens, lrs) -> None:
    """:func:`_apply_wavefront` as one CE step per update, in index order.

    A step with a non-finite gradient moves nothing; the first one's
    error is raised after the last update.
    """
    size = teacher.vocab.size
    error = None
    for row, tok, lr in zip(rows, tokens, lrs):
        context = [row // size**k % size for k in reversed(range(teacher.order))]
        assert teacher.context_index(context) == row
        _, grads = reference_ce_gradient(teacher, context, tok)
        try:
            apply_update(teacher, grads, lr)
        except NumericError as exc:
            error = error or exc
    if error is not None:
        raise error


def wavefront_outcome(fn, teacher, rows, tokens, lrs):
    """The table and error text after ``fn`` applies the updates to a copy."""
    model = NGramLogitLM(vocab=teacher.vocab, order=teacher.order, table=teacher.table.copy())
    with np.errstate(invalid="ignore", over="ignore"):
        try:
            fn(model, np.array(rows, dtype=np.int64), np.array(tokens, dtype=np.int64),
               np.array(lrs, dtype=float))
        except NumericError as exc:
            return model.table, str(exc)
    return model.table, None


def _wavefront_case(name):
    rng = make_rng(7)
    rows = {
        # Pretraining's shape: the start row gets most of the updates.
        "one-dominant-row": [0 if rng.random() < 0.6 else int(rng.integers(64))
                             for _ in range(300)],
        "one-row-only": [21] * 40,
        "single-update": [9],
        # Row 0's 20th update is in its one-row tail; row 50 starts non-finite.
        "tail-bad-first": [0] * 30 + [13, 0, 14, 13, 14, 13, 14, 50],
        "multi-row-bad-first": [50, 13, 14] * 3 + [0] * 30,
    }[name]
    tokens = rng.integers(0, 8, len(rows)).tolist()
    lrs = (0.8 * 0.5 ** rng.integers(0, 6, len(rows))).tolist()
    if name.endswith("bad-first"):
        lrs[[i for i, r in enumerate(rows) if r == 0][19]] = np.inf
    return rows, tokens, lrs


@pytest.mark.parametrize("case", ["one-dominant-row", "one-row-only", "single-update",
                                  "tail-bad-first", "multi-row-bad-first"])
def test_wavefront_equals_one_update_at_a_time(case):
    teacher = NGramLogitLM.create(Vocab(size=8, bos_id=0, eos_id=1), 2, init_scale=2.0,
                                  init_seed=5)
    rows, tokens, lrs = _wavefront_case(case)
    if case.endswith("bad-first"):
        teacher.table[50, 4] = np.inf
    table, err = wavefront_outcome(_apply_wavefront, teacher, rows, tokens, lrs)
    ref_table, ref_err = wavefront_outcome(reference_wavefront, teacher, rows, tokens, lrs)
    assert same_bits(table, ref_table)
    assert err == ref_err
    if case.endswith("bad-first"):
        row = 0 if case == "tail-bad-first" else 50
        assert err == f"non-finite gradient for context row {row}"
        assert not np.isfinite(table[0]).all()
