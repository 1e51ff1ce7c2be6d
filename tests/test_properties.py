"""Property tests of the sampling, verification and training numerics (hypothesis).

The examples are derandomized, so every run checks the same cases.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from speclab.corpus import _apply_wavefront
from speclab.errors import DomainError
from speclab.lm import NGramLogitLM, TinyNeuralLM, Vocab
from speclab.sampling import (
    SeedBank,
    derive_seed,
    derive_seeds,
    make_rng,
    pcg64_state,
    sample,
    softmax_with_temperature,
    step_draws,
)
from speclab.specdec import (
    GenerationConfig,
    RowTable,
    _residual_rows,
    decode_lockstep,
    dump_trace,
    residual_distribution,
    verify_block,
)

from oracles import (
    induced_distribution,
    reference_generate_autoregressive,
    reference_pair_step,
)
from test_corpus import reference_wavefront, same_bits, wavefront_outcome
from test_distill import assert_same_step, pair_step
from test_specdec import reference_speculative_generate

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)


def normalized(w):
    w = np.asarray(w, dtype=float)
    return w / w.sum()


def positive_weights(n):
    return st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n).filter(lambda w: sum(w) > 0)


@st.composite
def adversarial_pairs(draw_from):
    """A target row p and a draft row q of one size, chosen to be awkward."""
    kind = draw_from(st.sampled_from(
        ["random", "near_equal", "one_hot", "disjoint", "tiny_tau", "huge_tau"]))
    n = draw_from(st.integers(2, 12))
    if kind in ("tiny_tau", "huge_tau"):
        logits = st.lists(st.floats(-20.0, 20.0), min_size=n, max_size=n)
        tau = draw_from(st.floats(1e-4, 1e-2) if kind == "tiny_tau" else st.floats(1e2, 1e8))
        p = softmax_with_temperature(np.array(draw_from(logits)), tau)
        q = softmax_with_temperature(np.array(draw_from(logits)), tau)
    elif kind == "disjoint":  # the draft never proposes a token the target can emit
        split = draw_from(st.integers(1, n - 1))
        p, q = np.zeros(n), np.zeros(n)
        p[:split] = normalized(draw_from(positive_weights(split)))
        q[split:] = normalized(draw_from(positive_weights(n - split)))
    else:
        p = normalized(draw_from(positive_weights(n)))
        if kind == "random":
            q = normalized(draw_from(positive_weights(n)))
        elif kind == "near_equal":
            eps = draw_from(st.lists(st.floats(-1e-9, 1e-9), min_size=n, max_size=n))
            q = normalized(p * (1.0 + np.array(eps)))
        else:
            q = np.eye(n)[draw_from(st.integers(0, n - 1))]
            if draw_from(st.booleans()):
                p, q = q, p
    return p, q


@SETTINGS
@given(adversarial_pairs())
def test_verification_is_lossless_on_adversarial_pairs(pair):
    p, q = pair
    out = induced_distribution(p, q)
    assert np.all(out >= 0.0)
    assert np.max(np.abs(out - p)) < 1e-12


def boundary_uniforms(cdf):
    """Uniforms at and just below every CDF step, plus both ends."""
    us = [0.0, 1 - 2**-53, 0.5]
    for c in cdf:
        us += [float(c), float(np.nextafter(c, 0.0))]
    return [u for u in us if 0.0 <= u < 1.0]


class StubRng:
    """Generator stand-in whose every uniform is one fixed value."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


@SETTINGS
@given(st.integers(2, 12).flatmap(positive_weights), st.floats(0.0, 1.0, exclude_max=True))
def test_sample_and_draw_never_return_a_zero_probability_token(w, u):
    dist = normalized(w)
    for v in [u] + boundary_uniforms(np.cumsum(dist)):
        assert dist[sample(dist, StubRng(v))] > 0.0


class ListRng:
    """Generator stand-in that returns a fixed list of uniforms in order."""

    def __init__(self, uniforms):
        self.uniforms = list(uniforms)
        self.used = 0

    def random(self):
        u = self.uniforms[self.used]
        self.used += 1
        return u


def reference_verify_block(target, drafts, proposed, rng):
    """verify_block as it read before rows were cached: sample() per correction."""
    m = len(proposed)
    for i in range(m):
        x = proposed[i]
        ratio = target[i][x] / drafts[i][x]
        if rng.random() < (1.0 if ratio >= 1.0 else ratio):
            continue
        try:
            residual = residual_distribution(target[i], drafts[i])
        except DomainError:
            residual = target[i]
        return i, sample(residual, rng), "resample"
    if len(target) == m + 1:
        return m, sample(target[m], rng), "bonus"
    return m, None, None


@SETTINGS
@given(st.lists(adversarial_pairs(), min_size=1, max_size=4), st.booleans(), st.data())
def test_verify_block_equals_the_sample_per_correction_reference(pairs, bonus, data):
    m = len(pairs)
    n = max(len(p) for p, _ in pairs)  # one vocabulary: pad to the widest row
    target = [np.r_[p, np.zeros(n - len(p))] for p, _ in pairs]
    drafts = [np.r_[q, np.zeros(n - len(q))] for _, q in pairs]
    proposed = [data.draw(st.sampled_from(np.flatnonzero(q > 0).tolist())) for q in drafts]
    if bonus:
        target.append(normalized(data.draw(positive_weights(n))))
    uniforms = data.draw(st.lists(st.floats(0.0, 1.0, exclude_max=True),
                                  min_size=m + 1, max_size=m + 1))
    want_rng, got_rng = ListRng(uniforms), ListRng(uniforms)
    with np.errstate(over="ignore"):  # p(x) / q(x) may overflow to inf: accept
        want = reference_verify_block(target, drafts, proposed, want_rng)
        got = verify_block(target, drafts, proposed, got_rng)
    assert got == want
    assert got_rng.used == want_rng.used


@SETTINGS
@given(st.lists(adversarial_pairs(), min_size=1, max_size=6))
def test_batched_residual_rows_bit_equal_one_row_residuals(pairs):
    n = max(len(p) for p, _ in pairs)
    target = np.array([np.r_[p, np.zeros(n - len(p))] for p, _ in pairs])
    drafts = np.array([np.r_[q, np.zeros(n - len(q))] for _, q in pairs])
    rows = _residual_rows(target, drafts)
    for i in range(len(pairs)):
        try:
            want = residual_distribution(target[i], drafts[i])
        except DomainError:  # no residual mass: the correction comes from the target row
            want = target[i]
        assert rows[i].tobytes() == want.tobytes()


@SETTINGS
@given(st.data())
def test_lockstep_decoders_equal_the_scalar_decoders_on_random_tables(data):
    size = data.draw(st.integers(3, 6))
    vocab = Vocab(size=size, bos_id=0, eos_id=data.draw(st.integers(1, size - 1)))
    models = []
    for order in (data.draw(st.integers(1, 3)), data.draw(st.integers(1, 2))):
        model = NGramLogitLM.create(vocab, order)
        rng = make_rng(data.draw(st.integers(0, 2**32)))
        model.table[...] = rng.normal(0, data.draw(st.sampled_from([0.5, 2.0, 8.0])),
                                      size=model.table.shape)
        # Zero-probability tokens, with at least one token left in every row.
        masked = rng.random(model.table.shape) < data.draw(st.sampled_from([0.0, 0.3, 0.7]))
        masked[np.arange(len(masked)), rng.integers(0, size, len(masked))] = False
        model.table[masked] = -np.inf
        models.append(model)
    target, draft = models
    config = GenerationConfig(tau=data.draw(st.sampled_from([0.0, 0.3, 1.0, 3.0])),
                              block_size=data.draw(st.integers(1, 5)),
                              max_new_tokens=data.draw(st.integers(1, 12)))
    prompts = data.draw(st.lists(st.lists(st.integers(0, size - 1), max_size=4),
                                 min_size=1, max_size=5))
    seeds = list(range(len(prompts)))
    target_rows = RowTable(target, config.tau)
    rngs, base_rngs = [make_rng(s) for s in seeds], [make_rng(s) for s in seeds]
    outs, proposed, accepted, traces = decode_lockstep(
        target_rows, RowTable(draft, config.tau), prompts, config, rngs, traces=True)
    base = decode_lockstep(target_rows, None, prompts, config, base_rngs)[0]
    for j, prompt in enumerate(prompts):
        want_rng = make_rng(seeds[j])
        out, trace = reference_speculative_generate(target, draft, prompt, config, want_rng)
        assert outs[j] == out
        assert dump_trace(traces[j]) == dump_trace(trace)
        assert (proposed[j], accepted[j]) == (trace.draft_proposed, trace.draft_accepted)
        assert rngs[j].bit_generator.state == want_rng.bit_generator.state
        want_rng = make_rng(seeds[j])
        assert base[j] == reference_generate_autoregressive(target, prompt, config, want_rng)
        assert base_rngs[j].bit_generator.state == want_rng.bit_generator.state


# Seed and index values: one 32-bit word, two words, the word edges, and
# negatives and values past 64 bits, which both mask.
SEED_VALUES = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1),
                        st.sampled_from([0, 2**32 - 1, 2**32, 2**63, 2**64 - 1]),
                        st.integers(-(2**64), -1), st.integers(2**64, 2**66))


@SETTINGS
@given(st.data())
def test_seed_bank_equals_make_rng_and_derive_seed(data):
    n_parts = data.draw(st.integers(0, 4))
    rows = data.draw(st.lists(st.lists(SEED_VALUES, min_size=n_parts + 1,
                                       max_size=n_parts + 1), min_size=1, max_size=6))
    seeds = derive_seeds(*zip(*rows))
    assert seeds.tolist() == [derive_seed(*row) for row in rows]
    # Each stream reads a count around the chunk size, in takes of random subsets.
    bank_seeds = seeds.tolist() + [row[0] for row in rows]
    bank = SeedBank(bank_seeds)
    reads = np.array(data.draw(st.lists(st.integers(0, 140), min_size=len(bank_seeds),
                                        max_size=len(bank_seeds))))
    got = [[] for _ in bank_seeds]
    rng = make_rng(data.draw(st.integers(0, 2**32)))
    while (reads > 0).any():
        streams = np.flatnonzero((reads > 0) & (rng.random(len(reads)) < 0.8))
        for s, u in zip(streams.tolist(), bank.take(streams).tolist()):
            got[s].append(u)
        reads[streams] -= 1
    for i, seed in enumerate(bank_seeds):
        gen = make_rng(seed)
        assert got[i] == gen.random(len(got[i])).tolist()
        assert bank.state(i) == gen.bit_generator.state["state"]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 2**64 - 1), st.integers(0, 530),
       st.one_of(st.integers(1, 64), st.integers(1, 2**32 - 1)))
def test_step_draws_equal_make_rng_of_each_step(base, steps, n):
    got = [(index, coin, pcg64_state(state)) for index, coin, state in step_draws(base, steps, n)]
    assert len(got) == steps
    for step, (index, coin, state) in enumerate(got, start=1):
        rng = make_rng(derive_seed(base, step))
        assert index == rng.integers(n)
        assert coin == rng.random()
        assert state == rng.bit_generator.state


@st.composite
def neural_steps(draw_from):
    """Plain values of one tiny-neural pair step, as :func:`neural_step` builds it."""
    size = draw_from(st.sampled_from([4, 8, 16, 32]))
    token = st.integers(0, size - 1)
    return {
        "size": size, "seed": draw_from(st.integers(0, 2**16)),
        "context_size": draw_from(st.integers(1, 4)), "d_emb": draw_from(st.integers(1, 16)),
        "d_hid": draw_from(st.integers(1, 64)),
        # Logits 40 below the rest floor those tokens' probabilities in the FKL term.
        "floored": draw_from(st.lists(token, max_size=size - 1)),
        "zero": draw_from(st.lists(token, max_size=size - 1)),
        # An n-gram teacher of that order, or with None a tiny-neural one.
        "teacher_order": draw_from(st.sampled_from([1, 2, None])),
        "prompt": draw_from(st.lists(token, max_size=6)),
        "response": draw_from(st.lists(token, min_size=1, max_size=64)),
        # None trains without a teacher.
        "loss_ratio": draw_from(st.one_of(st.none(), st.sampled_from([0.0, 0.37, 1.0, 2.5]))),
    }


def neural_step(case):
    """``(student, teacher, prompt, response, loss_ratio)`` of a :func:`neural_steps` case."""
    vocab = Vocab(size=case["size"], bos_id=0, eos_id=1)
    seed = case["seed"]
    student = TinyNeuralLM.create(vocab, context_size=case["context_size"], d_emb=case["d_emb"],
                                  d_hid=case["d_hid"], seed=seed)
    student.b2[case["floored"]] = -40.0
    if case["loss_ratio"] is None:
        return student, None, case["prompt"], case["response"], 0.0
    if case["teacher_order"] is None:
        teacher = TinyNeuralLM.create(vocab, context_size=2, d_emb=4, d_hid=8, seed=seed + 1)
        teacher.b2[case["zero"]] = -np.inf
    else:
        teacher = NGramLogitLM.create(vocab, case["teacher_order"], init_scale=2.0,
                                      init_seed=seed)
        teacher.table[:, case["zero"]] = -np.inf
    return student, teacher, case["prompt"], case["response"], case["loss_ratio"]


@SETTINGS
@given(neural_steps())
# A one-token step whose first w2 part holds -0.0, which a sum from +0.0 loses.
@example({"size": 4, "seed": 0, "context_size": 1, "d_emb": 1, "d_hid": 8, "floored": [1, 2, 3],
          "zero": [], "teacher_order": None, "prompt": [], "response": [0], "loss_ratio": None})
def test_neural_pair_step_bit_equals_the_per_position_loop(case):
    student, teacher, prompt, response, loss_ratio = neural_step(case)
    assert_same_step(pair_step(student, teacher, prompt, response, loss_ratio),
                     reference_pair_step(student, teacher, prompt, response, loss_ratio))


@SETTINGS
@given(st.data())
def test_wavefront_bit_equals_one_update_at_a_time(data):
    size = data.draw(st.integers(2, 6))
    teacher = NGramLogitLM.create(Vocab(size=size, bos_id=0, eos_id=1),
                                  data.draw(st.integers(1, 2)),
                                  init_scale=data.draw(st.sampled_from([0.0, 1.0, 30.0])),
                                  init_seed=data.draw(st.integers(0, 2**16)))
    row = st.integers(0, len(teacher.table) - 1)
    if data.draw(st.booleans()):
        teacher.table[data.draw(row), data.draw(st.integers(0, size - 1))] = np.inf
    # Pretraining's shape: one row, the start row there, gets most updates.
    rows = data.draw(st.lists(st.one_of(st.just(data.draw(row)), row), min_size=1, max_size=60))
    tokens = data.draw(st.lists(st.integers(0, size - 1), min_size=len(rows), max_size=len(rows)))
    lr = st.one_of(st.floats(0.0, 2.0), st.sampled_from([1e300, np.inf]))
    lrs = data.draw(st.lists(lr, min_size=len(rows), max_size=len(rows)))
    table, err = wavefront_outcome(_apply_wavefront, teacher, rows, tokens, lrs)
    ref_table, ref_err = wavefront_outcome(reference_wavefront, teacher, rows, tokens, lrs)
    assert same_bits(table, ref_table)
    assert err == ref_err
