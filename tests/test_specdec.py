import itertools
import math
import tracemalloc
from contextlib import closing
from types import SimpleNamespace

import numpy as np
import pytest

from speclab import specdec
from speclab.corpus import collect_heldout_contexts
from speclab.distill import KDConfig, Pair, train_online
from speclab.errors import ConfigError, DomainError, NumericError, VerificationError
from speclab.lm import NGramLogitLM, TinyNeuralLM, Vocab, _window_index, checkpoint_bytes
from speclab.sampling import (
    SeedBank,
    derive_seed,
    derive_seeds,
    make_rng,
    sample,
    softmax_with_temperature,
)
from speclab.specdec import (
    GenerationConfig,
    RoundRecord,
    RowTable,
    SpeculationTrace,
    decode_lockstep,
    dump_trace,
    generate_autoregressive,
    parse_trace,
    residual_distribution,
    speculative_generate,
    verify_block,
)

from oracles import (
    acceptance_probability,
    induced_distribution,
    reference_generate_autoregressive,
    reference_row,
    reference_train_online,
)

VOCAB8 = Vocab(size=8, bos_id=0, eos_id=1)


def random_ngram(order, seed, scale=1.2, vocab=VOCAB8):
    model = NGramLogitLM.create(vocab, order)
    model.table[...] = make_rng(seed).normal(0, scale, size=model.table.shape)
    return model


def random_pair(rng, size):
    return rng.dirichlet(np.ones(size)), rng.dirichlet(np.ones(size))


def test_residual_known_value():
    p = np.array([0.6, 0.4])
    q = np.array([0.3, 0.7])
    assert np.allclose(residual_distribution(p, q), [1.0, 0.0], atol=1e-15)


def test_residual_undefined_when_draft_covers_target():
    p = np.array([0.5, 0.5])
    with pytest.raises(DomainError, match="residual undefined"):
        residual_distribution(p, p)


def test_acceptance_probability_known_values():
    p = np.array([0.6, 0.4])
    q = np.array([0.3, 0.7])
    assert acceptance_probability(p, q) == pytest.approx(0.7, abs=1e-15)
    assert acceptance_probability(p, p) == pytest.approx(1.0, abs=1e-15)


def test_induced_distribution_recovers_target():
    rng = make_rng(1234)
    for _ in range(300):
        size = int(rng.integers(2, 17))
        p, q = random_pair(rng, size)
        out = induced_distribution(p, q)
        assert np.max(np.abs(out - p)) < 1e-12


def test_induced_distribution_identical_pair():
    p = np.array([0.25, 0.5, 0.25])
    assert np.max(np.abs(induced_distribution(p, p) - p)) < 1e-12


def test_verify_block_accepts_everything_when_dists_match():
    rng = make_rng(5)
    p = np.array([0.1, 0.2, 0.3, 0.4])
    dists = [p, p, p, p]  # three positions plus the bonus entry
    accepted, correction, kind = verify_block(dists, dists[:3], [3, 1, 2], rng)
    assert accepted == 3
    assert kind == "bonus"
    assert p[correction] > 0


def test_verify_block_without_bonus_entry():
    rng = make_rng(6)
    p = np.array([0.5, 0.5])
    accepted, correction, kind = verify_block([p], [p], [1], rng)
    assert (accepted, correction, kind) == (1, None, None)


def test_verify_block_rejects_zero_draft_probability():
    rng = make_rng(7)
    p = np.array([0.5, 0.5])
    q = np.array([1.0, 0.0])
    with pytest.raises(VerificationError):
        verify_block([p, p], [q], [1], rng)


def test_verify_block_empirical_acceptance_matches_overlap():
    rng = make_rng(8)
    for pair_seed in (0, 1):
        pr = make_rng(900 + pair_seed)
        p, q = random_pair(pr, 8)
        expected = acceptance_probability(p, q)
        n = 20_000
        accepted = 0
        from speclab.sampling import sample

        for _ in range(n):
            x = sample(q, rng)
            got, _, _ = verify_block([p, p], [q], [x], rng)
            accepted += got
        sigma = math.sqrt(expected * (1 - expected) / n)
        assert abs(accepted / n - expected) < 3 * sigma


def test_generation_config_validation():
    with pytest.raises(DomainError):
        GenerationConfig(tau=-1.0)
    with pytest.raises(DomainError, match="tau"):
        GenerationConfig(tau=float("nan"))
    with pytest.raises(DomainError, match="tau"):
        GenerationConfig(tau=float("inf"))
    assert GenerationConfig(tau=0.0).tau == 0.0
    with pytest.raises(DomainError):
        GenerationConfig(block_size=0)
    with pytest.raises(DomainError):
        GenerationConfig(max_new_tokens=0)


def test_autoregressive_stops_at_eos_immediately():
    model = NGramLogitLM.create(VOCAB8, 1)
    model.table[...] = -20.0
    model.table[:, VOCAB8.eos_id] = 20.0  # every context forces eos
    out = generate_autoregressive(model, [3, 4], GenerationConfig(tau=1.0), make_rng(0))
    assert out == [VOCAB8.eos_id]


def test_autoregressive_respects_token_cap():
    model = random_ngram(1, 40)
    model.table[:, VOCAB8.eos_id] = -50.0  # eos never sampled
    out = generate_autoregressive(model, [2], GenerationConfig(max_new_tokens=17), make_rng(1))
    assert len(out) == 17


def test_speculative_rejects_vocab_mismatch():
    other = Vocab(size=8, bos_id=0, eos_id=2)
    target = random_ngram(1, 50)
    draft = NGramLogitLM.create(other, 1)
    with pytest.raises(ConfigError):
        speculative_generate(target, draft, [3], GenerationConfig(), make_rng(0))


def test_speculative_identical_models_accept_every_token():
    target = random_ngram(2, 60)
    draft = NGramLogitLM(vocab=VOCAB8, order=2, table=target.table.copy())
    cfg = GenerationConfig(tau=0.8, block_size=4, max_new_tokens=48)
    for i in range(20):
        out, trace = speculative_generate(target, draft, [2, 3], cfg, make_rng(i))
        assert trace.draft_accepted == trace.draft_proposed
        assert trace.draft_accepted / trace.draft_proposed == 1.0
        assert 1 <= len(out) <= 48


def test_speculative_matches_greedy_target_decoding():
    target = random_ngram(2, 61)
    draft = random_ngram(1, 62)
    cfg = GenerationConfig(tau=0.0, block_size=4, max_new_tokens=64)
    rng = make_rng(63)
    for i in range(30):
        prompt = list(rng.integers(2, 8, size=5))
        base = generate_autoregressive(target, prompt, cfg, make_rng(derive_seed(1, i)))
        spec, _ = speculative_generate(target, draft, prompt, cfg, make_rng(derive_seed(2, i)))
        assert spec == base


def test_speculative_output_respects_cap_and_eos():
    target = random_ngram(2, 64)
    draft = random_ngram(1, 65)
    cfg = GenerationConfig(tau=1.0, block_size=4, max_new_tokens=24)
    for i in range(40):
        out, trace = speculative_generate(target, draft, [4, 5], cfg, make_rng(i))
        assert 1 <= len(out) <= 24
        if VOCAB8.eos_id in out:
            assert out.index(VOCAB8.eos_id) == len(out) - 1
        for rnd in trace.rounds:
            assert 0 <= rnd.accepted_count <= len(rnd.proposed)
            assert len(rnd.proposed) <= cfg.block_size


def test_trace_totals_equal_round_sums():
    target = random_ngram(2, 66)
    draft = random_ngram(1, 67)
    cfg = GenerationConfig(tau=1.0, block_size=4, max_new_tokens=40)
    out, trace = speculative_generate(target, draft, [2, 6], cfg, make_rng(3))
    assert trace.draft_proposed == sum(len(r.proposed) for r in trace.rounds)
    assert trace.draft_accepted == sum(r.accepted_count for r in trace.rounds)


def test_speculative_is_deterministic_given_seed():
    target = random_ngram(2, 68)
    draft = random_ngram(1, 69)
    cfg = GenerationConfig(tau=0.7, block_size=3, max_new_tokens=32)
    a = speculative_generate(target, draft, [3, 3], cfg, make_rng(11))
    b = speculative_generate(target, draft, [3, 3], cfg, make_rng(11))
    assert a[0] == b[0]
    assert dump_trace(a[1]) == dump_trace(b[1])


def test_speculative_single_token_marginals_are_lossless():
    # First emitted token of a capped speculative generation must follow
    # the target's temperature softmax exactly; the draft is unrelated.
    target = random_ngram(1, 70)
    draft = random_ngram(1, 71)
    prompt = [5, 2]
    n = 10_000
    for tau in (0.5, 2.0):
        p = softmax_with_temperature(target.forward(prompt), tau)
        cfg = GenerationConfig(tau=tau, block_size=4, max_new_tokens=1)
        outs = decode_lockstep(RowTable(target, tau), RowTable(draft, tau), [prompt] * n, cfg,
                               [make_rng(derive_seed(72, i)) for i in range(n)])[0]
        counts = np.bincount([out[0] for out in outs], minlength=8)
        freq = counts / n
        sigma = np.sqrt(np.maximum(p * (1 - p) / n, 1e-12))
        assert np.all(np.abs(freq - p) < 3.5 * sigma)


def test_speculative_stream_marginals_match_target_softmax():
    # When every target row is the same distribution, each emitted token
    # is an independent draw from it, so pooled frequencies over a long
    # stream must match the softmax within binomial bounds.
    target = NGramLogitLM.create(VOCAB8, 1)
    row = make_rng(73).normal(0, 1.2, size=8)
    target.table[...] = row
    draft = random_ngram(1, 74)
    tau = 1.0
    p = softmax_with_temperature(np.asarray(row), tau)
    cfg = GenerationConfig(tau=tau, block_size=4, max_new_tokens=64)
    tables = RowTable(target, tau), RowTable(draft, tau)
    counts = np.zeros(8)
    total = 0
    gen = 0
    while total < 200_000:
        # Generations gen, gen + 1, ... in one call, counted in order until
        # the total is reached.
        batch = range(gen, gen + 4096)
        outs = decode_lockstep(*tables, [[3]] * len(batch), cfg,
                               [make_rng(derive_seed(75, g)) for g in batch])[0]
        for out in outs:
            if total >= 200_000:
                break
            counts += np.bincount(out, minlength=8)
            total += len(out)
            gen += 1
    freq = counts / total
    sigma = np.sqrt(p * (1 - p) / total)
    assert np.all(np.abs(freq - p) < 3 * sigma)


def test_alpha_increases_as_draft_approaches_target():
    target = random_ngram(1, 80, scale=1.5)
    start = make_rng(81).normal(0, 1.5, size=target.table.shape)
    cfg = GenerationConfig(tau=1.0, block_size=4, max_new_tokens=64)
    alphas = []
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        draft = NGramLogitLM(
            vocab=VOCAB8, order=1, table=(1 - t) * start + t * target.table
        )
        accepted = proposed = 0
        for seed in range(3):
            rng = make_rng(derive_seed(82, seed))
            for i in range(40):
                prompt = [int(rng.integers(2, 8))]
                _, trace = speculative_generate(target, draft, prompt, cfg, rng)
                accepted += trace.draft_accepted
                proposed += trace.draft_proposed
        alphas.append(accepted / proposed)
    for lo, hi in zip(alphas, alphas[1:]):
        assert hi >= lo - 1e-9
    assert alphas[-1] == 1.0


def test_trace_dump_format_is_exact():
    trace = SpeculationTrace()
    trace.record(RoundRecord([3, 7, 2], 2, 5, "resample"))
    trace.record(RoundRecord([4], 1, 6, "bonus"))
    trace.record(RoundRecord([1], 1, None, None))
    expected = (
        "round=0 proposed=3,7,2 accepted=2 correction=5 kind=resample\n"
        "round=1 proposed=4 accepted=1 correction=6 kind=bonus\n"
        "round=2 proposed=1 accepted=1 correction=none kind=eos\n"
    )
    assert dump_trace(trace) == expected


def test_trace_round_trip_preserves_totals():
    target = random_ngram(2, 83)
    draft = random_ngram(1, 84)
    cfg = GenerationConfig(tau=0.9, block_size=4, max_new_tokens=48)
    _, trace = speculative_generate(target, draft, [2, 4], cfg, make_rng(9))
    back = parse_trace(dump_trace(trace))
    assert back.draft_proposed == trace.draft_proposed
    assert back.draft_accepted == trace.draft_accepted
    assert [r.proposed for r in back.rounds] == [r.proposed for r in trace.rounds]
    assert [r.correction_kind for r in back.rounds] == [
        r.correction_kind for r in trace.rounds
    ]


def test_parse_trace_rejects_a_repeated_field_naming_the_line():
    # The last copy must not silently win: this round would record 2 accepted.
    text = "round=0 proposed=2,3 accepted=1 correction=4 kind=resample accepted=2\n"
    with pytest.raises(DomainError, match="trace line 0: repeated field 'accepted'"):
        parse_trace(text)


def test_parse_trace_rejects_malformed_lines():
    with pytest.raises(DomainError):
        parse_trace("round=0 proposed=1 accepted=1\n")
    with pytest.raises(DomainError):
        parse_trace("round=1 proposed=1 accepted=1 correction=none kind=eos\n")
    with pytest.raises(DomainError):
        parse_trace("round=0 proposed=1 accepted=1 correction=none kind=mystery\n")


@pytest.mark.parametrize("line", [
    "round=1 proposed=2 accepted 1 correction=none kind=eos",
    "round=x proposed=2 accepted=1 correction=none kind=eos",
    "round=1 proposed=2 accepted=x correction=none kind=eos",
    "round=1 proposed=2 accepted=0 correction=y kind=resample",
    "round=1 proposed=2,z accepted=0 correction=4 kind=resample",
    "round=1 proposed=2 accepted=2 correction=none kind=eos",
    "round=1 proposed=2 accepted=-1 correction=4 kind=resample",
])
def test_parse_trace_rejects_a_bad_field_naming_the_line(line):
    text = "round=0 proposed=3,7 accepted=1 correction=5 kind=resample\n" + line + "\n"
    with pytest.raises(DomainError, match="trace line 1: "):
        parse_trace(text)


class StubRng:
    """Generator stand-in whose every uniform is one fixed value."""

    bit_generator = SimpleNamespace(advance=lambda delta: None)  # no uniforms to hand back

    def __init__(self, u):
        self.u = u

    def random(self, out=None):
        if out is None:
            return self.u
        out[...] = self.u
        return out


def test_verify_block_rejection_without_residual_mass_draws_from_target():
    # q sits one ulp above p everywhere, so p <= q, the ratio at the
    # proposed token is 1 - 2**-52 and a uniform of 1 - 2**-53 rejects it;
    # the residual max(0, p - q) then has no mass.
    p = np.array([0.1, 0.2, 0.3, 0.4])
    q = np.nextafter(p, 1)
    u = 1 - 2**-53
    accepted, correction, kind = verify_block([p, p], [q], [2], StubRng(u))
    assert (accepted, kind) == (0, "resample")
    assert correction == sample(p, StubRng(u))


# Per-token decoders as they were before rows were cached: one softmax and
# one sample() per drafted or baseline token, and one batched target
# softmax per round. They are the oracles for the cached-row decoders.


def reference_speculative_generate(target, draft, prompt, config, rng):
    if target.vocab != draft.vocab:
        raise ConfigError("target and draft must share a vocabulary")
    eos = target.vocab.eos_id
    tau = config.tau
    cap = config.max_new_tokens
    out = []
    trace = SpeculationTrace()
    prompt = list(prompt)
    while len(out) < cap:
        seq = prompt + out
        base = len(seq)
        proposed = []
        draft_dists = []
        for _ in range(min(config.block_size, cap - len(out))):
            q = softmax_with_temperature(draft.forward(seq), tau)
            tok = sample(q, rng)
            proposed.append(tok)
            draft_dists.append(q)
            seq.append(tok)
            if tok == eos:
                break
        m = len(proposed)
        contexts = [seq[: base + i] for i in range(m + 1)]
        target_dists = softmax_with_temperature(target.forward_batch(contexts), tau)
        if proposed[-1] == eos:
            target_dists = target_dists[:m]
        accepted, correction, kind = verify_block(target_dists, draft_dists, proposed, rng)
        trace.record(RoundRecord(proposed, accepted, correction, kind))
        committed = proposed[:accepted]
        if correction is not None:
            committed.append(correction)
        stop = False
        for tok in committed:
            if len(out) == cap:
                break
            out.append(tok)
            if tok == eos:
                stop = True
                break
        if stop:
            break
    return out, trace


def oracle_draft(family, seed):
    if family == "ngram":
        return random_ngram(1, seed, scale=1.5)
    draft = TinyNeuralLM.create(VOCAB8, context_size=2, d_emb=4, d_hid=8, seed=seed)
    for name in TinyNeuralLM.PARAM_NAMES:
        getattr(draft, name)[...] *= 30.0  # peaked rows, not near-uniform ones
    return draft


def oracle_target(order, seed, zero_tokens=False):
    target = random_ngram(order, seed, scale=1.5)
    target.table[:, VOCAB8.eos_id] += 1.0  # eos often lands inside a block
    if zero_tokens:
        # Every row gives tokens 3 and 6 zero probability at any tau > 0.
        target.table[:, [3, 6]] = -np.inf
    return target


def assert_decoders_match_oracle(target, draft, config, prompts, seed):
    for j, prompt in enumerate(prompts):
        s = derive_seed(seed, j)
        want_rng, got_rng = make_rng(s), make_rng(s)
        want = reference_speculative_generate(target, draft, prompt, config, want_rng)
        got = speculative_generate(target, draft, prompt, config, got_rng)
        assert got[0] == want[0]
        assert dump_trace(got[1]) == dump_trace(want[1])
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        # One rollout, and three that share their rows, as held-out rollouts do.
        for count in (1, 3):
            want_rng, got_rng = make_rng(s), make_rng(s)
            want = [reference_generate_autoregressive(target, prompt, config, want_rng)
                    for _ in range(count)]
            if count == 1:
                got = [generate_autoregressive(target, prompt, config, got_rng)]
            else:
                with closing(specdec._rollouts(target, config, prompt, got_rng)) as rollouts:
                    got = [next(rollouts) for _ in range(count)]
            assert got == want
            assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("family", ["ngram", "neural"])
@pytest.mark.parametrize("tau", [0.0, 0.3, 1.0, 2.5])
def test_cached_row_decoders_equal_per_token_oracle(order, family, tau):
    target = oracle_target(order, 100 + order)
    draft = oracle_draft(family, 200 + order)
    prompts = [[], [2], [5, 3, 7], [4, 4, 2, 6, 5]]
    for block_size, cap in ((1, 9), (4, 7), (4, 16)):
        cfg = GenerationConfig(tau=tau, block_size=block_size, max_new_tokens=cap)
        assert_decoders_match_oracle(target, draft, cfg, prompts, seed=300 + block_size)


def test_oracle_cases_cut_blocks_at_eos_and_at_the_cap():
    # A short block ends at eos, or where the cap allows no more tokens;
    # the oracle comparison above meets both.
    target = oracle_target(2, 102)
    draft = oracle_draft("ngram", 202)
    cfg = GenerationConfig(tau=1.0, block_size=4, max_new_tokens=7)
    short = [
        rnd.proposed
        for i in range(40)
        for rnd in speculative_generate(target, draft, [2], cfg, make_rng(i))[1].rounds
        if len(rnd.proposed) < 4
    ]
    assert any(p[-1] == VOCAB8.eos_id for p in short)
    assert any(p[-1] != VOCAB8.eos_id for p in short)


@pytest.mark.parametrize("family", ["ngram", "neural"])
@pytest.mark.parametrize("tau", [0.3, 1.0, 2.5])
def test_cached_row_decoders_equal_oracle_with_zero_probability_tokens(family, tau):
    target = oracle_target(2, 110, zero_tokens=True)
    draft = oracle_draft(family, 210)
    if family == "ngram":
        draft.table[:, [3, 5]] = -np.inf
    cfg = GenerationConfig(tau=tau, block_size=4, max_new_tokens=20)
    assert_decoders_match_oracle(target, draft, cfg, [[2], [4, 7]], seed=310)


def test_cached_row_decoders_raise_oracle_error_at_tiny_tau():
    # tau=1e-310 turns every row with a non-zero logit into NaNs.
    target = oracle_target(2, 120)
    draft = oracle_draft("ngram", 220)
    cfg = GenerationConfig(tau=1e-310, block_size=4, max_new_tokens=10)
    runs = (
        (reference_speculative_generate, speculative_generate, (target, draft)),
        (reference_generate_autoregressive, generate_autoregressive, (target,)),
    )
    for reference, decoder, models in runs:
        want_rng, got_rng = make_rng(5), make_rng(5)
        with np.errstate(all="ignore"):
            with pytest.raises(NumericError) as want:
                reference(*models, [2, 3], cfg, want_rng)
            with pytest.raises(NumericError) as got:
                decoder(*models, [2, 3], cfg, got_rng)
        assert str(got.value) == str(want.value)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


def window_of(index, width, size=8):
    """The tokens of a :class:`RowTable` window index, oldest first."""
    return [(index // size**k) % size for k in range(width - 1, -1, -1)]


def assert_lockstep_matches_reference(target, draft, config, prompts, seed, target_rows=None,
                                      draft_rows=None):
    """decode_lockstep gives each stream the per-token decoders' tokens, trace and generator."""
    seeds = [derive_seed(seed, j) for j in range(len(prompts))]
    if target_rows is None:
        target_rows = RowTable(target, config.tau)
    if draft_rows is None:
        draft_rows = RowTable(draft, config.tau)
    rngs = [make_rng(s) for s in seeds]
    outs, proposed, accepted, traces = decode_lockstep(
        target_rows, draft_rows, prompts, config, rngs, traces=True)
    base_rngs = [make_rng(s) for s in seeds]
    base, base_proposed, base_accepted, base_traces = decode_lockstep(
        target_rows, None, prompts, config, base_rngs, traces=True)
    assert base_traces is None
    assert not base_proposed.any() and not base_accepted.any()
    for j, prompt in enumerate(prompts):
        want_rng = make_rng(seeds[j])
        want_out, want_trace = reference_speculative_generate(target, draft, prompt, config,
                                                              want_rng)
        assert outs[j] == want_out
        assert dump_trace(traces[j]) == dump_trace(want_trace)
        assert (proposed[j], accepted[j]) == (want_trace.draft_proposed,
                                              want_trace.draft_accepted)
        assert rngs[j].bit_generator.state == want_rng.bit_generator.state
        want_rng = make_rng(seeds[j])
        assert base[j] == reference_generate_autoregressive(target, prompt, config, want_rng)
        assert base_rngs[j].bit_generator.state == want_rng.bit_generator.state
    return traces


@pytest.mark.parametrize("family", ["ngram", "neural"])
@pytest.mark.parametrize("tau", [0.0, 0.6, 1.0])
@pytest.mark.parametrize("block_size", [1, 4])
def test_lockstep_decoders_equal_the_scalar_decoders(family, tau, block_size):
    target = oracle_target(2, 400)
    draft = oracle_draft(family, 410)
    prompts = [[], [2], [5, 3, 7], [4, 4, 2, 6, 5], [1], [3, 3]] * 3
    rounds = []
    for cap in (7, 10, 24):
        cfg = GenerationConfig(tau=tau, block_size=block_size, max_new_tokens=cap)
        traces = assert_lockstep_matches_reference(target, draft, cfg, prompts, seed=420 + cap)
        rounds += [trace.rounds for trace in traces]
    if block_size == 4 and tau > 0:
        # Blocks cut short by an eos proposal, and by a cap that ends mid-block.
        assert any(len(r.proposed) < 4 and r.proposed[-1] == VOCAB8.eos_id
                   for stream in rounds for r in stream)
        assert any(len(stream[-1].proposed) < 4 and stream[-1].proposed[-1] != VOCAB8.eos_id
                   for stream in rounds)


@pytest.mark.parametrize("family", ["ngram", "neural"])
def test_lockstep_decoders_raise_the_scalar_errors(family):
    # tau=1e-310 turns every row with a non-zero logit into NaNs.
    target = oracle_target(2, 120)
    draft = oracle_draft(family, 220)
    cases = [(1e-310, [[2, 3], [4]]), (1.0, [[2], [3, 9]]), (1.0, [[9, 3]]),
             (1.0, [[-1]]), (1.0, [[4, -2, 5]])]
    for tau, prompts in cases:
        cfg = GenerationConfig(tau=tau, block_size=4, max_new_tokens=10)
        for spec in (True, False):
            with np.errstate(all="ignore"):
                with pytest.raises((NumericError, DomainError)) as want:
                    for prompt in prompts:
                        if spec:
                            reference_speculative_generate(target, draft, prompt, cfg, make_rng(5))
                        else:
                            reference_generate_autoregressive(target, prompt, cfg, make_rng(5))
                with pytest.raises(type(want.value)) as got:
                    decode_lockstep(RowTable(target, tau), RowTable(draft, tau) if spec else None,
                                    prompts, cfg, [make_rng(5) for _ in prompts])
            assert str(got.value) == str(want.value)


@pytest.mark.parametrize("family", ["ngram", "neural"])
@pytest.mark.parametrize("spec", [True, False])
def test_lockstep_leaves_every_generator_where_the_reference_does(family, spec):
    # Each stream draws its uniforms a chunk ahead; the ones it has not read
    # go back to its generator, on a normal end and when a draw raises.
    target = oracle_target(2, 195)
    draft = oracle_draft(family, 295)
    prompts = [[], [2], [5, 3, 7], [4, 4, 2, 6, 5], [1], [3, 3]] * 4
    seeds = [derive_seed(196, j) for j in range(len(prompts))]

    def lockstep(cfg, rngs):
        draft_rows = RowTable(draft, cfg.tau) if spec else None
        return decode_lockstep(RowTable(target, cfg.tau), draft_rows, prompts, cfg, rngs)[0]

    def reference(prompt, cfg, rng):
        if spec:
            return reference_speculative_generate(target, draft, prompt, cfg, rng)[0]
        return reference_generate_autoregressive(target, prompt, cfg, rng)

    cfg = GenerationConfig(tau=1.0, block_size=4, max_new_tokens=6)
    rngs, want_rngs = [make_rng(s) for s in seeds], [make_rng(s) for s in seeds]
    outs = lockstep(cfg, rngs)
    assert outs == [reference(prompt, cfg, rng) for prompt, rng in zip(prompts, want_rngs)]
    assert {out[-1] == VOCAB8.eos_id for out in outs} == {True, False}  # eos and cap ends
    assert [r.bit_generator.state for r in rngs] == [r.bit_generator.state for r in want_rngs]

    # tau=1e-310 turns every row into NaNs: each stream raises at its first draw.
    cfg = GenerationConfig(tau=1e-310, block_size=4, max_new_tokens=10)
    rngs, want_rngs = [make_rng(s) for s in seeds], [make_rng(s) for s in seeds]
    with np.errstate(all="ignore"):
        with pytest.raises(NumericError):
            lockstep(cfg, rngs)
        for prompt, rng in zip(prompts, want_rngs):
            with pytest.raises(NumericError):
                reference(prompt, cfg, rng)
    assert [r.bit_generator.state for r in rngs] == [r.bit_generator.state for r in want_rngs]


@pytest.mark.parametrize("family", ["ngram", "neural"])
@pytest.mark.parametrize("tau", [0.0, 0.6, 1.0])
@pytest.mark.parametrize("spec", [True, False])
def test_lockstep_with_a_seed_bank_equals_lockstep_with_its_generators(family, tau, spec):
    # 150 streams span three refill blocks; with eos rare, many read past a chunk.
    target = random_ngram(2, 460, scale=1.5)
    target.table[:, VOCAB8.eos_id] -= 4.0
    draft = oracle_draft(family, 470)
    prompts = [[], [2], [5, 3, 7], [4, 4, 2, 6, 5], [1], [3, 3]] * 25
    seeds = derive_seeds(480, 4, np.arange(len(prompts)))
    cfg = GenerationConfig(tau=tau, block_size=4, max_new_tokens=90)
    target_rows = RowTable(target, tau)
    draft_rows = RowTable(draft, tau) if spec else None
    rngs = [make_rng(s) for s in seeds.tolist()]
    want = decode_lockstep(target_rows, draft_rows, prompts, cfg, rngs, traces=True)
    bank = SeedBank(seeds)
    got = decode_lockstep(target_rows, draft_rows, prompts, cfg, bank, traces=True)
    assert got[0] == want[0]
    assert got[1].tolist() == want[1].tolist() and got[2].tolist() == want[2].tolist()
    if spec:
        assert [dump_trace(t) for t in got[3]] == [dump_trace(t) for t in want[3]]
        assert want[2].sum() < want[1].sum()  # rejections, and so residual draws
    else:
        assert got[3] is want[3] is None
    assert max(len(out) for out in want[0]) > 64
    assert [bank.state(i) for i in range(len(prompts))] == [
        rng.bit_generator.state["state"] for rng in rngs]


@pytest.mark.parametrize("spec", [True, False])
def test_lockstep_with_a_seed_bank_raises_the_generator_errors(spec):
    target = oracle_target(2, 120)
    draft = oracle_draft("ngram", 220)
    cfg = GenerationConfig(tau=1.0, block_size=4, max_new_tokens=10)
    draft_rows = RowTable(draft, 1.0) if spec else None
    for prompts in ([[2], [3, 9]], [[9, 3]], [[4], [-1]], [[4, -2, 5]]):
        seeds = derive_seeds(7, np.arange(len(prompts)))
        with pytest.raises(DomainError) as want:
            decode_lockstep(RowTable(target, 1.0), draft_rows, prompts, cfg,
                            [make_rng(s) for s in seeds.tolist()])
        with pytest.raises(DomainError) as got:
            decode_lockstep(RowTable(target, 1.0), draft_rows, prompts, cfg, SeedBank(seeds))
        assert str(got.value) == str(want.value)
        assert "outside vocab of size 8" in str(got.value)
    for source in (SeedBank([1, 2]), [make_rng(1)]):
        with pytest.raises(DomainError, match="random streams for 3 prompts"):
            decode_lockstep(RowTable(target, 1.0), draft_rows, [[2]] * 3, cfg, source)


def test_lockstep_round_memory_does_not_grow_with_block_size():
    # No stream proposes more than max_new_tokens, so a huge block decodes
    # what a block of that size does, in the same memory.
    target = random_ngram(2, 125)
    target.table[:, VOCAB8.eos_id] -= 4.0
    target_rows = RowTable(target, 1.0)
    draft_rows = RowTable(oracle_draft("ngram", 225), 1.0)
    prompts = [[2], [5, 3]]

    def decode(block_size):
        cfg = GenerationConfig(tau=1.0, block_size=block_size, max_new_tokens=4)
        return decode_lockstep(target_rows, draft_rows, prompts, cfg,
                               SeedBank(derive_seeds(8, np.arange(2))), traces=True)

    want = decode(4)
    tracemalloc.start()
    try:
        got = decode(10**5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got[0] == want[0] and [len(out) for out in want[0]] == [4, 4]
    assert [dump_trace(t) for t in got[3]] == [dump_trace(t) for t in want[3]]
    # Measured: 11.4 MB when the round arrays took block_size columns, 19 KB now.
    assert peak < 1e6, peak


def test_lockstep_rejects_tables_of_another_tau_or_vocabulary():
    target = random_ngram(2, 130)
    cfg = GenerationConfig(tau=0.5)
    with pytest.raises(DomainError, match="temperature"):
        decode_lockstep(RowTable(target, 1.0), None, [[2]], cfg, [make_rng(0)])
    with pytest.raises(DomainError, match="temperature"):
        decode_lockstep(RowTable(target, 0.5), RowTable(random_ngram(1, 131), 1.0), [[2]], cfg,
                        [make_rng(0)])
    other = random_ngram(1, 132, vocab=Vocab(size=9, bos_id=0, eos_id=1))
    with pytest.raises(ConfigError, match="vocabulary"):
        decode_lockstep(RowTable(target, 0.5), RowTable(other, 0.5), [[2]], cfg, [make_rng(0)])


def test_row_table_rows_equal_reference_rows(monkeypatch):
    # Whole n-gram tables, and rows filled lazily from model.forward.
    models = [random_ngram(2, 140), oracle_draft("neural", 141)]
    for cap in (4096, 5):
        monkeypatch.setattr(specdec, "MAX_CACHED_ROWS", cap)
        for model in models:
            for tau in (0.0, 0.7):
                table = RowTable(model, tau)
                assert table.whole == (cap == 4096 and model is models[0])
                contexts = [[], [3], [2, 5], [7, 1, 4], [6, 6, 6, 2]]
                idx = np.array([table.index(c) for c in contexts])
                slots = table.slots(idx)
                for context, slot in zip(contexts, slots):
                    probs, cdf = reference_row(model, context, tau)
                    assert np.array_equal(table.probs[slot], probs)
                    assert np.array_equal(table.cdf[slot], cdf)
                    assert table.ok[slot]
                assert table.whole or table.kept == min(cap, len(set(idx.tolist())))


@pytest.mark.parametrize("family, width", [("ngram", 1), ("ngram", 2), ("ngram", 3),
                                           ("neural", 3)])
def test_row_table_index_is_the_window_index_of_lm(family, width):
    # One encoder gives the window index of a table, of lm and of an n-gram
    # row, and the same error for a token outside the vocabulary.
    if family == "ngram":
        model = NGramLogitLM.create(VOCAB8, width)
        encoders = [model.context_index]
    else:
        model = TinyNeuralLM.create(VOCAB8, context_size=width, d_emb=2, d_hid=2)
        encoders = []
    table = RowTable(model, 1.0)
    encoders += [table.index, lambda c: _window_index(c, model.width, model.vocab)]
    for context in ([], [3], [2, 5], [7, 1, 4], [6, 6, 6, 2], [9, 9, 9, 0, 1, 2]):
        assert len({encode(context) for encode in encoders}) == 1
    for context, bad in (([9], 9), ([2, 3, -1], -1), ([12] + [4] * (width - 1), 12)):
        for encode in encoders + [model.forward]:
            with pytest.raises(DomainError) as err:
                encode(context)
            assert str(err.value) == f"token id {bad} outside vocab of size 8"


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("tau", [0.0, 0.7])
def test_row_table_stack_members_are_the_models_own_tables(order, tau):
    models = [random_ngram(order, seed) for seed in (170, 171, 172)]
    tables = [RowTable(m, tau) for m in models]
    stack = RowTable.stack(tables)
    assert stack.members == 3 and stack.rows == 8 ** order and stack.whole
    assert [len(stack.probs), len(stack.cdf), len(stack.ok)] == [3 * stack.rows] * 3
    for k, model in enumerate(models):
        own = RowTable(model, tau)
        member = slice(k * own.rows, (k + 1) * own.rows)
        for name in ("probs", "cdf", "ok"):
            assert getattr(stack, name)[member].tobytes() == getattr(own, name).tobytes()
    assert RowTable.stack(tables[:1]) is tables[0]


def test_row_table_stack_rejects_tables_that_do_not_stack():
    ngram = random_ngram(1, 173)
    neural = TinyNeuralLM.create(VOCAB8, context_size=1, d_emb=2, d_hid=2)
    other_vocab = random_ngram(1, 174, vocab=Vocab(size=9, bos_id=0, eos_id=1))
    assert RowTable.stacks([neural]) and RowTable.stacks([ngram, random_ngram(1, 175)])
    for models, taus in (([ngram, neural], (1.0, 1.0)),
                         ([ngram, random_ngram(2, 176)], (1.0, 1.0)),
                         ([ngram, other_vocab], (1.0, 1.0)), ([ngram, ngram], (1.0, 0.5))):
        with pytest.raises(DomainError, match="only whole tables of one width, vocabulary"):
            RowTable.stack([RowTable(m, tau) for m, tau in zip(models, taus)])
    assert not RowTable.stacks([ngram, neural])


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("tau", [0.0, 1.0])
def test_lockstep_on_a_stack_equals_each_member_alone(order, tau):
    # Streams that read three stacked drafts give the tokens, counts, traces
    # and generator states that each gets from its own draft's table.
    target = oracle_target(2, 177)
    drafts = [random_ngram(order, seed, scale=1.5) for seed in (178, 179, 180)]
    cfg = GenerationConfig(tau=tau, block_size=3, max_new_tokens=12)
    prompts = [[], [2], [5, 3, 7], [4, 4, 2, 6, 5], [6, 1]] * 3
    members = [k % 3 for k in range(len(prompts))]
    target_rows = RowTable(target, tau)
    rngs = [make_rng(derive_seed(181, i)) for i in range(len(prompts))]
    outs, proposed, accepted, traces = decode_lockstep(
        target_rows, RowTable.stack([RowTable(d, tau) for d in drafts]), prompts, cfg, rngs,
        traces=True, members=members)
    for k, draft in enumerate(drafts):
        mine = [i for i in range(len(prompts)) if members[i] == k]
        alone = [make_rng(derive_seed(181, i)) for i in mine]
        want = decode_lockstep(target_rows, RowTable(draft, tau), [prompts[i] for i in mine],
                               cfg, alone, traces=True)
        assert [outs[i] for i in mine] == want[0]
        assert proposed[mine].tolist() == want[1].tolist()
        assert accepted[mine].tolist() == want[2].tolist()
        assert [dump_trace(traces[i]) for i in mine] == [dump_trace(t) for t in want[3]]
        assert [rngs[i].bit_generator.state for i in mine] == [
            r.bit_generator.state for r in alone]


def test_lockstep_rejects_members_outside_the_draft_stack():
    target = random_ngram(1, 182)
    stack = RowTable.stack([RowTable(random_ngram(1, s), 1.0) for s in (183, 184)])
    cfg = GenerationConfig(tau=1.0)
    for draft, members in ((None, [0, 0]), (stack, [0]), (stack, [0, 2]), (stack, [-1, 0]),
                           (RowTable(random_ngram(1, 185), 1.0), [0, 1])):
        with pytest.raises(DomainError, match="members must name one member"):
            decode_lockstep(RowTable(target, 1.0), draft, [[2], [3]], cfg,
                            [make_rng(0), make_rng(1)], members=members)


def test_target_sampler_shared_by_two_drafts_equals_the_oracle_in_either_order():
    # Both drafts are order-1 n-grams over one vocabulary, so they meet the
    # same (target row, draft row) pairs; one target table serves both, in
    # either order, and every correction comes from the residual of the
    # draft that made the call.
    target = oracle_target(2, 150)
    drafts = [random_ngram(1, 151, scale=1.5), random_ngram(1, 152, scale=1.5)]
    cfg = GenerationConfig(tau=1.0, block_size=4, max_new_tokens=16)
    prompts = [[], [2], [5, 3, 7], [4, 4, 2, 6, 5]]
    for order in ((0, 1), (1, 0)):
        target_rows = RowTable(target, cfg.tau)
        for rep in range(2):
            for k in order:
                traces = assert_lockstep_matches_reference(target, drafts[k], cfg, prompts,
                                                           160 + k + 2 * rep,
                                                           target_rows=target_rows)
                assert any(r.correction_kind == "resample" for t in traces for r in t.rounds)


def test_cached_residual_rows_fall_back_to_the_target_row_without_mass():
    # Every row of the draft is the target's shifted logits, which round to
    # q >= p everywhere with q > p at token 6, the last one with mass. A
    # uniform of 1 - 2**-53 drafts token 6 and rejects it, and the residual
    # has no mass, so each correction is drawn from the target row.
    logits = make_rng(3).normal(0, 1, size=8)
    logits[7] = -np.inf
    target = NGramLogitLM.create(VOCAB8, 2)
    target.table[...] = logits
    draft = NGramLogitLM.create(VOCAB8, 1)
    draft.table[...] = logits + 0.09
    p, q = softmax_with_temperature(logits, 1.0), softmax_with_temperature(logits + 0.09, 1.0)
    assert (p <= q).all() and p[6] < q[6]
    cfg = GenerationConfig(tau=1.0, block_size=4, max_new_tokens=6)
    u = 1 - 2**-53
    want = reference_speculative_generate(target, draft, [2, 3], cfg, StubRng(u))
    assert speculative_generate(target, draft, [2, 3], cfg, StubRng(u))[0] == want[0]
    outs, _, _, traces = decode_lockstep(RowTable(target, 1.0), RowTable(draft, 1.0), [[2, 3]],
                                         cfg, [StubRng(u)], traces=True)
    assert outs[0] == want[0] == [6] * 6
    assert dump_trace(traces[0]) == dump_trace(want[1])
    assert {(r.accepted_count, r.correction_kind) for r in traces[0].rounds} == {(0, "resample")}


class ScriptRng:
    """Generator stand-in that repeats a list of uniforms in order."""

    bit_generator = SimpleNamespace(advance=lambda delta: None)  # the script does not rewind

    def __init__(self, uniforms):
        self.uniforms = itertools.cycle(uniforms)

    def random(self, out=None):
        if out is None:
            return next(self.uniforms)
        out[...] = [next(self.uniforms) for _ in range(out.size)]
        return out


def test_lockstep_rejects_a_uniform_equal_to_the_ratio():
    # p = 1/8 and q = 1/4 at every drafted token, so each ratio is exactly
    # 0.5, and the verifying uniform 0.5 must reject: the test is u < ratio.
    target = NGramLogitLM.create(VOCAB8, 2)
    draft = NGramLogitLM.create(VOCAB8, 1)
    draft.table[:, [0, 1, 6, 7]] = -np.inf
    cfg = GenerationConfig(tau=1.0, block_size=1, max_new_tokens=6)
    uniforms = [0.1, 0.5, 0.1]  # draft token 2, reject it, correct to token 0
    want = reference_speculative_generate(target, draft, [2], cfg, ScriptRng(uniforms))
    outs, _, _, traces = decode_lockstep(RowTable(target, 1.0), RowTable(draft, 1.0), [[2]], cfg,
                                         [ScriptRng(uniforms)], traces=True)
    assert traces[0].rounds[0].accepted_count == 0
    assert outs[0] == want[0]
    assert dump_trace(traces[0]) == dump_trace(want[1])


def test_row_tables_stop_at_the_cap(monkeypatch):
    # A cap of 3 makes every table fill lazily from model.forward. The first
    # three indices looked up keep their rows; rows past the cap are built
    # again on each lookup, in slots after the kept ones.
    monkeypatch.setattr(specdec, "MAX_CACHED_ROWS", 3)
    target = oracle_target(2, 180)
    prompts = [[], [2], [5, 3, 7], [4, 4, 2, 6, 5]] * 3
    for family in ("ngram", "neural"):
        draft = oracle_draft(family, 280)
        cfg = GenerationConfig(tau=1.0, block_size=4, max_new_tokens=16)
        assert_decoders_match_oracle(target, draft, cfg, prompts[:4], seed=380)
        tables = RowTable(target, 1.0), RowTable(draft, 1.0)
        assert not any(table.whole for table in tables)
        assert_lockstep_matches_reference(target, draft, cfg, prompts, seed=381,
                                          target_rows=tables[0], draft_rows=tables[1])
        for table in tables:
            assert table.kept == 3 and len(table.probs) > 3
            for index, slot in zip(table._keys[:-1], table._where[:-1]):
                probs, cdf = reference_row(table.model, window_of(int(index), table.width), 1.0)
                assert np.array_equal(table.probs[slot], probs)
                assert np.array_equal(table.cdf[slot], np.array(cdf))


@pytest.mark.parametrize("prompt", [[3, 9], [9, 3], [-1], [4, -2, 5]])
def test_bad_prompt_token_raises_the_oracle_error_on_warm_samplers(prompt):
    target = oracle_target(2, 190)
    draft = oracle_draft("ngram", 290)
    cfg = GenerationConfig(tau=1.0, block_size=4, max_new_tokens=12)
    want_rng, got_rng = make_rng(7), make_rng(7)
    with pytest.raises(DomainError) as want:
        reference_speculative_generate(target, draft, prompt, cfg, want_rng)
    with pytest.raises(DomainError) as got:
        speculative_generate(target, draft, prompt, cfg, got_rng)
    assert str(got.value) == str(want.value)
    assert "outside vocab of size 8" in str(got.value)
    # The lockstep decoder validates every prompt before its first draw; the
    # reference drafts tokens before its target meets [9, 3] or [4, -2, 5].
    assert got_rng.bit_generator.state == make_rng(7).bit_generator.state

    want_rng = make_rng(7)
    with pytest.raises(DomainError) as want:
        reference_generate_autoregressive(target, prompt, cfg, want_rng)
    for decode in (generate_autoregressive,
                   lambda model, prompt, cfg, rng: specdec._rollouts(model, cfg, prompt, rng)):
        got_rng = make_rng(7)
        with pytest.raises(DomainError) as got:
            decode(target, prompt, cfg, got_rng)
        assert str(got.value) == str(want.value)
        assert "outside vocab of size 8" in str(got.value)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_generate_autoregressive_reads_a_small_ngram_from_one_table(monkeypatch):
    # An n-gram that a RowTable takes whole gets one softmax over its whole
    # table per call; above the row cap, one forward and one-row softmax per
    # window. One function computes both, told apart here by their row count.
    target = random_ngram(2, 160)
    target.table[:, VOCAB8.eos_id] = -np.inf  # long responses revisit windows
    calls = {"rows": 0, "row": 0, "forward": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def softmax(logits, tau):
        calls["rows" if len(logits) > 1 else "row"] += 1
        return softmax_with_temperature(logits, tau)

    monkeypatch.setattr(specdec, "softmax_with_temperature", softmax)
    monkeypatch.setattr(NGramLogitLM, "forward", counted("forward", NGramLogitLM.forward))
    cfg = GenerationConfig(tau=0.8, max_new_tokens=50)
    for cap, whole in ((specdec.MAX_CACHED_ROWS, True), (len(target.table) - 1, False)):
        monkeypatch.setattr(specdec, "MAX_CACHED_ROWS", cap)
        for key in calls:
            calls[key] = 0
        got_rng, want_rng = make_rng(8), make_rng(8)
        got = generate_autoregressive(target, [4, 3], cfg, got_rng)
        counts = dict(calls)
        want = reference_generate_autoregressive(target, [4, 3], cfg, want_rng)
        assert got == want and len(got) == 50
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        windows = len({tuple(([4, 3] + got)[i - 2 : i]) for i in range(2, 2 + len(got))})
        assert windows < len(got)
        if whole:
            assert counts == {"rows": 1, "row": 0, "forward": 0}
        else:
            assert counts == {"rows": 0, "row": windows, "forward": windows}


@pytest.mark.parametrize("cap", [4096, 3])
def test_generate_autoregressive_raises_the_reference_row_error(monkeypatch, cap):
    monkeypatch.setattr(specdec, "MAX_CACHED_ROWS", cap)
    target = random_ngram(2, 161)
    target.table[5 * 8 + 2] = np.nan  # the window (5, 2)
    cfg = GenerationConfig(tau=1.0, max_new_tokens=8)
    for prompt in ([4, 5, 2], [3, 5, 2, 9], [4, 5, -1]):
        want_rng, got_rng = make_rng(9), make_rng(9)
        with pytest.raises((NumericError, DomainError)) as want:
            reference_generate_autoregressive(target, prompt, cfg, want_rng)
        with pytest.raises(type(want.value)) as got:
            generate_autoregressive(target, prompt, cfg, got_rng)
        assert str(got.value) == str(want.value)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


V17 = Vocab(size=17, bos_id=0, eos_id=1)


def lazy_model(family, poison=False):
    """A model whose rows a RowTable computes on first visit: 17^3 n-gram rows, or tiny-neural.

    With ``poison``, every row read right after token 5 is NaN.
    """
    if family == "ngram":
        model = random_ngram(3, 150, scale=1.5, vocab=V17)
        if poison:
            model.table[np.arange(len(model.table)) % V17.size == 5] = np.nan
    else:
        model = TinyNeuralLM.create(V17, context_size=2, d_emb=3, d_hid=6, seed=151)
        if poison:
            model.embedding[5] = np.nan
    assert not RowTable(model, 1.0).whole
    return model


def reference_heldout(model, rng):
    """collect_heldout_contexts as token-by-token reference rollouts: 48 of at most 40 tokens."""
    cfg = GenerationConfig(tau=1.0, max_new_tokens=40)
    contexts = []
    for _ in range(48):
        seq = reference_generate_autoregressive(model, [], cfg, rng)
        contexts += [tuple(seq[:i]) for i in range(len(seq))]
    return contexts


@pytest.mark.parametrize("family", ["ngram", "neural"])
def test_lazy_rows_roll_out_as_the_per_token_oracle(family):
    # Rows computed on first visit: the tokens and the final generator state
    # of token-by-token draws, after a normal end and after a close between
    # rollouts, which hands back the unread uniforms of a 64-uniform chunk.
    model = lazy_model(family)
    cfg = GenerationConfig(tau=0.9, max_new_tokens=30)
    for seed in range(20):
        got_rng, want_rng = make_rng(seed), make_rng(seed)
        got = generate_autoregressive(model, [2, 3], cfg, got_rng)
        assert got == reference_generate_autoregressive(model, [2, 3], cfg, want_rng)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
    for count in (1, 2, 5):
        got_rng, want_rng = make_rng(30 + count), make_rng(30 + count)
        with closing(specdec._rollouts(model, cfg, [4], got_rng)) as rollouts:
            got = [next(rollouts) for _ in range(count)]
        want = [reference_generate_autoregressive(model, [4], cfg, want_rng)
                for _ in range(count)]
        assert got == want
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
    got_rng, want_rng = make_rng(40), make_rng(40)
    got = collect_heldout_contexts(model, got_rng)
    assert got == reference_heldout(model, want_rng)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("family", ["ngram", "neural"])
def test_a_lazy_row_failing_its_total_check_raises_and_rewinds(family):
    # A NaN row met mid-rollout raises sample()'s error before its uniform is
    # read, and the generator stands where token-by-token draws leave it.
    model = lazy_model(family, poison=True)
    cfg = GenerationConfig(tau=0.9, max_new_tokens=30)
    runs = [(lambda rng: generate_autoregressive(model, [2, 3], cfg, rng),
             lambda rng: reference_generate_autoregressive(model, [2, 3], cfg, rng)),
            (lambda rng: collect_heldout_contexts(model, rng),
             lambda rng: reference_heldout(model, rng))]
    for run, reference in runs:
        raised = 0
        for seed in range(12):
            got_rng, want_rng = make_rng(seed), make_rng(seed)
            try:
                want = reference(want_rng)
            except NumericError as exc:
                with pytest.raises(NumericError) as got:
                    run(got_rng)
                assert str(got.value) == str(exc)
                assert str(exc) == "cannot sample: distribution total is nan, not 1"
                raised += want_rng.bit_generator.state != make_rng(seed).bit_generator.state
            else:
                assert run(got_rng) == want
            assert got_rng.bit_generator.state == want_rng.bit_generator.state
        assert raised >= 3  # mid-rollout, after some uniforms were read


@pytest.mark.parametrize("family", ["ngram", "neural"])
def test_on_policy_training_never_reads_a_stale_student(family):
    # Every step regenerates its response from the student that the
    # previous step just updated.
    teacher = random_ngram(2, 140)
    data = [Pair([2, 3], [4, 5, 1], "teacher", 1.0), Pair([6], [7, 2, 3, 1], "teacher", 1.0)]
    cfg = KDConfig(mode="online", on_policy_frac=1.0, steps=40, learning_rate=0.5,
                   seed=7, gen_max_len=12)
    want_student = oracle_draft(family, 240)
    got_student = oracle_draft(family, 240)
    want = reference_train_online(want_student, teacher, data, cfg)
    got = train_online(got_student, teacher, data, cfg)
    assert got == want
    assert checkpoint_bytes(got_student) == checkpoint_bytes(want_student)
