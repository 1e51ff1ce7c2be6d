import math
import tracemalloc
from contextlib import closing

import numpy as np
import pytest

from speclab import specdec
from speclab.errors import DomainError, NumericError
from speclab.lm import NGramLogitLM, TinyNeuralLM, Vocab
from speclab.sampling import (
    SeedBank,
    derive_seed,
    derive_seeds,
    make_rng,
    pcg64_state,
    sample,
    softmax_rows_with_temperature,
    softmax_with_temperature,
    step_draws,
)
from speclab.specdec import GenerationConfig, generate_autoregressive

from oracles import reference_row


def test_softmax_tau_one_known_values():
    # exp(ln 2) = 2 against exp(0) = 1, so probabilities are 2/3 and 1/3.
    p = softmax_with_temperature(np.array([math.log(2.0), 0.0]), 1.0)
    assert np.allclose(p, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)


def test_softmax_tau_two_halves_logits():
    p = softmax_with_temperature(np.array([math.log(4.0), 0.0]), 2.0)
    assert np.allclose(p, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)


def test_softmax_tau_zero_is_argmax():
    p = softmax_with_temperature(np.array([0.1, 2.0, -1.0, 2.0 - 1e-9]), 0.0)
    assert p.tolist() == [0.0, 1.0, 0.0, 0.0]


def test_softmax_tau_zero_tie_breaks_to_lowest_id():
    p = softmax_with_temperature(np.array([3.0, 1.0, 3.0, 3.0]), 0.0)
    assert p.tolist() == [1.0, 0.0, 0.0, 0.0]


def test_softmax_huge_logits_do_not_overflow():
    p = softmax_with_temperature(np.array([1e4, 1e4 - 5.0, 0.0]), 1.0)
    assert np.all(np.isfinite(p))
    assert abs(p.sum() - 1.0) < 1e-12


def test_softmax_negative_tau_rejected():
    with pytest.raises(DomainError):
        softmax_with_temperature(np.array([0.0, 1.0]), -0.5)


def test_softmax_distribution_properties_random_logits():
    rng = make_rng(101)
    for _ in range(200):
        logits = rng.normal(0, 3, size=rng.integers(2, 33))
        tau = float(rng.uniform(0.05, 3.0))
        p = softmax_with_temperature(logits, tau)
        assert abs(p.sum() - 1.0) < 1e-12
        assert np.all(p >= 0)
        # Temperature never moves the argmax.
        assert np.argmax(p) == np.argmax(logits)


def test_softmax_sharpening_is_monotone_in_tau():
    rng = make_rng(102)
    for _ in range(100):
        logits = rng.normal(0, 2, size=16)
        taus = np.sort(rng.uniform(0.05, 3.0, size=4))
        peaks = [softmax_with_temperature(logits, t).max() for t in taus]
        for lo, hi in zip(peaks[1:], peaks[:-1]):
            assert lo <= hi + 1e-12


def test_softmax_tau_one_matches_plain_softmax_exactly():
    rng = make_rng(103)
    logits = rng.normal(0, 5, size=24)
    expected = np.exp(logits - logits.max())
    expected /= expected.sum()
    got = softmax_with_temperature(logits, 1.0)
    assert np.array_equal(got, expected)


def test_softmax_shift_invariance():
    rng = make_rng(104)
    for _ in range(50):
        logits = rng.normal(0, 2, size=12)
        shift = float(rng.normal(0, 10))
        tau = float(rng.uniform(0.1, 2.5))
        a = softmax_with_temperature(logits, tau)
        b = softmax_with_temperature(logits + shift, tau)
        assert np.max(np.abs(a - b)) < 1e-12


def test_softmax_rows_matches_single_row_calls():
    # One function serves rows and batches; the batch name is an alias.
    assert softmax_rows_with_temperature is softmax_with_temperature
    rng = make_rng(105)
    logits = rng.normal(0, 2, size=(6, 10))
    logits[2, [1, 4]] = logits[2].max() + 1.0  # a tie for the argmax
    logits[4, 3] = -np.inf
    for tau in (0.0, 0.3, 1.0, 2.0):
        rows = softmax_with_temperature(logits, tau)
        for i in range(6):
            assert np.array_equal(rows[i], softmax_with_temperature(logits[i], tau))


def test_sample_one_hot_always_returns_that_token():
    rng = make_rng(7)
    dist = np.array([0.0, 0.0, 1.0, 0.0])
    assert all(sample(dist, rng) == 2 for _ in range(50))


def test_sample_never_returns_zero_probability_token():
    rng = make_rng(8)
    dist = np.array([0.5, 0.0, 0.5, 0.0])
    draws = {sample(dist, rng) for _ in range(2000)}
    assert draws == {0, 2}


def test_sample_frequencies_match_distribution():
    rng = make_rng(9)
    dist = np.array([0.25, 0.25, 0.25, 0.25])
    n = 100_000
    counts = np.zeros(4)
    for _ in range(n):
        counts[sample(dist, rng)] += 1
    freq = counts / n
    sigma = math.sqrt(0.25 * 0.75 / n)
    assert np.all(np.abs(freq - 0.25) < 3 * sigma)


def test_sample_is_deterministic_given_seed():
    d = np.array([0.1, 0.2, 0.3, 0.4])
    a = [sample(d, make_rng(33)) for _ in range(1)]
    draws1 = []
    rng = make_rng(33)
    for _ in range(20):
        draws1.append(sample(d, rng))
    rng = make_rng(33)
    draws2 = [sample(d, rng) for _ in range(20)]
    assert draws1 == draws2
    assert a[0] == draws1[0]


def test_sample_rejects_nan_distribution_from_tiny_tau():
    # A positive tau this small overflows logits / tau, so every entry is NaN.
    with np.errstate(invalid="ignore", over="ignore"):
        dist = softmax_with_temperature(np.array([0.5, 1.0, 2.0]), 1e-310)
    assert np.all(np.isnan(dist))
    with pytest.raises(NumericError, match="nan"):
        sample(dist, make_rng(0))


@pytest.mark.parametrize("dist", [
    [0.2, np.inf, 0.3], [0.5, 0.4], [0.5, 0.6], [0.0, 0.0], [-0.5, 1.0, 0.6],
])
def test_sample_rejects_non_finite_or_unnormalized(dist):
    with pytest.raises(NumericError, match="total"):
        sample(np.array(dist), make_rng(0))


def test_sample_rejects_empty_distribution():
    with pytest.raises(NumericError, match="empty"):
        sample(np.array([]), make_rng(0))


def test_sample_accepts_rounding_error_in_the_total():
    assert sample(np.array([0.3, 0.7 + 5e-10]), make_rng(0)) in (0, 1)


def test_sample_consumes_exactly_one_uniform():
    d = np.array([0.3, 0.7])
    rng_a = make_rng(55)
    sample(d, rng_a)
    rng_b = make_rng(55)
    rng_b.random()
    assert rng_a.random() == rng_b.random()


def test_derive_seed_is_stable_and_sensitive():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)
    assert derive_seed(0) != derive_seed(1)
    seeds = {derive_seed(42, i, j) for i in range(11) for j in range(6)}
    assert len(seeds) == 66


EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


def index_parts(rng, n):
    """``n`` values each of one-word (below 2^32), two-word and negative index parts."""
    return np.concatenate([rng.integers(0, 2**32, n, dtype=np.uint64),
                           rng.integers(2**32, 2**64 - 1, n, dtype=np.uint64, endpoint=True),
                           np.array([0, 2**32 - 1, 2**32, 2**64 - 1] * (n // 4), dtype=np.uint64),
                           ]).tolist() + [-1, -(2**31), -(2**32), -(2**63), 2**64 + 5, 2**70]


@pytest.mark.parametrize("base", EDGE_SEEDS)
def test_derive_seeds_bit_equals_derive_seed(base):
    # Index tuples whose parts mix one- and two-word values, masked
    # negatives and values past 64 bits, in every order.
    rng = make_rng(base % 1000 + 17)
    values = index_parts(rng, 40)
    tuples = [[values[i] for i in rng.integers(0, len(values), 3)] for _ in range(400)]
    want = [derive_seed(base, *t) for t in tuples]
    cols = list(zip(*tuples))
    assert derive_seeds(base, *cols).tolist() == want
    assert derive_seeds([base] * len(tuples), *cols).tolist() == want
    # Integer arrays, as measure_decode passes them, and no parts at all.
    run, j = np.divmod(np.arange(60), 7)
    assert derive_seeds(base, 4, run, j).tolist() == [derive_seed(base, 4, r, k)
                                                      for r, k in zip(run, j)]
    assert derive_seeds(base).tolist() == [derive_seed(base)]


def test_seed_bank_reads_make_rng_uniforms_across_chunk_boundaries():
    rng = make_rng(2024)
    seeds = EDGE_SEEDS + [-1, -(2**40)] + index_parts(rng, 40)[:150]
    # 63, 64, 65 and 300 reads, then uneven counts, in uneven interleavings.
    reads = np.array([63, 64, 65, 300] * 2 + rng.integers(0, 300, len(seeds) - 8).tolist())
    bank = SeedBank(seeds)
    assert len(bank) == len(seeds)
    got = [[] for _ in seeds]
    step = 0
    while (reads > 0).any():
        streams = np.flatnonzero(reads > 0)
        if step % 3:
            streams = streams[rng.random(len(streams)) < 0.7]
        for s, u in zip(streams.tolist(), bank.take(streams).tolist()):
            got[s].append(u)
        reads[streams] -= 1
        step += 1
    for i, seed in enumerate(seeds):
        gen = make_rng(seed)
        assert got[i] == gen.random(len(got[i])).tolist(), seed
        assert bank.state(i) == gen.bit_generator.state["state"], seed


def reference_step_draws(base, steps, n):
    """What each step's own generator draws: integers(n), random(), then its state."""
    out = []
    for step in range(1, steps + 1):
        rng = make_rng(derive_seed(base, step))
        out.append((int(rng.integers(n)), rng.random(), rng.bit_generator.state))
    return out


def assert_step_draws_match(base, steps, n, want):
    got = [(index, coin, pcg64_state(state)) for index, coin, state in step_draws(base, steps, n)]
    assert len(got) == steps
    for step, (g, w) in enumerate(zip(got, want), start=1):
        assert type(g[0]) is int and type(g[1]) is float
        assert g == w, (base, n, step)


@pytest.mark.parametrize("n", [1, 2, 3, 1000, 2**31 + 1, 2**32 - 1])
@pytest.mark.parametrize("base", [0, 2**63 + 5, 2**64 - 1])
def test_step_draws_equal_each_steps_make_rng(base, n):
    # Counts around the 512-step block; at n = 2^31 + 1 about half the
    # steps take numpy's Lemire redraw and their own generator.
    want = reference_step_draws(base, 513, n)
    for steps in (0, 1, 511, 512, 513):
        assert_step_draws_match(base, steps, n, want)
    if n == 2**31 + 1:
        threshold = (2**32 - n) % n
        redrawn = sum(int(make_rng(derive_seed(base, k)).integers(2**32)) * n % 2**32 < threshold
                      for k in range(1, 101))
        assert 25 < redrawn < 75


def test_step_draws_of_one_index_draw_nothing_for_it():
    # integers(1) reads no output: the coin is the first one, nothing is buffered.
    (index, coin, state), = step_draws(9, 1, 1)
    assert index == 0 and coin == make_rng(derive_seed(9, 1)).random()
    assert pcg64_state(state)["has_uint32"] == 0


@pytest.mark.parametrize("n", [0, -3, 2**32])
def test_step_draws_reject_an_index_range_outside_32_bits(n):
    with pytest.raises(DomainError, match="1 <= n < 2"):
        list(step_draws(0, 5, n))


def test_seed_bank_of_1000_streams_peaks_below_1000_generators_and_their_chunks():
    # The source a bank replaces: one make_rng generator per stream, with
    # its _Uniforms chunk drawn.
    seeds = derive_seeds(5, np.arange(1000))
    streams = np.arange(1000)

    def generators():
        uniforms = specdec._Uniforms([make_rng(s) for s in seeds.tolist()])
        uniforms.take(streams)
        return uniforms

    def bank():
        source = SeedBank(seeds)
        source.take(streams)  # the first refill of every stream
        return source

    for build in (generators, bank):
        build()  # one-time allocations stay out of the count
    held, peak = {}, {}
    tracemalloc.start()
    try:
        for build in (generators, bank):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            source = build()
            now, top = tracemalloc.get_traced_memory()
            held[build.__name__], peak[build.__name__] = now - start, top - start
            del source
    finally:
        tracemalloc.stop()
    # Measured: generators and chunks hold 1.39 MB; the bank holds 0.55 MB
    # and peaks at 0.87 MB while it refills.
    assert held["bank"] < 0.6e6
    assert peak["bank"] < held["generators"], (peak, held)


class StubRng:
    """Generator stand-in whose every uniform is one fixed value."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def reference_sample(dist, rng):
    """The numpy inverse-CDF draw that sample() must equal."""
    cdf = np.cumsum(dist)
    total = cdf[-1]
    if not abs(total - 1.0) <= 1e-9:
        raise NumericError(f"cannot sample: distribution total is {total}, not 1")
    idx = int(np.searchsorted(cdf, rng.random(), side="right"))
    if idx >= len(dist):
        idx = len(dist) - 1
    while idx > 0 and dist[idx] <= 0.0:
        idx -= 1
    return idx


@pytest.mark.parametrize("dist", [
    [0.1, 0.2, 0.3, 0.4],
    [0.0, 0.5, 0.0, 0.5, 0.0],
    [1.0, 0.0, 0.0],
    [0.0, 0.0, 1.0],
    [0.3, 0.7 - 4e-10, 0.0, 0.0],  # the CDF ends below 1: the clamp walks back
])
def test_draw_and_sample_equal_the_reference_at_every_boundary(dist):
    cdf = np.cumsum(dist)
    uniforms = [0.0, 1 - 2**-53, 0.5]
    uniforms += [float(c) for c in cdf] + [float(np.nextafter(c, 0)) for c in cdf]
    for u in uniforms:
        if 0.0 <= u < 1.0:
            want = reference_sample(np.array(dist), StubRng(u))
            assert sample(np.array(dist), StubRng(u)) == want


def test_draw_and_sample_equal_the_reference_on_seeded_streams():
    rng = make_rng(106)
    for _ in range(50):
        dist = softmax_with_temperature(rng.normal(0, 3, size=12), float(rng.uniform(0.1, 3)))
        dist[rng.integers(12, size=3)] = 0.0
        dist /= dist.sum()
        b, c = make_rng(107), make_rng(107)
        want = [reference_sample(dist, c) for _ in range(30)]
        assert [sample(dist, b) for _ in range(30)] == want


@pytest.mark.parametrize("dist", [[np.nan, np.nan], [0.5, 0.4], [0.2, np.inf, 0.3]])
def test_draw_and_sample_raise_the_reference_error_before_using_a_uniform(dist):
    with pytest.raises(NumericError) as want:
        reference_sample(np.array(dist), make_rng(0))
    rng = make_rng(0)
    with pytest.raises(NumericError) as got:
        sample(np.array(dist), rng)
    assert str(got.value) == str(want.value)
    assert rng.bit_generator.state == make_rng(0).bit_generator.state


class CountingLM:
    """Wraps a model and counts its forward calls."""

    def __init__(self, model):
        self.model = model
        self.vocab = model.vocab
        self.width = model.width
        self.calls = 0

    def forward(self, context):
        self.calls += 1
        return self.model.forward(context)


V8 = Vocab(size=8, bos_id=0, eos_id=1)


def counting_model(family, seed):
    if family == "ngram":
        return CountingLM(NGramLogitLM.create(V8, 2, init_scale=1.0, init_seed=seed))
    return CountingLM(TinyNeuralLM.create(V8, context_size=2, d_emb=3, d_hid=4, seed=seed))


def reference_rows_generate(model, prompt, tau, max_new_tokens, rng):
    """One sample() per token from the model's tau-scaled softmax."""
    seq, out = list(prompt), []
    for _ in range(max_new_tokens):
        out.append(sample(softmax_with_temperature(model.forward(seq), tau), rng))
        seq.append(out[-1])
        if out[-1] == V8.eos_id:
            break
    return out


@pytest.mark.parametrize("family", ["ngram", "neural"])
def test_generate_autoregressive_computes_each_window_row_once_per_call(family):
    model = counting_model(family, 3)
    if family == "ngram":  # no eos, so the call meets many windows twice
        model.model.table[:, V8.eos_id] = -np.inf
    else:
        model.model.b2[V8.eos_id] = -np.inf
    cfg = GenerationConfig(tau=0.7, max_new_tokens=60)
    out = generate_autoregressive(model, [5, 2, 3], cfg, make_rng(11))
    assert out == reference_rows_generate(model.model, [5, 2, 3], 0.7, 60, make_rng(11))
    seq = [5, 2, 3] + out
    windows = {tuple(seq[i - 2 : i]) for i in range(3, 3 + len(out))}
    assert model.calls == len(windows) < len(out)  # windows repeat, rows do not
    generate_autoregressive(model, [5, 2, 3], cfg, make_rng(11))
    assert model.calls == 2 * len(windows)  # a new call computes its rows anew


@pytest.mark.parametrize("tau", [0.0, 0.3, 1.0, 2.5])
def test_row_sampler_rows_bit_equal_batched_rows(tau):
    # The rows generate_autoregressive draws from, against the batched rows.
    model = NGramLogitLM.create(V8, 2, init_scale=2.0, init_seed=4)
    model.table[:, 5] = -np.inf  # a zero-probability token in every row
    contexts = [[], [2], [3, 4], [7, 7, 6], [1, 0]]
    batched = softmax_with_temperature(model.forward_batch(contexts), tau)
    for i, context in enumerate(contexts):
        probs, cdf = reference_row(model, context, tau)
        assert np.array_equal(probs, batched[i])
        assert np.array_equal(cdf, np.cumsum(batched, axis=1)[i])


def test_generate_autoregressive_propagates_token_errors():
    cfg = GenerationConfig(tau=1.0, max_new_tokens=5)
    with pytest.raises(DomainError, match="token id 9"):
        generate_autoregressive(NGramLogitLM.create(V8, 2), [2, 9], cfg, make_rng(0))


def reference_softmax(logits, tau):
    """softmax_with_temperature as one out-of-place expression per step."""
    z = logits / tau
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def test_softmax_equals_the_out_of_place_reference_bit_for_bit():
    rng = make_rng(108)
    for i in range(300):
        logits = rng.normal(0, 4, size=int(rng.integers(1, 40)))
        if i % 3 == 0:  # -inf logits; a row of them alone gives NaNs
            logits[rng.integers(len(logits), size=2)] = -np.inf
        tau = float(rng.choice([1e-310, 1e-3, 0.3, 1.0, 2.5, 1e4]))
        with np.errstate(all="ignore"):
            got = softmax_with_temperature(logits, tau)
            want = reference_softmax(logits, tau)
        assert np.array_equal(got, want, equal_nan=True)


@pytest.mark.parametrize("family", ["ngram", "neural"])
@pytest.mark.parametrize("bad", [9, 8, -1])
def test_warm_row_sampler_raises_the_token_error_on_every_visit(family, bad):
    # Rollouts that share their rows, as held-out rollouts share them, and
    # then a prompt whose window holds a bad token: its window is validated
    # before any row is computed or any uniform drawn, on every call.
    model = counting_model(family, 6)
    cfg = GenerationConfig(tau=0.8, max_new_tokens=12)
    with closing(specdec._rollouts(model, cfg, [4, 3], make_rng(0))) as rollouts:
        seqs = [next(rollouts) for _ in range(20)]
    windows = {tuple(([4, 3] + seq)[i - 2 : i])
               for seq in seqs for i in range(2, 2 + len(seq))}
    calls = model.calls
    assert calls == len(windows)  # one row per window, across all 20 rollouts
    for _ in range(3):
        rng = make_rng(0)
        with pytest.raises(DomainError) as err:
            generate_autoregressive(model, [4, 3, bad], cfg, rng)
        assert str(err.value) == f"token id {bad} outside vocab of size {V8.size}"
        assert rng.bit_generator.state == make_rng(0).bit_generator.state
    assert model.calls == calls
