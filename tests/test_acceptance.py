"""End-to-end acceptance checks.

One test per claim the laboratory stands on: the verification rule is
lossless (analytically and empirically), greedy decoding is exact,
acceptance rates match their closed form, hand-derived gradients match
finite differences, and the distillation/temperature phenomena show up
on the shipped canonical setup. Each test prints a single PASS/FAIL
line with the measured margin so a full run reads as a scorecard.

The heavy tests share module-scoped fixtures; the whole file runs in a
few minutes on one core.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from speclab.bench import (
    DEFAULT_DECODE_TAUS,
    DEFAULT_KD_TAUS,
    best_kd_per_decode,
    compare_drafts,
    measure_decode,
    parse_sweep_csv,
    recount_alpha,
    run_sweep,
)
from speclab.cli import main
from speclab.corpus import CorpusSpec, build_corpus, build_ground_truth, canonical_prompts
from speclab.distill import (
    KDConfig,
    make_kd_dataset,
    train_offline,
    train_online,
)
from speclab.lm import (
    NGramLogitLM,
    TinyNeuralLM,
    Vocab,
    ce_gradient,
    fkl_gradient,
)
from speclab.sampling import (
    STREAM_BASELINE,
    STREAM_EVAL,
    derive_seed,
    make_rng,
    softmax_with_temperature,
)
from speclab.specdec import (
    GenerationConfig,
    generate_autoregressive,
    speculative_generate,
    verify_block,
)

from oracles import (
    acceptance_probability,
    gradient_vector,
    induced_distribution,
    parameter_vector,
    set_parameter_vector,
)

SEEDS = (1, 2, 3, 4, 5)


@pytest.fixture
def verdict(capsys):
    """Print one live scorecard line per claim, then enforce it."""

    def emit(label: str, ok: bool, detail: str = "") -> None:
        tail = f" ({detail})" if detail else ""
        with capsys.disabled():
            print(f"\n{label}: {'PASS' if ok else 'FAIL'}{tail}", flush=True)
        assert ok, f"{label}{tail}"

    return emit


def fresh_draft(vocab, init_seed: int) -> NGramLogitLM:
    return NGramLogitLM.create(vocab, 1, init_scale=2.0, init_seed=init_seed)


def alpha_at(target, draft, prompts, tau: float, seed: int) -> float:
    cfg = GenerationConfig(tau=tau, block_size=4, max_new_tokens=64, seed=seed)
    return measure_decode(target, draft, prompts, cfg, runs=2).alpha


@pytest.fixture(scope="module")
def canon():
    """The shipped default corpus: vocab 32, order-2 chain, c=0.5."""
    return build_corpus(CorpusSpec(concentration=0.5, seed=0))


@pytest.fixture(scope="module")
def canon_sweep(canon):
    """Full offline sweep over the default kd/decode temperature grid."""
    template = KDConfig(mode="offline", learning_rate=0.3, steps=3000, seed=0,
                        data_repeats=5)
    gen = GenerationConfig(tau=1.0, block_size=4, max_new_tokens=64, seed=0)
    init_seed = derive_seed(0, 31)
    return run_sweep(
        DEFAULT_KD_TAUS,
        DEFAULT_DECODE_TAUS,
        "offline",
        canon,
        gen,
        SEEDS,
        kd_template=template,
        draft_factory=lambda: fresh_draft(canon.vocab, init_seed),
    )


def test_verified_token_law_equals_target_distribution(verdict):
    rng = make_rng(101)
    worst = 0.0
    for i in range(1000):
        size = 2 + i % 15
        conc = (0.3, 1.0, 3.0)[i % 3]
        p = rng.dirichlet(np.full(size, conc))
        q = rng.dirichlet(np.full(size, conc))
        if i % 7 == 0:
            q = p.copy()  # full-overlap branch: every proposal accepted
        elif i % 4 == 0 and size >= 3:
            q[int(rng.integers(0, size))] = 0.0  # draft starves a token
            q = q / q.sum()
        worst = max(worst, float(np.max(np.abs(induced_distribution(p, q) - p))))
    verdict(
        "lossless verification law",
        worst <= 1e-12,
        f"1000 pairs, max deviation {worst:.2e} vs 1e-12",
    )


def test_speculative_first_token_marginals_match_target(verdict):
    spec = CorpusSpec(order=1, concentration=0.5, seed=0)
    target = build_ground_truth(spec, make_rng(spec.seed))
    prompt = canonical_prompts(target, spec)[0]
    draft = fresh_draft(target.vocab, derive_seed(0, 31))
    n = 100_000
    worst = 0.0
    for ti, tau in enumerate((0.5, 1.0, 2.0)):
        cfg = GenerationConfig(tau=tau, block_size=4, max_new_tokens=1, seed=0)
        p = softmax_with_temperature(target.forward(prompt), tau)
        rng = make_rng(derive_seed(0, STREAM_EVAL, ti))
        counts = np.zeros(target.vocab.size)
        for _ in range(n):
            out, _ = speculative_generate(target, draft, prompt, cfg, rng)
            counts[out[0]] += 1
        bound = 3.0 * np.sqrt(p * (1.0 - p) / n)
        worst = max(worst, float(np.max(np.abs(counts / n - p) / bound)))
    verdict(
        "speculative sampling marginals",
        worst <= 1.0,
        f"3 temperatures x {n} draws, worst bin at {worst:.2f} of the 3-sigma bound",
    )


def test_greedy_speculative_output_equals_autoregressive(canon, verdict):
    draft = fresh_draft(canon.vocab, derive_seed(0, 31))
    cfg = GenerationConfig(tau=0.0, block_size=4, max_new_tokens=64, seed=0)
    exact = 0
    for j, prompt in enumerate(canon.prompts[:100]):
        spec_out, _ = speculative_generate(
            canon.teacher, draft, prompt, cfg, make_rng(derive_seed(0, STREAM_EVAL, 0, j))
        )
        base_out = generate_autoregressive(
            canon.teacher, prompt, cfg, make_rng(derive_seed(0, STREAM_BASELINE, j))
        )
        exact += spec_out == base_out
    verdict("greedy equivalence", exact == 100, f"{exact}/100 prompts token-exact")


def test_acceptance_frequency_matches_overlap_mass(verdict):
    rng = make_rng(401)
    n = 100_000
    worst = 0.0
    for i in range(20):
        size = 4 + i % 13
        conc = (0.3, 1.0, 3.0)[i % 3]
        p = rng.dirichlet(np.full(size, conc))
        q = rng.dirichlet(np.full(size, conc))
        expected = acceptance_probability(p, q)
        proposals = rng.choice(size, size=n, p=q)
        hits = 0
        for x in proposals:
            accepted, _, _ = verify_block([p], [q], [int(x)], rng)
            hits += accepted
        bound = 3.0 * math.sqrt(expected * (1.0 - expected) / n)
        worst = max(worst, abs(hits / n - expected) / bound)
    verdict(
        "acceptance-rate oracle",
        worst <= 1.0,
        f"20 pairs x {n} trials, worst at {worst:.2f} of the 3-sigma bound",
    )


def finite_difference_grad(loss_fn, model, h=1e-5):
    """Independent oracle: central differences over the flat parameters."""
    theta = parameter_vector(model)
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        bumped = theta.copy()
        bumped[i] = theta[i] + h
        set_parameter_vector(model, bumped)
        up = loss_fn(model)
        bumped[i] = theta[i] - h
        set_parameter_vector(model, bumped)
        down = loss_fn(model)
        grad[i] = (up - down) / (2.0 * h)
    set_parameter_vector(model, theta)
    return grad


def test_training_gradients_match_central_differences(verdict):
    vocab6 = Vocab(size=6, bos_id=0, eos_id=1)
    rng = make_rng(501)
    points = 0
    worst = 0.0
    for family in ("table", "neural"):
        for loss in ("ce", "fkl"):
            for _ in range(30):
                if family == "table":
                    model = NGramLogitLM.create(
                        vocab6, 1, init_scale=1.5, init_seed=int(rng.integers(1 << 30))
                    )
                else:
                    model = TinyNeuralLM.create(
                        vocab6, context_size=2, d_emb=4, d_hid=8,
                        seed=int(rng.integers(1 << 30)),
                    )
                    jittered = parameter_vector(model)
                    jittered += 0.5 * rng.standard_normal(jittered.size)
                    set_parameter_vector(model, jittered)
                context = [int(rng.integers(0, 6)) for _ in range(2)]
                if loss == "ce":
                    tok = int(rng.integers(0, 6))
                    _, grads = ce_gradient(model, context, tok)
                    value = lambda m: ce_gradient(m, context, tok)[0]
                else:
                    teacher_probs = rng.dirichlet(np.ones(6))
                    _, grads = fkl_gradient(model, context, teacher_probs)
                    value = lambda m: fkl_gradient(m, context, teacher_probs)[0]
                analytic = gradient_vector(model, grads)
                numeric = finite_difference_grad(value, model)
                err = np.abs(analytic - numeric)
                tol = 1e-5 * np.maximum(np.abs(analytic), np.abs(numeric)) + 1e-9
                worst = max(worst, float(np.max(err / tol)))
                points += 1
    verdict(
        "gradient check",
        worst <= 1.0 and points >= 100,
        f"{points} random points, both families and losses, "
        f"worst at {worst:.2f} of the 1e-5 relative tolerance",
    )


def test_distillation_lifts_acceptance_at_matched_temperature(canon, verdict):
    worst_off = worst_onl = 1.0
    lines = []
    for s in SEEDS:
        data = make_kd_dataset(
            canon.teacher, canon.prompts, 1.0,
            make_rng(derive_seed(s, 32)), repeats=5, max_len=64,
        )
        base = alpha_at(
            canon.teacher, fresh_draft(canon.vocab, derive_seed(s, 31)),
            canon.prompts, 1.0, derive_seed(s, 99),
        )
        offline = fresh_draft(canon.vocab, derive_seed(s, 31))
        train_offline(
            offline, data,
            KDConfig(mode="offline", tau_gen=1.0, learning_rate=0.3, steps=3000,
                     seed=derive_seed(s, 1)),
        )
        online = fresh_draft(canon.vocab, derive_seed(s, 31))
        train_online(
            online, canon.teacher, data,
            KDConfig(mode="online", tau_gen=1.0, on_policy_frac=0.5, loss_ratio=1.0,
                     learning_rate=0.3, steps=3000, seed=derive_seed(s, 2)),
        )
        gain_off = alpha_at(canon.teacher, offline, canon.prompts, 1.0,
                            derive_seed(s, 99)) - base
        gain_onl = alpha_at(canon.teacher, online, canon.prompts, 1.0,
                            derive_seed(s, 99)) - base
        worst_off = min(worst_off, gain_off)
        worst_onl = min(worst_onl, gain_onl)
        lines.append(f"s{s} +{gain_off:.3f}/+{gain_onl:.3f}")
    verdict(
        "distillation gain",
        min(worst_off, worst_onl) >= 0.10,
        f"offline/online alpha gains per seed: {' '.join(lines)}; bar 0.10",
    )


def test_best_kd_temperature_tracks_decode_temperature(canon_sweep, verdict):
    best = dict(best_kd_per_decode(canon_sweep))
    hits = sum(1 for d in (0.2, 0.6, 1.0) if abs(best[d] - d) <= 0.1 + 1e-9)
    mapping = " ".join(f"{d:g}->{best[d]:g}" for d in (0.2, 0.6, 1.0))
    verdict(
        "kd-decode temperature matching",
        hits >= 2,
        f"best kd_tau per decode tau: {mapping}; {hits}/3 within 0.1",
    )


def test_undistilled_row_alpha_falls_as_decode_heats(canon_sweep, verdict):
    per_seed = {(k, d, s): st for k, d, s, st in canon_sweep.seed_stats}
    wins = sum(
        1 for s in SEEDS
        if per_seed[(0.0, 1.0, s)].alpha < per_seed[(0.0, 0.0, s)].alpha
    )
    pairs = " ".join(
        f"s{s} {per_seed[(0.0, 0.0, s)].alpha:.3f}->{per_seed[(0.0, 1.0, s)].alpha:.3f}"
        for s in SEEDS
    )
    verdict(
        "hot-decode slowdown",
        wins >= 4,
        f"kd_tau=0 row, alpha at decode 0 vs 1: {pairs}; {wins}/5 seeds fell",
    )


def test_mixed_temperature_data_matches_single_at_hot_decode(canon, verdict):
    tau_set = (1.0, 0.9, 0.8)
    gen = GenerationConfig(tau=1.0, block_size=4, max_new_tokens=64, seed=0)
    init_seed = derive_seed(0, 31)
    pairs = {}
    for s in SEEDS:
        ds_seed = derive_seed(0, 32, s)
        kd_cfg = KDConfig(mode="offline", learning_rate=0.3, steps=3000,
                          seed=derive_seed(0, s), data_repeats=1)
        single = fresh_draft(canon.vocab, init_seed)
        single_data = make_kd_dataset(
            canon.teacher, canon.prompts, 1.0, make_rng(ds_seed),
            repeats=1, max_len=64,
        )
        train_offline(single, single_data, replace(kd_cfg, tau_gen=1.0))
        composed = fresh_draft(canon.vocab, init_seed)
        composed_data = make_kd_dataset(
            canon.teacher, canon.prompts, tau_set, make_rng(ds_seed), repeats=1, max_len=64
        )
        train_offline(composed, composed_data, kd_cfg)
        pairs[s] = (single, composed)
    rows = compare_drafts(canon.teacher, pairs, canon.prompts, (1.0,), gen)
    delta_alphas = [composed.alpha - single.alpha for _, _, single, composed in rows]
    wins = sum(1 for d in delta_alphas if d >= 0)
    deltas = " ".join(f"{d:+.4f}" for d in delta_alphas)
    verdict(
        "temperature composition",
        wins >= 3,
        f"composed-minus-single alpha per seed: {deltas}; {wins}/5 non-negative",
    )


def test_peaked_corpus_accepts_more_than_flat_corpus(verdict):
    def domain_alphas(concentration: float) -> list[float]:
        bundle = build_corpus(CorpusSpec(concentration=concentration, seed=0))
        alphas = []
        for s in SEEDS:
            data = make_kd_dataset(
                bundle.teacher, bundle.prompts, 0.0,
                make_rng(derive_seed(s, 32)), repeats=5, max_len=64,
            )
            draft = fresh_draft(bundle.vocab, derive_seed(s, 31))
            train_offline(
                draft, data,
                KDConfig(mode="offline", tau_gen=0.0, learning_rate=0.3, steps=3000,
                         seed=derive_seed(s, 1)),
            )
            alphas.append(
                alpha_at(bundle.teacher, draft, bundle.prompts, 0.2, derive_seed(s, 99))
            )
        return alphas

    flat = domain_alphas(1.0)
    peaked = domain_alphas(0.05)
    mean_flat = sum(flat) / len(flat)
    mean_peaked = sum(peaked) / len(peaked)
    verdict(
        "corpus difficulty",
        mean_peaked > mean_flat,
        f"5-seed mean alpha: c=0.05 {mean_peaked:.4f} vs c=1.0 {mean_flat:.4f}, "
        f"margin {mean_peaked - mean_flat:+.4f}",
    )


REPRO_CFG = """\
corpus.vocab_size = 16
corpus.order = 1
corpus.concentration = 0.7
corpus.n_prompts = 16
corpus.prompt_len = 4
corpus.seed = 3
corpus.pretrain_budget = 200000
models.teacher_order = 1
models.draft_init_scale = 1.0
kd.steps = 300
kd.data_repeats = 1
kd.gen_max_len = 24
decode.max_new_tokens = 24
sweep.kd_taus = 0.0,0.5,1.0
sweep.decode_taus = 0.5,1.0
sweep.seeds = 1,2
sweep.traces = true
io.output_dir = {out}
"""


def test_sweep_rerun_is_byte_identical_and_traces_recount(tmp_path, verdict, capsys):
    cfg = tmp_path / "lab.cfg"
    run = tmp_path / "run"
    cfg.write_text(REPRO_CFG.format(out=run.as_posix()))
    assert main(["corpus", "--config", str(cfg)]) == 0
    assert main(["sweep", "--config", str(cfg), "--no-timing"]) == 0
    first = (run / "sweep.csv").read_bytes()
    assert main(["sweep", "--config", str(cfg), "--no-timing"]) == 0
    second = (run / "sweep.csv").read_bytes()
    capsys.readouterr()
    rows = parse_sweep_csv(second.decode())
    recounted = 0
    for row in rows:
        name = (
            f"sweep_kd{row['kd_tau']:.2f}_dec{row['decode_tau']:.2f}"
            f"_seed{int(row['seed'])}.txt"
        )
        recount = recount_alpha((run / "traces" / name).read_text())
        recounted += f"{recount:.6f}" == f"{row['alpha']:.6f}"
    verdict(
        "sweep reproducibility",
        first == second and recounted == len(rows) == 12,
        f"rerun byte-identical: {first == second}; "
        f"{recounted}/{len(rows)} trace recounts equal the CSV alphas",
    )
