"""Synthetic corpora: Markov ground truths and pretrained teachers.

A corpus is defined by an order-m Markov chain over a shared vocabulary
whose transition rows are Dirichlet draws with one concentration value
``c`` for every symbol. Low ``c`` gives peaky, highly predictable rows,
high ``c`` gives near-uniform ones, so a single knob moves the corpus
between an easy and a hard domain.

Token id convention: id 0 is the begin marker, id 1 the end marker, and
the remaining ids are content tokens. Prompts contain content tokens
only. The ground truth for a spec is always built from
``make_rng(spec.seed)``, so every consumer reconstructs the same chain.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError, TrainingError
from .files import read_lines, write_atomic
from .lm import LanguageModel, NGramLogitLM, Vocab, _ce_step_rows
from .sampling import (
    _UNIFORM_CHUNK,
    STREAM_HELDOUT,
    derive_seed,
    make_rng,
    sample,
    softmax_rows_with_temperature,
    softmax_with_temperature,
)
from .specdec import GenerationConfig, _rollouts

BOS_ID = 0
EOS_ID = 1

# Probability floor applied to Dirichlet draws before taking logs, so
# ground-truth logit rows stay finite even when a coordinate underflows.
_ROW_FLOOR = 1e-300


@dataclass(frozen=True)
class CorpusSpec:
    """Parameters of one synthetic corpus."""

    vocab_size: int = 32
    order: int = 2
    concentration: float = 1.0
    n_prompts: int = 200
    prompt_len: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.vocab_size < 4:
            raise DomainError("vocab_size must be >= 4 (bos, eos, content)")
        if self.order < 1:
            raise DomainError("order must be >= 1")
        if not (math.isfinite(self.concentration) and self.concentration > 0):
            raise DomainError(f"concentration must be finite and > 0, got {self.concentration}")
        if self.prompt_len < 1:
            raise DomainError("prompt_len must be >= 1")
        if self.n_prompts < 1:
            raise DomainError("n_prompts must be >= 1")

    def vocab(self) -> Vocab:
        return Vocab(size=self.vocab_size, bos_id=BOS_ID, eos_id=EOS_ID)


def build_ground_truth(spec: CorpusSpec, rng: np.random.Generator) -> NGramLogitLM:
    """Order-m chain whose softmax rows are Dirichlet(c, ..., c) draws.

    Rows are drawn in context-index order, one per possible context, and
    stored as log-probabilities, so the model's tau=1 softmax reproduces
    the drawn distributions exactly.
    """
    vocab = spec.vocab()
    model = NGramLogitLM.create(vocab, spec.order)
    alpha = np.full(spec.vocab_size, spec.concentration)
    rows = rng.dirichlet(alpha, size=model.table.shape[0])
    model.table[...] = np.log(np.maximum(rows, _ROW_FLOOR))
    return model


def sample_prompt(model: LanguageModel, prompt_len: int, rng) -> list[int]:
    """Prompt of content tokens from the model's own process.

    The begin and end markers are masked out of each step's distribution
    (renormalized), so prompts never terminate early.
    """
    vocab = model.vocab
    seq: list[int] = []
    for _ in range(prompt_len):
        dist = softmax_with_temperature(model.forward(seq), 1.0)
        dist[vocab.bos_id] = 0.0
        dist[vocab.eos_id] = 0.0
        mass = dist.sum()
        if mass <= 0.0:
            dist = np.ones(vocab.size)
            dist[vocab.bos_id] = 0.0
            dist[vocab.eos_id] = 0.0
            mass = dist.sum()
        seq.append(sample(dist / mass, rng))
    return seq


def collect_heldout_contexts(
    model: LanguageModel, rng, n_sequences: int = 48, seq_len: int = 40
) -> list[tuple[int, ...]]:
    """Contexts visited by fresh rollouts, for exact evaluation.

    Every prefix of every rollout contributes one context (the empty
    prefix included, since generation starts there too). The rollouts
    share one generator, so they run one after another, and their rows
    (:func:`~speclab.specdec._rollouts`): a chain that a
    :class:`~speclab.specdec.RowTable` takes whole is one softmax and
    CDF table, and any other model computes each window's row once.
    """
    contexts: list[tuple[int, ...]] = []
    rollout = _rollouts(model, GenerationConfig(tau=1.0, max_new_tokens=seq_len))
    for _ in range(n_sequences):
        seq = rollout([], rng)
        prefix: list[int] = []
        contexts.append(tuple(prefix))
        for tok in seq[:-1]:
            prefix.append(tok)
            contexts.append(tuple(prefix[-8:]))
    return contexts


def _log_softmax_rows(logits: np.ndarray) -> np.ndarray:
    # Not lm._stable_log_softmax_rows: that rounds differently and moves teacher_ce.
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def heldout_scores(
    reference: LanguageModel, model: LanguageModel, contexts
) -> tuple[float, float]:
    """Exact per-context cross entropy of ``model`` under ``reference``.

    Returns ``(cross_entropy, entropy)`` in nats per token, averaged
    over the context list. Both are computed from full distributions,
    not sampled tokens, so repeated evaluation is deterministic and the
    Gibbs bound cross_entropy >= entropy holds exactly.
    """
    p = softmax_rows_with_temperature(reference.forward_batch(contexts), 1.0)
    return _cross_entropy(p, model.forward_batch(contexts)), _entropy(p)


def _cross_entropy(p: np.ndarray, logits: np.ndarray) -> float:
    return float(np.mean(-(p * _log_softmax_rows(logits)).sum(axis=1)))


def _entropy(p: np.ndarray) -> float:
    return float(np.mean(-(p * np.log(np.maximum(p, _ROW_FLOOR))).sum(axis=1)))


def pretrain_teacher(
    ground_truth: NGramLogitLM,
    spec: CorpusSpec,
    steps: int,
    rng,
    *,
    order: int | None = None,
    tolerance: float = 0.05,
    seq_len: int = 40,
    check_every: int = 8192,
    lr_start: float = 0.8,
    lr_stages: int = 6,
):
    """Fit a teacher to the ground truth by cross entropy on its samples.

    Returns ``(teacher, heldout, ce, entropy)``: the teacher, the
    held-out contexts, and the teacher's final :func:`heldout_scores`
    on them, bit-equal to a fresh evaluation, which
    :func:`build_corpus` reports without rolling the contexts out again.
    ``order`` defaults to the ground truth's order.

    ``steps`` is a token budget. Each sampled token applies one SGD
    update; the learning rate starts at ``lr_start`` and halves at each
    of ``lr_stages`` equal slices of the budget, which lets the rows
    travel fast early and settle tightly late. Training stops once the
    exact held-out cross entropy is within ``tolerance`` of the held-out
    entropy rate; exhausting the budget first raises
    :class:`TrainingError` with the final gap.

    Schedule. Rollouts are tau=1 samples of length at most ``seq_len``,
    each ending at the end marker. The convergence check runs after the
    first rollout that brings the tokens since the last check to
    ``check_every``, and once more when the budget is spent. Training
    runs in chunks that end at those points. A chunk first rolls out its
    sequences, buffering one ``(teacher row, token, lr)`` update per
    token and reading uniforms 64 at a time; however the rollouts stop,
    the uniforms drawn but not read go back to ``rng``. It then applies
    the buffer as a wavefront: step k updates, in one batched gather,
    log-softmax and scatter, every row that has at least k + 1 buffered
    updates, with its k-th one. Once a step holds one row (the start
    row, in practice), the rest run as a 1-D loop on that row.

    Exactness. The result is bit-identical to applying
    :func:`ce_gradient` and :func:`apply_update` token by token in
    rollout order. Rollouts never read the teacher, and each token
    reads one uniform, by inverse CDF on the chain's precomputed tau=1
    table as :func:`sample` does. ``rng.random(out=...)`` fills a chunk
    with what as many ``rng.random()`` calls return, and
    ``rng.bit_generator.advance`` hands the unread ones back, so the
    draws and the final generator state are those of token-by-token
    sampling. As for the decoders in :mod:`speclab.specdec`, ``rng``
    must be a :func:`make_rng` (PCG64) generator. A CE step on an n-gram
    table reads and writes only its own context row, so only the order
    of updates within one row matters, and the wavefront keeps it; the
    row-wise and 1-D arithmetic are the per-row arithmetic. A non-finite
    gradient raises :class:`NumericError` naming the row of the first
    one in token order.
    """
    if seq_len < 1:
        raise DomainError(f"seq_len must be >= 1, got {seq_len}")
    vocab = spec.vocab()
    size = vocab.size
    eos = vocab.eos_id
    teacher = NGramLogitLM.create(vocab, order if order is not None else ground_truth.order)
    heldout = collect_heldout_contexts(
        ground_truth, make_rng(derive_seed(spec.seed, STREAM_HELDOUT))
    )
    # heldout_scores(ground_truth, teacher, heldout), with everything but
    # the teacher's log-softmax computed once.
    heldout_p = softmax_rows_with_temperature(ground_truth.forward_batch(heldout), 1.0)
    heldout_rows = np.array([teacher.context_index(c) for c in heldout], dtype=np.int64)
    entropy = _entropy(heldout_p)
    target_ce = (1.0 + tolerance) * entropy
    probs = softmax_rows_with_temperature(ground_truth.table, 1.0)
    cdf = np.cumsum(probs, axis=1)
    # CDF rows of visited contexts as compact arrays: bisect_right finds
    # the index of sample()'s searchsorted without numpy's call overhead.
    n_chain_rows = len(cdf)
    chain_rows: list = [None] * n_chain_rows
    chain_start = ground_truth.context_index(())
    n_teacher_rows = len(teacher.table)
    teacher_start = teacher.context_index(())
    buf = np.empty(_UNIFORM_CHUNK)
    used = 0
    since_check = 0
    while used < steps:
        first = used
        rows: list[int] = []
        tokens: list[int] = []
        uniforms: list[float] = []
        read = drawn = 0
        try:
            while True:
                ctx = chain_start
                row = teacher_start
                for _ in range(seq_len):
                    cdf_row = chain_rows[ctx]
                    if cdf_row is None:
                        if not abs(cdf[ctx, -1] - 1.0) <= 1e-9:
                            raise NumericError(
                                f"cannot sample: chain row {ctx} totals {cdf[ctx, -1]}")
                        cdf_row = chain_rows[ctx] = array("d", cdf[ctx])
                    if read == drawn:
                        uniforms = rng.random(out=buf).tolist()
                        drawn += _UNIFORM_CHUNK
                    # read - drawn counts back from the end of the chunk.
                    tok = bisect_right(cdf_row, uniforms[read - drawn])
                    read += 1
                    # draw()'s search, clamp and zero-probability guard, inline.
                    if tok >= size:
                        tok = size - 1
                        while tok > 0 and probs[ctx, tok] <= 0.0:
                            tok -= 1
                    if used < steps:
                        rows.append(row)
                        tokens.append(tok)
                        used += 1
                        since_check += 1
                    if tok == eos:
                        break
                    ctx = (ctx * size + tok) % n_chain_rows
                    row = (row * size + tok) % n_teacher_rows
                if used >= steps or since_check >= check_every:
                    break
        finally:
            # Hand the unread uniforms back, as specdec._Uniforms.rewind does.
            rng.bit_generator.advance(read - drawn)
        lrs = lr_start * 0.5 ** (lr_stages * np.arange(first, used) / steps).astype(np.int64)
        _apply_wavefront(teacher, np.array(rows, dtype=np.int64),
                         np.array(tokens, dtype=np.int64), lrs)
        if since_check >= check_every:
            since_check = 0
            ce = _cross_entropy(heldout_p, teacher.table[heldout_rows])
            if ce <= target_ce:
                return teacher, heldout, ce, entropy
    ce = _cross_entropy(heldout_p, teacher.table[heldout_rows])
    if ce <= target_ce:
        return teacher, heldout, ce, entropy
    raise TrainingError(
        f"teacher not converged in {steps} tokens: held-out CE {ce:.4f} vs "
        f"entropy rate {entropy:.4f} (target {target_ce:.4f})"
    )


def _apply_wavefront(teacher: NGramLogitLM, rows, tokens, lrs) -> None:
    """Apply buffered CE updates, the k-th of every row in batch step k.

    Update i is a CE step on ``teacher`` row ``rows[i]`` toward
    ``tokens[i]`` at rate ``lrs[i]``; the result equals applying them in
    index order. Raises :class:`NumericError` for the first update, by
    index, whose gradient is not finite.

    Steps never grow, so from the first one-row step on every step
    updates the same row. That tail runs as a 1-D loop on a copy of the
    row with the operations of :func:`~speclab.lm._ce_step_rows`.
    """
    by_row = np.argsort(rows, kind="stable")
    sorted_rows = rows[by_row]
    starts = np.flatnonzero(np.r_[True, sorted_rows[1:] != sorted_rows[:-1]])
    rank = np.arange(len(rows)) - np.repeat(starts, np.diff(np.r_[starts, len(rows)]))
    order = by_row[np.argsort(rank, kind="stable")]
    counts = np.bincount(rank)
    bounds = np.cumsum(counts[counts > 1])
    step_rows, step_tokens, step_lrs = rows[order], tokens[order], lrs[order]
    first_bad = len(rows)
    lo = 0
    for hi in bounds:
        bad = _ce_step_rows(teacher, step_rows[lo:hi], step_tokens[lo:hi], step_lrs[lo:hi])
        if bad.any():
            first_bad = min(first_bad, int(order[lo:hi][bad].min()))
        lo = hi
    if lo < len(rows):
        x = teacher.table[step_rows[lo]].copy()
        e = np.empty_like(x)
        for i, tok, lr in zip(order[lo:].tolist(), step_tokens[lo:].tolist(),
                              step_lrs[lo:].tolist()):
            m = x.max()
            lse = m + np.log(np.exp(np.subtract(x, m, out=e), out=e).sum())
            if not math.isfinite(lse):
                first_bad = min(first_bad, i)
                continue
            np.exp(np.subtract(x, lse, out=e), out=e)
            e[tok] -= 1.0
            np.subtract(x, np.multiply(e, lr, out=e), out=x)
        teacher.table[step_rows[lo]] = x
    if first_bad < len(rows):
        raise NumericError(f"non-finite gradient for context row {rows[first_bad]}")


def save_prompts(prompts: list[list[int]], path) -> None:
    """One prompt per line, token ids comma-separated."""
    write_atomic(path, "".join(",".join(str(t) for t in prompt) + "\n" for prompt in prompts))


def load_prompts(path) -> list[list[int]]:
    """Prompts saved by :func:`save_prompts`; blank lines are skipped.

    A token that is not an integer, or a last line without its newline,
    raises :class:`DomainError` naming the path and line.
    """
    prompts = []
    for lineno, line in read_lines(path):
        try:
            prompts.append([int(t) for t in line.split(",")])
        except ValueError as exc:
            raise DomainError(f"{path} line {lineno}: {exc}") from exc
    return prompts


@dataclass
class CorpusBundle:
    """Everything one experiment needs: chain, teacher, prompts."""

    spec: CorpusSpec
    vocab: Vocab
    ground_truth: NGramLogitLM
    teacher: NGramLogitLM
    prompts: list[list[int]]
    heldout_contexts: list[tuple[int, ...]]
    teacher_ce: float
    entropy_rate: float


# Stream tags for the independent corpus sub-streams.
_TAG_TEACHER = 11
_TAG_PROMPTS = 12


def canonical_prompts(ground_truth: NGramLogitLM, spec: CorpusSpec) -> list[list[int]]:
    """The prompt set :func:`build_corpus` would sample for this spec."""
    rng = make_rng(derive_seed(spec.seed, _TAG_PROMPTS))
    return [sample_prompt(ground_truth, spec.prompt_len, rng) for _ in range(spec.n_prompts)]


def build_corpus(
    spec: CorpusSpec,
    *,
    teacher_order: int | None = None,
    pretrain_budget: int = 800_000,
    tolerance: float = 0.05,
) -> CorpusBundle:
    """Build the chain, pretrain its teacher, and sample prompts."""
    ground_truth = build_ground_truth(spec, make_rng(spec.seed))
    teacher, heldout, ce, entropy = pretrain_teacher(
        ground_truth,
        spec,
        pretrain_budget,
        make_rng(derive_seed(spec.seed, _TAG_TEACHER)),
        order=teacher_order,
        tolerance=tolerance,
    )
    prompts = canonical_prompts(ground_truth, spec)
    return CorpusBundle(
        spec=spec,
        vocab=spec.vocab(),
        ground_truth=ground_truth,
        teacher=teacher,
        prompts=prompts,
        heldout_contexts=heldout,
        teacher_ce=ce,
        entropy_rate=entropy,
    )
