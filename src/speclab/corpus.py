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
from contextlib import closing
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError, TrainingError
from .files import read_lines, write_atomic
from .lm import LanguageModel, NGramLogitLM, Vocab, _ce_step_rows
from .sampling import STREAM_HELDOUT, derive_seed, make_rng, softmax_with_temperature
from .specdec import GenerationConfig, _rollouts, _table_rollouts

BOS_ID = 0
EOS_ID = 1

# Probability floor applied to Dirichlet draws before taking logs, so
# ground-truth logit rows stay finite even when a coordinate underflows.
_ROW_FLOOR = 1e-300

# Teacher pretraining: tau=1 rollouts of at most _ROLLOUT_LEN tokens, the
# held-out contexts from _HELDOUT_ROLLOUTS more, a convergence check every
# _CHECK_EVERY trained tokens, a rate from _LR_START halved _LR_STAGES times.
_ROLLOUT_LEN = 40
_HELDOUT_ROLLOUTS = 48
_CHECK_EVERY = 8192
_LR_START = 0.8
_LR_STAGES = 6


@dataclass(frozen=True)
class CorpusSpec:
    """Parameters of one synthetic corpus."""

    vocab_size: int = 32
    order: int = 2
    concentration: float = 0.5
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


def collect_heldout_contexts(model: LanguageModel, rng) -> list[tuple[int, ...]]:
    """Contexts visited by fresh rollouts, for exact evaluation.

    Every proper prefix of each of ``_HELDOUT_ROLLOUTS`` tau=1 rollouts
    contributes one context, kept whole, so shorter than ``_ROLLOUT_LEN``
    tokens (the empty prefix included, since generation starts there
    too): a model of any order reads its full window. The rollouts share
    one generator, so they run one after another, on
    :func:`~speclab.specdec._rollouts`: a chain that a
    :class:`~speclab.specdec.RowTable` takes whole is read from one
    softmax and CDF table, any other model's rows are computed once per
    window.
    """
    config = GenerationConfig(tau=1.0, max_new_tokens=_ROLLOUT_LEN)
    with closing(_rollouts(model, config, [], rng)) as rollouts:
        seqs = [tuple(next(rollouts)) for _ in range(_HELDOUT_ROLLOUTS)]
    return [seq[:i] for seq in seqs for i in range(len(seq))]


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
    p = softmax_with_temperature(reference.forward_batch(contexts), 1.0)
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
):
    """Fit a teacher to the ground truth by cross entropy on its samples.

    Returns ``(teacher, heldout, ce, entropy)``: the teacher, the
    held-out contexts, and the teacher's final :func:`heldout_scores`
    on them, bit-equal to a fresh evaluation, which
    :func:`build_corpus` reports without rolling the contexts out again.
    ``order`` defaults to the ground truth's order.

    ``steps`` is a token budget. Each sampled token applies one SGD
    update; the learning rate starts at ``_LR_START`` and halves at each
    of ``_LR_STAGES`` equal slices of the budget, which lets the rows
    travel fast early and settle tightly late. Training stops once the
    exact held-out cross entropy is within ``tolerance`` of the held-out
    entropy rate; exhausting the budget first raises
    :class:`TrainingError` with the final gap.

    Schedule. Rollouts are tau=1 samples of length at most ``_ROLLOUT_LEN``,
    each ending at the end marker, drawn from the chain's whole tau=1
    table by :func:`~speclab.specdec._table_rollouts`. The convergence
    check runs after the first rollout that brings the tokens since the
    last check to ``_CHECK_EVERY``, and once more when the budget is
    spent. Training runs in chunks that end at those points. A chunk
    first rolls out its sequences and takes every token's teacher row in
    one array pass. It then applies its updates as a wavefront: step k
    updates, in one batched gather, log-softmax and scatter, every row
    that has at least k + 1 updates, with its k-th one. Once a step holds
    one row (the start row, in practice), the rest run as a 1-D loop on
    that row.

    Exactness. The result is bit-identical to applying
    :func:`ce_gradient` and :func:`apply_update` token by token in
    rollout order. Rollouts never read the teacher; they draw the tokens
    that token-by-token :func:`sample` calls would and leave ``rng``
    where those calls would, however training stops, so ``rng`` must be
    a :func:`make_rng` (PCG64) generator. A CE step on an n-gram
    table reads and writes only its own context row, so only the order
    of updates within one row matters, and the wavefront keeps it; the
    row-wise and 1-D arithmetic are the per-row arithmetic. A non-finite
    gradient raises :class:`NumericError` naming the row of the first
    one in token order.
    """
    vocab = spec.vocab()
    teacher = NGramLogitLM.create(vocab, order if order is not None else ground_truth.order)
    heldout = collect_heldout_contexts(
        ground_truth, make_rng(derive_seed(spec.seed, STREAM_HELDOUT))
    )
    # heldout_scores(ground_truth, teacher, heldout), with everything but
    # the teacher's log-softmax computed once.
    heldout_p = softmax_with_temperature(ground_truth.forward_batch(heldout), 1.0)
    heldout_rows = np.array([teacher.context_index(c) for c in heldout], dtype=np.int64)
    entropy = _entropy(heldout_p)
    target_ce = (1.0 + tolerance) * entropy
    probs = softmax_with_temperature(ground_truth.table, 1.0)
    used = 0
    since_check = 0
    with closing(_table_rollouts(probs, np.cumsum(probs, axis=1), ground_truth.context_index(()),
                                 _ROLLOUT_LEN, vocab.eos_id, rng)) as rollouts:
        while used < steps:
            take = min(steps - used, _CHECK_EVERY - since_check)
            tokens: list[int] = []
            pos: list[int] = []  # each token's position in its rollout
            while len(tokens) < take:
                seq = next(rollouts)
                tokens += seq
                pos += range(len(seq))
            count = min(len(tokens), steps - used)
            toks, at = np.array(tokens[:count]), np.array(pos[:count])
            # Each token's teacher row: its window of the previous order
            # tokens, bos-padded at its rollout's start.
            rows = np.zeros(count, dtype=np.int64)
            for k in range(teacher.order, 0, -1):
                rows = rows * vocab.size + np.where(at >= k, np.roll(toks, k), vocab.bos_id)
            lrs = _LR_START * 0.5 ** (_LR_STAGES * np.arange(used, used + count)
                                      / steps).astype(np.int64)
            _apply_wavefront(teacher, rows, toks, lrs)
            used += count
            since_check += count
            if since_check >= _CHECK_EVERY:
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
    """The prompt set :func:`build_corpus` would sample for this spec.

    Prompts are ``spec.prompt_len`` content tokens from the chain's own
    tau=1 process. The begin and end markers are masked out of every row
    and the rest renormalized, so prompts never terminate early; a row
    with no content mass becomes uniform over the content tokens. The
    masked table is built once and rolled out by
    :func:`~speclab.specdec._table_rollouts`, one prompt after another on
    one generator.
    """
    vocab = spec.vocab()
    probs = softmax_with_temperature(ground_truth.table, 1.0)
    markers = [vocab.bos_id, vocab.eos_id]
    probs[:, markers] = 0.0
    probs[probs.sum(axis=1) <= 0.0] = 1.0
    probs[:, markers] = 0.0
    probs /= probs.sum(axis=1, keepdims=True)
    rng = make_rng(derive_seed(spec.seed, _TAG_PROMPTS))
    start = ground_truth.context_index(())
    with closing(_table_rollouts(probs, np.cumsum(probs, axis=1), start, spec.prompt_len,
                                 vocab.eos_id, rng)) as rollouts:
        return [next(rollouts) for _ in range(spec.n_prompts)]


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
