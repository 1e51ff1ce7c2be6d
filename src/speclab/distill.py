"""Teacher-student distillation for draft models.

:func:`train_draft` is how every command trains a draft: it makes the KD
dataset with :func:`make_kd_dataset`, then trains in one of two regimes,
chosen by ``KDConfig.mode``, on one step loop over the same gradient
machinery (offline is that loop without a teacher; an offline n-gram
student runs it as a row wavefront, see below):

* offline: the teacher samples one response per prompt at a chosen
  generation temperature, and the student is trained with plain
  cross entropy on those pairs.
* online: each step flips a coin. With probability ``on_policy_frac``
  the step's response is regenerated on-policy by the current student
  at the generation temperature; otherwise the fixed pair is used
  verbatim. The loss adds ``loss_ratio`` times the forward KL between
  the teacher's and student's next-token distributions (always at
  temperature 1) to the cross entropy.

Every step draws what a fresh ``make_rng(derive_seed(config.seed, step))``
would: the pair index first, then (online) the coin, and an on-policy
response from that generator's state after both. The trainers compute
these draws in bulk, bit for bit, with
:func:`~speclab.sampling.step_draws`, and an on-policy step hands one
reused generator, set to its step's state, to
:func:`~speclab.specdec.generate_autoregressive`. Because of that,
online training with ``on_policy_frac=0`` and ``loss_ratio=0`` walks
through exactly the same pairs and updates as offline training.

Exactness. A step's gradients are the mean over its response positions,
all read from the parameters as they were before the step. The
positions are batched for both model families: one forward over all the
student's context windows, one row-wise log-softmax shared by the CE and
FKL terms, and one gradient part per (position, term), CE before FKL at
each position, in the order that a per-position loop of CE and FKL
gradients would add them with :func:`~speclab.lm.accumulate_gradients`.
:func:`~speclab.lm.ce_gradient` and :func:`~speclab.lm.fkl_gradient` are
this kernel at one position. The teacher's rows come from one
:class:`~speclab.specdec.RowTable` per :func:`train_online` call, at
temperature 1, bit-equal to its softmax rows. An n-gram student adds a
step's parts, in part order, into a zeroed table-shaped buffer that the
run keeps, by one flat ``np.add.at``, then moves only the rows they
visit and zeroes them again. A tiny-neural student backpropagates them
with one matrix-vector product per part and adds the scaled parts left
to right. Losses and divergences are summed left to right from 0.0, as
that loop does, and the row arithmetic is its per-row arithmetic, so
checkpoints, training logs and error texts are bit-identical to it.

Offline, an n-gram step reads and writes only the rows its response
visits, so offline n-gram training runs 512 steps at a time as a row
wavefront: wave k moves, in one batched pass, every row that at least
k + 1 of the block's steps visit, by the update of the (k + 1)-th such
step, with the same per-row arithmetic (see ``_wavefront_block``), and
each step's loss is summed afterwards, left to right. A block that
would raise (a bad token, a non-finite loss or gradient) or warn (a
floating-point overflow, invalid value or division by zero) puts back
the rows it moved and runs again through the step loop, which raises or
warns as it always has, with the same text, at the same step, leaving
the same student.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, islice

import numpy as np

from .errors import ConfigError, DomainError, TrainingError
from .files import line_fields, read_lines, write_atomic
from .lm import (
    FKL_PROB_FLOOR,
    LanguageModel,
    NGramLogitLM,
    _check_token,
    _fkl_logit_grads,
    _scatter_rows,
    _sgd_rows,
    _stable_log_softmax_rows,
    _wavefront_order,
    apply_update,
    fkl_value,
)
from .sampling import (
    _STEP_BLOCK,
    SeedBank,
    make_rng,
    pcg64_state,
    step_draws,
)
from .specdec import GenerationConfig, RowTable, decode_lockstep, generate_autoregressive

SOURCE_TEACHER = "teacher"
SOURCE_STUDENT = "student"
SOURCE_FIXED = "fixed"
_SOURCES = (SOURCE_TEACHER, SOURCE_STUDENT, SOURCE_FIXED)

# Pairs decoded per decode_lockstep call. Each live stream holds about
# 1 KB (its uniforms, its output row), so this bounds a KD dataset's
# decode memory whatever its size; canonical KD datasets take two calls.
_KD_STREAMS = 512


@dataclass
class Pair:
    """One training example with its provenance."""

    prompt: list[int]
    response: list[int]
    source: str
    tau_gen: float

    def __post_init__(self):
        if self.source not in _SOURCES:
            raise DomainError(f"unknown pair source '{self.source}'")
        if not self.response:
            raise DomainError("pair response must be non-empty")
        if not (math.isfinite(self.tau_gen) and self.tau_gen >= 0):
            raise DomainError(f"pair tau must be finite and >= 0, got {self.tau_gen}")


Dataset = list[Pair]


@dataclass
class KDConfig:
    """Distillation hyperparameters."""

    mode: str = "offline"
    tau_gen: float = 1.0
    on_policy_frac: float = 0.5
    loss_ratio: float = 1.0
    learning_rate: float = 0.3
    steps: int = 3000
    seed: int = 0
    gen_max_len: int = 64
    data_repeats: int = 5

    def __post_init__(self):
        if self.mode not in ("offline", "online"):
            raise DomainError(f"mode must be 'offline' or 'online', got '{self.mode}'")
        for name in ("tau_gen", "loss_ratio", "learning_rate"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise DomainError(f"{name} must be finite and >= 0, got {value}")
        if not 0.0 <= self.on_policy_frac <= 1.0:
            raise DomainError("on_policy_frac must be in [0, 1]")
        if self.steps < 0:
            raise DomainError("steps must be >= 0")
        if self.gen_max_len < 1:
            raise DomainError("gen_max_len must be >= 1")
        if self.data_repeats < 1:
            raise DomainError("data_repeats must be >= 1")


@dataclass
class TrainStep:
    step: int
    lm_loss: float
    fkl: float | None = None


TrainingLog = list[TrainStep]


def make_kd_dataset(teacher: LanguageModel, prompts, tau_gen, rng, *,
                    repeats: int = 1, max_len: int = 64) -> Dataset:
    """``repeats`` passes of sampled teacher responses, one per prompt.

    ``tau_gen`` is one temperature or a non-empty sequence of them. In
    every pass prompt j is answered at ``taus[j % len(taus)]``, and its
    pair is tagged with that temperature. Per-pair seeds are drawn from
    ``rng`` up front, one per pair in pass-major order, so the dataset
    does not depend on evaluation order and each pass continues the same
    seed stream. The pairs of each distinct temperature are decoded
    ``_KD_STREAMS`` at a time, each batch in one
    :func:`~speclab.specdec.decode_lockstep` call on a
    :class:`~speclab.sampling.SeedBank` of their seeds, one stream per
    pair reading the uniforms of ``make_rng`` of its seed, which gives
    each pair the response that
    :func:`~speclab.specdec.generate_autoregressive` would. Prompt windows
    are validated first, in prompt order, so a bad one raises the error of
    the first pair that meets it. A teacher window too wide for a
    :class:`~speclab.specdec.RowTable` to index raises
    :class:`DomainError`. An empty, negative or non-finite temperature
    list and ``repeats < 1`` raise it before ``rng`` is used.
    """
    taus = [tau_gen] if np.ndim(tau_gen) == 0 else list(tau_gen)
    if not taus:
        raise DomainError("tau_gen must hold at least one temperature")
    for tau in taus:
        if not (math.isfinite(tau) and tau >= 0):
            raise DomainError(f"temperatures must be finite and >= 0, got {tau}")
    if repeats < 1:
        raise DomainError("repeats must be >= 1")
    prompts = list(prompts)
    n = len(prompts)
    seeds = rng.integers(1 << 62, size=repeats * n)
    tau_of = [taus[i % n % len(taus)] for i in range(len(seeds))]
    configs = {tau: GenerationConfig(tau=tau, max_new_tokens=max_len) for tau in taus}
    tables = {tau: RowTable(teacher, tau) for tau in dict.fromkeys(tau_of[:n])}
    for prompt, tau in zip(prompts, tau_of):
        tables[tau].index(prompt)
    responses: list = [None] * len(seeds)
    for tau, table in tables.items():
        of_tau = [i for i, t in enumerate(tau_of) if t == tau]
        for start in range(0, len(of_tau), _KD_STREAMS):
            pairs = of_tau[start : start + _KD_STREAMS]
            outs = decode_lockstep(table, None, [prompts[i % n] for i in pairs], configs[tau],
                                   SeedBank(seeds[pairs]))[0]
            for i, out in zip(pairs, outs):
                responses[i] = out
    return [Pair(list(prompts[i % n]), out, SOURCE_TEACHER, tau_of[i])
            for i, out in enumerate(responses)]


def _pair_step(student, teacher_rows, pair_prompt, response, loss_ratio):
    """Mean losses over one response, and its gradient parts.

    Returns ``(lm_loss, fkl, parts)``: ``fkl`` is None unless
    ``teacher_rows``, a :class:`~speclab.specdec.RowTable` of the teacher
    at temperature 1, is given and ``loss_ratio > 0``. ``parts`` is
    ``(cache, positions, dlogits, scales)``, the logit-gradient rows of
    every (position, term) with the scale of each, CE before FKL at each
    position, as :func:`_sgd_update` takes them. All positions at once,
    bit for bit as the per-position loop computes them (see the module
    docstring).
    """
    tokens = list(pair_prompt) + list(response)
    start = len(pair_prompt)
    teacher_probs = None
    if teacher_rows is not None and loss_ratio > 0.0:
        teacher_probs = teacher_rows.rows_after(tokens, start)
    size = student.vocab.size
    n = len(response)
    logits, cache, targets = _response_positions(student, tokens, start)
    log_p, _ = _stable_log_softmax_rows(logits)
    p_s = np.exp(log_p)
    positions = np.arange(n)
    lm_loss = _position_sum(-log_p[positions, targets]) / n
    dlogits = p_s.copy()
    dlogits[positions, targets] -= 1.0
    scales = np.full(n, 1.0 / n)
    fkl = None
    if teacher_probs is not None:
        fkl = _position_sum(_fkl_rows(teacher_probs, p_s)) / n
        # CE and FKL parts interleave, in the order the per-position loop adds them.
        dlogits = np.stack((dlogits, _fkl_logit_grads(teacher_probs, p_s)),
                           axis=1).reshape(2 * n, size)
        scales = np.array([1.0 / n, loss_ratio / n] * n)
        positions = np.repeat(positions, 2)
    return lm_loss, fkl, (cache, positions, dlogits, scales)


def _response_positions(student, tokens, start: int):
    """The logits and cache of :meth:`_forward_positions` after ``tokens[:start]``, and the
    targets ``tokens[start:]``, every token validated as the per-position loop meets it."""
    size = student.vocab.size
    # The per-position loop checks the first target before any context
    # token, so a bad first target is the one it names.
    _check_token(tokens[start], size)
    logits, cache = student._forward_positions(tokens, start)
    _check_token(tokens[-1], size)
    return logits, cache, np.array(tokens[start:], dtype=np.int64)


def _sgd_update(student, lr: float):
    """The SGD step of one training run, as a function of a step's gradient parts.

    A tiny-neural student's parts become one gradient bundle
    (``_backprop_parts``) for :func:`~speclab.lm.apply_update`. An
    n-gram student's are added, in part order, into one zeroed buffer
    shaped like its table and kept for the run (``_add_parts``). The
    rows they visit take one :func:`~speclab.lm._sgd_rows` step, as
    ``apply_update``'s do: a non-finite one raises :class:`NumericError`
    naming the first in part order, before any parameter moves.
    Otherwise each row moves by ``lr`` times its sum and its buffer row
    goes back to +0.0. A row that several parts visit is
    gathered once per part before any write, so each write stores the
    same value.
    """
    if not isinstance(student, NGramLogitLM):
        return lambda parts: apply_update(student, student._backprop_parts(*parts), lr)
    grads = np.zeros_like(student.table)

    def update(parts):
        rows = student._add_parts(grads, *parts)
        _sgd_rows(student, rows, grads[rows], lr)
        grads[rows] = 0.0

    return update


def _position_sum(values: np.ndarray) -> float:
    # Left to right from 0.0, as `total += value` per position adds them.
    return float(np.cumsum(values)[-1]) + 0.0


def _fkl_rows(teacher_probs: np.ndarray, student_probs: np.ndarray) -> np.ndarray:
    """:func:`fkl_value` of each row pair, bit for bit."""
    full = (teacher_probs > 0).all(axis=1)
    if not full.all():
        # fkl_value sums only the active terms, which regroups its pairwise sum.
        return np.array([fkl_value(t, s) for t, s in zip(teacher_probs, student_probs)])
    clamped = np.maximum(student_probs, FKL_PROB_FLOOR)
    return (teacher_probs * (np.log(teacher_probs) - np.log(clamped))).sum(axis=1)


def _check_finite(lm_loss: float, fkl: float | None, step: int, config: KDConfig) -> None:
    if not np.isfinite(lm_loss) or (fkl is not None and not np.isfinite(fkl)):
        raise TrainingError(
            f"non-finite loss at step {step} "
            f"(lm_loss={lm_loss}, fkl={fkl}, learning_rate={config.learning_rate})"
        )


def _train(student: LanguageModel, teacher: LanguageModel | None, dataset: Dataset,
           config: KDConfig) -> TrainingLog:
    """The step loop of both trainers; ``teacher=None`` trains offline.

    Offline, the on-policy threshold is -1, which no coin in [0, 1)
    meets, so an offline step does no on-policy or teacher work. An
    offline n-gram student trains a block of steps at a time as a row
    wavefront (:func:`_wavefront_block`); a block that it hands back
    untrained is trained by the step loop, which raises or warns as it
    would have.
    """
    if not dataset:
        raise DomainError(("dataset" if teacher is None else "fixed_dataset") + " is empty")
    on_policy_frac, loss_ratio = -1.0, 0.0
    if teacher is not None:
        on_policy_frac, loss_ratio = config.on_policy_frac, config.loss_ratio
    log: TrainingLog = []
    gen_cfg = GenerationConfig(tau=config.tau_gen, max_new_tokens=config.gen_max_len)
    teacher_rows = RowTable(teacher, 1.0) if loss_ratio > 0.0 else None
    update = _sgd_update(student, config.learning_rate)
    rng = make_rng(0)  # set to each on-policy step's own state

    def run_steps(draws, first: int) -> None:
        for step, (index, coin, state) in enumerate(draws, start=first):
            pair = dataset[index]
            response = pair.response
            if coin <= on_policy_frac:
                rng.bit_generator.state = pcg64_state(state)
                response = generate_autoregressive(student, pair.prompt, gen_cfg, rng)
            lm_loss, fkl, parts = _pair_step(student, teacher_rows, pair.prompt, response,
                                             loss_ratio)
            _check_finite(lm_loss, fkl, step, config)
            update(parts)
            log.append(TrainStep(step=step, lm_loss=lm_loss, fkl=fkl))

    draws = step_draws(config.seed, config.steps, len(dataset))
    if teacher is not None or not isinstance(student, NGramLogitLM):
        run_steps(draws, 1)
        return log
    pair_events: list = [None] * len(dataset)
    for first in range(1, config.steps + 1, _STEP_BLOCK):
        block = list(islice(draws, _STEP_BLOCK))
        losses = _wavefront_block(student, dataset, pair_events,
                                  [index for index, _, _ in block], config.learning_rate)
        if losses is None:
            run_steps(block, first)
        else:
            log += [TrainStep(step=step, lm_loss=loss) for step, loss in enumerate(losses, first)]
    return log


def _wavefront_block(student: NGramLogitLM, dataset: Dataset, pair_events: list, indices,
                     lr: float) -> list[float] | None:
    """Offline CE steps on ``dataset[indices]`` in turn, as a row wavefront; each step's loss.

    A step reads each row that its positions visit as it was before the
    step and moves it once, by the sum of their parts, and touches no
    other row. So the (step, row) events of one row must run in step
    order, and events on different rows commute. The events are grouped
    by rank within their row (:func:`~speclab.lm._wavefront_order`), and
    each wave takes one pass: it gathers its rows, takes one row-wise
    log-softmax, builds one part per position, adds the scaled parts in
    part order into a zeroed buffer (:func:`~speclab.lm._scatter_rows`),
    checks it finite and moves its rows. Each step's ``lm_loss`` is its
    positions' losses summed left to right, as :func:`_position_sum` sums.

    ``pair_events[i]`` caches pair i's events: the rows its windows visit,
    each once, and the event of each position. Its tokens
    are validated on first use, as :func:`_pair_step` validates them. A
    bad token, a non-finite loss or gradient, or a floating-point
    overflow, invalid value or division by zero (which the step loop
    would warn of) returns None with every row as it was before the block.
    """
    table = student.table
    try:
        for i in indices:
            if pair_events[i] is None:
                pair = dataset[i]
                rows = _response_positions(student, list(pair.prompt) + list(pair.response),
                                           len(pair.prompt))[1]
                pair_events[i] = np.unique(rows, return_inverse=True)
    except DomainError:
        return None
    steps = len(indices)
    events = [pair_events[i] for i in indices]
    lengths = np.array([len(of) for _, of in events])
    event_counts = np.array([len(rows) for rows, _ in events])
    event_rows = np.concatenate([rows for rows, _ in events])
    order, counts = _wavefront_order(event_rows)
    wave_rows = event_rows[order]
    event_of = np.concatenate([of for _, of in events])
    event_of += np.repeat(np.cumsum(event_counts) - event_counts, lengths)
    # Each event's wave and slot in it; then the positions, wave by wave.
    ends = np.cumsum(counts)
    wave, slot = np.empty((2, len(order)), dtype=np.int64)
    wave[order] = np.repeat(np.arange(len(counts)), counts)
    slot[order] = np.arange(len(order)) - np.repeat(ends - counts, counts)
    # A block's index arrays are its peak memory: drop each once it is read.
    del event_rows, order
    wave = wave[event_of]
    by_wave = np.argsort(wave, kind="stable")
    position_ends = np.cumsum(np.bincount(wave))
    slots = slot[event_of[by_wave]]
    del wave, slot, event_of
    targets = np.fromiter(chain.from_iterable(dataset[i].response for i in indices), np.int64,
                          len(by_wave))[by_wave]
    scales = np.repeat(1.0 / lengths, lengths)[by_wave, None]
    log_p_target = np.empty(len(by_wave))
    touched = wave_rows[: counts[0]]  # wave 0 holds every row once
    saved = table[touched]
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            lo = plo = 0
            for hi, phi in zip(ends.tolist(), position_ends.tolist()):
                rows, at, tgt = wave_rows[lo:hi], slots[plo:phi], targets[plo:phi]
                logits = table[rows]
                log_p, _ = _stable_log_softmax_rows(logits)
                log_p_target[plo:phi] = log_p[at, tgt]
                parts = np.exp(log_p)[at]
                parts[np.arange(phi - plo), tgt] -= 1.0
                parts *= scales[plo:phi]
                g = np.zeros_like(logits)
                _scatter_rows(g, at, parts)
                if not np.isfinite(g).all():
                    break
                table[rows] = logits - lr * g
                lo, plo = hi, phi
            else:
                del slots, targets, scales
                # Each step's losses, left-aligned in one row each, summed left to right.
                log_p_target[by_wave] = -log_p_target
                losses = np.zeros((steps, lengths.max()))
                losses[np.arange(losses.shape[1]) < lengths[:, None]] = log_p_target
                np.cumsum(losses, axis=1, out=losses)
                lm_loss = (losses[np.arange(steps), lengths - 1] + 0.0) / lengths
                if np.isfinite(lm_loss).all():
                    return lm_loss.tolist()
    except FloatingPointError:
        pass
    table[touched] = saved
    return None


def train_offline(student: LanguageModel, dataset: Dataset, config: KDConfig) -> TrainingLog:
    """Cross-entropy SGD on a fixed dataset; one pair per step.

    Step ``k`` trains on the pair that
    ``make_rng(derive_seed(config.seed, k)).integers(len(dataset))`` picks,
    computed in bulk (see the module docstring).
    """
    return _train(student, None, dataset, config)


def train_online(student: LanguageModel, teacher: LanguageModel, fixed_dataset: Dataset,
                 config: KDConfig) -> TrainingLog:
    """Mixed fixed/on-policy distillation with a forward KL term.

    Step ``k`` draws, as ``make_rng(derive_seed(config.seed, k))`` would,
    its pair index and then a coin; a coin at most ``on_policy_frac`` makes
    the step on-policy, and its response is sampled from the student on
    that generator's state after both draws (see the module docstring).
    With ``loss_ratio > 0``, a teacher window too wide for a
    :class:`~speclab.specdec.RowTable` to index raises :class:`DomainError`.
    A teacher and student with different vocabularies raise
    :class:`ConfigError` before any step.
    """
    if teacher.vocab != student.vocab:
        raise ConfigError("teacher and student must share a vocabulary")
    return _train(student, teacher, fixed_dataset, config)


def train_draft(student: LanguageModel, teacher: LanguageModel, prompts, config: KDConfig,
                data_seed: int, taus=None) -> tuple[Dataset, TrainingLog]:
    """Distill ``student`` from ``teacher`` in place; return the dataset and the log.

    The dataset is :func:`make_kd_dataset` of ``prompts`` at ``taus``
    (``config.tau_gen`` when None) on ``make_rng(data_seed)``, with
    ``config.data_repeats`` passes and ``config.gen_max_len`` tokens at
    most a response. It is trained as :func:`train_offline` or
    :func:`train_online` trains it, by ``config.mode``. A teacher and
    student with different vocabularies raise :class:`ConfigError`
    before any decoding.
    """
    if teacher.vocab != student.vocab:
        raise ConfigError("teacher and student must share a vocabulary")
    dataset = make_kd_dataset(teacher, prompts, config.tau_gen if taus is None else taus,
                              make_rng(data_seed), repeats=config.data_repeats,
                              max_len=config.gen_max_len)
    return dataset, _train(student, teacher if config.mode == "online" else None, dataset, config)


def save_dataset(dataset: Dataset, path) -> None:
    """One pair per line: tau=<t> src=<source> prompt=<ids> response=<ids>."""
    write_atomic(path, "".join(
        f"tau={pair.tau_gen!r}"
        f" src={pair.source}"
        f" prompt={','.join(str(t) for t in pair.prompt)}"
        f" response={','.join(str(t) for t in pair.response)}\n"
        for pair in dataset
    ))


def load_dataset(path) -> Dataset:
    """Pairs saved by :func:`save_dataset`; blank lines are skipped.

    A malformed line, or a last line without its newline, raises
    :class:`DomainError` naming the path and line.
    """
    data: Dataset = []
    for lineno, line in read_lines(path):
        where = f"{path} line {lineno}"
        fields = line_fields(line, ("tau", "src", "prompt", "response"), where)
        try:
            prompt, response = ([int(t) for t in fields[k].split(",")] if fields[k] else []
                                for k in ("prompt", "response"))
            data.append(Pair(prompt, response, fields["src"], float(fields["tau"])))
        except ValueError as exc:
            raise DomainError(f"{where}: {exc}") from exc
    return data


def train_log_rows(log: TrainingLog) -> list[str]:
    """CSV rows (with header) for a training log."""
    rows = ["step,lm_loss,fkl"]
    for entry in log:
        fkl = "" if entry.fkl is None else f"{entry.fkl:.6f}"
        rows.append(f"{entry.step},{entry.lm_loss:.6f},{fkl}")
    return rows
