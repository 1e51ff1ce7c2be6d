"""Teacher-student distillation for draft models.

Two regimes over the same gradient machinery:

* offline: the teacher samples one response per prompt at a chosen
  generation temperature, and the student is trained with plain
  cross entropy on those pairs.
* online: each step flips a coin. With probability ``on_policy_frac``
  the step's response is regenerated on-policy by the current student
  at the generation temperature; otherwise the fixed pair is used
  verbatim. The loss adds ``loss_ratio`` times the forward KL between
  the teacher's and student's next-token distributions (always at
  temperature 1) to the cross entropy.

Every step draws its randomness from a fresh stream derived from
``(config.seed, step)``, with the pair index drawn first. Because of
that, online training with ``on_policy_frac=0`` and ``loss_ratio=0``
walks through exactly the same pairs and updates as offline training.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, TrainingError
from .lm import (
    LanguageModel,
    accumulate_gradients,
    apply_update,
    ce_gradient,
    fkl_gradient,
    fkl_value,
)
from .sampling import derive_seed, make_rng, softmax_rows_with_temperature
from .specdec import GenerationConfig, generate_autoregressive

SOURCE_TEACHER = "teacher"
SOURCE_STUDENT = "student"
SOURCE_FIXED = "fixed"
_SOURCES = (SOURCE_TEACHER, SOURCE_STUDENT, SOURCE_FIXED)


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
            raise DomainError(f"unknown distillation mode '{self.mode}'")
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
    eval_alpha: float | None = None


TrainingLog = list[TrainStep]


def seqkd_generate(teacher: LanguageModel, prompts, tau_gen: float, rng, max_len: int = 64) -> Dataset:
    """One sampled teacher response per prompt at ``tau_gen``.

    Prompts fan out over per-prompt child streams drawn up front from
    ``rng``, so the result does not depend on evaluation order.
    """
    seeds = [int(rng.integers(1 << 62)) for _ in prompts]
    cfg = GenerationConfig(tau=tau_gen, max_new_tokens=max_len)
    data: Dataset = []
    for prompt, seed in zip(prompts, seeds):
        response = generate_autoregressive(teacher, prompt, cfg, make_rng(seed))
        data.append(Pair(list(prompt), response, SOURCE_TEACHER, tau_gen))
    return data


def make_kd_dataset(teacher: LanguageModel, prompts, tau_gen: float, rng, *,
                    repeats: int = 1, max_len: int = 64) -> Dataset:
    """``repeats`` sampled responses per prompt, concatenated.

    Repeats reduce the sampling noise in the conditionals the student
    can extract from the data; each pass continues the same seed
    stream, so the whole dataset is reproducible from one rng.
    """
    if repeats < 1:
        raise DomainError("repeats must be >= 1")
    data: Dataset = []
    for _ in range(repeats):
        data.extend(seqkd_generate(teacher, prompts, tau_gen, rng, max_len))
    return data


def make_fixed_dataset(ground_truth: LanguageModel, prompts, rng, max_len: int = 64) -> Dataset:
    """Original-corpus pairs: responses sampled from the ground truth."""
    seeds = [int(rng.integers(1 << 62)) for _ in prompts]
    cfg = GenerationConfig(tau=1.0, max_new_tokens=max_len)
    return [
        Pair(
            list(prompt),
            generate_autoregressive(ground_truth, prompt, cfg, make_rng(seed)),
            SOURCE_FIXED,
            1.0,
        )
        for prompt, seed in zip(prompts, seeds)
    ]


def compose_dataset(
    model: LanguageModel,
    tau_set,
    prompts,
    rng,
    max_len: int = 64,
    source: str = SOURCE_TEACHER,
) -> Dataset:
    """Round-robin mixture: prompt i is answered at tau_set[i mod k].

    Returns one pair per prompt, in prompt order, each tagged with the
    temperature that generated it.
    """
    taus = list(tau_set)
    if not taus:
        raise DomainError("tau_set must be non-empty")
    for tau in taus:
        if tau < 0:
            raise DomainError("temperatures must be >= 0")
    seeds = [int(rng.integers(1 << 62)) for _ in prompts]
    data: Dataset = []
    for i, (prompt, seed) in enumerate(zip(prompts, seeds)):
        tau = taus[i % len(taus)]
        cfg = GenerationConfig(tau=tau, max_new_tokens=max_len)
        response = generate_autoregressive(model, prompt, cfg, make_rng(seed))
        data.append(Pair(list(prompt), response, source, tau))
    return data


def _pair_step(student, teacher, pair_prompt, response, loss_ratio):
    """Mean gradients over one response; returns (lm_loss, fkl, grads)."""
    grads: dict = {}
    n = len(response)
    lm_loss = 0.0
    fkl_sum = 0.0
    with_fkl = teacher is not None and loss_ratio > 0.0
    ctx = list(pair_prompt)
    if with_fkl:
        # One batched teacher sweep over all response positions.
        contexts = []
        tail = list(pair_prompt)
        for tok in response:
            contexts.append(list(tail))
            tail.append(tok)
        teacher_probs = softmax_rows_with_temperature(teacher.forward_batch(contexts), 1.0)
    for i, tok in enumerate(response):
        loss, g = ce_gradient(student, ctx, tok)
        lm_loss += loss
        accumulate_gradients(grads, g, 1.0 / n)
        if with_fkl:
            div, gf = fkl_gradient(student, ctx, teacher_probs[i])
            fkl_sum += div
            accumulate_gradients(grads, gf, loss_ratio / n)
        ctx.append(tok)
    return lm_loss / n, (fkl_sum / n if with_fkl else None), grads


def _check_finite(lm_loss: float, fkl: float | None, step: int, config: KDConfig) -> None:
    if not np.isfinite(lm_loss) or (fkl is not None and not np.isfinite(fkl)):
        raise TrainingError(
            f"non-finite loss at step {step} "
            f"(lm_loss={lm_loss}, fkl={fkl}, learning_rate={config.learning_rate})"
        )


def train_offline(
    student: LanguageModel,
    dataset: Dataset,
    config: KDConfig,
    eval_fn=None,
    eval_every: int = 0,
) -> TrainingLog:
    """Cross-entropy SGD on a fixed dataset; one pair per step."""
    if not dataset:
        raise DomainError("dataset is empty")
    log: TrainingLog = []
    for step in range(1, config.steps + 1):
        step_rng = make_rng(derive_seed(config.seed, step))
        pair = dataset[int(step_rng.integers(len(dataset)))]
        lm_loss, _, grads = _pair_step(student, None, pair.prompt, pair.response, 0.0)
        _check_finite(lm_loss, None, step, config)
        apply_update(student, grads, config.learning_rate)
        entry = TrainStep(step=step, lm_loss=lm_loss)
        if eval_fn is not None and eval_every > 0 and step % eval_every == 0:
            entry.eval_alpha = float(eval_fn(student))
        log.append(entry)
    return log


def train_online(
    student: LanguageModel,
    teacher: LanguageModel,
    fixed_dataset: Dataset,
    config: KDConfig,
    eval_fn=None,
    eval_every: int = 0,
) -> TrainingLog:
    """Mixed fixed/on-policy distillation with a forward KL term."""
    if not fixed_dataset:
        raise DomainError("fixed_dataset is empty")
    log: TrainingLog = []
    gen_cfg = GenerationConfig(tau=config.tau_gen, max_new_tokens=config.gen_max_len)
    for step in range(1, config.steps + 1):
        step_rng = make_rng(derive_seed(config.seed, step))
        pair = fixed_dataset[int(step_rng.integers(len(fixed_dataset)))]
        mu = step_rng.random()
        if mu <= config.on_policy_frac:
            response = generate_autoregressive(student, pair.prompt, gen_cfg, step_rng)
        else:
            response = pair.response
        lm_loss, fkl, grads = _pair_step(
            student, teacher, pair.prompt, response, config.loss_ratio
        )
        _check_finite(lm_loss, fkl, step, config)
        apply_update(student, grads, config.learning_rate)
        entry = TrainStep(step=step, lm_loss=lm_loss, fkl=fkl)
        if eval_fn is not None and eval_every > 0 and step % eval_every == 0:
            entry.eval_alpha = float(eval_fn(student))
        log.append(entry)
    return log


def heldout_fkl(teacher: LanguageModel, student: LanguageModel, contexts) -> float:
    """Mean forward KL teacher -> student over a fixed context set."""
    p_t = softmax_rows_with_temperature(teacher.forward_batch(contexts), 1.0)
    p_s = softmax_rows_with_temperature(student.forward_batch(contexts), 1.0)
    return float(np.mean([fkl_value(p_t[i], p_s[i]) for i in range(len(contexts))]))


def save_dataset(dataset: Dataset, path) -> None:
    """One pair per line: tau=<t> src=<source> prompt=<ids> response=<ids>."""
    with open(path, "w") as fh:
        for pair in dataset:
            fh.write(
                f"tau={pair.tau_gen!r}"
                f" src={pair.source}"
                f" prompt={','.join(str(t) for t in pair.prompt)}"
                f" response={','.join(str(t) for t in pair.response)}\n"
            )


def load_dataset(path) -> Dataset:
    data: Dataset = []
    with open(path) as fh:
        for lineno, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            fields = dict(part.split("=", 1) for part in line.split())
            if set(fields) != {"tau", "src", "prompt", "response"}:
                raise DomainError(f"dataset line {lineno}: unexpected fields")
            prompt = [int(t) for t in fields["prompt"].split(",") if t != ""]
            response = [int(t) for t in fields["response"].split(",") if t != ""]
            data.append(Pair(prompt, response, fields["src"], float(fields["tau"])))
    return data


def train_log_rows(log: TrainingLog) -> list[str]:
    """CSV rows (with header) for a training log."""
    rows = ["step,lm_loss,fkl"]
    for entry in log:
        fkl = "" if entry.fkl is None else f"{entry.fkl:.6f}"
        rows.append(f"{entry.step},{entry.lm_loss:.6f},{fkl}")
    return rows
