"""Closed forms and reference formulas that only the tests call.

``src/speclab`` keeps one implementation of each computation: the
batched kernels that training and decoding run. The functions here are
independent routes to the same numbers, for the tests to compare with:

* the flat parameter layout that central finite differences perturb;
* the per-position CE and FKL gradients, each written out as one
  context's forward and backward pass;
* the law of the token emitted at one verified position, and its
  acceptance probability;
* a training step as the per-position loop of those gradients, and its
  update one row or parameter at a time;
* the row and CDF of one context, token-by-token sampling of responses
  and of masked prompts, and the two trainers as per-step loops that
  build each step's own ``make_rng(derive_seed(seed, step))``.
"""

import numpy as np

from speclab.distill import TrainStep
from speclab.errors import DomainError, NumericError
from speclab.lm import (
    FKL_PROB_FLOOR,
    NGramLogitLM,
    TinyNeuralLM,
    _check_token,
    _stable_log_softmax_rows,
    accumulate_gradients,
    apply_update,
    fkl_value,
)
from speclab.sampling import (
    derive_seed,
    make_rng,
    sample,
    softmax_with_temperature,
)
from speclab.specdec import GenerationConfig, _residual_rows


def parameter_vector(model) -> np.ndarray:
    """All parameters flattened into one vector (copy)."""
    if isinstance(model, NGramLogitLM):
        return model.table.ravel().copy()
    return np.concatenate([getattr(model, n).ravel() for n in TinyNeuralLM.PARAM_NAMES])


def set_parameter_vector(model, vec: np.ndarray):
    """Write a flat vector produced by :func:`parameter_vector` back."""
    if isinstance(model, NGramLogitLM):
        if vec.size != model.table.size:
            raise DomainError("parameter vector length mismatch")
        model.table[...] = vec.reshape(model.table.shape)
        return model
    offset = 0
    for name in TinyNeuralLM.PARAM_NAMES:
        param = getattr(model, name)
        part = vec[offset : offset + param.size]
        if part.size != param.size:
            raise DomainError("parameter vector length mismatch")
        param[...] = part.reshape(param.shape)
        offset += param.size
    if offset != vec.size:
        raise DomainError("parameter vector length mismatch")
    return model


def gradient_vector(model, grads) -> np.ndarray:
    """Gradients flattened into the :func:`parameter_vector` layout."""
    if isinstance(model, NGramLogitLM):
        flat = np.zeros(model.table.size)
        size = model.vocab.size
        for idx, g in grads.items():
            flat[idx * size : (idx + 1) * size] = g
        return flat
    parts = []
    for name in TinyNeuralLM.PARAM_NAMES:
        param = getattr(model, name)
        g = grads.get(name)
        parts.append(np.zeros(param.size) if g is None else np.asarray(g).ravel())
    return np.concatenate(parts)


def _forward(model, context):
    """Logits after ``context``, and what :func:`_backprop` reads."""
    if isinstance(model, NGramLogitLM):
        idx = model.context_index(context)
        return model.table[idx], idx
    window = model._window(context)
    x = model.embedding[window].ravel()
    h = np.tanh(x @ model.w1 + model.b1)
    return h @ model.w2 + model.b2, (window, x, h)


def _backprop(model, cache, dlogits: np.ndarray) -> dict:
    """Gradients of a scalar loss given its gradient w.r.t. the logits."""
    if isinstance(model, NGramLogitLM):
        return {cache: dlogits}
    window, x, h = cache
    dpre = (model.w2 @ dlogits) * (1.0 - h * h)
    dx = (model.w1 @ dpre).reshape(model.context_size, model.d_emb)
    demb = np.zeros_like(model.embedding)
    for i, t in enumerate(window):
        demb[t] += dx[i]
    return {"embedding": demb, "w1": np.outer(x, dpre), "b1": dpre,
            "w2": np.outer(h, dlogits), "b2": dlogits}


def reference_ce_gradient(model, context, target: int):
    """:func:`speclab.lm.ce_gradient` as one context's forward and backward pass."""
    target = _check_token(target, model.vocab.size)
    logits, cache = _forward(model, context)
    log_p, _ = _stable_log_softmax_rows(logits)
    loss = -log_p[target]
    g = np.exp(log_p)
    g[target] -= 1.0
    return float(loss), _backprop(model, cache, g)


def reference_fkl_gradient(model, context, teacher_probs: np.ndarray):
    """:func:`speclab.lm.fkl_gradient` as one context's forward and backward pass."""
    logits, cache = _forward(model, context)
    log_p, _ = _stable_log_softmax_rows(logits)
    p_s = np.exp(log_p)
    # Exact gradient of the floored divergence w.r.t. the student logits.
    unfloored = (p_s > FKL_PROB_FLOOR).astype(float)
    weight = float(np.sum(teacher_probs * unfloored))
    dlogits = p_s * weight - teacher_probs * unfloored
    return fkl_value(teacher_probs, p_s), _backprop(model, cache, dlogits)


def acceptance_probability(p: np.ndarray, q: np.ndarray) -> float:
    """Analytic per-position acceptance rate sum_x min(p(x), q(x))."""
    return float(np.minimum(p, q).sum())


def induced_distribution(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Marginal law of the token emitted at one verified position.

    The accepted mass min(p, q), plus the rejected mass times the row the
    decoder draws a correction from, :func:`speclab.specdec._residual_rows`.
    It equals p up to rounding: the losslessness identity.
    """
    overlap = np.minimum(p, q)
    return overlap + (1.0 - overlap.sum()) * _residual_rows(p[None], q[None])[0]


def reference_row(model, context, tau):
    """The ``(probs, cdf)`` row that generate_autoregressive draws from after ``context``."""
    probs = softmax_with_temperature(model.forward(context), tau)
    return probs, np.cumsum(probs)


def reference_generate_autoregressive(model, prompt, config, rng):
    """One ``model.forward``, softmax and :func:`~speclab.sampling.sample` per token."""
    eos = model.vocab.eos_id
    seq = list(prompt)
    out = []
    for _ in range(config.max_new_tokens):
        dist = softmax_with_temperature(model.forward(seq), config.tau)
        tok = sample(dist, rng)
        out.append(tok)
        seq.append(tok)
        if tok == eos:
            break
    return out


def reference_prompt(model, prompt_len, rng):
    """A prompt of content tokens, one ``model.forward``, softmax and sample() per token.

    The begin and end markers are masked out of each step's distribution
    and the rest renormalized; a step with no content mass is uniform
    over the content tokens.
    """
    vocab = model.vocab
    seq = []
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


def reference_pair_step(student, teacher, pair_prompt, response, loss_ratio):
    """The per-position loop that ``distill._pair_step`` batches, for either model family.

    Returns ``(lm_loss, fkl, grads)``, ``grads`` one gradient bundle.
    """
    grads: dict = {}
    n = len(response)
    lm_loss = 0.0
    fkl_sum = 0.0
    with_fkl = teacher is not None and loss_ratio > 0.0
    ctx = list(pair_prompt)
    if with_fkl:
        contexts = []
        tail = list(pair_prompt)
        for tok in response:
            contexts.append(list(tail))
            tail.append(tok)
        teacher_probs = softmax_with_temperature(teacher.forward_batch(contexts), 1.0)
    for i, tok in enumerate(response):
        loss, g = reference_ce_gradient(student, ctx, tok)
        lm_loss += loss
        accumulate_gradients(grads, g, 1.0 / n)
        if with_fkl:
            div, gf = reference_fkl_gradient(student, ctx, teacher_probs[i])
            fkl_sum += div
            accumulate_gradients(grads, gf, loss_ratio / n)
        ctx.append(tok)
    return lm_loss / n, (fkl_sum / n if with_fkl else None), grads


def reference_apply_update(model, grads, lr):
    """One row at a time, as apply_update's n-gram branch did.

    A tiny-neural model takes apply_update's own per-parameter branch.
    """
    if isinstance(model, TinyNeuralLM):
        return apply_update(model, grads, lr)
    for idx, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for context row {idx}")
        model.table[idx] -= lr * g
    return model


def reference_train_offline(student, dataset, config):
    """:func:`speclab.distill.train_offline` as a per-position loop, with one
    generator built per step."""
    log = []
    for step in range(1, config.steps + 1):
        step_rng = make_rng(derive_seed(config.seed, step))
        pair = dataset[int(step_rng.integers(len(dataset)))]
        lm_loss, _, grads = reference_pair_step(student, None, pair.prompt, pair.response, 0.0)
        reference_apply_update(student, grads, config.learning_rate)
        log.append(TrainStep(step=step, lm_loss=lm_loss))
    return log


def reference_train_online(student, teacher, fixed_dataset, config):
    """:func:`speclab.distill.train_online` as a per-position loop, with one
    generator built per step.

    An on-policy step samples its response token by token on that generator.
    """
    log = []
    gen_cfg = GenerationConfig(tau=config.tau_gen, max_new_tokens=config.gen_max_len)
    for step in range(1, config.steps + 1):
        step_rng = make_rng(derive_seed(config.seed, step))
        pair = fixed_dataset[int(step_rng.integers(len(fixed_dataset)))]
        if step_rng.random() <= config.on_policy_frac:
            response = reference_generate_autoregressive(student, pair.prompt, gen_cfg, step_rng)
        else:
            response = pair.response
        lm_loss, fkl, grads = reference_pair_step(
            student, teacher, pair.prompt, response, config.loss_ratio
        )
        reference_apply_update(student, grads, config.learning_rate)
        log.append(TrainStep(step=step, lm_loss=lm_loss, fkl=fkl))
    return log
