"""Small trainable language models with hand-derived gradients.

Two families share one interface (``forward`` over a token context,
plus gradient and update helpers):

* :class:`NGramLogitLM` keeps one logit row per length-n context in a
  dense table. Rows start at zero, so unseen contexts score uniform.
* :class:`TinyNeuralLM` is a one-hidden-layer MLP over concatenated
  token embeddings with tanh activation.

Gradients are computed analytically, by one batched kernel per family:
``_forward_positions`` over every position of a token sequence, then
per-position logit-gradient rows taken back to the parameters. Training
runs it on whole responses: a tiny-neural model's ``_backprop_parts``
returns the gradient bundle, and an n-gram model's ``_add_parts`` adds
the rows into a table-shaped buffer that the trainer keeps.
:func:`ce_gradient` and :func:`fkl_gradient` are its one-position views,
through ``_backprop_parts``. ``tests/`` check these against central
finite differences and against per-position formulas written out by hand
(``tests/oracles.py``), so the routes stay independent.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DomainError, NumericError
from .files import write_atomic
from .sampling import make_rng

FAMILY_NGRAM = "ngram-logit"
FAMILY_NEURAL = "tiny-neural"

CHECKPOINT_FORMAT = "speclab-model"
CHECKPOINT_VERSION = 1

# Probability floor used when evaluating log(student) inside the forward
# KL divergence; keeps the loss finite when the student starves a token.
FKL_PROB_FLOOR = 1e-12

# Gradients are plain dicts: ngram models map context-row index -> row
# gradient, neural models map parameter name -> dense gradient array.
GradientBundle = dict


@dataclass(frozen=True)
class Vocab:
    """Token inventory with distinguished begin and end markers."""

    size: int
    bos_id: int
    eos_id: int

    def __post_init__(self):
        if self.size < 2:
            raise DomainError(f"vocab size must be >= 2, got {self.size}")
        for name, tid in (("bos_id", self.bos_id), ("eos_id", self.eos_id)):
            if not 0 <= tid < self.size:
                raise DomainError(f"{name}={tid} outside vocab of size {self.size}")
        if self.bos_id == self.eos_id:
            raise DomainError("bos_id and eos_id must differ")


def _check_token(tid: int, size: int) -> int:
    t = int(tid)
    if not 0 <= t < size:
        raise DomainError(f"token id {t} outside vocab of size {size}")
    return t


def _window_tokens(context, width: int, vocab: Vocab) -> list[int]:
    """The last ``width`` tokens of ``context``, left-padded with bos, each validated in order."""
    end = len(context)
    window = context[end - width : end] if end >= width else (
        [vocab.bos_id] * (width - end) + list(context))
    return [_check_token(t, vocab.size) for t in window]


def _window_index(context, width: int, vocab: Vocab) -> int:
    """Index of the window after ``context``: its :func:`_window_tokens`, encoded.

    The encoding is base ``vocab.size`` with the most recent token last.
    """
    idx = 0
    for t in _window_tokens(context, width, vocab):
        idx = idx * vocab.size + t
    return idx


def _padded_tokens(tokens, start: int, n: int, vocab: Vocab) -> np.ndarray:
    """The tokens that the windows after ``tokens[:i]``, ``start <= i < len(tokens)``, read.

    Bos-padded on the left, so that ``padded[i - start : i - start + n]`` is
    the :func:`_window_tokens` of ``tokens[:i]``. They are validated in
    sequence order.
    """
    lo = max(0, start - n)
    read = [vocab.bos_id] * (n - start + lo) + list(tokens[lo : len(tokens) - 1])
    try:
        padded = np.array(read, dtype=np.int64)
    except OverflowError:  # a token past int64, so outside the vocab: name the first bad one
        padded = np.array([_check_token(t, vocab.size) for t in read], dtype=np.int64)
    bad = (padded < 0) | (padded >= vocab.size)
    if bad.any():
        _check_token(padded[bad.argmax()], vocab.size)
    return padded


def _window_indices(tokens, start: int, width: int, vocab: Vocab) -> np.ndarray:
    """Indices of the windows after ``tokens[:i]``, ``start <= i < len(tokens)``.

    Each equals :func:`_window_index` of its prefix. The indices come from
    one sliding window over the padded tokens, and the tokens those
    windows read are validated once, in sequence order.
    """
    padded = _padded_tokens(tokens, start, width, vocab)
    count = len(tokens) - start
    idx = padded[:count]
    for k in range(1, width):
        idx = idx * vocab.size + padded[k : k + count]
    return idx


@dataclass
class NGramLogitLM:
    """Logit-table model conditioning on the last ``order`` tokens.

    The table is dense with one row per possible context (``size**order``
    rows); contexts shorter than ``order`` are left-padded with bos.
    A row that has never been updated is all zeros, i.e. uniform after
    the softmax.
    """

    vocab: Vocab
    order: int
    table: np.ndarray

    @classmethod
    def create(cls, vocab: Vocab, order: int, *, init_scale: float = 0.0,
               init_seed: int = 0) -> "NGramLogitLM":
        """Fresh model; zero (uniform) rows unless ``init_scale`` > 0.

        A positive ``init_scale`` fills the table with seeded Gaussian
        logits of that standard deviation, giving an untrained model
        with arbitrary peaked preferences rather than a uniform one.
        """
        if order < 1:
            raise DomainError(f"order must be >= 1, got {order}")
        if not (math.isfinite(init_scale) and init_scale >= 0):
            raise DomainError(f"init_scale must be finite and >= 0, got {init_scale}")
        shape = (vocab.size**order, vocab.size)
        if init_scale > 0:
            table = init_scale * make_rng(init_seed).standard_normal(shape)
        else:
            table = np.zeros(shape)
        return cls(vocab=vocab, order=order, table=table)

    @property
    def family(self) -> str:
        return FAMILY_NGRAM

    @property
    def width(self) -> int:
        """Tokens of context that the logits read."""
        return self.order

    def context_index(self, context) -> int:
        """Row index for a context, validating every token id."""
        return _window_index(context, self.order, self.vocab)

    def forward(self, context) -> np.ndarray:
        """Next-token logits after ``context``. Pure; returns a copy."""
        return self.table[self.context_index(context)].copy()

    def forward_batch(self, contexts) -> np.ndarray:
        """Stacked logits for several contexts in one table gather."""
        idx = np.fromiter(
            (self.context_index(c) for c in contexts), dtype=np.int64, count=len(contexts)
        )
        return self.table[idx]

    def _forward_positions(self, tokens, start: int):
        """Logits after each ``tokens[:i]``, ``start <= i < len(tokens)``, and their rows."""
        rows = _window_indices(tokens, start, self.order, self.vocab)
        return self.table[rows], rows

    def _add_parts(self, grads, rows, positions, dlogits, scales) -> np.ndarray:
        """Add ``scales[k] * dlogits[k]`` into ``grads[rows[positions[k]]]``, k in order.

        ``grads`` is shaped like the table. A row's parts are added in part
        order onto what it holds, as :func:`accumulate_gradients` adds them
        onto a row first keyed at +0.0. Returns the row of each part.
        """
        at = rows[positions]
        np.add.at(grads, at, scales[:, None] * dlogits)
        return at

    def _backprop_parts(self, rows, positions, dlogits, scales) -> GradientBundle:
        """The bundle of one part, as :func:`ce_gradient` and :func:`fkl_gradient`
        take it: ``scales[0] * dlogits[0]`` added onto +0.0 in row
        ``rows[positions[0]]``, as :meth:`_add_parts` adds it into a zeroed row.
        """
        (row,) = rows[positions]
        return {int(row): 0.0 + scales[0] * dlogits[0]}


@dataclass
class TinyNeuralLM:
    """One-hidden-layer MLP over ``context_size`` concatenated embeddings.

    forward: logits = tanh(concat(emb[window]) @ w1 + b1) @ w2 + b2
    """

    vocab: Vocab
    context_size: int
    d_emb: int
    d_hid: int
    embedding: np.ndarray
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    PARAM_NAMES = ("embedding", "w1", "b1", "w2", "b2")

    @classmethod
    def create(
        cls,
        vocab: Vocab,
        context_size: int = 3,
        d_emb: int = 16,
        d_hid: int = 64,
        seed: int = 0,
    ) -> "TinyNeuralLM":
        for name, size in (("context_size", context_size), ("d_emb", d_emb), ("d_hid", d_hid)):
            if size < 1:
                raise DomainError(f"{name} must be >= 1, got {size}")
        rng = make_rng(seed)
        # Weights drawn uniform in [-0.1, 0.1]; biases start at zero.
        emb = rng.uniform(-0.1, 0.1, size=(vocab.size, d_emb))
        w1 = rng.uniform(-0.1, 0.1, size=(context_size * d_emb, d_hid))
        w2 = rng.uniform(-0.1, 0.1, size=(d_hid, vocab.size))
        return cls(
            vocab=vocab,
            context_size=context_size,
            d_emb=d_emb,
            d_hid=d_hid,
            embedding=emb,
            w1=w1,
            b1=np.zeros(d_hid),
            w2=w2,
            b2=np.zeros(vocab.size),
        )

    @property
    def family(self) -> str:
        return FAMILY_NEURAL

    @property
    def width(self) -> int:
        """Tokens of context that the logits read."""
        return self.context_size

    def _window(self, context) -> list[int]:
        return _window_tokens(context, self.context_size, self.vocab)

    def forward(self, context) -> np.ndarray:
        """Next-token logits after ``context``. Pure; returns a fresh array."""
        x = self.embedding[self._window(context)].ravel()
        h = np.tanh(x @ self.w1 + self.b1)
        return h @ self.w2 + self.b2

    def forward_batch(self, contexts) -> np.ndarray:
        """Stacked logits for several contexts, each row bit-equal to :meth:`forward`."""
        windows = np.array([self._window(c) for c in contexts], dtype=np.int64)
        logits, _ = self._forward_windows(windows)
        return logits

    def _forward_windows(self, windows: np.ndarray):
        """Logits of each window row, and the activations that backprop reads.

        A 2-D ``x @ w1`` runs as one BLAS matrix product, whose sums may
        round differently from the per-context vector product. Each row
        here is its own vector product instead, so it is bit-equal to
        :meth:`forward` of a context with that window.
        """
        x = self.embedding[windows].reshape(len(windows), self.context_size * self.d_emb)
        h = np.tanh((x[:, None, :] @ self.w1)[:, 0] + self.b1)
        logits = (h[:, None, :] @ self.w2)[:, 0] + self.b2
        return logits, (windows, x, h)

    def _forward_positions(self, tokens, start: int):
        """Logits after each ``tokens[:i]``, ``start <= i < len(tokens)``, and their activations."""
        padded = _padded_tokens(tokens, start, self.context_size, self.vocab)
        return self._forward_windows(
            padded[np.arange(len(tokens) - start)[:, None] + np.arange(self.context_size)])

    def _backprop_parts(self, cache, positions, dlogits, scales) -> GradientBundle:
        """The sum over k of ``scales[k]`` times the gradients of a loss whose
        gradient w.r.t. the logits of window ``positions[k]`` of ``cache`` is
        ``dlogits[k]``.

        Bit for bit the bundle that :func:`accumulate_gradients` builds from
        those parts in order k: each part is scaled, then the parts are
        added left to right, every matrix-vector product is a vector
        product of its own, and the embedding rows sum each part's window
        tokens from zero, in window order, before the part is scaled. When
        every scale has the same bits the parts are multiplied by one float.
        """
        windows, x, h = cache
        windows, x, h = windows[positions], x[positions], h[positions]
        dpre = (self.w2 @ dlogits[:, :, None])[:, :, 0] * (1.0 - h * h)
        dx = (self.w1 @ dpre[:, :, None])[:, :, 0].reshape(len(positions), self.context_size,
                                                              self.d_emb)
        tokens, slots = np.unique(windows, return_inverse=True)
        demb_parts = np.zeros((len(positions), len(tokens), self.d_emb))
        np.add.at(demb_parts, (np.arange(len(positions))[:, None], slots.reshape(windows.shape)),
                  dx)
        scales = _one_scale(scales)
        demb = np.zeros_like(self.embedding)
        demb[tokens] = _scaled_sum(demb_parts, scales)
        return {"embedding": demb, "w1": _scaled_outer_sum(x, dpre, scales),
                "b1": _scaled_sum(dpre, scales), "w2": _scaled_outer_sum(h, dlogits, scales),
                "b2": _scaled_sum(dlogits, scales)}


LanguageModel = NGramLogitLM | TinyNeuralLM


def _stable_log_softmax_rows(logits: np.ndarray):
    """Log-softmax over the last axis, and the log-sum-exp it subtracted.

    Each row of a batch gets the same bits as that row alone.
    """
    m = logits.max(axis=-1, keepdims=True)
    lse = m + np.log(np.exp(logits - m).sum(axis=-1, keepdims=True))
    return logits - lse, lse


def ce_gradient(model: LanguageModel, context, target: int):
    """Cross-entropy loss -log p(target | context) and its gradients.

    Returns ``(loss, gradients)`` where the gradient of the loss with
    respect to the logit row is softmax(logits) - onehot(target). It is
    one position of the batched kernel that training runs. The target is
    validated before the context.
    """
    target = _check_token(target, model.vocab.size)
    context = list(context)
    logits, cache = model._forward_positions(context + [target], len(context))
    log_p, _ = _stable_log_softmax_rows(logits)
    g = np.exp(log_p)
    g[0, target] -= 1.0
    return float(-log_p[0, target]), model._backprop_parts(cache, [0], g, np.ones(1))


def _ce_step_rows(model: NGramLogitLM, rows, targets, lrs) -> np.ndarray:
    """One CE SGD step on each of several distinct n-gram table rows.

    Row ``rows[i]`` moves toward ``targets[i]`` at rate ``lrs[i]``, bit
    for bit as :func:`ce_gradient` plus :func:`apply_update` would move
    it. Rows whose gradient is not finite are left unchanged; returns
    their mask.
    """
    logits = model.table[rows]
    log_p, lse = _stable_log_softmax_rows(logits)
    g = np.exp(log_p)
    g[np.arange(len(rows)), targets] -= 1.0
    # lse >= every logit, so the gradient is finite exactly where lse is.
    finite = np.isfinite(lse[:, 0])
    if not finite.all():
        rows, logits, g, lrs = rows[finite], logits[finite], g[finite], lrs[finite]
    model.table[rows] = logits - lrs[:, None] * g
    return ~finite


def fkl_value(teacher_probs: np.ndarray, student_probs: np.ndarray) -> float:
    """Forward KL divergence sum p_t * log(p_t / p_s).

    Terms with p_t == 0 contribute zero; the student probability is
    floored at ``FKL_PROB_FLOOR`` inside the log so the value is finite.
    """
    clamped = np.maximum(student_probs, FKL_PROB_FLOOR)
    active = teacher_probs > 0
    pt = teacher_probs[active]
    return float(np.sum(pt * (np.log(pt) - np.log(clamped[active]))))


def _fkl_logit_grads(teacher_probs: np.ndarray, student_probs: np.ndarray) -> np.ndarray:
    """Exact gradient of each row's floored divergence w.r.t. the student logits.

    Where no flooring is active a row reduces to student - teacher.
    """
    unfloored = (student_probs > FKL_PROB_FLOOR).astype(float)
    weight = (teacher_probs * unfloored).sum(axis=1, keepdims=True)
    return student_probs * weight - teacher_probs * unfloored


def fkl_gradient(model: LanguageModel, context, teacher_probs: np.ndarray):
    """Forward KL against a fixed teacher distribution, with gradients.

    ``teacher_probs`` is the teacher's next-token distribution for the
    same context. Returns ``(divergence, gradients)``, from one position
    of the batched kernel that training runs.
    """
    context = list(context)
    # No window reads the last token, so any token closes the sequence.
    logits, cache = model._forward_positions(context + [model.vocab.bos_id], len(context))
    log_p, _ = _stable_log_softmax_rows(logits)
    p_s = np.exp(log_p)
    dlogits = _fkl_logit_grads(teacher_probs[None], p_s)
    return fkl_value(teacher_probs, p_s[0]), model._backprop_parts(cache, [0], dlogits, np.ones(1))


def _sgd_rows(model: NGramLogitLM, rows: np.ndarray, g: np.ndarray, lr: float) -> None:
    """In-place SGD step on n-gram table rows: ``table[rows] -= lr * g``.

    A non-finite row of ``g`` raises :class:`NumericError` naming the
    first such entry of ``rows``, before anything moves.
    """
    finite = np.isfinite(g).all(axis=1)
    if not finite.all():
        raise NumericError(f"non-finite gradient for context row {rows[finite.argmin()]}")
    model.table[rows] -= lr * g


def apply_update(model: LanguageModel, grads: GradientBundle, lr: float) -> LanguageModel:
    """In-place SGD step: parameter <- parameter - lr * gradient.

    A non-finite gradient raises :class:`NumericError` naming the first
    such n-gram row or parameter in ``grads`` order, before anything moves.
    """
    if isinstance(model, NGramLogitLM):
        if grads:
            _sgd_rows(model, np.fromiter(grads, dtype=np.int64, count=len(grads)),
                      np.array(list(grads.values())), lr)
        return model
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for parameter '{name}'")
    for name, g in grads.items():
        param = getattr(model, name)
        param -= lr * g
    return model


def accumulate_gradients(total: GradientBundle, part: GradientBundle, scale: float = 1.0):
    """Add ``scale * part`` into ``total`` (both from the same family)."""
    for key, g in part.items():
        if key in total:
            total[key] = total[key] + scale * g
        else:
            total[key] = scale * g
    return total


# Parts whose outer products one buffer of _scaled_outer_sum holds.
_OUTER_CHUNK = 16


def _sum_parts(parts: np.ndarray) -> np.ndarray:
    """``parts[0] + parts[1] + ...``, added left to right as
    :func:`accumulate_gradients` adds them."""
    if parts[0].size == 1:
        # Over parts of one value np.add.reduce may sum pairwise; cumsum never does.
        return np.cumsum(parts, axis=0)[-1]
    # From -0.0, not the identity 0.0, which would turn a first part's -0.0 into 0.0.
    return np.add.reduce(parts, axis=0, initial=-0.0)


def _one_scale(scales: np.ndarray):
    """``scales`` as one Python float when every scale has the same bits, as
    offline CE's ``1/n`` has, else unchanged. Each element meets the same
    multiply either way; one float saves the broadcast."""
    bits = scales.view(np.uint64)
    return float(scales[0]) if (bits == bits[0]).all() else scales


def _scaled_sum(parts: np.ndarray, scales) -> np.ndarray:
    """:func:`_sum_parts` of ``scales[k] * parts[k]``, or of ``scales * parts[k]``
    for one float."""
    if not isinstance(scales, float):
        scales = scales.reshape((-1,) + (1,) * (parts.ndim - 1))
    return _sum_parts(scales * parts)


def _scaled_outer_sum(a: np.ndarray, b: np.ndarray, scales) -> np.ndarray:
    """:func:`_scaled_sum` of the parts ``np.outer(a[k], b[k])``.

    The outer products are built :data:`_OUTER_CHUNK` at a time in one
    buffer whose first row carries the running sum, so memory does not
    grow with the number of parts.
    """
    count = len(a)
    buf = np.empty((min(count, _OUTER_CHUNK) + 1, a.shape[1], b.shape[1]))
    total = None
    for lo in range(0, count, _OUTER_CHUNK):
        hi = min(lo + _OUTER_CHUNK, count)
        parts = buf[1 : 1 + hi - lo]
        np.multiply(a[lo:hi, :, None], b[lo:hi, None, :], out=parts)
        parts *= scales if isinstance(scales, float) else scales[lo:hi, None, None]
        if total is None:
            total = _sum_parts(parts)
        else:
            buf[0] = total
            total = _sum_parts(buf[: 1 + hi - lo])
    return total


def _encode_array(arr: np.ndarray) -> dict:
    a = np.ascontiguousarray(arr)
    return {
        "dtype": a.dtype.str,
        "shape": list(a.shape),
        "data": base64.b64encode(a.tobytes()).decode("ascii"),
    }


# Base64 characters decoded at a time: a multiple of 4, so that only the
# last slice can hold padding.
_B64_SLICE = 1 << 16


def _decode_array(obj: dict) -> np.ndarray:
    """The array that :func:`_encode_array` wrote, decoded once into new memory.

    The base64 text is decoded a slice at a time straight into the
    array, so no decoded copy of the whole text is ever held.
    """
    text, shape, dtype = obj["data"], obj["shape"], np.dtype(obj["dtype"])
    nbytes = len(text) // 4 * 3 - text[-2:].count("=")
    if nbytes != math.prod(shape) * dtype.itemsize:
        raise ValueError(f"{nbytes} data bytes do not fill shape {shape} of {dtype}")
    arr = np.empty(shape, dtype)
    flat = arr.reshape(-1).view(np.uint8)
    pos = 0
    for start in range(0, len(text), _B64_SLICE):
        part = np.frombuffer(base64.b64decode(text[start:start + _B64_SLICE]), np.uint8)
        flat[pos:pos + len(part)] = part
        pos += len(part)
    if pos != nbytes:
        raise ValueError(f"base64 text decodes to {pos} bytes, not {nbytes}")
    return arr


def _field(doc, path, *keys):
    """``doc[keys[0]][keys[1]]...``; a missing key raises :class:`ConfigError` naming it."""
    for i, key in enumerate(keys):
        if not isinstance(doc, dict) or key not in doc:
            raise ConfigError(f"checkpoint {path} has no {'.'.join(keys[: i + 1])}")
        doc = doc[key]
    return doc


def checkpoint_bytes(model: LanguageModel) -> bytes:
    """Serialize a model to a deterministic, bit-exact byte string."""
    if isinstance(model, NGramLogitLM):
        hyper = {"order": model.order}
        params = {"table": _encode_array(model.table)}
    else:
        hyper = {
            "context_size": model.context_size,
            "d_emb": model.d_emb,
            "d_hid": model.d_hid,
        }
        params = {n: _encode_array(getattr(model, n)) for n in TinyNeuralLM.PARAM_NAMES}
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "family": model.family,
        "vocab": {
            "size": model.vocab.size,
            "bos_id": model.vocab.bos_id,
            "eos_id": model.vocab.eos_id,
        },
        "hyper": hyper,
        "params": params,
    }
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode("ascii")


def save_checkpoint(model: LanguageModel, path) -> None:
    write_atomic(path, checkpoint_bytes(model))


def load_checkpoint(path) -> LanguageModel:
    """Load a model saved by :func:`save_checkpoint`; bit-exact round trip.

    Raises :class:`ConfigError` when the file is not a checkpoint object,
    lacks a key (named in the message), holds a value of the wrong type,
    or a parameter's shape does not match the hyperparameters and
    vocabulary, or a parameter is not finite.
    """
    try:
        doc = json.loads(Path(path).read_bytes())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"unreadable checkpoint {path}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise ConfigError(f"not a model checkpoint: {path}")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise ConfigError(f"unsupported checkpoint version {doc.get('version')}")
    try:
        return _model_from_doc(doc, path)
    except (ConfigError, DomainError):
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed checkpoint {path}: {exc}") from exc


def _model_from_doc(doc: dict, path) -> LanguageModel:
    vocab = Vocab(**{k: _field(doc, path, "vocab", k) for k in ("size", "bos_id", "eos_id")})
    family = _field(doc, path, "family")
    size = vocab.size
    if family == FAMILY_NGRAM:
        order = int(_field(doc, path, "hyper", "order"))
        shapes = {"table": (size**order, size)}
    elif family == FAMILY_NEURAL:
        context_size, d_emb, d_hid = (int(_field(doc, path, "hyper", k))
                                      for k in ("context_size", "d_emb", "d_hid"))
        shapes = {"embedding": (size, d_emb), "w1": (context_size * d_emb, d_hid),
                  "b1": (d_hid,), "w2": (d_hid, size), "b2": (size,)}
    else:
        raise ConfigError(f"unknown model family '{family}'")
    params = {}
    for name, shape in shapes.items():
        arr = params[name] = _decode_array(
            {k: _field(doc, path, "params", name, k) for k in ("data", "dtype", "shape")})
        if arr.shape != shape:
            raise ConfigError(f"checkpoint {name} shape {arr.shape} != {shape}")
        if not np.isfinite(arr).all():
            raise ConfigError(f"checkpoint {name} has non-finite values")
    if family == FAMILY_NGRAM:
        return NGramLogitLM(vocab=vocab, order=order, **params)
    return TinyNeuralLM(vocab=vocab, context_size=context_size, d_emb=d_emb, d_hid=d_hid,
                        **params)
