"""Temperature-scaled softmax and seeded categorical sampling.

Logits become probabilities through :func:`softmax_with_temperature`,
or :func:`softmax_rows_with_temperature` for a 2-D batch, whose rows
are bit-equal to the 1-D calls.

A categorical draw has two entry points: :func:`sample` takes any
distribution and computes its CDF, and :func:`draw` takes a row whose
CDF is already computed (:func:`cdf_row`), such as those a
:class:`RowSampler` caches for each context it is asked for. ``sample``
calls ``draw``, so for the same distribution both give the same token,
consume exactly one uniform, and raise the same :class:`NumericError`
before drawing. Samplers serve only
:func:`~speclab.specdec.generate_autoregressive`, the one-prompt decoder
of dataset generation, held-out rollouts and on-policy training. The
lockstep decoder reads :class:`~speclab.specdec.RowTable` rows, and
teacher pretraining does the same search inline on the chain's own CDF
table.

A sampler keys its rows by the model's ``context_key``: the window of
tokens the model reads, as a plain tuple that is not validated. The
tokens are validated on a miss, by the ``model.forward`` that computes
the row, so a row is stored only under a key that has passed that check
and a context with a bad token misses every time and raises the model's
:class:`DomainError`.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right

import numpy as np

from .errors import DomainError, NumericError

# Stable 64-bit stream tags used when deriving child seeds. Small ints,
# kept distinct so unrelated streams never collide.
STREAM_BASELINE = 1
STREAM_EVAL = 4
STREAM_HELDOUT = 5

_MASK64 = (1 << 64) - 1

# Rows one RowSampler, or one RowTable of the lockstep decoder, keeps:
# above the canonical target's 1,024 contexts, and at about 0.6 KB a row
# (vocabulary 32) some 2.5 MB each.
MAX_CACHED_ROWS = 4096


def make_rng(seed: int) -> np.random.Generator:
    """Seeded generator with a platform-stable draw sequence."""
    return np.random.Generator(np.random.PCG64(int(seed) & _MASK64))


def derive_seed(base: int, *parts: int) -> int:
    """Deterministically derive a child seed from a base seed and indices.

    Uses numpy's SeedSequence entropy pooling, so distinct index tuples
    give statistically independent streams and the mapping is identical
    on every platform.
    """
    entropy = [int(base) & _MASK64] + [int(p) & _MASK64 for p in parts]
    ss = np.random.SeedSequence(entropy)
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def softmax_with_temperature(logits: np.ndarray, tau: float) -> np.ndarray:
    """Probabilities exp(l_i / tau) / sum_j exp(l_j / tau).

    tau == 0 is the greedy limit: a one-hot distribution on the argmax,
    ties broken toward the lowest token id. Subtracts the max before
    exponentiating so large logits never overflow.
    """
    if tau < 0:
        raise DomainError(f"temperature must be >= 0, got {tau}")
    if tau == 0:
        out = np.zeros(len(logits))
        out[int(np.argmax(logits))] = 1.0
        return out
    # In place, through the ufunc reductions that .max() and .sum() wrap:
    # bit-equal to the out-of-place form.
    z = logits / tau
    z -= np.maximum.reduce(z)
    np.exp(z, out=z)
    z /= np.add.reduce(z)
    return z


def softmax_rows_with_temperature(logits: np.ndarray, tau: float) -> np.ndarray:
    """Row-wise version of :func:`softmax_with_temperature` for a 2-D batch."""
    if tau < 0:
        raise DomainError(f"temperature must be >= 0, got {tau}")
    if tau == 0:
        out = np.zeros_like(logits, dtype=float)
        out[np.arange(logits.shape[0]), np.argmax(logits, axis=1)] = 1.0
        return out
    z = logits / tau
    z -= z.max(axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    return z


def sample(dist: np.ndarray, rng: np.random.Generator) -> int:
    """One categorical draw by inverse CDF; consumes exactly one uniform.

    The returned token always has positive probability under ``dist``.
    Raises :class:`NumericError` unless the entries sum to 1 within
    1e-9; NaN and infinity propagate into that total. An empty
    distribution raises it too.
    """
    row = cdf_row(np.asarray(dist, dtype=float))
    if not row[1]:
        raise NumericError("cannot sample: empty distribution")
    return draw(row, rng)


def cdf_row(probs: np.ndarray) -> tuple:
    """The ``(probs, cdf)`` pair :func:`draw` reads, for a float array.

    ``cdf`` is ``np.cumsum(probs)`` as an ``array('d')``, which
    ``bisect_right`` searches without numpy's per-call overhead.
    """
    return probs, array("d", probs.cumsum().tobytes())


class RowCache(dict):
    """Rows by key, storing at most :data:`MAX_CACHED_ROWS` of them."""

    def keep(self, key, row):
        """Store ``row`` under ``key`` unless the cache is full; return it."""
        if len(self) < MAX_CACHED_ROWS:
            self[key] = row
        return row


class RowSampler:
    """Tau-scaled next-token rows of one model, one per visited context.

    :meth:`row` returns the :func:`cdf_row` of ``softmax_with_temperature(
    model.forward(context), tau)``. Rows are keyed by ``model.context_key``,
    the unvalidated window of the tokens the model reads, so a hit costs
    one window and one dict lookup. Only a miss calls ``model.forward``,
    which validates the tokens: a row is stored only under a key that
    passed, and a key holding a bad token misses and raises every time.

    The first :data:`MAX_CACHED_ROWS` keys to be visited keep their row,
    and later visits return it; a context met after that computes its row
    on every visit. The cache pays when many draws share few contexts, as
    in the canonical order-2 target (1,024 rows) and order-1 draft (32),
    where the cap never binds. A model with many more reachable contexts
    (an order-3 teacher or a tiny-neural draft with three context tokens,
    32,768 each) visits most of them once or twice, and the cap keeps its
    memory bounded instead of growing with every new context.

    The model must not change while a sampler is in use, so build one per
    (read-only model, tau) and keep it only as long as that holds.
    """

    def __init__(self, model, tau: float):
        self.model = model
        self.tau = tau
        self._rows = RowCache()

    def row(self, context):
        """Row after ``context``."""
        key = self.model.context_key(context)
        row = self._rows.get(key)
        if row is None:
            probs = softmax_with_temperature(self.model.forward(context), self.tau)
            row = self._rows.keep(key, cdf_row(probs))
        return row


def draw(row, rng: np.random.Generator) -> int:
    """:func:`sample` on a ``(probs, cdf)`` pair whose CDF is computed.

    ``cdf`` is the ``np.cumsum`` of ``probs`` as an ``array('d')``, as
    :func:`cdf_row` builds it. The total is checked here, not when
    a row is cached, so a bad row raises before any uniform is used.

    Teacher pretraining repeats this search inline on chain rows whose
    totals it checks once per row.
    """
    probs, cdf = row
    total = cdf[-1]
    if not abs(total - 1.0) <= 1e-9:
        raise NumericError(f"cannot sample: distribution total is {total}, not 1")
    idx = bisect_right(cdf, rng.random())
    # The CDF may end just below 1 in floating point: clamp, then step
    # back over zero-probability tokens. An unclamped index has
    # cdf[idx] > cdf[idx - 1], so probs[idx] > 0 there.
    if idx >= len(cdf):
        idx = len(cdf) - 1
        while idx > 0 and probs[idx] <= 0.0:
            idx -= 1
    return idx
