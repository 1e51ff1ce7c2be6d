"""Temperature-scaled softmax and seeded categorical sampling.

Logits become probabilities through :func:`softmax_with_temperature`,
or :func:`softmax_rows_with_temperature` for a 2-D batch, whose rows
are bit-equal to the 1-D calls.

A categorical draw has two entry points: :func:`sample` takes any
distribution and computes its CDF, and :func:`draw` takes a row whose
CDF is already computed (:func:`cdf_row`), such as the rows that
:func:`~speclab.specdec.generate_autoregressive` computes once per
context window it visits. ``sample`` calls ``draw``, so for the same
distribution both give the same token, consume exactly one uniform, and
raise the same :class:`NumericError` before drawing. The lockstep
decoder draws from :class:`~speclab.specdec.RowTable` rows by the same
inverse-CDF rule, and teacher pretraining does it inline on the chain's
own CDF table.
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


def draw(row, rng: np.random.Generator) -> int:
    """:func:`sample` on a ``(probs, cdf)`` pair whose CDF is computed.

    ``cdf`` is the ``np.cumsum`` of ``probs`` as an ``array('d')``, as
    :func:`cdf_row` builds it. The total is checked here, not when
    the row is built, so a bad row raises before any uniform is used.

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
