"""Temperature-scaled softmax and seeded categorical sampling.

Every piece of code in the package that turns logits into probabilities
goes through :func:`softmax_with_temperature`; every categorical draw
goes through :func:`sample`. Keeping a single implementation of each is
what makes the determinism and losslessness guarantees checkable.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, NumericError

# Stable 64-bit stream tags used when deriving child seeds. Small ints,
# kept distinct so unrelated streams never collide.
STREAM_BASELINE = 1
STREAM_FIXED_DATA = 2
STREAM_KD = 3
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
    z = logits / tau
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def softmax_rows_with_temperature(logits: np.ndarray, tau: float) -> np.ndarray:
    """Row-wise version of :func:`softmax_with_temperature` for a 2-D batch."""
    if tau < 0:
        raise DomainError(f"temperature must be >= 0, got {tau}")
    if tau == 0:
        out = np.zeros_like(logits, dtype=float)
        out[np.arange(logits.shape[0]), np.argmax(logits, axis=1)] = 1.0
        return out
    z = logits / tau
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def sample(dist: np.ndarray, rng: np.random.Generator) -> int:
    """One categorical draw by inverse CDF; consumes exactly one uniform.

    The returned token always has positive probability under ``dist``.
    Raises :class:`NumericError` unless the entries sum to 1 within
    1e-9; NaN and infinity propagate into that total. An empty
    distribution raises it too.
    """
    cdf = np.cumsum(dist)
    try:
        total = cdf[-1]
    except IndexError:
        raise NumericError("cannot sample: empty distribution") from None
    if not abs(total - 1.0) <= 1e-9:
        raise NumericError(f"cannot sample: distribution total is {total}, not 1")
    u = rng.random()
    idx = int(np.searchsorted(cdf, u, side="right"))
    if idx >= len(dist):
        idx = len(dist) - 1
    # Guard against landing past the last positive entry when the CDF
    # sums to slightly less than 1 in floating point.
    while idx > 0 and dist[idx] <= 0.0:
        idx -= 1
    return idx
