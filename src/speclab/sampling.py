"""Temperature-scaled softmax and seeded categorical sampling.

Logits become probabilities through :func:`softmax_with_temperature`,
one row or a batch of rows, each row bit-equal to its own call.

A categorical draw has one entry point, :func:`sample`: an inverse-CDF
search of one uniform. The lockstep decoder draws from
:class:`~speclab.specdec.RowTable` rows by the same rule, and
:func:`~speclab.specdec._table_rollouts` rolls out responses, held-out
contexts, teacher pretraining's samples and the prompt set with it.
Every draw checks its row's total by :func:`_sums_to_one` and raises
:func:`_check_total`'s :class:`NumericError` before reading a uniform.

:func:`make_rng` and :func:`derive_seed` define every random stream.
:func:`derive_seeds` and :class:`SeedBank` compute the same seeds and
uniforms for many streams at once, bit for bit, for decodes that give
each of thousands of streams its own generator. :func:`step_draws`
computes, with the same code, the first draws of the generator that
each training step builds.
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


# numpy's SeedSequence constants (pool of four 32-bit words) and PCG64's
# 128-bit LCG multiplier, as numpy documents and ships them.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1

# Uniforms a stream draws per refill: 0.5 KB a stream.
_UNIFORM_CHUNK = 64
# Streams a SeedBank refills per jump-ahead, which bounds its temporaries.
_REFILL_BLOCK = 64
# Training steps whose draws step_draws computes at once.
_STEP_BLOCK = 512
# Generator.random's scale of a 53-bit integer to a double in [0, 1).
_TO_DOUBLE = 1.0 / 9007199254740992.0


def _uint64s(values) -> np.ndarray:
    """``int(v) & _MASK64`` of each value, as ``derive_seed`` masks, in a uint64 array."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        return values.astype(np.uint64)  # two's complement: negatives wrap as masked
    arr = np.asarray(values, dtype=object)
    return np.array([int(v) & _MASK64 for v in arr.ravel()], dtype=np.uint64).reshape(arr.shape)


def _seed_pools(columns) -> np.ndarray:
    """SeedSequence pools of rows of 64-bit entropy values, one row per stream.

    ``columns`` holds one uint64 array per entropy value. numpy splits a
    value into 32-bit words, one word below 2^32 and two from there, and
    the mixing runs over the words; rows are mixed in groups of equal
    word count, each group with one array operation per mixing step.
    """
    los = [(c & _M32).astype(np.uint32) for c in columns]
    his = [(c >> 32).astype(np.uint32) for c in columns]
    width = sum((hi != 0).astype(np.int64) + 1 for hi in his)
    pools = np.empty((len(columns[0]), 4), dtype=np.uint32)
    for w in range(len(columns), 2 * len(columns) + 1):
        rows = np.flatnonzero(width == w)
        if not rows.size:
            continue
        words = np.zeros((len(rows), w), dtype=np.uint32)
        r = np.arange(len(rows))
        at = np.zeros(len(rows), dtype=np.int64)
        for lo, hi in zip(los, his):
            words[r, at] = lo[rows]
            two = hi[rows] != 0
            words[r[two], at[two] + 1] = hi[rows][two]
            at += 1 + two
        pools[rows] = _mix_entropy(words)
    return pools


def _mix_entropy(words: np.ndarray) -> np.ndarray:
    """SeedSequence's ``mix_entropy`` over rows of equal length, into 4-word pools."""
    h = _INIT_A

    def hashmix(v):
        nonlocal h
        v = v ^ np.uint32(h)
        h = h * _MULT_A & _M32
        v = v * np.uint32(h)
        return v ^ (v >> np.uint32(16))

    def mix(x, y):
        v = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return v ^ (v >> np.uint32(16))

    n, w = words.shape
    pool = [hashmix(words[:, i] if i < w else np.zeros(n, dtype=np.uint32)) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(4, w):
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(words[:, src]))
    return np.stack(pool, axis=1)


def _generate_state(pools: np.ndarray, n_words: int) -> list:
    """``generate_state(n_words, np.uint64)`` of each pool, as ``n_words`` uint64 arrays."""
    h = _INIT_B
    half = []
    for i in range(2 * n_words):
        v = pools[:, i % 4] ^ np.uint32(h)
        h = h * _MULT_B & _M32
        v = v * np.uint32(h)
        half.append((v ^ (v >> np.uint32(16))).astype(np.uint64))
    return [half[2 * k] | (half[2 * k + 1] << np.uint64(32)) for k in range(n_words)]


def derive_seeds(base, *parts) -> np.ndarray:
    """:func:`derive_seed` over arrays, bit for bit.

    Element ``i`` is ``derive_seed(base[i], parts[0][i], parts[1][i], ...)``.

    ``base`` and each part are ints or int arrays, broadcast together and
    masked to 64 bits as :func:`derive_seed` masks them.
    """
    columns = [c.ravel() for c in np.broadcast_arrays(*map(_uint64s, (base,) + parts))]
    return _generate_state(_seed_pools(columns), 1)[0]


def _mul128(ah, al, bh, bl):
    """``a * b mod 2^128`` of 128-bit values held as (high, low) uint64 arrays.

    Operands broadcast; each 64-bit half is split into 32-bit words, and
    the products are summed in place to keep few temporaries alive.
    """
    a0, a1 = al & _M32, al >> 32
    b0, b1 = bl & _M32, bl >> 32
    lo = a0 * b0
    carry = lo >> 32
    hi = a0 * b1
    carry += hi & _M32
    hi >>= 32
    part = a1 * b0
    carry += part & _M32
    part >>= 32
    hi += part
    carry >>= 32
    hi += carry
    for x, y in ((a1, b1), (ah, bl), (al, bh)):
        hi += np.multiply(x, y, out=part)
    return hi, np.multiply(al, bl, out=lo)


def _add128(ah, al, bh, bl):
    """``a + b mod 2^128``, written into ``a``'s arrays."""
    al += bl
    ah += al < bl
    ah += bh
    return ah, al


def _split128(values) -> tuple:
    return (np.array([v >> 64 for v in values], dtype=np.uint64),
            np.array([v & _MASK64 for v in values], dtype=np.uint64))


# 1 + M + ... + M^(j-1) for j = 1.._UNIFORM_CHUNK, M the PCG64 multiplier.
# As (M - 1) * (1 + ... + M^(j-1)) = M^j - 1, j LCG steps take a state s
# with increment inc to M^j * s + (1 + ... + M^(j-1)) * inc
# = s + (1 + ... + M^(j-1)) * ((M - 1) * s + inc), all mod 2^128.
_STEP_SUMS = _split128([sum(pow(_PCG_MULT, i, 1 << 128) for i in range(j)) & _MASK128
                        for j in range(1, _UNIFORM_CHUNK + 1)])
_MULT_LESS_1 = _split128([_PCG_MULT - 1])


def _ahead(hi, lo, inc_hi, inc_lo, steps: int):
    """The PCG64 states 1..``steps`` LCG steps after each (hi, lo), one row per state."""
    u_hi, u_lo = _add128(*_mul128(hi, lo, *_MULT_LESS_1), inc_hi, inc_lo)
    c_hi, c_lo = (c[:steps] for c in _STEP_SUMS)
    return _add128(*_mul128(u_hi[:, None], u_lo[:, None], c_hi, c_lo), hi[:, None], lo[:, None])


def _pcg64_seed(seeds: np.ndarray) -> tuple:
    """(state_hi, state_lo, inc_hi, inc_lo) of ``make_rng(seed)`` for each uint64 seed.

    numpy's SeedSequence of each seed gives ``generate_state(4, uint64)``
    words ``init`` and ``seq``, and PCG64's srandom sets
    ``inc = 2 * seq + 1``, then takes one step from ``init + inc``.
    """
    init_hi, init_lo, seq_hi, seq_lo = _generate_state(_seed_pools([seeds]), 4)
    inc_hi = (seq_hi << np.uint64(1)) | (seq_lo >> np.uint64(63))
    inc_lo = (seq_lo << np.uint64(1)) | np.uint64(1)
    hi, lo = _ahead(*_add128(init_hi, init_lo, inc_hi, inc_lo), inc_hi, inc_lo, 1)
    return hi[:, 0], lo[:, 0], inc_hi, inc_lo


def _xsl_rr(hi, lo):
    """PCG64's output of each state (hi, lo): ``hi ^ lo`` rotated right by ``hi >> 58``.

    Computed in place: the output is written into ``lo``, and ``hi`` is spent.
    """
    lo ^= hi
    hi >>= 58
    right = lo >> hi
    np.subtract(64, hi, out=hi)
    hi &= 63
    lo <<= hi
    lo |= right
    return lo


class SeedBank:
    """The uniforms of many :func:`make_rng` streams, seeded and drawn in bulk.

    Stream ``i`` reads, one :meth:`take` after another, the doubles that
    ``make_rng(seeds[i]).random()`` returns call after call. The bank
    holds each stream's PCG64 state and increment as uint64 (high, low)
    arrays. Seeding runs numpy's SeedSequence mixing and PCG64's two-step
    seeding on all streams at once. A refill computes each of a stream's
    next outputs with one jump-ahead from its state (see ``_STEP_SUMS``),
    then PCG64's XSL-RR output and ``Generator.random``'s
    ``(x >> 11) * 2^-53``. It holds no generator, so there is none to
    hand back: :meth:`state` reads where a stream's generator would stand.

    A stream holds up to ``_UNIFORM_CHUNK`` drawn uniforms. When a
    :meth:`take` meets a stream with none left, every stream of that
    take that has read at least half its chunk keeps its unread tail and
    is topped up behind it, ``_REFILL_BLOCK`` streams per jump-ahead, so
    streams read at different rates share refills.
    """

    def __init__(self, seeds):
        self.state_hi, self.state_lo, self.inc_hi, self.inc_lo = _pcg64_seed(
            _uint64s(seeds).ravel())
        self.buf = np.empty((len(self.inc_lo), _UNIFORM_CHUNK))
        self.used = np.full(len(self.inc_lo), _UNIFORM_CHUNK)

    def __len__(self) -> int:
        return len(self.used)

    def take(self, streams: np.ndarray) -> np.ndarray:
        """The next uniform of each of the distinct ``streams``."""
        used = self.used[streams]
        if used.max(initial=0) == _UNIFORM_CHUNK:
            self._top_up(streams[used >= _UNIFORM_CHUNK // 2])
            used = self.used[streams]
        self.used[streams] = used + 1
        return self.buf.ravel().take(streams * _UNIFORM_CHUNK + used)

    def _top_up(self, streams: np.ndarray) -> None:
        """Move each stream's unread uniforms to the front and draw the rest."""
        for b in range(0, len(streams), _REFILL_BLOCK):
            s = streams[b : b + _REFILL_BLOCK]
            used = self.used[s]
            hi, lo = _ahead(self.state_hi[s], self.state_lo[s], self.inc_hi[s], self.inc_lo[s],
                            int(used.max()))
            r = np.arange(len(s))
            self.state_hi[s] = hi[r, used - 1]
            self.state_lo[s] = lo[r, used - 1]
            out = _xsl_rr(hi, lo)
            out >>= 11
            fresh = np.multiply(out, _TO_DOUBLE, out=hi.view(np.float64))
            if (used == _UNIFORM_CHUNK).all():  # no unread tail to keep
                self.buf[s] = fresh
            else:
                both = np.concatenate([self.buf[s], fresh], axis=1)
                self.buf[s] = np.take_along_axis(both, used[:, None] + np.arange(_UNIFORM_CHUNK),
                                                 axis=1)
            self.used[s] = 0

    def rewind(self) -> None:
        """Nothing to hand back: the bank has no generators (see :meth:`state`)."""

    def state(self, stream: int) -> dict:
        """``{"state", "inc"}`` of the stream's generator after the uniforms it has read.

        This is ``make_rng(seed).bit_generator.state["state"]`` after as
        many ``random()`` calls: the bank's state, stepped back over the
        drawn uniforms the stream has not read.
        """
        inc = int(self.inc_hi[stream]) << 64 | int(self.inc_lo[stream])
        s = int(self.state_hi[stream]) << 64 | int(self.state_lo[stream])
        back = pow(_PCG_MULT, -1, 1 << 128)
        for _ in range(_UNIFORM_CHUNK - int(self.used[stream])):
            s = (s - inc) * back & _MASK128
        return {"state": s, "inc": inc}


def step_draws(base: int, steps: int, n: int):
    """What ``make_rng(derive_seed(base, step))`` draws first, for step = 1..``steps``.

    Yields, step after step, ``(index, coin, state)``: what ``integers(n)``
    and then ``random()`` return, and the generator's state after both as
    the uint64 words that :func:`pcg64_state` reads. The steps are seeded
    and drawn ``_STEP_BLOCK`` at a time, by :class:`SeedBank`'s seeding and
    output code. ``n`` must lie in [1, 2^32).

    ``integers(n)`` is Lemire's 32-bit draw (arXiv 1805.10941) on the low
    half of the first output: ``(low * n) >> 32``, with the high half
    buffered in the generator (``has_uint32``, ``uinteger``). Where
    ``(low * n) mod 2^32 < (2^32 - n) % n``, less often than once in
    ``2^32 / n`` steps, numpy draws again; such a step is drawn by its own
    generator. ``integers(1)`` draws nothing, so the coin is then the
    first output and nothing is buffered.
    """
    if not 1 <= n < 1 << 32:
        raise DomainError(f"step draws need 1 <= n < 2^32, got {n}")
    for first in range(1, steps + 1, _STEP_BLOCK):
        count = min(_STEP_BLOCK, steps + 1 - first)
        hi, lo, inc_hi, inc_lo = _pcg64_seed(derive_seeds(base, np.arange(first, first + count)))
        hi, lo = _ahead(hi, lo, inc_hi, inc_lo, 2)
        draws = 1 if n == 1 else 2
        words = np.zeros((count, 6), dtype=np.uint64)
        words[:, 0], words[:, 1] = hi[:, draws - 1], lo[:, draws - 1]
        words[:, 2], words[:, 3] = inc_hi, inc_lo
        out = _xsl_rr(hi, lo)
        coin = (out[:, draws - 1] >> 11) * _TO_DOUBLE
        if n == 1:
            index = np.zeros(count, dtype=np.int64)
            redraw = ()
        else:
            m = (out[:, 0] & _M32) * np.uint64(n)
            index = (m >> 32).astype(np.int64)
            words[:, 4] = 1
            words[:, 5] = out[:, 0] >> 32
            redraw = np.flatnonzero(m & _M32 < ((1 << 32) - n) % n)
        for j in redraw:
            rng = make_rng(derive_seed(base, first + j))
            index[j], coin[j] = rng.integers(n), rng.random()
            state = rng.bit_generator.state
            s, inc = state["state"]["state"], state["state"]["inc"]
            words[j] = [s >> 64, s & _MASK64, inc >> 64, inc & _MASK64,
                        state["has_uint32"], state["uinteger"]]
        yield from zip(index.tolist(), coin.tolist(), words)


def pcg64_state(words) -> dict:
    """The ``bit_generator.state`` of a PCG64 held as :func:`step_draws`' state words."""
    hi, lo, inc_hi, inc_lo, has_uint32, uinteger = words.tolist()
    return {"bit_generator": "PCG64",
            "state": {"state": hi << 64 | lo, "inc": inc_hi << 64 | inc_lo},
            "has_uint32": has_uint32, "uinteger": uinteger}


def softmax_with_temperature(logits: np.ndarray, tau: float) -> np.ndarray:
    """Probabilities exp(l_i / tau) / sum_j exp(l_j / tau) along the last axis.

    A 2-D batch gives, row by row, what each row's 1-D call gives, bit
    for bit. tau == 0 is the greedy limit: a one-hot distribution on the
    argmax, ties broken toward the lowest token id. Subtracts the max
    before exponentiating so large logits never overflow.
    """
    if tau < 0:
        raise DomainError(f"temperature must be >= 0, got {tau}")
    if tau == 0:
        out = np.zeros(np.shape(logits))
        np.put_along_axis(out, np.argmax(logits, axis=-1)[..., None], 1.0, axis=-1)
        return out
    # In place, through the ufunc reductions that .max() and .sum() wrap:
    # bit-equal to the out-of-place form.
    z = logits / tau
    z -= np.maximum.reduce(z, axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= np.add.reduce(z, axis=-1, keepdims=True)
    return z


# The batch name, kept for code that imports it.
softmax_rows_with_temperature = softmax_with_temperature


def sample(dist: np.ndarray, rng: np.random.Generator) -> int:
    """One categorical draw by inverse CDF; consumes exactly one uniform.

    The returned token always has positive probability under ``dist``.
    Raises :class:`NumericError` before drawing unless the entries sum
    to 1 (:func:`_check_total`); NaN and infinity propagate into that
    total. An empty distribution raises it too. ``bisect_right`` searches
    the CDF as an ``array('d')``, without numpy's per-call overhead.
    """
    probs = np.asarray(dist, dtype=float)
    cdf = array("d", probs.cumsum().tobytes())
    if not cdf:
        raise NumericError("cannot sample: empty distribution")
    _check_total(cdf[-1])
    idx = bisect_right(cdf, rng.random())
    # An unclamped index has cdf[idx] > cdf[idx - 1], so probs[idx] > 0 there.
    return idx if idx < len(cdf) else _last_with_mass(probs)


def _sums_to_one(totals):
    """Whether each total (one, or an array) is 1 closely enough to draw from; NaN fails."""
    return abs(totals - 1.0) <= 1e-9


def _check_total(total) -> None:
    """Raise :class:`NumericError` unless ``total`` passes :func:`_sums_to_one`."""
    if not _sums_to_one(total):
        raise NumericError(f"cannot sample: distribution total is {total}, not 1")


def _last_with_mass(probs) -> int:
    """Where a draw past a CDF that ends just below 1 lands: the last token with mass.

    The CDF may end just below 1 in floating point. The draw is clamped
    to the last token, then steps back over zero-probability tokens.
    """
    tok = len(probs) - 1
    while tok > 0 and probs[tok] <= 0.0:
        tok -= 1
    return tok
