"""Exact draft-verify decoding.

A cheap draft model proposes a block of tokens; the target model scores
every position of the block and accepts each proposed token x with
probability min(1, p(x) / q(x)), where p and q are the
temperature-scaled target and draft distributions at that position. On
the first rejection the token is resampled from the normalized residual
max(0, p - q); if the whole block survives, one bonus token is drawn
from the target's distribution after the block. This acceptance rule is
lossless: the emitted sequence is distributed exactly as if the target
had been sampled token by token (Leviathan et al. 2023, arXiv
2211.17192).

One loop applies the rule. :func:`decode_lockstep` decodes many prompts
at once: every prompt is a stream with its own generator, or its own
stream of a :class:`~speclab.sampling.SeedBank`, each stream carries the
window index of its rows in each model's :class:`RowTable`,
and every draw, acceptance test and commit is one array operation over
the streams still decoding. A rejection's correction is drawn from the
residual of the two rows it met. Streams may read different drafts
from one stack of whole draft tables (:meth:`RowTable.stack`), so a
sweep decodes all cells of one temperature in one call. With no draft
the loop is the autoregressive baseline, and KD datasets are decoded
that way.
:func:`speculative_generate` is its one-stream form.
Code that draws one response at a time on one generator runs on one
scalar loop, :func:`_table_rollouts`: :func:`generate_autoregressive`
(on-policy training), held-out rollouts, teacher pretraining and the
prompt set. It reads rows from a whole CDF table, or computes each
window's row from the model on its first visit.
:func:`verify_block` applies the rule to one block of explicit
distributions.

Randomness contract: a single generator drives one generation. Each
round consumes, in order, one draw per proposed token (draft sampling),
one uniform per verified position, and one draw for the correction
sample when a correction is drawn. Replaying with the same seed
reproduces the trace exactly, and a decode leaves the generator where
those draws leave it. A :class:`~speclab.sampling.SeedBank` stream reads
the uniforms of ``make_rng`` of its seed, so it decodes what that
generator would.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from collections import defaultdict
from contextlib import closing
from copy import copy
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError, VerificationError
from .files import line_fields
from .lm import NGramLogitLM, _window_index, _window_indices
from .sampling import (
    _UNIFORM_CHUNK,
    SeedBank,
    _check_total,
    _last_with_mass,
    _sums_to_one,
    sample,
    softmax_with_temperature,
)

_KIND_NAMES = {"resample": "resample", "bonus": "bonus", None: "eos"}


@dataclass
class GenerationConfig:
    """Decoding knobs shared by the baseline and speculative paths."""

    tau: float = 1.0
    block_size: int = 4
    max_new_tokens: int = 64
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.tau) and self.tau >= 0):
            raise DomainError(f"tau must be finite and >= 0, got {self.tau}")
        if self.block_size < 1:
            raise DomainError(f"block_size must be >= 1, got {self.block_size}")
        if self.max_new_tokens < 1:
            raise DomainError(f"max_new_tokens must be >= 1, got {self.max_new_tokens}")


@dataclass
class RoundRecord:
    """Verification outcome of one draft block."""

    proposed: list[int]
    accepted_count: int
    correction_token: int | None
    correction_kind: str | None  # "resample", "bonus", or None when the
    # round ended at an accepted end-of-sequence token.


@dataclass
class SpeculationTrace:
    """Per-round records plus totals over one generation."""

    rounds: list[RoundRecord] = field(default_factory=list)
    draft_proposed: int = 0
    draft_accepted: int = 0

    def record(self, rnd: RoundRecord) -> None:
        self.rounds.append(rnd)
        self.draft_proposed += len(rnd.proposed)
        self.draft_accepted += rnd.accepted_count


def residual_distribution(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Normalized positive part of p - q; the exact rejection kernel."""
    r = np.maximum(p - q, 0.0)
    mass = r.sum()
    if mass <= 0.0:
        raise DomainError("residual undefined: target places no mass above the draft")
    return r / mass


def verify_block(target_dists, draft_dists, proposed, rng) -> tuple[int, int | None, str | None]:
    """Scan one proposed block left to right with the acceptance rule.

    ``draft_dists`` and ``proposed`` have one entry per proposed token;
    ``target_dists`` carries either the same count or one extra final
    entry, the target's distribution after the block, from which the
    bonus token is drawn when every proposal is accepted. Without the
    extra entry a fully accepted block returns ``(m, None, None)``.

    Returns ``(accepted_count, correction_token, correction_kind)``.
    Consumes one uniform per verified position, then one
    :func:`~speclab.sampling.sample` for the correction if any. The
    correction is drawn from the row that :func:`decode_lockstep` draws
    it from, :func:`_residual_rows` of the target and draft rows, which
    is the target row where the residual has no mass.
    """
    m = len(proposed)
    if len(draft_dists) != m or len(target_dists) not in (m, m + 1):
        raise DomainError("verify_block: mismatched block lengths")
    for i in range(m):
        x = proposed[i]
        p_x = target_dists[i][x]
        q_x = draft_dists[i][x]
        if q_x <= 0.0:
            raise VerificationError(
                f"proposed token {x} has zero draft probability at position {i}"
            )
        ratio = p_x / q_x
        if not rng.random() < (1.0 if ratio >= 1.0 else ratio):
            residual = _residual_rows(target_dists[i][None], draft_dists[i][None])[0]
            return i, sample(residual, rng), "resample"
    if len(target_dists) == m:
        return m, None, None
    return m, sample(target_dists[m], rng), "bonus"


def generate_autoregressive(model, prompt, config: GenerationConfig, rng) -> list[int]:
    """Plain temperature sampling from one model, one token at a time.

    Returns the continuation only. The end-of-sequence token, when
    drawn, is included as the final element. Each token is the
    :func:`~speclab.sampling.sample` of
    ``softmax_with_temperature(model.forward(context), config.tau)``, its
    row and CDF computed once per context window this call visits; for an
    n-gram that a :class:`RowTable` takes whole, the call computes its
    whole table at once instead (see :func:`_rollouts`).
    """
    with closing(_rollouts(model, config, prompt, rng)) as rollouts:
        return next(rollouts)


def _rollouts(model, config: GenerationConfig, prompt, rng):
    """Generator of :func:`generate_autoregressive` rollouts of ``prompt``, one per ``next()``.

    The prompt's window is validated here, and the rollouts share each
    row they compute: they run on :func:`_table_rollouts` over a
    :class:`RowTable` of ``model`` at ``config.tau``. The model must not
    change while the generator is open, and ``rng`` must be drawn from
    only through it: close it, as ``contextlib.closing`` does, to leave
    ``rng`` where token-by-token draws would.
    """
    table = RowTable(model, config.tau)
    return _table_rollouts(table.probs, table.cdf, table.index(prompt), config.max_new_tokens,
                           model.vocab.eos_id, rng, table)


def _table_rollouts(probs: np.ndarray, cdf: np.ndarray, start: int, max_len: int, eos: int,
                    rng, table: RowTable | None = None):
    """Generator of rollouts from window index ``start`` of a table, one per ``next()``.

    ``probs`` and ``cdf``, its ``np.cumsum`` along each row, hold one row
    per window index, as a :class:`RowTable` that takes its model whole
    does; token ``t`` moves index ``i`` to ``(i * size + t) % rows``. For
    a ``table`` that does not take its model whole, they hold no rows:
    a row is computed on its index's first visit, as the table computes
    a row it does not keep (``model.forward`` of the window the index
    encodes, then the tempered softmax), and its ``np.cumsum``. A
    rollout stops after ``eos`` or ``max_len`` tokens. Each token is a
    :func:`~speclab.sampling.sample` of its row: the same total check
    and error text (:func:`~speclab.sampling._check_total`, before a
    row's first draw, as its CDF becomes an ``array('d')``), search,
    clamp and zero-probability guard.

    Uniforms are drawn 64 at a time, and when the generator is closed or
    raises, ``rng.bit_generator.advance`` hands the unread ones back, so
    the tokens and the final state of ``rng`` are those of token-by-token
    draws. ``rng`` must be a :func:`~speclab.sampling.make_rng` (PCG64)
    generator that nothing else draws from while the generator is open.
    """
    lazy = table is not None and not table.whole
    if lazy:
        n_rows, size = table.rows, table.size
        rows: list | dict = defaultdict(lambda: None)  # None until the index's first visit
        probs = {}
    else:
        n_rows, size = probs.shape
        rows = [None] * n_rows
    buf = np.empty(_UNIFORM_CHUNK)
    uniforms: list[float] = []
    read = drawn = 0
    try:
        while True:
            idx = start
            out: list[int] = []
            for _ in range(max_len):
                row = rows[idx]
                if row is None:
                    if lazy:
                        p = probs[idx] = table._forward(np.array([idx]))[0]
                        row = array("d", p.cumsum().tobytes())
                    else:
                        row = array("d", cdf[idx].tobytes())
                    _check_total(row[-1])
                    rows[idx] = row
                if read == drawn:
                    uniforms = rng.random(out=buf).tolist()
                    drawn += _UNIFORM_CHUNK
                # read - drawn counts back from the end of the chunk.
                tok = bisect_right(row, uniforms[read - drawn])
                read += 1
                if tok >= size:
                    tok = _last_with_mass(probs[idx])
                out.append(tok)
                if tok == eos:
                    break
                idx = (idx * size + tok) % n_rows
            yield out
    finally:
        rng.bit_generator.advance(read - drawn)


def speculative_generate(target, draft, prompt, config: GenerationConfig, rng):
    """Draft-verify decoding of one continuation: :func:`decode_lockstep` on one stream.

    Returns ``(tokens, trace)``. The token stream is distributed exactly
    as :func:`generate_autoregressive` run on the target alone; the
    trace records every verification round. Both models' rows come from
    new :class:`RowTable` s at ``config.tau``.
    """
    outs, _, _, traces = decode_lockstep(RowTable(target, config.tau),
                                         RowTable(draft, config.tau), [prompt], config, [rng],
                                         traces=True)
    return outs[0], traces[0]


# Rows one RowTable keeps: above the canonical target's 1,024 contexts,
# and at about 0.5 KB a row (vocabulary 32, probabilities and CDF) some
# 2 MB a table.
MAX_CACHED_ROWS = 4096


def _takes_whole(model) -> bool:
    """Whether a :class:`RowTable` computes all the model's rows at once."""
    return isinstance(model, NGramLogitLM) and len(model.table) <= MAX_CACHED_ROWS


class RowTable:
    """Tau-scaled next-token rows of one read-only model and their CDFs, by window index.

    The index of a context is :func:`~speclab.lm._window_index` of it over
    the model's ``width``, the tokens its logits read; appending token
    ``t`` moves index ``i`` to ``(i * size + t) % rows``. A row is
    ``softmax_with_temperature(model.forward(window), tau)`` and its CDF
    the ``np.cumsum`` of that row, bit for bit as
    :func:`~speclab.sampling.sample` builds them. ``probs``, ``cdf`` and
    ``ok`` hold, per slot, a row, its CDF and whether its total passes
    the draw's check (:func:`~speclab.sampling._sums_to_one`).

    An n-gram model with at most ``MAX_CACHED_ROWS`` rows gets its whole
    table at once from :func:`softmax_with_temperature`, and a row's
    slot is its index. Any other model (a tiny-neural draft, an order-3
    n-gram) gets the row of each index from ``model.forward`` on its first
    lookup. The first ``MAX_CACHED_ROWS`` indices looked up keep their
    rows; the row of a later index is built again on every lookup, into a
    slot past the kept ones that stays valid only until the next lookup.

    :meth:`stack` joins whole tables of one width, vocabulary and tau
    along the row axis, so that one decode can read several drafts:
    index ``i`` of member ``k`` sits at slot ``k * rows + i``, and a
    token moves slot ``g`` to :func:`_step` of it, within its member.
    ``members`` counts the tables a table holds.
    """

    def __init__(self, model, tau: float):
        self.model = model
        self.tau = tau
        self.size = model.vocab.size
        self.width = model.width
        self.rows = self.size ** self.width
        if self.rows * self.size > np.iinfo(np.int64).max:
            raise DomainError(f"a window of {self.width} tokens over {self.size} "
                              "has too many rows to index")
        self.whole = _takes_whole(model)
        self.members = 1
        if self.whole:
            self.probs = softmax_with_temperature(model.table, tau)
        else:
            # Kept indices in sorted order, ending at a sentinel no index reaches.
            self._keys = np.array([self.rows])
            self._where = np.array([-1])
            self.kept = 0
            self.probs = np.empty((0, self.size))
        self.cdf = np.cumsum(self.probs, axis=1)
        self.ok = _sums_to_one(self.cdf[:, -1])

    @staticmethod
    def stacks(models) -> bool:
        """Whether the models' tables stack: one model, or whole n-grams of one width and vocab."""
        first = models[0]
        return len(models) == 1 or all(_takes_whole(m) and m.width == first.width
                                       and m.vocab == first.vocab for m in models)

    @staticmethod
    def stack(tables) -> RowTable:
        """One table of ``tables``' rows, member after member; a single table stacks as itself.

        The tables must be of one tau and their models :meth:`stacks`, or
        :class:`DomainError` is raised. Member ``k``'s rows are bit for bit
        those of ``tables[k]``; the stack's ``model``, which gives its
        vocabulary and window, is the first member's.
        """
        first = tables[0]
        if len(tables) == 1:
            return first
        if (not RowTable.stacks([t.model for t in tables])
                or any(t.tau != first.tau for t in tables)):
            raise DomainError("only whole tables of one width, vocabulary and tau stack")
        out = copy(first)
        out.members = len(tables)
        for name in ("probs", "cdf", "ok"):
            setattr(out, name, np.concatenate([getattr(t, name) for t in tables]))
        return out

    def index(self, context) -> int:
        """Window index after ``context``, validating the tokens the model reads."""
        return _window_index(context, self.width, self.model.vocab)

    def rows_after(self, tokens, start: int) -> np.ndarray:
        """New array of the rows after each ``tokens[:i]``, ``start <= i < len(tokens)``.

        The tokens the windows read are validated once, in sequence order,
        as the model's ``_forward_positions`` validates them.
        """
        slots = self.slots(_window_indices(tokens, start, self.width, self.model.vocab))
        return self.probs[slots]  # slots() may move self.probs: read it after

    def slots(self, idx: np.ndarray) -> np.ndarray:
        """Slots of the rows at window indices ``idx``."""
        if self.whole:
            return idx
        pos = np.searchsorted(self._keys, idx)
        slots = self._where[pos]
        miss = self._keys[pos] != idx
        if not miss.any():
            return slots
        new, inverse = np.unique(idx[miss], return_inverse=True)
        start, end = self.kept, self.kept + len(new)
        if end > len(self.probs):
            self._grow(max(end, 2 * len(self.probs)))
        self.probs[start:end] = self._forward(new)
        np.cumsum(self.probs[start:end], axis=1, out=self.cdf[start:end])
        self.ok[start:end] = _sums_to_one(self.cdf[start:end, -1])
        slots[miss] = start + inverse
        keep = min(len(new), MAX_CACHED_ROWS - self.kept)
        if keep > 0:
            at = np.searchsorted(self._keys, new[:keep])
            self._keys = np.insert(self._keys, at, new[:keep])
            self._where = np.insert(self._where, at, np.arange(start, start + keep))
            self.kept += keep
        return slots

    def _grow(self, size: int) -> None:
        for name in ("probs", "cdf", "ok"):
            old = getattr(self, name)
            new = np.empty((size,) + old.shape[1:], dtype=old.dtype)
            new[: self.kept] = old[: self.kept]
            setattr(self, name, new)

    def _forward(self, idx: np.ndarray) -> np.ndarray:
        powers = self.size ** np.arange(self.width - 1, -1, -1)
        windows = (idx[:, None] // powers) % self.size
        logits = np.array([self.model.forward(w.tolist()) for w in windows])
        return softmax_with_temperature(logits, self.tau)


class _Uniforms:
    """Each stream's uniforms in its generator's order, drawn a chunk at a time.

    ``Generator.random(out=row)`` fills a row with the values that as many
    ``random()`` calls return, so a stream reads exactly the uniforms that
    token-by-token decoding would, and :meth:`rewind` leaves its generator
    where those calls would.
    """

    def __init__(self, rngs):
        self.rngs = rngs
        self.buf = np.empty((len(rngs), _UNIFORM_CHUNK))
        self.used = np.full(len(rngs), _UNIFORM_CHUNK)

    def take(self, streams: np.ndarray) -> np.ndarray:
        """The next uniform of each of the distinct ``streams``."""
        used = self.used[streams]
        empty = used == _UNIFORM_CHUNK
        for s in streams[empty]:
            self.rngs[s].random(out=self.buf[s])
        used[empty] = 0
        self.used[streams] = used + 1
        return self.buf[streams, used]

    def rewind(self) -> None:
        """Hand each stream's drawn but unread uniforms back to its generator.

        A uniform is one 64-bit output of :func:`~speclab.sampling.make_rng`'s
        PCG64, and ``advance`` moves it by outputs, backwards when negative.
        """
        for s in np.flatnonzero(self.used < _UNIFORM_CHUNK):
            self.rngs[s].bit_generator.advance(int(self.used[s]) - _UNIFORM_CHUNK)


def _draw_slots(probs: np.ndarray, cdf: np.ndarray, ok: np.ndarray, slots: np.ndarray,
                uniforms: _Uniforms, streams: np.ndarray) -> np.ndarray:
    """:func:`~speclab.sampling.sample` of row ``slots[i]`` on the next uniform of ``streams[i]``.

    ``cdf`` and ``ok`` hold the rows' CDFs and total checks. As in
    ``sample``, the rows are checked before any uniform is taken.
    """
    ok = ok[slots]
    if not ok.all():
        _check_total(float(cdf[slots[ok.argmin()], -1]))
    rows = cdf[slots]
    tok = (rows <= uniforms.take(streams)[:, None]).sum(axis=1)
    for i in (tok == rows.shape[1]).nonzero()[0]:
        tok[i] = _last_with_mass(probs[slots[i]])
    return tok


def _residual_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The row a rejection's correction is drawn from, for each row pair.

    Each row is :func:`residual_distribution` of its pair, bit for bit.
    Where the residual has no mass (p <= q everywhere, yet an ulp-level
    ratio below 1 was rejected) it is the target row p itself.
    """
    r = np.maximum(p - q, 0.0)
    mass = r.sum(axis=1, keepdims=True)
    out = p.copy()
    np.divide(r, mass, out=out, where=~(mass <= 0.0))
    return out


def _step(g: np.ndarray, tok: np.ndarray, size: int, rows: int) -> np.ndarray:
    """Slot after token ``tok`` from slot ``g`` of a :meth:`RowTable.stack`, in g's member.

    Below ``rows``, as in a table of one member, it is ``(g * size + tok) % rows``.
    """
    return g - g % rows + (g * size + tok) % rows


def decode_lockstep(target: RowTable, draft: RowTable | None, prompts,
                    config: GenerationConfig, rngs, *, traces: bool = False, members=None):
    """Decode every prompt as one stream, all streams a round at a time.

    Stream ``i`` decodes ``prompts[i]`` with generator ``rngs[i]`` and
    emits the tokens and trace of draft-verify decoding with that
    generator, or with ``draft=None`` what :func:`generate_autoregressive`
    would. ``rngs`` is a list of generators, or a
    :class:`~speclab.sampling.SeedBank` whose stream ``i`` stands for
    ``make_rng(seeds[i])`` and decodes as that generator would; either
    holds one stream per prompt, or :class:`DomainError` is raised. It
    reads the same uniforms in the same order: a round is a block of zero
    proposals and a bonus token. Rows come from the tables,
    which must hold ``config.tau``; a rejection's correction row is the
    residual of its target and draft rows, built for that draw. Each
    stream carries its window indices into both tables, and every draw,
    acceptance test and commit is one array operation over the streams
    still decoding.

    The draft may be a :meth:`RowTable.stack` of several drafts' tables;
    ``members[i]``, when given, is the stack member that stream ``i``
    reads (0 for every stream when not), and any other value raises
    :class:`DomainError`. The target is one table that every stream
    reads. Streams do not interact, so each stream's tokens, trace and
    uniforms are those it gets when decoded alone with its member's table.

    Prompt tokens are validated up front, stream by stream, draft window
    first; the first error raised is that of the first failing stream.
    A draw checks its rows before it reads any stream's uniform. On
    return, or on an error, each generator has advanced by exactly the
    uniforms its stream read, as has each bank stream's
    :meth:`~speclab.sampling.SeedBank.state`.

    Returns ``(tokens, proposed, accepted, traces)``: one token list and
    one count of proposed and of accepted draft tokens per stream, and
    one :class:`SpeculationTrace` per stream if ``traces`` is set (and
    there is a draft), else None.
    """
    tables = [target] if draft is None else [draft, target]
    if any(t.tau != config.tau for t in tables):
        raise DomainError("row table holds rows of another temperature")
    if draft is not None and draft.model.vocab != target.model.vocab:
        raise ConfigError("target and draft must share a vocabulary")
    n = len(prompts)
    starts = np.array([[t.index(p) for t in tables] for p in prompts],
                      dtype=np.int64).reshape(n, len(tables))
    ti = starts[:, -1].copy()
    di = starts[:, 0].copy()
    size = target.size
    eos = target.model.vocab.eos_id
    cap = config.max_new_tokens
    # No stream proposes more than cap tokens, so no round array needs more columns.
    block = 0 if draft is None else min(config.block_size, cap)
    if len(rngs) != n:
        raise DomainError(f"{len(rngs)} random streams for {n} prompts")
    if members is not None:
        members = np.asarray(members, dtype=np.int64)
        if (draft is None or members.shape != (n,)
                or ((members < 0) | (members >= draft.members)).any()):
            raise DomainError("members must name one member of the draft table per prompt")
        di += members * draft.rows
    uniforms = rngs if isinstance(rngs, SeedBank) else _Uniforms(rngs)
    out = np.empty((n, cap), dtype=np.int64)
    n_out = np.zeros(n, dtype=np.int64)
    proposed = np.zeros(n, dtype=np.int64)
    accepted = np.zeros(n, dtype=np.int64)
    records = [SpeculationTrace() for _ in range(n)] if traces and draft is not None else None
    cols = np.arange(block + 1)
    live = np.arange(n)
    try:
        while live.size:
            loc = np.arange(len(live))
            room = cap - n_out[live]
            # Window indices at block positions 0..m; a last token column takes the correction.
            t_at = np.empty((len(live), block + 1), dtype=np.int64)
            d_at = np.empty_like(t_at)
            t_at[:, 0] = ti[live]
            d_at[:, 0] = di[live]
            tokens = np.zeros((len(live), block + 1), dtype=np.int64)
            q_x = np.empty((len(live), block))
            m = np.zeros(len(live), dtype=np.int64)
            go = loc
            for j in range(block):
                go = go[room[go] > j]
                if not go.size:
                    break
                slots = draft.slots(d_at[go, j])
                tok = _draw_slots(draft.probs, draft.cdf, draft.ok, slots, uniforms, live[go])
                tokens[go, j] = tok
                q_x[go, j] = draft.probs[slots, tok]
                m[go] = j + 1
                d_at[go, j + 1] = _step(d_at[go, j], tok, size, draft.rows)
                t_at[go, j + 1] = (t_at[go, j] * size + tok) % target.rows
                go = go[tok != eos]
            # Target rows at the block prefixes, plus the bonus position unless
            # the block ends at eos.
            ends_eos = (m > 0) & (tokens[loc, np.maximum(m - 1, 0)] == eos)
            at = cols < (m + ~ends_eos)[:, None]
            t_slot = np.zeros_like(t_at)
            t_slot[at] = target.slots(t_at[at])
            acc = np.zeros(len(live), dtype=np.int64)
            go = loc
            for i in range(block):
                go = go[m[go] > i]
                if not go.size:
                    break
                ratio = target.probs[t_slot[go, i], tokens[go, i]] / q_x[go, i]
                go = go[uniforms.take(live[go]) < np.minimum(ratio, 1.0)]
                acc[go] += 1
            corr = np.full(len(live), -1, dtype=np.int64)
            bonus = loc[(acc == m) & ~ends_eos]
            if bonus.size:
                corr[bonus] = _draw_slots(target.probs, target.cdf, target.ok,
                                          t_slot[bonus, m[bonus]], uniforms, live[bonus])
            rej = loc[acc < m]
            if rej.size:
                p = target.probs[t_slot[rej, acc[rej]]]
                q_slot = draft.slots(d_at[rej, acc[rej]])  # may move draft.probs: read it after
                res = _residual_rows(p, draft.probs[q_slot])
                cdf = np.cumsum(res, axis=1)
                corr[rej] = _draw_slots(res, cdf, _sums_to_one(cdf[:, -1]), np.arange(rej.size),
                                        uniforms, live[rej])
            if records is not None:
                for s, toks, mm, a, c in zip(live.tolist(), tokens.tolist(), m.tolist(),
                                             acc.tolist(), corr.tolist()):
                    kind = "resample" if a < mm else "bonus" if c >= 0 else None
                    records[s].record(RoundRecord(toks[:mm], a, c if c >= 0 else None, kind))
            proposed[live] += m
            accepted[live] += acc
            has = corr >= 0
            tokens[loc[has], acc[has]] = corr[has]
            commit = np.minimum(acc + has, room)
            r, c = np.nonzero(cols < commit[:, None])
            out[live[r], n_out[live[r]] + c] = tokens[r, c]
            n_out[live] += commit
            go = loc[has & (corr != eos) & (commit < room)]
            a, c = acc[go], corr[go]
            ti[live[go]] = (t_at[go, a] * size + c) % target.rows
            if draft is not None:
                di[live[go]] = _step(d_at[go, a], c, size, draft.rows)
            live = live[go]
    finally:
        uniforms.rewind()
    return [out[s, : n_out[s]].tolist() for s in range(n)], proposed, accepted, records


def dump_trace(trace: SpeculationTrace) -> str:
    """Plain-text trace, one verification round per line."""
    lines = []
    for i, rnd in enumerate(trace.rounds):
        corr = "none" if rnd.correction_token is None else str(rnd.correction_token)
        lines.append(
            f"round={i}"
            f" proposed={','.join(str(t) for t in rnd.proposed)}"
            f" accepted={rnd.accepted_count}"
            f" correction={corr}"
            f" kind={_KIND_NAMES[rnd.correction_kind]}"
        )
    return "".join(line + "\n" for line in lines)


def parse_trace(text: str) -> SpeculationTrace:
    """Inverse of :func:`dump_trace`; a malformed line raises :class:`DomainError` naming it."""
    return _parse_trace(text, "trace", 0)


def _parse_trace(text: str, label: str, first_line: int) -> SpeculationTrace:
    """:func:`parse_trace` of a text whose first line is named ``<label> line <first_line>``."""
    trace = SpeculationTrace()
    for lineno, line in enumerate(text.splitlines()):
        where = f"{label} line {first_line + lineno}"
        fields = line_fields(line, ("round", "proposed", "accepted", "correction", "kind"), where)
        try:
            index, accepted = int(fields["round"]), int(fields["accepted"])
            proposed = [int(t) for t in fields["proposed"].split(",") if t != ""]
            correction = None if fields["correction"] == "none" else int(fields["correction"])
        except ValueError as exc:
            raise DomainError(f"{where}: {exc}") from exc
        if index != lineno:
            raise DomainError(f"{where}: round index {fields['round']}")
        if not 0 <= accepted <= len(proposed):
            raise DomainError(f"{where}: accepted {accepted} of {len(proposed)} proposed")
        kind = fields["kind"]
        if kind == "eos":
            rec_kind = None
        elif kind in ("resample", "bonus"):
            rec_kind = kind
        else:
            raise DomainError(f"{where}: unknown kind '{kind}'")
        if rec_kind is None and correction is not None:
            raise DomainError(f"{where}: eos round carries a correction")
        trace.record(RoundRecord(proposed, accepted, correction, rec_kind))
    return trace
