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
2211.17192). Both models' distributions are read from
:class:`~speclab.sampling.RowSampler` rows, computed once per context.
So are the corrections: a residual and its CDF depend only on the
(target context, draft context) pair at the rejected position, so the
draft's sampler caches them per target sampler under that pair of keys,
and the bonus token is drawn from the target's cached row. One round
then costs a dict lookup per row, plus the draws.

Randomness contract: a single generator drives one generation. Each
round consumes, in order, one draw per proposed token (draft sampling),
one uniform per verified position, and one draw for the correction
sample when a correction is drawn. Replaying with the same seed
reproduces the trace exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError, VerificationError
from .sampling import RowSampler, cdf_row, draw

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

    def alpha(self) -> float:
        """Accepted draft tokens over proposed draft tokens.

        Correction tokens (resampled or bonus) count toward neither side.
        """
        if self.draft_proposed == 0:
            raise DomainError("no proposed tokens: alpha undefined")
        return self.draft_accepted / self.draft_proposed


def residual_distribution(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Normalized positive part of p - q; the exact rejection kernel."""
    r = np.maximum(p - q, 0.0)
    mass = r.sum()
    if mass <= 0.0:
        raise DomainError("residual undefined: target places no mass above the draft")
    return r / mass


def _residual_row(p: np.ndarray, q: np.ndarray) -> tuple:
    """The :func:`~speclab.sampling.cdf_row` a rejection's correction is drawn from."""
    try:
        return cdf_row(residual_distribution(p, q))
    except DomainError:
        # p <= q everywhere, yet an ulp-level ratio below 1 was
        # rejected: the residual has no mass, so draw from p itself.
        return cdf_row(p)


def acceptance_probability(p: np.ndarray, q: np.ndarray) -> float:
    """Analytic per-position acceptance rate sum_x min(p(x), q(x))."""
    return float(np.minimum(p, q).sum())


def induced_distribution(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Marginal law of the token emitted at one verified position.

    accept-part + reject-mass * residual; equals p up to rounding, which
    is the losslessness identity the tests pin down.
    """
    overlap = np.minimum(p, q)
    r = np.maximum(p - q, 0.0)
    rmass = r.sum()
    if rmass <= 0.0:
        # q covers p everywhere: every token is accepted.
        return overlap / overlap.sum()
    return overlap + (1.0 - overlap.sum()) * (r / rmass)


def verify_block(target_dists, draft_dists, proposed, rng, *,
                 correction_row=None) -> tuple[int, int | None, str | None]:
    """Scan one proposed block left to right with the acceptance rule.

    ``draft_dists`` and ``proposed`` have one entry per proposed token;
    ``target_dists`` carries either the same count or one extra final
    entry, the target's distribution after the block, from which the
    bonus token is drawn when every proposal is accepted. Without the
    extra entry a fully accepted block returns ``(m, None, None)``.

    Returns ``(accepted_count, correction_token, correction_kind)``.
    Consumes one uniform per verified position, then one draw for the
    correction sample if any. A rejection at a position where the
    residual has no mass draws the correction from the target row.

    ``correction_row(i)``, when given, returns the ``(probs, cdf)`` row
    the correction at position ``i`` is drawn from, in place of one built
    from the arrays: the residual row after a rejection at ``i < m``, the
    target row after the block for the bonus (``i == m``). The decoders
    pass cached rows, bit-equal to the built ones.
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
            break
    else:
        if len(target_dists) == m:
            return m, None, None
        i = m
    if correction_row is not None:
        row = correction_row(i)
    elif i < m:
        row = _residual_row(target_dists[i], draft_dists[i])
    else:
        row = cdf_row(target_dists[m])
    return i, draw(row, rng), "resample" if i < m else "bonus"


def _sampler(model, tau: float, sampler: RowSampler | None) -> RowSampler:
    if sampler is None:
        return RowSampler(model, tau)
    if sampler.model is not model or sampler.tau != tau:
        raise DomainError("sampler holds rows of another model or temperature")
    return sampler


def generate_autoregressive(model, prompt, config: GenerationConfig, rng,
                            *, sampler: RowSampler | None = None) -> list[int]:
    """Plain temperature sampling from one model; the timing baseline.

    Returns the continuation only. The end-of-sequence token, when
    drawn, is included as the final element. Rows come from ``sampler``,
    a :class:`RowSampler` of ``model`` at ``config.tau``, or from a new
    one for this call; each token is one :func:`draw`.
    """
    row = _sampler(model, config.tau, sampler).row
    eos = model.vocab.eos_id
    seq = list(prompt)
    out: list[int] = []
    for _ in range(config.max_new_tokens):
        tok = draw(row(seq), rng)
        out.append(tok)
        seq.append(tok)
        if tok == eos:
            break
    return out


def speculative_generate(target, draft, prompt, config: GenerationConfig, rng, *,
                         target_sampler: RowSampler | None = None,
                         draft_sampler: RowSampler | None = None):
    """Draft-verify decoding of one continuation.

    Returns ``(tokens, trace)``. The token stream is distributed exactly
    as :func:`generate_autoregressive` run on the target alone; the
    trace records every verification round.

    Both models' rows come from :class:`RowSampler` s at ``config.tau``,
    the given ones or new ones for this call, so a caller decoding many
    prompts from read-only models computes each context's row once. The
    target's row at a position is its per-context softmax. For an n-gram
    target that is bit-equal to the row of a batched forward over the
    block; a tiny-neural target's batched forward differs from its
    per-context one by ~2e-17, but no configuration decodes with a
    neural target: teachers are pretrained n-gram tables.
    """
    if target.vocab != draft.vocab:
        raise ConfigError("target and draft must share a vocabulary")
    target_rows = _sampler(target, config.tau, target_sampler)
    draft_rows = _sampler(draft, config.tau, draft_sampler)
    p_row, q_row = target_rows.row, draft_rows.row
    residuals = draft_rows.residual_rows(target_rows)
    eos = target.vocab.eos_id
    cap = config.max_new_tokens
    out: list[int] = []
    trace = SpeculationTrace()

    def correction_row(i):
        # The row a correction at position i of the current round (its
        # seq, base, m, p_rows and draft_dists) is drawn from.
        if i == m:
            return p_rows[m]
        end = base + i
        key = (target.context_key(seq, end), draft.context_key(seq, end))
        row = residuals.get(key)
        if row is None:
            row = residuals.keep(key, _residual_row(p_rows[i][0], draft_dists[i]))
        return row

    seq = list(prompt)
    while len(out) < cap:
        base = len(seq)
        # Draft proposes up to block_size tokens, stopping if it emits eos.
        proposed: list[int] = []
        draft_dists: list[np.ndarray] = []
        for _ in range(min(config.block_size, cap - len(out))):
            q = q_row(seq)
            tok = draw(q, rng)
            proposed.append(tok)
            draft_dists.append(q[0])
            seq.append(tok)
            if tok == eos:
                break
        m = len(proposed)
        # Target rows at the block prefixes, plus the position after the
        # block (the bonus position) unless the block ends at eos: an
        # accepted final eos ends the generation.
        n_rows = m if proposed[-1] == eos else m + 1
        p_rows = [p_row(seq, end) for end in range(base, base + n_rows)]
        accepted, correction, kind = verify_block([r[0] for r in p_rows], draft_dists,
                                                  proposed, rng, correction_row=correction_row)
        trace.record(RoundRecord(proposed, accepted, correction, kind))
        committed = proposed[:accepted]
        if correction is not None:
            committed.append(correction)
        del seq[base:]
        stop = False
        for tok in committed:
            if len(out) == cap:
                break
            out.append(tok)
            seq.append(tok)
            if tok == eos:
                stop = True
                break
        if stop:
            break
    return out, trace


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
    """Inverse of :func:`dump_trace`; validates the line structure."""
    trace = SpeculationTrace()
    for lineno, line in enumerate(text.splitlines()):
        fields = dict(part.split("=", 1) for part in line.split())
        if set(fields) != {"round", "proposed", "accepted", "correction", "kind"}:
            raise DomainError(f"trace line {lineno}: unexpected fields")
        if int(fields["round"]) != lineno:
            raise DomainError(f"trace line {lineno}: round index {fields['round']}")
        proposed = [int(t) for t in fields["proposed"].split(",") if t != ""]
        correction = None if fields["correction"] == "none" else int(fields["correction"])
        kind = fields["kind"]
        if kind == "eos":
            rec_kind = None
        elif kind in ("resample", "bonus"):
            rec_kind = kind
        else:
            raise DomainError(f"trace line {lineno}: unknown kind '{kind}'")
        if rec_kind is None and correction is not None:
            raise DomainError(f"trace line {lineno}: eos round carries a correction")
        trace.record(RoundRecord(proposed, int(fields["accepted"]), correction, rec_kind))
    return trace
