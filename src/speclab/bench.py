"""Acceptance-rate and wall-time metrics, temperature sweeps, comparisons.

The sweep runner trains one draft per distillation temperature, then
measures every (distillation temperature, decoding temperature) cell
with per-seed decoding runs. :func:`compare_drafts` measures several
drafts of each seed, such as the single- and mixed-temperature drafts of
the composition experiment, on every (decoding temperature, seed) cell,
each draft with the same decoding seeds. Both measure all cells of one
decoding temperature with one :func:`measure_cells` call: when the
drafts stack, that is one speculative and one baseline lockstep decode
over one target table, whose wall times are split among the cells by
their share of its streams, so the cells share one speedup. Acceptance
counts are pooled exactly, so an alpha recomputed from dumped traces
matches the reported one bit for bit; wall times come from a monotonic
clock and are the only non-deterministic output.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from .corpus import CorpusBundle
from .distill import KDConfig, train_draft
from .errors import DomainError, TrainingError
from .lm import load_checkpoint, save_checkpoint
from .sampling import STREAM_BASELINE, STREAM_EVAL, SeedBank, derive_seed, derive_seeds
from .specdec import GenerationConfig, RowTable, _parse_trace, decode_lockstep, dump_trace

DEFAULT_KD_TAUS = tuple(round(0.1 * i, 1) for i in range(11))
DEFAULT_DECODE_TAUS = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)

SWEEP_CSV_HEADER = "kd_tau,decode_tau,seed,alpha,speedup,tokens_out,wall_spec_s,wall_base_s"

_TAG_SWEEP_DATA = 21
_TAG_SWEEP_TRAIN = 22
_TAG_SWEEP_CELL = 23
_TAG_ARM_CELL = 24


@dataclass(frozen=True)
class DecodeStats:
    """Pooled decoding metrics for one evaluation setting.

    ``alpha`` is accepted draft tokens over proposed draft tokens,
    pooled across every run and prompt; bonus and correction tokens are
    outside both counts. ``speedup`` is total baseline wall time over
    total speculative wall time, which equals the ratio of means since
    both sides decode the same prompt set the same number of times.
    """

    alpha: float
    speedup: float
    tokens_out: int
    wall_time_spec: float
    wall_time_base: float
    runs: int = 5
    draft_proposed: int = 0
    draft_accepted: int = 0

    def __post_init__(self):
        if self.runs < 1:
            raise DomainError("runs must be >= 1")
        if not 0.0 <= self.alpha <= 1.0:
            raise DomainError("alpha must lie in [0, 1]")
        if self.speedup <= 0:
            raise DomainError("speedup must be > 0")
        if self.tokens_out < 0 or self.draft_proposed < 0 or self.draft_accepted < 0:
            raise DomainError("counts must be >= 0")
        if self.draft_accepted > self.draft_proposed:
            raise DomainError("accepted count exceeds proposed count")


def measure_decode(target, draft, prompts, config: GenerationConfig, runs: int = 5,
                   *, on_trace=None) -> DecodeStats:
    """Decode every prompt ``runs`` times speculatively and plainly.

    This is :func:`measure_cells` of the one cell ``(draft, config)``.
    ``on_trace(run, prompt_index, trace)``, when given, observes every
    speculative trace in (run, prompt) order, after both timed decodes.
    The ``decode`` command always passes it. ``wall_time_spec`` and
    ``wall_time_base`` time this cell's own two decodes.
    """
    sink = None if on_trace is None else lambda _, run, j, trace: on_trace(run, j, trace)
    return measure_cells(target, [(draft, config)], prompts, runs, on_trace=sink)[0]


def measure_cells(target, cells, prompts, runs: int = 5, *, on_trace=None) -> list[DecodeStats]:
    """Decode every prompt ``runs`` times for each cell ``(draft, config)``; one stats per cell.

    The cells' configs share ``tau``, ``block_size`` and
    ``max_new_tokens``; their seeds may differ. Stream
    ``s = run * len(prompts) + j`` of a cell decodes speculatively on
    ``make_rng(derive_seed(config.seed, STREAM_EVAL, run, j))`` and as the
    baseline on ``make_rng(derive_seed(that seed, STREAM_BASELINE))``, so a
    cell's results do not depend on the other cells or on their order.
    Each side's streams are derived, seeded and drawn in bulk by one
    :class:`~speclab.sampling.SeedBank`, bit-equal to those generators;
    seeding stays outside the timings. ``on_trace(cell_index, run,
    prompt_index, trace)``, when given, observes every speculative trace
    in (cell, run, prompt) order after the timed decodes; the traces'
    records are built inside ``wall_time_spec``.

    When the cells' distinct drafts stack
    (:meth:`~speclab.specdec.RowTable.stacks`), all streams of all cells
    decode in one :func:`~speclab.specdec.decode_lockstep` call on a
    :meth:`~speclab.specdec.RowTable.stack` of the drafts' tables, then in
    one baseline call. One target table, built inside the speculative
    timing, serves both; the baseline reads it warm, which biases
    ``speedup`` against speculation. The two wall times are split among
    the cells by their share of the streams, ``runs * len(prompts)``
    each, so the cells share one ``speedup``; one cell is timed exactly.
    Drafts that do not stack (distinct tiny-neural drafts, drafts of
    different widths) are measured one cell at a time. Either way a
    cell's tokens, counts and traces are those it gets alone, bit for bit.
    """
    if runs < 1:
        raise DomainError("runs must be >= 1")
    prompts = list(prompts)
    if not prompts:
        raise DomainError("prompt list is empty")
    if not cells:
        raise DomainError("cell list is empty")
    config = cells[0][1]
    if any((c.tau, c.block_size, c.max_new_tokens)
           != (config.tau, config.block_size, config.max_new_tokens) for _, c in cells):
        raise DomainError("cells measured together must share tau, block_size and max_new_tokens")
    drafts = {id(draft): draft for draft, _ in cells}  # the distinct drafts, in order
    if not RowTable.stacks(list(drafts.values())):
        stats = []
        for c, cell in enumerate(cells):
            sink = None if on_trace is None else (
                lambda _, run, j, trace, c=c: on_trace(c, run, j, trace))
            stats += measure_cells(target, [cell], prompts, runs, on_trace=sink)
        return stats
    member = {key: k for k, key in enumerate(drafts)}
    per = runs * len(prompts)
    run, j = np.divmod(np.arange(per), len(prompts))
    seeds = derive_seeds(np.array([c.seed for _, c in cells], dtype=object)[:, None],
                         STREAM_EVAL, run, j)
    members = np.repeat([member[id(draft)] for draft, _ in cells], per)
    streams = prompts * runs * len(cells)
    bank = SeedBank(seeds)
    start = perf_counter()
    target_rows = RowTable(target, config.tau)
    draft_rows = RowTable.stack([RowTable(draft, config.tau) for draft in drafts.values()])
    outs, proposed, accepted, traces = decode_lockstep(
        target_rows, draft_rows, streams, config, bank, traces=on_trace is not None,
        members=members)
    wall_spec = perf_counter() - start
    bank = SeedBank(derive_seeds(seeds, STREAM_BASELINE))
    start = perf_counter()
    decode_lockstep(target_rows, None, streams, config, bank)
    wall_base = perf_counter() - start
    if on_trace is not None:
        for s, trace in enumerate(traces):
            on_trace(s // per, *divmod(s % per, len(prompts)), trace)
    tokens = np.array([len(out) for out in outs]).reshape(len(cells), per).sum(axis=1)
    stats = []
    for p, a, n in zip(proposed.reshape(len(cells), per).sum(axis=1).tolist(),
                       accepted.reshape(len(cells), per).sum(axis=1).tolist(), tokens.tolist()):
        if p == 0:
            raise DomainError("no draft proposals recorded")
        stats.append(DecodeStats(alpha=a / p, speedup=wall_base / wall_spec, tokens_out=n,
                                 wall_time_spec=wall_spec / len(cells),
                                 wall_time_base=wall_base / len(cells), runs=runs,
                                 draft_proposed=p, draft_accepted=a))
    return stats


@dataclass(frozen=True)
class SweepResult:
    """Decode metrics over (distillation tau, decoding tau, seed).

    ``seed_stats`` holds one ``(kd_tau, decode_tau, seed, stats)`` row per
    evaluation, sorted in that key order.
    """

    kd_taus: tuple
    decode_taus: tuple
    seed_stats: tuple


def _draft_file(kd_mode: str, kd_tau: float) -> str:
    return f"draft_{kd_mode}_tau{kd_tau:.2f}.ckpt"


def train_sweep_draft(corpus: CorpusBundle, kd_mode: str, kd_tau: float,
                      template: KDConfig, kd_index: int, cache_dir, draft_factory):
    """Train (or load from ``cache_dir``, when not None) the draft for one distillation tau.

    The cache file name keys on mode and temperature (to two decimals)
    only; reuse a cache directory across different step counts, learning
    rates, draft models or corpora and it will serve stale drafts, so
    give each sweep configuration its own directory.
    """
    path = None
    if cache_dir is not None:
        path = Path(cache_dir) / _draft_file(kd_mode, kd_tau)
        if path.exists():
            return load_checkpoint(path)
    student = draft_factory()
    cfg = replace(template, mode=kd_mode, tau_gen=kd_tau,
                  seed=derive_seed(template.seed, _TAG_SWEEP_TRAIN, kd_index))
    train_draft(student, corpus.teacher, corpus.prompts, cfg,
                derive_seed(template.seed, _TAG_SWEEP_DATA, kd_index))
    if path is not None:
        path.parent.mkdir(parents=True, exist_ok=True)
        save_checkpoint(student, path)
    return student


def _grid_taus(name: str, taus) -> tuple:
    """Sorted temperatures of one grid axis; empty or repeated ones raise :class:`DomainError`."""
    taus = tuple(sorted(float(t) for t in taus))
    if not taus:
        raise DomainError("temperature lists must be non-empty")
    if len(set(taus)) != len(taus):
        raise DomainError(f"{name} repeat a value: {taus}")
    return taus


def run_sweep(kd_taus, decode_taus, kd_mode, corpus: CorpusBundle,
              base_config: GenerationConfig, seeds, *, kd_template: KDConfig,
              runs_per_seed: int = 1, cache_dir=None, jobs: int = 1,
              draft_factory, trace_sink=None) -> SweepResult:
    """Train one draft per distillation tau, then measure every cell.

    Every (cell, seed) evaluation uses the child seed
    ``derive_seed(base_config.seed, tag, kd_index, decode_index, seed)``
    so cells are independent and reruns reproduce bit for bit. Drafts
    train one after another; then the cells of each decode tau are
    measured together by one :func:`measure_cells` call, whose cell
    results equal those of measuring each alone. ``jobs`` stays for
    callers that pass it and must be 1; a thread pool over the cells made
    sweeps slower, not faster.
    ``trace_sink(kd_tau, decode_tau, seed, text)``, when given, receives
    the concatenated traces of each evaluation, a decode tau's cells after
    that tau's decodes. With a ``cache_dir``, two
    ``kd_taus`` that would share a cache file name raise
    :class:`DomainError` before any draft trains.
    """
    kd_taus = _grid_taus("kd_taus", kd_taus)
    decode_taus = _grid_taus("decode_taus", decode_taus)
    seeds = tuple(int(s) for s in seeds)
    if not seeds:
        raise DomainError("seed list must be non-empty")
    if len(set(seeds)) != len(seeds):
        raise DomainError("seeds must be distinct")
    if jobs != 1:
        raise DomainError(f"jobs must be 1 (sweeps run serially), got {jobs}")
    if kd_mode not in ("offline", "online"):
        raise DomainError(f"unknown distillation mode '{kd_mode}'")
    if cache_dir is not None:
        names = [_draft_file(kd_mode, kd_tau) for kd_tau in kd_taus]
        for ki, name in enumerate(names):
            first = names.index(name)
            if first != ki:
                raise DomainError(f"kd_taus {kd_taus[first]!r} and {kd_taus[ki]!r} share the "
                                  f"cached draft {name}; give each a distinct two-decimal value")

    drafts = []
    for ki, kd_tau in enumerate(kd_taus):
        try:
            drafts.append(
                train_sweep_draft(
                    corpus, kd_mode, kd_tau, kd_template, ki, cache_dir, draft_factory
                )
            )
        except TrainingError as exc:
            raise TrainingError(f"sweep aborted at kd_tau={kd_tau:g}: {exc}") from exc

    keys = [(ki, seed) for ki in range(len(kd_taus)) for seed in sorted(seeds)]
    stats = {}
    for di, decode_tau in enumerate(decode_taus):
        cells = [(drafts[ki], replace(base_config, tau=decode_tau, seed=derive_seed(
                     base_config.seed, _TAG_SWEEP_CELL, ki, di, seed))) for ki, seed in keys]
        blocks: list[list[str]] = [[] for _ in keys]
        sink = None
        if trace_sink is not None:
            sink = lambda c, run, j, trace: blocks[c].append(dump_trace(trace))
        column = measure_cells(corpus.teacher, cells, corpus.prompts, runs_per_seed,
                               on_trace=sink)
        for (ki, seed), cell_stats, block in zip(keys, column, blocks):
            if trace_sink is not None:
                trace_sink(kd_taus[ki], decode_tau, seed, "\n".join(block))
            stats[ki, di, seed] = cell_stats

    seed_stats = tuple(
        (kd_tau, decode_tau, seed, stats[ki, di, seed])
        for ki, kd_tau in enumerate(kd_taus)
        for di, decode_tau in enumerate(decode_taus)
        for seed in sorted(seeds)
    )
    return SweepResult(kd_taus, decode_taus, seed_stats)


def best_kd_per_decode(result: SweepResult) -> list[tuple[float, float]]:
    """Distillation tau with the highest alpha, pooled over seeds, per decode tau.

    A cell's pooled alpha is its seeds' accepted over proposed draft
    tokens. Ties resolve to the lowest temperature. The scorecard's
    "kd-decode temperature matching" claim reads this. ``speclab report``
    picks by another rule, the highest mean of the per-seed alphas,
    because ``sweep.csv`` holds no counts; seeds with unequal proposal
    counts can make the two differ.
    """
    accepted, proposed = Counter(), Counter()
    for kd_tau, decode_tau, _, stats in result.seed_stats:
        accepted[kd_tau, decode_tau] += stats.draft_accepted
        proposed[kd_tau, decode_tau] += stats.draft_proposed
    return [(dec, max(result.kd_taus, key=lambda kd: (accepted[kd, dec] / proposed[kd, dec], -kd)))
            for dec in result.decode_taus]


def sweep_csv_text(result: SweepResult, *, no_timing: bool = False) -> str:
    """Render per-seed rows; ``no_timing`` zeroes clock-derived fields."""
    lines = [SWEEP_CSV_HEADER]
    for kd_tau, decode_tau, seed, stats in result.seed_stats:
        speedup = 0.0 if no_timing else stats.speedup
        wall_spec = 0.0 if no_timing else stats.wall_time_spec
        wall_base = 0.0 if no_timing else stats.wall_time_base
        lines.append(
            f"{kd_tau:.6f},{decode_tau:.6f},{seed},{stats.alpha:.6f},"
            f"{speedup:.6f},{stats.tokens_out},{wall_spec:.6f},{wall_base:.6f}"
        )
    return "".join(line + "\n" for line in lines)


def parse_sweep_csv(text: str) -> list[dict]:
    """Typed rows from sweep CSV text; rejects unknown layouts."""
    lines = text.splitlines()
    if not lines or lines[0] != SWEEP_CSV_HEADER:
        raise DomainError("unrecognized sweep CSV header")
    names = SWEEP_CSV_HEADER.split(",")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != len(names):
            raise DomainError(f"line {lineno}: expected {len(names)} fields")
        try:
            row = {name: (int if name in ("seed", "tokens_out") else float)(part)
                   for name, part in zip(names, parts)}
        except ValueError as exc:
            raise DomainError(f"line {lineno}: {exc}") from exc
        for name, value in row.items():
            if name == "alpha" and not 0.0 <= value <= 1.0:
                raise DomainError(f"line {lineno}: alpha must lie in [0, 1], got {value}")
            if name != "seed" and not (math.isfinite(value) and value >= 0):
                raise DomainError(f"line {lineno}: {name} must be finite and >= 0, got {value}")
        rows.append(row)
    return rows


def recount_alpha(trace_text: str) -> float:
    """Pooled acceptance recomputed from dumped traces.

    ``trace_text`` holds one or more dumped traces separated by blank
    lines, as written by the sweep and decode trace sinks. A malformed
    line raises :class:`DomainError` naming its block (1-based) and its
    1-based line number in ``trace_text``.
    """
    proposed = accepted = 0
    first_line, number = 1, 0
    for block in trace_text.split("\n\n"):
        if block.strip():
            number += 1
            trace = _parse_trace(block, f"trace block {number},", first_line)
            proposed += trace.draft_proposed
            accepted += trace.draft_accepted
        first_line += block.count("\n") + 2
    if proposed == 0:
        raise DomainError("no draft proposals recorded")
    return accepted / proposed


def compare_drafts(target, drafts, prompts, decode_taus,
                   base_config: GenerationConfig) -> list[tuple]:
    """Measure several drafts per seed on shared decoding randomness.

    ``drafts`` maps each seed to that seed's drafts. Returns one
    ``(decode_tau, seed, stats_per_draft...)`` row per cell, sorted by
    (decode_tau, seed). Every draft of a cell decodes each prompt once,
    with the child seed ``derive_seed(base_config.seed, tag,
    decode_index, seed)``, which does not depend on the draft, so the
    drafts compare pairwise. All drafts of all seeds at one decode tau
    are measured by one :func:`measure_cells` call, so they share one
    ``speedup`` when they stack.
    """
    prompts = list(prompts)
    decode_taus = _grid_taus("decode_taus", decode_taus)
    if not drafts:
        raise DomainError("drafts must map one or more seeds")
    arms = [(seed, tuple(drafts[seed])) for seed in sorted(drafts)]
    rows = []
    for di, decode_tau in enumerate(decode_taus):
        cells = [(draft, replace(base_config, tau=decode_tau,
                                 seed=derive_seed(base_config.seed, _TAG_ARM_CELL, di, seed)))
                 for seed, arm in arms for draft in arm]
        stats = iter(measure_cells(target, cells, prompts, runs=1))
        rows += [(decode_tau, seed, *(next(stats) for _ in arm)) for seed, arm in arms]
    return rows
