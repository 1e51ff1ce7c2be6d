"""Command-line entry point: reproducible experiment runs from config files.

Commands: ``corpus`` (build chain, teacher, prompt set), ``distill``
(train a draft), ``decode`` (measure one decoding setting), ``sweep``
(distillation-tau x decoding-tau grid), ``compose`` (mixed-temperature
dataset vs single-temperature), ``report`` (text summary of sweep CSVs).
Every command is deterministic given its config; wall-clock fields are
the one exception and the ``--no-timing`` flag zeroes them so reruns
compare byte for byte.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .bench import (
    DEFAULT_DECODE_TAUS,
    DEFAULT_KD_TAUS,
    compare_drafts,
    measure_decode,
    parse_sweep_csv,
    recount_alpha,
    run_sweep,
    sweep_csv_text,
)
from .corpus import (
    CorpusBundle,
    CorpusSpec,
    build_corpus,
    load_prompts,
    save_prompts,
)
from .distill import KDConfig, save_dataset, train_draft, train_log_rows
from .errors import ConfigError, DomainError, NumericError, TrainingError, VerificationError
from .files import write_atomic
from .lm import (
    FAMILY_NEURAL,
    FAMILY_NGRAM,
    NGramLogitLM,
    TinyNeuralLM,
    load_checkpoint,
    save_checkpoint,
)
from .sampling import derive_seed
from .specdec import GenerationConfig, dump_trace

_TAG_DRAFT_INIT = 31
_TAG_DATA = 32


def _parse_bool(text: str) -> bool:
    low = text.lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_float_list(text: str) -> tuple:
    return tuple(float(part) for part in text.split(",") if part.strip() != "")


def _parse_int_list(text: str) -> tuple:
    return tuple(int(part) for part in text.split(",") if part.strip() != "")


def _finite_nonneg(value) -> bool:
    return math.isfinite(value) and value >= 0


# Range checks: (test, what a passing value is).
_AT_LEAST_1 = (lambda n: n >= 1, ">= 1")
_FINITE_NONNEG = (_finite_nonneg, "finite and >= 0")
_TAUS = (lambda taus: len(taus) > 0 and all(map(_finite_nonneg, taus)),
         "one or more finite temperatures >= 0")
# A grid's axis: a repeat would key two row sets alike (a mixture's repeat is a weight).
_GRID_TAUS = (lambda taus: _TAUS[0](taus) and len(set(taus)) == len(taus),
              _TAUS[1] + ", none repeated")
_SEEDS = (lambda seeds: 0 < len(seeds) == len(set(seeds)), "one or more distinct seeds")
_FAMILY = (lambda name: name in (FAMILY_NGRAM, FAMILY_NEURAL),
           f"'{FAMILY_NGRAM}' or '{FAMILY_NEURAL}'")

# Sections built into a dataclass, field by field, whose constructor
# checks the fields' ranges. Each starts its DomainError with the field
# name, so the section prefix makes the message name the key.
_SECTIONS = (("corpus", CorpusSpec), ("kd", KDConfig), ("decode", GenerationConfig))
_FIELD_PARSERS = {"int": int, "float": float, "str": str}


def _section_rows() -> dict:
    """A `section.field` row per dataclass field: its annotation's parser and its default."""
    rows = {}
    for section, cls in _SECTIONS:
        for f in fields(cls):  # f.type is the annotation's text: the modules defer annotations
            if f.type not in _FIELD_PARSERS:
                raise TypeError(f"{cls.__name__}.{f.name}: no config parser for {f.type!r}")
            rows[f"{section}.{f.name}"] = (_FIELD_PARSERS[f.type], f.default, None)
    return rows


# Flat `section.key = value` schema: parser, default and range check per
# key. A check of None means any parsed value is in range, or that the
# section's dataclass (_SECTIONS) checks it when it is built. Explicit
# rows are the keys that no dataclass field holds.
_SCHEMA = {
    **_section_rows(),
    "corpus.pretrain_budget": (int, 800_000, _AT_LEAST_1),
    "corpus.tolerance": (float, 0.05, _FINITE_NONNEG),
    "models.teacher_order": (int, 2, _AT_LEAST_1),
    "models.draft_family": (str, FAMILY_NGRAM, _FAMILY),
    "models.draft_order": (int, 1, _AT_LEAST_1),
    "models.draft_init_scale": (float, 2.0, _FINITE_NONNEG),
    "models.draft_context_size": (int, 3, _AT_LEAST_1),
    "models.draft_d_emb": (int, 16, _AT_LEAST_1),
    "models.draft_d_hid": (int, 64, _AT_LEAST_1),
    "decode.runs": (int, 5, _AT_LEAST_1),
    "sweep.kd_taus": (_parse_float_list, DEFAULT_KD_TAUS, _GRID_TAUS),
    "sweep.decode_taus": (_parse_float_list, DEFAULT_DECODE_TAUS, _GRID_TAUS),
    "sweep.seeds": (_parse_int_list, (1, 2, 3, 4, 5), _SEEDS),
    "sweep.runs_per_seed": (int, 1, _AT_LEAST_1),
    "sweep.traces": (_parse_bool, False, None),
    "compose.tau_set": (_parse_float_list, (1.0, 0.9, 0.8), _TAUS),
    "compose.single_tau": (float, 1.0, _FINITE_NONNEG),
    "compose.decode_taus": (_parse_float_list, (1.0,), _GRID_TAUS),
    "compose.seeds": (_parse_int_list, (1, 2, 3, 4, 5), _SEEDS),
    "compose.data_repeats": (int, 1, _AT_LEAST_1),
    "io.output_dir": (str, "runs/default", None),
}


@dataclass
class RunConfig:
    """Typed view of one config file: the built sections plus every resolved value."""

    corpus: CorpusSpec
    kd: KDConfig
    decode: GenerationConfig
    values: dict

    @property
    def output_dir(self) -> Path:
        return Path(self.values["io.output_dir"])


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Flat `section.key = value` lines into a fully defaulted dict."""
    values = {key: default for key, (_, default, _) in _SCHEMA.items()}
    set_on: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'section.key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"{source}:{lineno}: unknown key '{key}'")
        if key in set_on:
            raise ConfigError(
                f"{source}:{lineno}: duplicate key '{key}', first set on line {set_on[key]}"
            )
        set_on[key] = lineno
        parser_fn = _SCHEMA[key][0]
        try:
            values[key] = parser_fn(value)
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for '{key}': {exc}") from exc
    return values


def _build_run_config(values: dict, seed_override: int | None) -> RunConfig:
    if seed_override is not None:
        values = {**values, **{f"{section}.seed": seed_override for section, _ in _SECTIONS}}
    for key, (_, _, check) in _SCHEMA.items():
        if check is not None and not check[0](values[key]):
            raise ConfigError(f"{key} must be {check[1]}, got {values[key]!r}")
    built = {}
    for section, cls in _SECTIONS:
        try:
            built[section] = cls(**{f.name: values[f"{section}.{f.name}"] for f in fields(cls)})
        except DomainError as exc:
            raise ConfigError(f"{section}.{exc}") from exc
    return RunConfig(**built, values=values)


def load_config(path, seed_override: int | None = None) -> RunConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    values = parse_config_text(path.read_text(), source=str(path))
    return _build_run_config(values, seed_override)


def _draft_factory(config: RunConfig):
    """Student constructor; the same initialization every call."""
    values = config.values
    vocab = config.corpus.vocab()
    init_seed = derive_seed(config.kd.seed, _TAG_DRAFT_INIT)
    if values["models.draft_family"] == FAMILY_NGRAM:
        return lambda: NGramLogitLM.create(
            vocab,
            values["models.draft_order"],
            init_scale=values["models.draft_init_scale"],
            init_seed=init_seed,
        )
    return lambda: TinyNeuralLM.create(
        vocab,
        context_size=values["models.draft_context_size"],
        d_emb=values["models.draft_d_emb"],
        d_hid=values["models.draft_d_hid"],
        seed=init_seed,
    )


def _require_artifact(path: Path, producer: str) -> Path:
    if not path.is_file():
        raise ConfigError(f"missing artifact {path}; run the {producer} command first")
    return path


def _load_eval_bundle(config: RunConfig) -> CorpusBundle:
    """Bundle backed by saved artifacts; enough for decoding work.

    The ground truth and held-out fields are not reloaded; commands
    that only decode never touch them.
    """
    out = config.output_dir
    teacher = load_checkpoint(_require_artifact(out / "teacher.ckpt", "corpus"))
    prompts = load_prompts(_require_artifact(out / "prompts_in.txt", "corpus"))
    return CorpusBundle(
        spec=config.corpus,
        vocab=config.corpus.vocab(),
        ground_truth=None,
        teacher=teacher,
        prompts=prompts,
        heldout_contexts=[],
        teacher_ce=float("nan"),
        entropy_rate=float("nan"),
    )


def cmd_corpus(config: RunConfig, no_timing: bool = False) -> int:
    out = config.output_dir
    budget = config.values["corpus.pretrain_budget"]
    try:
        bundle = build_corpus(
            config.corpus,
            teacher_order=config.values["models.teacher_order"],
            pretrain_budget=budget,
            tolerance=config.values["corpus.tolerance"],
        )
    except TrainingError as exc:
        # A wider teacher has more rows to fit: name the key that buys it tokens.
        raise TrainingError(f"{exc}; raise corpus.pretrain_budget (now {budget})") from exc
    save_checkpoint(bundle.ground_truth, out / "ground_truth.ckpt")
    save_checkpoint(bundle.teacher, out / "teacher.ckpt")
    save_prompts(bundle.prompts, out / "prompts_in.txt")
    meta = (
        f"vocab_size = {config.corpus.vocab_size}\n"
        f"order = {config.corpus.order}\n"
        f"concentration = {config.corpus.concentration!r}\n"
        f"seed = {config.corpus.seed}\n"
        f"teacher_heldout_ce = {bundle.teacher_ce:.12f}\n"
        f"heldout_entropy_rate = {bundle.entropy_rate:.12f}\n"
    )
    write_atomic(out / "corpus_meta.txt", meta)
    for name in ("ground_truth.ckpt", "teacher.ckpt"):
        load_checkpoint(out / name)
    if load_prompts(out / "prompts_in.txt") != bundle.prompts:
        raise VerificationError("prompt file round trip mismatch")
    print(
        f"corpus written to {out} (teacher held-out CE {bundle.teacher_ce:.6f}, "
        f"entropy rate {bundle.entropy_rate:.6f})"
    )
    return 0


def cmd_distill(config: RunConfig, no_timing: bool = False) -> int:
    out = config.output_dir
    bundle = _load_eval_bundle(config)
    student = _draft_factory(config)()
    dataset, log = train_draft(student, bundle.teacher, bundle.prompts, config.kd,
                               derive_seed(config.kd.seed, _TAG_DATA))
    save_dataset(dataset, out / "kd_dataset.txt")
    save_checkpoint(student, out / "draft.ckpt")
    write_atomic(out / "train_log.csv", "".join(row + "\n" for row in train_log_rows(log)))
    load_checkpoint(out / "draft.ckpt")
    if len(log) != config.kd.steps:
        raise VerificationError("training log row count does not match steps")
    last = log[-1].lm_loss if log else float("nan")
    print(f"draft written to {out / 'draft.ckpt'} ({config.kd.mode}, final lm_loss {last:.6f})")
    return 0


def cmd_decode(config: RunConfig, no_timing: bool = False) -> int:
    out = config.output_dir
    bundle = _load_eval_bundle(config)
    draft = load_checkpoint(_require_artifact(out / "draft.ckpt", "distill"))
    blocks: list[str] = []
    stats = measure_decode(
        bundle.teacher,
        draft,
        bundle.prompts,
        config.decode,
        config.values["decode.runs"],
        on_trace=lambda run, j, trace: blocks.append(dump_trace(trace)),
    )
    traces_dir = out / "traces"
    traces_dir.mkdir(exist_ok=True)
    trace_text = "\n".join(blocks)
    write_atomic(traces_dir / "decode_traces.txt", trace_text)
    if recount_alpha(trace_text) != stats.alpha:
        raise VerificationError("trace-recomputed alpha does not match measured alpha")
    speedup = 0.0 if no_timing else stats.speedup
    wall_spec = 0.0 if no_timing else stats.wall_time_spec
    wall_base = 0.0 if no_timing else stats.wall_time_base
    stats_text = (
        f"alpha = {stats.alpha:.6f}\n"
        f"speedup = {speedup:.6f}\n"
        f"tokens_out = {stats.tokens_out}\n"
        f"wall_spec_s = {wall_spec:.6f}\n"
        f"wall_base_s = {wall_base:.6f}\n"
        f"runs = {stats.runs}\n"
        f"draft_proposed = {stats.draft_proposed}\n"
        f"draft_accepted = {stats.draft_accepted}\n"
    )
    write_atomic(out / "decode_stats.txt", stats_text)
    print(f"decode stats written to {out / 'decode_stats.txt'} (alpha {stats.alpha:.6f})")
    return 0


def cmd_sweep(config: RunConfig, no_timing: bool = False) -> int:
    out = config.output_dir
    bundle = _load_eval_bundle(config)
    values = config.values
    trace_sink = None
    if values["sweep.traces"]:
        traces_dir = out / "traces"
        traces_dir.mkdir(exist_ok=True)

        def trace_sink(kd_tau, decode_tau, seed, text):
            name = f"sweep_kd{kd_tau:.2f}_dec{decode_tau:.2f}_seed{seed}.txt"
            write_atomic(traces_dir / name, text)

    result = run_sweep(
        values["sweep.kd_taus"],
        values["sweep.decode_taus"],
        config.kd.mode,
        bundle,
        config.decode,
        values["sweep.seeds"],
        kd_template=config.kd,
        runs_per_seed=values["sweep.runs_per_seed"],
        cache_dir=out / "drafts",
        draft_factory=_draft_factory(config),
        trace_sink=trace_sink,
    )
    csv_text = sweep_csv_text(result, no_timing=no_timing)
    write_atomic(out / "sweep.csv", csv_text)
    rows = parse_sweep_csv(csv_text)
    expected = len(result.kd_taus) * len(result.decode_taus) * len(values["sweep.seeds"])
    if len(rows) != expected:
        raise VerificationError("sweep CSV row count does not match the grid")
    print(f"sweep written to {out / 'sweep.csv'} ({len(rows)} rows)")
    return 0


def cmd_compose(config: RunConfig, no_timing: bool = False) -> int:
    out = config.output_dir
    bundle = _load_eval_bundle(config)
    values = config.values
    factory = _draft_factory(config)

    def train_pair(seed: int):
        # Both arms see the same data volume; the default single pass keeps
        # per-transition estimates noisy enough that the mixture's cleaner
        # low-temperature samples can show up in the comparison.
        kd_cfg = replace(config.kd, mode="offline", seed=derive_seed(config.kd.seed, seed),
                         data_repeats=values["compose.data_repeats"])
        pair = (factory(), factory())
        for draft, taus in zip(pair, (values["compose.single_tau"], values["compose.tau_set"])):
            train_draft(draft, bundle.teacher, bundle.prompts, kd_cfg,
                        derive_seed(config.kd.seed, _TAG_DATA, seed), taus)
        return pair

    drafts = {seed: train_pair(seed) for seed in values["compose.seeds"]}
    rows = compare_drafts(bundle.teacher, drafts, bundle.prompts, values["compose.decode_taus"],
                          config.decode)
    lines = ["decode_tau,seed,delta_alpha,delta_speedup"]
    wins = 0
    for decode_tau, seed, single, composed in rows:
        delta_alpha = composed.alpha - single.alpha
        delta_speedup = 0.0 if no_timing else composed.speedup - single.speedup
        wins += delta_alpha >= 0
        lines.append(f"{decode_tau:.6f},{seed},{delta_alpha:.6f},{delta_speedup:.6f}")
    write_atomic(out / "comparison.csv", "".join(line + "\n" for line in lines))
    print(
        f"comparison written to {out / 'comparison.csv'} "
        f"({wins}/{len(rows)} rows with delta_alpha >= 0)"
    )
    return 0


def _report_section(path: Path) -> str:
    rows = parse_sweep_csv(path.read_text())
    if not rows:
        raise DomainError(f"{path}: no data rows")
    kd_taus = sorted({r["kd_tau"] for r in rows})
    decode_taus = sorted({r["decode_tau"] for r in rows})
    seeds = sorted({r["seed"] for r in rows})
    cell_alpha: dict = {}
    for kd in kd_taus:
        for dec in decode_taus:
            group = [r for r in rows if r["kd_tau"] == kd and r["decode_tau"] == dec]
            if group:
                cell_alpha[(kd, dec)] = sum(r["alpha"] for r in group) / len(group)
    lines = [f"# sweep report: {path}"]
    lines.append(
        f"rows: {len(rows)}  seeds: {len(seeds)}  cells: {len(cell_alpha)}  "
        f"kd_taus: {len(kd_taus)}  decode_taus: {len(decode_taus)}"
    )
    lines.append("mean alpha per cell (rows kd_tau, columns decode_tau):")
    header = "  kd\\dec |" + "".join(f" {dec:8.2f}" for dec in decode_taus)
    lines.append(header)
    for kd in kd_taus:
        row = f"  {kd:6.2f} |" + "".join(
            f" {cell_alpha.get((kd, dec), float('nan')):8.6f}" for dec in decode_taus
        )
        lines.append(row)
    lines.append("best kd_tau per decode_tau (mean alpha over seeds):")
    for dec in decode_taus:
        candidates = [(kd, cell_alpha[(kd, dec)]) for kd in kd_taus if (kd, dec) in cell_alpha]
        best_kd, best_alpha = max(candidates, key=lambda item: (item[1], -item[0]))
        lines.append(f"  decode {dec:.2f} -> kd {best_kd:.2f} (alpha {best_alpha:.6f})")
    lines.append("decode-temperature view (means over all kd rows and seeds):")
    for dec in decode_taus:
        group = [r for r in rows if r["decode_tau"] == dec]
        mean_alpha = sum(r["alpha"] for r in group) / len(group)
        mean_speedup = sum(r["speedup"] for r in group) / len(group)
        lines.append(f"  decode {dec:.2f}: alpha {mean_alpha:.6f}  speedup {mean_speedup:.6f}")
    sym_pairs = [
        (a, b)
        for a in kd_taus
        for b in decode_taus
        if a < b and (a, b) in cell_alpha and (b, a) in cell_alpha
    ]
    if sym_pairs:
        lines.append("swapped-temperature pairs (mean alpha):")
        for a, b in sym_pairs:
            lines.append(
                f"  kd {a:.2f} / decode {b:.2f}: {cell_alpha[(a, b)]:.6f}  vs  "
                f"kd {b:.2f} / decode {a:.2f}: {cell_alpha[(b, a)]:.6f}"
            )
    return "".join(line + "\n" for line in lines)


def cmd_report(paths, out_path=None) -> int:
    sections = [_report_section(Path(p)) for p in paths]
    text = "\n".join(sections)
    if out_path is not None:
        write_atomic(out_path, text)
        print(f"report written to {out_path}")
    else:
        sys.stdout.write(text)
    return 0


# The config-driven commands; `report` reads CSVs instead of a config.
_COMMANDS = {"corpus": cmd_corpus, "distill": cmd_distill, "decode": cmd_decode,
             "sweep": cmd_sweep, "compose": cmd_compose}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="speclab",
        description="Desk-scale speculative decoding and distillation lab.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        command = sub.add_parser(name, help=f"run the {name} stage")
        command.add_argument("--config", required=True, help="path to a run config file")
        command.add_argument("--seed", type=int, default=None,
                             help="override corpus/kd/decode seeds")
        command.add_argument("--no-timing", action="store_true", help="zero wall-clock fields")
    report = sub.add_parser("report", help="summarize sweep CSVs as text")
    report.add_argument("csvs", nargs="+", help="sweep CSV paths")
    report.add_argument("--out", default=None, help="write the report here instead of stdout")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "report":
            return cmd_report(args.csvs, args.out)
        config = load_config(args.config, seed_override=args.seed)
        config.output_dir.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](config, no_timing=args.no_timing)
    except (
        ConfigError,
        DomainError,
        TrainingError,
        NumericError,
        VerificationError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
