"""The benchmark's three workloads.

Each workload builds its inputs from the run seed in ``setup``, makes the
timed calls into speclab's public functions in ``run``, and checks the
outputs afterwards. ``setup`` runs again before every timed iteration
whose timed phase would change its state, so each iteration starts from
the same state and produces the same outputs.

The chain and prompts are the canonical ones (corpus seed 0) in every
workload. A new chain changes the amount of work: pretraining stops at a
convergence check, one every 8192 tokens, and over corpus seeds 0-10 it
took 164k to 181k SGD tokens; in decoding and distillation a new chain
changes how long responses run by up to a fifth. Either would hide a real
change in wall time. ``build_corpus`` takes no seed but the spec's, so
``teacher_pretrain`` is the canonical build at every run seed. In
``draft_distill`` and ``sweep_decode`` the run seed seeds the distillation
data, draft initialisation, training and decoding streams. Every other
value is fixed below.
"""

from __future__ import annotations

import hashlib
import math
import tempfile
from pathlib import Path

from speclab import bench, corpus, distill, lm, specdec
from speclab.corpus import CorpusBundle, CorpusSpec
from speclab.distill import KDConfig
from speclab.sampling import STREAM_HELDOUT, derive_seed, make_rng
from speclab.specdec import GenerationConfig

# The canonical corpus of configs/canonical.cfg, minus its seed.
CORPUS = {"vocab_size": 32, "order": 2, "concentration": 0.5,
          "n_prompts": 200, "prompt_len": 8}
# Canonical distillation hyperparameters (kd.* in configs/canonical.cfg).
KD = {"tau_gen": 1.0, "on_policy_frac": 0.5, "loss_ratio": 1.0,
      "learning_rate": 0.3, "steps": 3000, "gen_max_len": 64, "data_repeats": 5}
# Canonical draft constructors (models.* in configs/canonical.cfg).
NGRAM_DRAFT = {"family": lm.FAMILY_NGRAM, "order": 1, "init_scale": 2.0}
NEURAL_DRAFT = {"family": lm.FAMILY_NEURAL, "context_size": 3, "d_emb": 16, "d_hid": 64}

# Stream tags of the benchmark's own derived seeds.
_TAG_DATA = 51
_TAG_DRAFT_INIT = 52
_TAG_GREEDY = 53


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _text_digest(lines) -> str:
    return sha256("".join(line + "\n" for line in lines).encode("ascii"))


def _prompts_digest(prompts) -> str:
    return _text_digest(",".join(str(t) for t in p) for p in prompts)


def _make_draft(spec: dict, vocab, init_seed: int):
    if spec["family"] == lm.FAMILY_NGRAM:
        return lm.NGramLogitLM.create(vocab, spec["order"], init_scale=spec["init_scale"],
                                      init_seed=init_seed)
    return lm.TinyNeuralLM.create(vocab, context_size=spec["context_size"],
                                  d_emb=spec["d_emb"], d_hid=spec["d_hid"], seed=init_seed)


class Checks:
    """Correctness checks attempted in one run, with the failures."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok


class Workload:
    """One named workload; subclasses fill in the four hooks."""

    name = ""
    why = ""

    # Corpus seed of the chain and prompts.
    CHAIN_SEED = 0
    # True if the run seed enters no input, so every seed must reproduce
    # the golden digests of seed 0.
    SEED_FREE = False
    # True if ``run`` leaves the state of ``setup`` as it found it, so one
    # set-up can serve several timed iterations.
    REUSES_STATE = False

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.spec = CorpusSpec(**CORPUS, seed=self.CHAIN_SEED)

    def params(self) -> dict:
        """Every input parameter of the workload, resolved."""
        raise NotImplementedError

    def setup(self):
        """Inputs of one timed iteration."""
        raise NotImplementedError

    def run(self, state):
        """The timed calls; returns their outputs."""
        raise NotImplementedError

    def outputs(self, state, result) -> tuple[dict, dict]:
        """``(digests, counts)`` of one iteration's outputs."""
        raise NotImplementedError

    def check(self, state, result, checks: Checks) -> None:
        """Invariants of one iteration's outputs, for any seed."""

    def final_check(self, state, result, checks: Checks) -> None:
        """Checks that run once per run, after the timed iterations."""

    def program_metrics(self, result) -> dict:
        """Per-layer metrics that the program itself reports."""
        return {}

    def ground_truth(self):
        return corpus.build_ground_truth(self.spec, make_rng(self.spec.seed))


class TeacherPretrain(Workload):
    name = "teacher_pretrain"
    why = ("canonical build_corpus to a converged teacher: one-row SGD and tau=1 rollouts; "
           "no speculative decoding or distillation, so decode and KD changes must not move it")
    SEED_FREE = True  # build_corpus seeds everything from the canonical spec
    BUDGET = 800_000
    TOLERANCE = 0.05

    def params(self):
        return {"corpus": {**CORPUS, "seed": self.spec.seed}, "teacher_order": 2,
                "pretrain_budget": self.BUDGET, "tolerance": self.TOLERANCE}

    def setup(self):
        # The reference the convergence check scores the teacher against.
        gt = self.ground_truth()
        heldout = corpus.collect_heldout_contexts(
            gt, make_rng(derive_seed(self.spec.seed, STREAM_HELDOUT)))
        _, entropy = corpus.heldout_scores(gt, gt, heldout)
        return {"ground_truth": gt, "heldout": heldout, "entropy": entropy}

    def run(self, state):
        return corpus.build_corpus(self.spec, teacher_order=2,
                                   pretrain_budget=self.BUDGET, tolerance=self.TOLERANCE)

    def outputs(self, state, bundle):
        digests = {"teacher.ckpt": sha256(lm.checkpoint_bytes(bundle.teacher)),
                   "prompts": _prompts_digest(bundle.prompts)}
        return digests, {"prompts": len(bundle.prompts)}

    def check(self, state, bundle, checks):
        ce, _ = corpus.heldout_scores(state["ground_truth"], bundle.teacher, state["heldout"])
        target = (1.0 + self.TOLERANCE) * state["entropy"]
        checks.expect("teacher converges", ce <= target,
                      f"held-out CE {ce:.6f} above target {target:.6f}")
        checks.expect("prompt count", len(bundle.prompts) == self.spec.n_prompts,
                      f"{len(bundle.prompts)} prompts")


class DraftDistill(Workload):
    name = "draft_distill"
    why = ("KD dataset plus offline, online (FKL, on-policy) and tiny-neural drafts on the "
           "canonical chain: CE and FKL gradients on both model families, no verification")
    # (label, draft constructor, mode, steps)
    DRAFTS = (("ngram_offline", NGRAM_DRAFT, "offline", 3000),
              ("ngram_online", NGRAM_DRAFT, "online", 3000),
              ("neural_offline", NEURAL_DRAFT, "offline", 500))

    def params(self):
        return {"corpus": {**CORPUS, "seed": self.spec.seed}, "teacher": "ground_truth",
                "kd": {**KD, "seed": self.seed},
                "drafts": [{"label": label, "draft": draft, "mode": mode, "steps": steps}
                           for label, draft, mode, steps in self.DRAFTS]}

    def setup(self):
        gt = self.ground_truth()
        init_seed = derive_seed(self.seed, _TAG_DRAFT_INIT)
        return {"teacher": gt,
                "prompts": corpus.canonical_prompts(gt, self.spec),
                "students": [_make_draft(d, self.spec.vocab(), init_seed)
                             for _, d, _, _ in self.DRAFTS]}

    def run(self, state):
        teacher = state["teacher"]
        dataset = distill.make_kd_dataset(
            teacher, state["prompts"], KD["tau_gen"],
            make_rng(derive_seed(self.seed, _TAG_DATA)),
            repeats=KD["data_repeats"], max_len=KD["gen_max_len"])
        logs = []
        for student, (_, _, mode, steps) in zip(state["students"], self.DRAFTS):
            cfg = KDConfig(mode=mode, steps=steps, seed=self.seed,
                           **{k: v for k, v in KD.items() if k != "steps"})
            if mode == "offline":
                logs.append(distill.train_offline(student, dataset, cfg))
            else:
                logs.append(distill.train_online(student, teacher, dataset, cfg))
        return {"dataset": dataset, "logs": logs}

    def outputs(self, state, result):
        path = self.workdir / "kd_dataset.txt"
        distill.save_dataset(result["dataset"], path)
        digests = {"kd_dataset.txt": sha256(path.read_bytes())}
        counts = {"pairs": len(result["dataset"]),
                  "response_tokens": sum(len(p.response) for p in result["dataset"])}
        for student, log, (label, _, _, _) in zip(state["students"], result["logs"],
                                                   self.DRAFTS):
            digests[f"{label}.ckpt"] = sha256(lm.checkpoint_bytes(student))
            digests[f"{label}.train_log.csv"] = _text_digest(distill.train_log_rows(log))
            counts[f"{label}.log_rows"] = len(log)
        return digests, counts

    def check(self, state, result, checks):
        for log, (label, _, mode, steps) in zip(result["logs"], self.DRAFTS):
            checks.expect(f"{label} log has one row per step",
                          [e.step for e in log] == list(range(1, steps + 1)),
                          f"{len(log)} rows for {steps} steps")
            losses = [e.lm_loss for e in log]
            if mode == "online":
                losses += [math.nan if e.fkl is None else e.fkl for e in log]
            checks.expect(f"{label} log is finite", all(math.isfinite(v) for v in losses),
                          "non-finite or missing loss")


class SweepDecode(Workload):
    name = "sweep_decode"
    why = ("run_sweep over 2 kd taus x 3 decode taus x 2 seeds: speculative and baseline "
           "decoding, greedy and sampled, read-only lm; the drafts are trained in setup")
    KD_TAUS = (0.2, 1.0)
    DECODE_TAUS = (0.0, 0.6, 1.0)
    SEEDS = (1, 2)
    BLOCK_SIZE = 4
    MAX_NEW_TOKENS = 64
    # run_sweep only loads the drafts that set-up trained into the cache.
    REUSES_STATE = True

    def params(self):
        return {"corpus": {**CORPUS, "seed": self.spec.seed}, "teacher": "ground_truth",
                "kd_mode": "offline", "kd": {**KD, "seed": self.seed}, "draft": NGRAM_DRAFT,
                "kd_taus": self.KD_TAUS, "decode_taus": self.DECODE_TAUS,
                "seeds": self.SEEDS, "block_size": self.BLOCK_SIZE,
                "max_new_tokens": self.MAX_NEW_TOKENS, "runs_per_seed": 1, "jobs": 1}

    def _template(self):
        return KDConfig(mode="offline", seed=self.seed, **KD)

    def _factory(self):
        init_seed = derive_seed(self.seed, _TAG_DRAFT_INIT)
        return lambda: _make_draft(NGRAM_DRAFT, self.spec.vocab(), init_seed)

    def setup(self):
        gt = self.ground_truth()
        bundle = CorpusBundle(spec=self.spec, vocab=self.spec.vocab(), ground_truth=gt,
                              teacher=gt, prompts=corpus.canonical_prompts(gt, self.spec),
                              heldout_contexts=[], teacher_ce=math.nan,
                              entropy_rate=math.nan)
        cache_dir = Path(tempfile.mkdtemp(prefix="drafts-", dir=self.workdir))
        # Fill the sweep's draft cache in the order run_sweep indexes kd_taus,
        # so the timed sweep loads every draft instead of training it.
        for ki, kd_tau in enumerate(sorted(self.KD_TAUS)):
            bench.train_sweep_draft(bundle, "offline", kd_tau, self._template(), ki,
                                    cache_dir, self._factory())
        return {"bundle": bundle, "cache_dir": cache_dir}

    def run(self, state):
        base = GenerationConfig(tau=1.0, block_size=self.BLOCK_SIZE,
                                max_new_tokens=self.MAX_NEW_TOKENS, seed=self.seed)
        return bench.run_sweep(self.KD_TAUS, self.DECODE_TAUS, "offline", state["bundle"],
                               base, self.SEEDS, kd_template=self._template(),
                               runs_per_seed=1, cache_dir=state["cache_dir"], jobs=1,
                               draft_factory=self._factory())

    def _draft_paths(self, state):
        return sorted(state["cache_dir"].glob("*.ckpt"))

    def outputs(self, state, result):
        digests = {"sweep.csv": sha256(bench.sweep_csv_text(result, no_timing=True).encode())}
        for path in self._draft_paths(state):
            digests[path.name] = sha256(path.read_bytes())
        stats = [row[3] for row in result.seed_stats]
        counts = {"cells": len(stats),
                  "proposed": sum(s.draft_proposed for s in stats),
                  "accepted": sum(s.draft_accepted for s in stats),
                  "tokens_out": sum(s.tokens_out for s in stats)}
        return digests, counts

    def check(self, state, result, checks):
        expected = len(self.KD_TAUS) * len(self.DECODE_TAUS) * len(self.SEEDS)
        checks.expect("sweep has every cell", len(result.seed_stats) == expected,
                      f"{len(result.seed_stats)} of {expected} rows")
        for kd_tau, decode_tau, seed, stats in result.seed_stats:
            cell = f"kd {kd_tau:g} decode {decode_tau:g} seed {seed}"
            checks.expect(f"alpha in [0, 1] at {cell}", 0.0 <= stats.alpha <= 1.0,
                          f"alpha {stats.alpha}")
            checks.expect(f"tokens_out > 0 at {cell}", stats.tokens_out > 0,
                          f"tokens_out {stats.tokens_out}")

    def final_check(self, state, result, checks):
        """Greedy token-exactness on every tau=0 cell, prompt by prompt.

        At tau=0 both decoders are deterministic, so the draws' seeds do
        not matter; each prompt still gets its own streams.
        """
        target = state["bundle"].teacher
        for ki, path in enumerate(self._draft_paths(state)):
            draft = lm.load_checkpoint(path)
            for seed in self.SEEDS:
                cfg = GenerationConfig(tau=0.0, block_size=self.BLOCK_SIZE,
                                       max_new_tokens=self.MAX_NEW_TOKENS, seed=seed)
                mismatched = []
                for j, prompt in enumerate(state["bundle"].prompts):
                    s = derive_seed(self.seed, _TAG_GREEDY, ki, seed, j)
                    spec_out, _ = specdec.speculative_generate(target, draft, prompt, cfg,
                                                               make_rng(s))
                    base_out = specdec.generate_autoregressive(target, prompt, cfg,
                                                               make_rng(derive_seed(s, 1)))
                    if spec_out != base_out:
                        mismatched.append(j)
                checks.expect(f"greedy exactness at {path.name} seed {seed}", not mismatched,
                              f"{len(mismatched)} prompts differ, first {mismatched[:1]}")

    def program_metrics(self, result):
        stats = [row[3] for row in result.seed_stats]
        spec_s = sum(s.wall_time_spec for s in stats)
        tokens = sum(s.tokens_out for s in stats)
        return {"bench.spec_s": spec_s,
                "bench.base_s": sum(s.wall_time_base for s in stats),
                "bench.tokens_out": tokens,
                "bench.us_per_emitted_token": 1e6 * spec_s / tokens if tokens else 0.0}


WORKLOADS = {w.name: w for w in (TeacherPretrain, DraftDistill, SweepDecode)}
