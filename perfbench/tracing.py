"""Span tracing of calls into speclab's layers, installed from outside.

While a :meth:`Tracer.installed` block is open, every traced public
function is replaced in the namespace of each speclab module that holds
it (``specdec.sample``, ``corpus.ce_gradient``, ``bench.load_checkpoint``
...), and every traced model method is replaced on its class. Nothing in
``src/`` changes, and leaving the block restores the original objects,
so untraced iterations run the program exactly as shipped.

Spans are aggregated in memory per (phase, function, caller) with call
count, total and self time; per-call records would be too many (teacher
pretraining makes about a million traced calls). A span's self time is
its duration minus the time of the traced spans it directly contains.
"""

from __future__ import annotations

import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

from speclab import bench, corpus, distill, lm, sampling, specdec

# Traced functions by layer-qualified name.
FUNCTIONS = {
    "sampling.softmax": sampling.softmax_with_temperature,
    "sampling.softmax_rows": sampling.softmax_rows_with_temperature,
    "sampling.sample": sampling.sample,
    "lm.ce_gradient": lm.ce_gradient,
    "lm.apply_update": lm.apply_update,
    "lm.fkl_gradient": lm.fkl_gradient,
    "lm.accumulate_gradients": lm.accumulate_gradients,
    "lm.load_checkpoint": lm.load_checkpoint,
    "specdec.speculative_generate": specdec.speculative_generate,
    "specdec.verify_block": specdec.verify_block,
    "specdec.residual_distribution": specdec.residual_distribution,
    "specdec.generate_autoregressive": specdec.generate_autoregressive,
    "corpus.pretrain_teacher": corpus.pretrain_teacher,
    "corpus.heldout_scores": corpus.heldout_scores,
    "distill.make_kd_dataset": distill.make_kd_dataset,
    "distill.train_offline": distill.train_offline,
    "distill.train_online": distill.train_online,
    "bench.run_sweep": bench.run_sweep,
    "bench.measure_decode": bench.measure_decode,
}

# Traced model methods: name -> (class, attribute).
METHODS = {
    "lm.ngram.forward": (lm.NGramLogitLM, "forward"),
    "lm.ngram.forward_batch": (lm.NGramLogitLM, "forward_batch"),
    "lm.neural.forward": (lm.TinyNeuralLM, "forward"),
    "lm.neural.forward_batch": (lm.TinyNeuralLM, "forward_batch"),
}


def _count_rounds(counters: Counter, result) -> None:
    out, trace = result
    counters["specdec.rounds"] += len(trace.rounds)
    counters["specdec.proposed"] += trace.draft_proposed
    counters["specdec.accepted"] += trace.draft_accepted
    counters["specdec.tokens"] += len(out)
    for rnd in trace.rounds:
        counters["specdec." + (rnd.correction_kind or "eos")] += 1


# Counters read from traced results, with the direction that is better.
COUNTERS = {
    "specdec.rounds": "lower",
    "specdec.proposed": "lower",
    "specdec.accepted": "higher",
    "specdec.resample": "lower",
    "specdec.bonus": "higher",
    "specdec.eos": "lower",
    "specdec.tokens": "higher",
}

# Hooks that update the counters from a traced call's result.
OBSERVERS = {"specdec.speculative_generate": _count_rounds}


class Tracer:
    """In-memory span aggregate for one traced iteration."""

    def __init__(self):
        self._stack: list[list] = []  # frames: [name, seconds in child spans]
        # (phase, name, caller) -> [calls, total_s, self_s]
        self.spans: dict[tuple[str, str, str], list] = {}
        self.counters: Counter = Counter()

    def _close(self, frame, caller: str, elapsed: float) -> None:
        stack = self._stack
        stack.pop()
        phase = stack[0][0] if stack else frame[0]
        if stack:
            stack[-1][1] += elapsed
        key = (phase, frame[0], caller)
        rec = self.spans.get(key)
        if rec is None:
            rec = self.spans[key] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += elapsed
        rec[2] += elapsed - frame[1]

    @contextmanager
    def phase(self, name: str):
        """Root span for one benchmark phase ("setup" or "timed")."""
        frame = [name, 0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            yield
        finally:
            self._close(frame, "benchmark", perf_counter() - start)

    def wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)

        def traced(*args, **kwargs):
            stack = self._stack
            caller = stack[-1][0] if stack else "benchmark"
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame, caller, perf_counter() - start)
            if observe is not None:
                observe(self.counters, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Swap the traced functions and methods in; restore on exit."""
        wrappers = {id(fn): self.wrap(name, fn) for name, fn in FUNCTIONS.items()}
        patches = []
        modules = [m for n, m in sys.modules.items() if n.startswith("speclab.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    patches.append((module, attr, value))
                    setattr(module, attr, wrapper)
        for name, (cls, attr) in METHODS.items():
            original = cls.__dict__[attr]
            patches.append((cls, attr, original))
            setattr(cls, attr, self.wrap(name, original))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def span_rows(self) -> list[dict]:
        """Aggregated spans, sorted by phase then self time."""
        rows = [
            {"phase": p, "name": n, "caller": c, "calls": r[0],
             "total_s": r[1], "self_s": r[2]}
            for (p, n, c), r in self.spans.items()
        ]
        rows.sort(key=lambda row: (row["phase"], -row["self_s"]))
        return rows


def _metric_list():
    rows = []
    for name in ("sampling.softmax", "sampling.softmax_rows", "sampling.sample",
                 "lm.ngram.forward", "lm.ngram.forward_batch",
                 "lm.neural.forward", "lm.neural.forward_batch",
                 "lm.ce_gradient", "lm.apply_update",
                 "lm.fkl_gradient", "lm.accumulate_gradients"):
        rows += [(name + ".calls", "count", "lower"), (name + ".self_s", "s", "lower")]
    rows.append(("lm.load_checkpoint.calls", "count", "lower"))
    for name in ("specdec.speculative_generate", "specdec.verify_block",
                 "specdec.residual_distribution", "specdec.generate_autoregressive"):
        rows += [(name + ".calls", "count", "lower"), (name + ".self_s", "s", "lower")]
    rows += [(name, "count", better) for name, better in COUNTERS.items()]
    rows += [
        ("specdec.alpha", "ratio", "higher"),
        ("specdec.tokens_per_round", "tokens/round", "higher"),
        ("corpus.pretrain_teacher.self_s", "s", "lower"),
        ("corpus.heldout_scores.calls", "count", "lower"),
        ("corpus.sgd_tokens", "count", "lower"),
        ("corpus.us_per_sgd_token", "us/token", "lower"),
        ("distill.make_kd_dataset.total_s", "s", "lower"),
        ("distill.train_offline.self_s", "s", "lower"),
        ("distill.train_online.self_s", "s", "lower"),
        ("distill.steps", "count", "lower"),
        ("distill.on_policy_steps", "count", "lower"),
        ("distill.trained_tokens", "count", "lower"),
        ("distill.us_per_trained_token", "us/token", "lower"),
        ("bench.run_sweep.self_s", "s", "lower"),
        ("bench.measure_decode.self_s", "s", "lower"),
        ("bench.spec_s", "s", "lower"),
        ("bench.base_s", "s", "lower"),
        ("bench.tokens_out", "count", "higher"),
        ("bench.us_per_emitted_token", "us/token", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
    return rows


# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = _metric_list()

# Per-layer metrics whose values come from the program's own outputs in
# the untraced iterations rather than from spans (see Workload.program_metrics).
PROGRAM_REPORTED = ("bench.spec_s", "bench.base_s", "bench.tokens_out",
                    "bench.us_per_emitted_token")


def _ratio(num: float, den: float) -> float:
    # A ratio whose base is 0 reports 0; the base is reported beside it.
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced iteration (setup and timed phases)."""
    calls: Counter = Counter()
    total: Counter = Counter()
    self_s: Counter = Counter()
    calls_by_caller: Counter = Counter()
    for (_, name, caller), (n, tot, slf) in tracer.spans.items():
        calls[name] += n
        total[name] += tot
        self_s[name] += slf
        calls_by_caller[name, caller] += n
    c = tracer.counters
    out: dict[str, float] = {}
    for name, _, _ in PER_LAYER:
        base, _, stat = name.rpartition(".")
        if stat == "calls":
            out[name] = calls[base]
        elif stat == "self_s":
            out[name] = self_s[base]
    for name in COUNTERS:
        out[name] = c[name]
    out["specdec.alpha"] = _ratio(c["specdec.accepted"], c["specdec.proposed"])
    out["specdec.tokens_per_round"] = _ratio(c["specdec.tokens"], c["specdec.rounds"])
    # Inside pretraining: one entropy reference, then one per convergence check.
    out["corpus.heldout_scores.calls"] = calls_by_caller[
        "corpus.heldout_scores", "corpus.pretrain_teacher"]
    sgd = calls_by_caller["lm.apply_update", "corpus.pretrain_teacher"]
    out["corpus.sgd_tokens"] = sgd
    out["corpus.us_per_sgd_token"] = _ratio(1e6 * total["corpus.pretrain_teacher"], sgd)
    trainers = ("distill.train_offline", "distill.train_online")
    trained = sum(calls_by_caller["lm.ce_gradient", t] for t in trainers)
    out["distill.make_kd_dataset.total_s"] = total["distill.make_kd_dataset"]
    out["distill.steps"] = sum(calls_by_caller["lm.apply_update", t] for t in trainers)
    out["distill.on_policy_steps"] = calls_by_caller[
        "specdec.generate_autoregressive", "distill.train_online"]
    out["distill.trained_tokens"] = trained
    out["distill.us_per_trained_token"] = _ratio(
        1e6 * sum(total[t] for t in trainers), trained)
    return out
