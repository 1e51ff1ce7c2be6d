"""speclab benchmark: three workloads, end-to-end metrics, and a traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

A run repeats set-up plus the timed phase of one workload for up to
``--seconds`` (at least three times), checks every output, and reports
medians over the iterations. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones
(wall_probes, setup_s, peak_rss_mb); with ``--trace 1`` untraced and traced
iterations alternate, and the metrics are the per-layer ones from the
traced iterations plus the tracing overhead. ``--workload all`` runs
every workload in its own process and prints each one's report.

Run records (metadata, digests, checks, metrics) and traced spans are
written to ``.perfbench/`` at the root of the checkout.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP pools to one thread before numpy loads, so the
# neural draft's matmuls cannot spawn threads on a small machine.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
GOLDEN = Path(__file__).resolve().parent / "golden.json"
MIN_ITERATIONS = 3  # untraced; a traced run needs two of each kind
SETUP_SECONDS = 0.25
SETUP_ITERATIONS = 2  # iterations that set up, for workloads that reuse state

END_TO_END = (("wall_probes", "probes"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def import_speclab():
    """Import speclab from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "speclab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no speclab sources at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import speclab

    if Path(speclab.__file__).resolve().parent != SRC / "speclab":
        sys.exit(f"perfbench: imported speclab from {speclab.__file__}, not {SRC}")
    return speclab


def git_rev() -> str | None:
    """Commit of the checkout, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest() -> str:
    """sha256 over speclab's source files, to tell two programs apart."""
    h = hashlib.sha256()
    for path in sorted((SRC / "speclab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata(args, workload, numpy, speclab) -> dict:
    params = workload.params()
    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "speclab": speclab.__version__,
        "git_rev": git_rev(),
        "source_sha256": source_digest(),
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {v: os.environ[v] for v in THREAD_ENV},
        "params": params,
        "params_sha256": hashlib.sha256(
            json.dumps(params, sort_keys=True).encode()).hexdigest(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def check_golden(workload, digests, numpy_version, checks) -> None:
    """Compare output digests with the recorded seed-0 ones."""
    table = json.loads(GOLDEN.read_text())
    key = f"numpy {numpy_version}"
    if not checks.expect(f"golden digests recorded for {key}", key in table,
                         f"none in {GOLDEN.name}; add the seed-0 digests printed "
                         f"above under \"{key}\""):
        return
    for name, want in table[key][workload.name].items():
        got = digests.get(name)
        checks.expect(f"golden digest of {name}", got == want, f"{got} != {want}")


def iterate(workload, args, checks):
    """Set-up and timed phase, repeated; returns per-iteration records.

    Once the minimum count is reached, another iteration starts only
    while the longest one of its kind so far would still end within
    ``--seconds``. An untraced iteration repeats a cheap set-up until it
    has spent SETUP_SECONDS on it, so that short set-up times get a
    median over many samples; a traced iteration sets up once. A workload whose timed
    phase leaves its state unchanged (``Workload.REUSES_STATE``) sets up
    in its first SETUP_ITERATIONS iterations and in traced ones only, so
    more of the run times the timed phase.
    """
    from probe import probing
    from tracing import Tracer, layer_metrics

    records = []
    state = None
    start = perf_counter()
    while True:
        n = len(records)
        traced = bool(args.trace) and n % 2 == 1
        reuse = workload.REUSES_STATE and not traced and n >= SETUP_ITERATIONS
        need = 4 if args.trace else MIN_ITERATIONS
        if n >= need:
            alike = [r["iteration_s"] for r in records
                     if (r["traced"], r["reused"]) == (traced, reuse)]
            longest = max(alike or [r["iteration_s"] for r in records])
            if perf_counter() - start + longest > args.seconds:
                break
        tracer = Tracer()
        rec = {"traced": traced, "reused": reuse, "setup_times": []}
        records.append(rec)
        t_iter = perf_counter()
        try:
            with tracer.installed() if traced else nullcontext():
                while not reuse and (not rec["setup_times"] or (
                        not traced and sum(rec["setup_times"]) < SETUP_SECONDS)):
                    gc.collect()
                    t0 = perf_counter()
                    with tracer.phase("setup") if traced else nullcontext():
                        state = workload.setup()
                    rec["setup_times"].append(perf_counter() - t0)
                gc.collect()
                # A traced iteration is not probed: the loop would land in
                # the self time of whichever span it interrupts.
                with tracer.phase("timed") if traced else probing() as loop_times:
                    t1 = perf_counter()
                    result = workload.run(state)
                    wall_s = perf_counter() - t1
            rec["digests"], rec["counts"] = workload.outputs(state, result)
            workload.check(state, result, checks)
            rec["program"] = workload.program_metrics(result)
        except Exception as exc:  # a raising workload call is a failed check
            checks.expect(f"iteration {n} completes", False, repr(exc))
            rec["error"] = repr(exc)
            return records, None, None
        rec["iteration_s"] = perf_counter() - t_iter
        rec["wall_s"] = wall_s
        if traced:
            rec["layers"] = layer_metrics(tracer)
            rec["spans"] = tracer.span_rows()
        else:
            rec["probe_s"] = statistics.median(loop_times)
            rec["probes"] = len(loop_times)
            rec["wall_probes"] = wall_s / rec["probe_s"]
        if n:
            first = records[0]
            checks.expect(f"iteration {n} repeats the outputs of iteration 0",
                          (rec["digests"], rec["counts"]) == (first["digests"], first["counts"]),
                          "digests or counts differ")
    return records, state, result


def median(values):
    return statistics.median(values) if values else 0.0


def traced_metrics(workload_name, records, checks):
    """Per-layer metrics: medians over traced iterations, counts checked exact."""
    from tracing import PER_LAYER, PROGRAM_REPORTED

    traced = [r for r in records if r["traced"] and "layers" in r]
    plain = [r for r in records if not r["traced"] and "wall_s" in r]
    if not traced:
        return {}
    counted = [name for name, unit, _ in PER_LAYER if unit == "count"
               and name not in PROGRAM_REPORTED]
    for rec in traced[1:]:
        diff = [k for k in counted if rec["layers"][k] != traced[0]["layers"][k]]
        checks.expect("traced counts repeat exactly", not diff, f"differ: {diff}")
    layers = traced[0]["layers"]
    checks.expect("specdec.verify_block.calls = 0 outside sweep_decode",
                  workload_name == "sweep_decode" or layers["specdec.verify_block.calls"] == 0,
                  f"{layers['specdec.verify_block.calls']} calls")
    checks.expect("lm.fkl_gradient.calls = 0 outside draft_distill",
                  workload_name == "draft_distill" or layers["lm.fkl_gradient.calls"] == 0,
                  f"{layers['lm.fkl_gradient.calls']} calls")
    out = {}
    for name, _, _ in PER_LAYER:
        if name in PROGRAM_REPORTED:
            out[name] = median([r["program"].get(name, 0.0) for r in plain])
        elif name in counted:
            out[name] = layers[name]
        elif name != "trace.overhead_s":
            out[name] = median([r["layers"][name] for r in traced])
    out["trace.overhead_s"] = (median([r["wall_s"] for r in traced])
                               - median([r["wall_s"] for r in plain]))
    return out


def run_one(args) -> int:
    speclab = import_speclab()
    import numpy

    from workloads import WORKLOADS, Checks

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT_DIR))
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        meta = metadata(args, workload, numpy, speclab)
        meta["loadavg_before"] = os.getloadavg()
        checks = Checks()
        records, state, result = iterate(workload, args, checks)
        if result is not None:
            try:
                workload.final_check(state, result, checks)
            except Exception as exc:  # a raising workload call is a failed check
                checks.expect("final checks complete", False, repr(exc))
        meta["loadavg_after"] = os.getloadavg()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    digests = records[0].get("digests", {})
    if digests and (args.seed == 0 or workload.SEED_FREE):
        check_golden(workload, digests, numpy.__version__, checks)
    plain = [r for r in records if not r["traced"] and "wall_s" in r]
    end_to_end = {
        "wall_probes": median([r["wall_probes"] for r in plain]),
        "wall_s": median([r["wall_s"] for r in plain]),
        "probe_s": median([r["probe_s"] for r in plain]),
        "setup_s": median([t for r in plain for t in r["setup_times"]]),
        "peak_rss_mb": peak_rss_mb(),
    }
    per_layer = traced_metrics(workload.name, records, checks) if args.trace else {}
    failed = len(checks.failures)

    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    record = {"meta": meta, "end_to_end": end_to_end, "per_layer": per_layer,
              "checks": {"attempted": checks.attempted, "failures": checks.failures},
              "digests": digests, "counts": records[0].get("counts", {}),
              "iterations": [{k: v for k, v in r.items() if k not in ("layers", "spans")}
                             for r in records]}
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        spans = [{"iteration": i, **row} for i, r in enumerate(records)
                 for row in r.get("spans", [])]
        (OUT_DIR / f"spans-{tag}.json").write_text(json.dumps({"meta": meta, "spans": spans}))

    print(f"speclab benchmark: workload {workload.name}, seed {args.seed}, "
          f"trace {args.trace}")
    print("meta " + json.dumps({k: v for k, v in meta.items() if k != "params"}))
    print(f"params_sha256 {meta['params_sha256']}")
    for r in records:
        kind = "traced" if r["traced"] else "untraced"
        if "wall_s" in r:
            probed = f"  probe_us {1e6 * r['probe_s']:.1f}" if "probe_s" in r else ""
            print(f"iteration {kind:8s} wall_s {r['wall_s']:.4f}{probed}  setup_s "
                  + " ".join(f"{t:.4f}" for t in r["setup_times"]))
    for name, value in sorted(digests.items()):
        print(f"digest {name} {value}")
    for name, value in sorted(records[0].get("counts", {}).items()):
        print(f"count {name} {value}")
    for failure in checks.failures:
        print(f"FAILED {failure}")
    print(f"{'wall_probes':12s} {end_to_end['wall_probes']:.1f} probes (median of {len(plain)})")
    print(f"{'wall_s':12s} {end_to_end['wall_s']:.6f} s (median of {len(plain)})")
    print(f"{'probe_us':12s} {1e6 * end_to_end['probe_s']:.2f} us (median of {len(plain)})")
    n_setups = sum(len(r["setup_times"]) for r in plain)
    print(f"{'setup_s':12s} {end_to_end['setup_s']:.6f} s (median of {n_setups})")
    print(f"{'peak_rss_mb':12s} {end_to_end['peak_rss_mb']:.3f} MB")
    print(f"{'failed_frac':12s} {failed / max(checks.attempted, 1):.6f} "
          f"({failed} of {checks.attempted} checks)")
    for name, value in per_layer.items():
        print(f"layer {name:40s} {value}")
    if args.trace:
        from tracing import PER_LAYER

        metrics = {n: {"value": per_layer.get(n, 0.0), "unit": u} for n, u, _ in PER_LAYER}
    else:
        metrics = {n: {"value": end_to_end[n], "unit": u} for n, u in END_TO_END}
    print(json.dumps({"correct": failed == 0, "attempted": checks.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one combined last line."""
    import_speclab()
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=("all", "teacher_pretrain", "draft_distill", "sweep_decode"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
