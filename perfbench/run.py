"""Benchmark of the causal_sphhn pipeline: one command, three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload pipeline_small --seed 0 --seconds 30 --trace 0

``--trace 0`` prepares the workload once, sets it up several times
(``setup_s`` is their median), then runs a closed loop of one client for
about ``--seconds`` seconds (at least one iteration), checks every output
and reports the end-to-end metrics.  ``--trace 1`` runs one untraced iteration, then sets
up and runs one more iteration with a wrapper around every layer function
(see spans.py), and reports the per-layer metrics.  Report lines come
first; the last line of standard output is the JSON result.  Results and
spans are also written under ``.perfbench/results/``.

``--toy`` runs every workload on the ``toy`` preset; smoke.py uses it.
"""

from __future__ import annotations

import os
import sys

# One BLAS/OpenMP thread in this process and, through the environment, in
# every CLI child.  This must happen before numpy is first imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
# Set-ups take well under a second, so their median over many is steady.
SETUP_REPS = 15
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

# Units of every figure the report can name.  The twelve end-to-end figures
# are printed for the workloads they apply to; BENCHMARK.json declares which
# of them the final JSON line carries.
UNITS = {
    "prepare_s": "s",
    "setup_s": "s",
    "wall_s": "s",
    "synth_s": "s",
    "granger_s": "s",
    "train_s": "s",
    "eval_s": "s",
    "peak_rss_mb": "MB",
    "dataset_mb": "MB",
    "spurious_edges": "count",
    "planted_recall": "ratio",
    "test_accuracy": "ratio",
    "test_ece": "ratio",
}
END_TO_END = ("wall_s", "peak_rss_mb", "setup_s")
# Stage and quality figures carried by the traced run's result, 0 where a
# workload does not run that stage.
STAGE_FIGURES = (
    "synth_s", "granger_s", "train_s", "eval_s", "dataset_mb",
    "spurious_edges", "planted_recall", "test_accuracy", "test_ece",
)


def tail_percentile(samples: list[float]):
    """Highest percentile with at least 10 samples beyond it, as (label, value)."""
    for p in TAIL_LADDER:
        if len(samples) * (1.0 - p / 100.0) >= 10:
            return f"p{p:g}", float(np.percentile(samples, p))
    return None


def describe(name: str, samples: list[float]) -> str:
    unit = UNITS[name]
    med = statistics.median(samples)
    tail = tail_percentile(samples)
    tail_text = f"{tail[0]} {tail[1]:.6g} {unit}" if tail else "no tail percentile (fewer than 11 samples)"
    return f"{name:16s} median {med:.6g} {unit:6s} n={len(samples):<3d} {tail_text}"


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "seed": args.seed,
        "workload": args.workload,
        "toy": args.toy,
    }


def checked(wl, out, first: bool, reference) -> None:
    """Run the workload's checks; an exception is a failed check, not a crash."""
    try:
        wl.check(out, first)
    except Exception:
        out.fail(next(iter(out.ops), "iteration"), "check raised: " + traceback.format_exc(limit=3))
    if reference is not None:
        for key, (op, digest) in out.fingerprints.items():
            ref = reference.fingerprints.get(key)
            if ref is not None and ref[1] != digest:
                out.fail(op, f"{key} fingerprint {digest[:12]} differs from first iteration's {ref[1][:12]}")


def timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def run_untraced(wl, seconds: int) -> tuple[list[float], list]:
    setups = [timed(wl.setup) for _ in range(SETUP_REPS)]
    outcomes = []
    start = time.perf_counter()
    while True:
        out = wl.untraced_iteration()
        checked(wl, out, not outcomes, outcomes[0] if outcomes else None)
        outcomes.append(out)
        if time.perf_counter() - start + out.wall_s > seconds:
            return setups, outcomes


def run_traced(wl):
    from spans import Tracer

    setups = [timed(wl.setup)]
    base = wl.untraced_iteration()
    checked(wl, base, True, None)
    outcomes = [base]
    if wl.runs_children:
        # Traced commands run in-process, so measure that path untraced too:
        # the overhead is traced against untraced on the same path.
        outcomes.append(wl.iterate(in_process=True))
        checked(wl, outcomes[-1], False, base)
    tracer = Tracer()
    with tracer.installed():
        with tracer.span("workload.setup"):
            wl.setup()
        with tracer.span("workload.iteration"):
            traced = wl.iterate(tracer)
    checked(wl, traced, False, base)
    return setups, outcomes + [traced], tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="run on the toy preset (smoke test)")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind normally so a running CLI child is killed and the
    # work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isdir(os.path.join(SRC, "causal_sphhn")):
        print(f"error: no causal_sphhn package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-toy" if args.toy else "")
    work = os.path.join(OUT_DIR, f"work-{tag}-{os.getpid()}")
    results_dir = os.path.join(OUT_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, args.toy, work, ROOT, env)

    try:
        prepare_s = timed(wl.prepare)
        if args.trace:
            setups, outcomes, tracer = run_traced(wl)
        else:
            setups, outcomes = run_untraced(wl, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(len(o.ops) for o in outcomes)
    failures = [f"{op}: {msg}" for o in outcomes for op, msgs in o.ops.items() for msg in msgs]
    failed = sum(1 for o in outcomes for msgs in o.ops.values() if msgs)
    samples = {
        "prepare_s": [prepare_s],
        "setup_s": setups,
        "wall_s": [o.wall_s for o in outcomes[:1 if args.trace else None]],
        "peak_rss_mb": [o.peak_rss_mb for o in outcomes[:1 if args.trace else None]],
    }
    for o in outcomes[:1] if args.trace else outcomes:
        for key, value in {**o.stages, **o.quality}.items():
            samples.setdefault(key, []).append(value)

    env_doc = environment(args)
    print(f"# perfbench {args.workload} " + " ".join(f"{k}={v}" for k, v in env_doc.items() if k != "threads")
          + " threads=1 loop=closed clients=1")
    for name in wl.reports:
        print(describe(name, samples[name]) if samples.get(name) else f"{name:16s} not measured")
    fingerprints = {k: v for o in outcomes[:1] for k, (_, v) in o.fingerprints.items()}
    for key, digest in sorted(fingerprints.items()):
        print(f"fingerprint {key:8s} {digest}")
    for key, value in sorted(outcomes[0].extra.items()):
        print(f"check {key} {value}")
    print(f"operations attempted {attempted} failed {failed}")
    for line in failures:
        print("FAILED " + line.replace("\n", " | "))

    if args.trace:
        from spans import layer_metrics

        layer = layer_metrics(tracer)
        layer["trace.overhead_frac"] = (outcomes[-1].wall_s / outcomes[-2].wall_s - 1.0, "ratio")
        for name in STAGE_FIGURES:
            layer[name] = (statistics.median(samples[name]) if samples.get(name) else 0.0, UNITS[name])
        for name, (value, unit) in layer.items():
            print(f"layer {name:28s} {value:.6g} {unit}")
        print(f"trace leaf wrapper cost outside its timing {tracer.leaf_overhead_s * 1e9:.0f} ns per call")
        metrics_doc = {name: {"value": float(value), "unit": unit} for name, (value, unit) in layer.items()}
        tracer.write_jsonl(os.path.join(results_dir, f"{tag}-spans.jsonl"))
    else:
        metrics_doc = {
            name: {"value": float(statistics.median(samples[name])), "unit": UNITS[name]} for name in END_TO_END
        }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics_doc}
    with open(os.path.join(results_dir, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(
            {"result": result, "environment": env_doc, "samples": samples, "fingerprints": fingerprints,
             "failures": failures},
            fh,
            indent=2,
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
