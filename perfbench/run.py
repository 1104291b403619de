"""poleplace benchmark: one workload per invocation, closed loop, one process.

    python3 perfbench/run.py --workload corpus_bench --seed 1 --seconds 30 --trace 0

Ops run back to back; each starts after the previous one returns.  The
timed phase repeats the workload's fixed op list ("pass") until --seconds
have elapsed.  With --trace 0 the last stdout line is a JSON object with the
end-to-end metrics; with --trace 1 passes alternate untraced and traced and
the object carries the per-layer metrics.  Times are in reference seconds
(see speed.py).  ``--frontier`` runs the untimed conditioning-frontier scan
instead.  Full records go to .perfbench/.  See perfbench/README.md.
"""

import os

# BLAS and OpenMP pools are pinned before numpy is first imported, so the
# figures measure the program rather than the thread scheduler.
THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_REPEATS = 5
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import poleplace; "
    "print(time.perf_counter() - t)"
)


def fail(message):
    sys.stderr.write(f"perfbench: {message}\n")
    raise SystemExit(2)


def load_package():
    if not (SRC / "poleplace" / "__init__.py").is_file():
        fail(f"no poleplace sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import poleplace
    import poleplace.bench  # noqa: F401  (submodules used by name)
    import poleplace.cli  # noqa: F401

    if Path(poleplace.__file__).resolve().parent != SRC / "poleplace":
        fail(f"imported poleplace from {poleplace.__file__}, not {SRC}")
    return poleplace


def environment(seed, cpu):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "blas_threads": THREADS,
        "pinned_cpu": cpu,
        "seed": seed,
    }


class Clock:
    """Raw intervals now; reference seconds once the sampler has stopped."""

    def __init__(self):
        self.intervals = []

    def time(self, fn):
        t0 = time.perf_counter()
        try:
            return fn(), len(self.intervals)
        finally:
            self.intervals.append((t0, time.perf_counter()))


def import_seconds():
    """`import poleplace` in a fresh interpreter, timed inside it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        fail(f"importing poleplace failed:\n{proc.stderr}")
    return float(proc.stdout.strip())


def run_pass(ops, clock):
    """Run every op once; returns (interval ids, per-op outcomes)."""
    ids, outcomes = [], []
    for _, run, _ in ops:
        ids.append(len(clock.intervals))
        try:
            outputs, _ = clock.time(run)
            outcomes.append((outputs, None))
        except Exception as exc:  # an op that raises counts as failed
            outcomes.append((None, f"raised {type(exc).__name__}: {exc}"))
    return ids, outcomes


def judge(ops, outcomes):
    """Correctness checks of one pass: (failed ops with causes, quality)."""
    failures, quality = [], {}
    for (name, _, check), (outputs, error) in zip(ops, outcomes):
        if error is not None:
            failures.append(f"{name}: {error}")
            continue
        causes, q = check(outputs)
        if causes:
            failures.append(f"{name}: {'; '.join(causes)}")
            continue
        for key, values in q.items():
            quality.setdefault(key, []).extend(values)
    return failures, quality


def tail(latencies):
    """Latency at the highest percentile with >= 10 samples beyond it.

    Returns (value, percentile level, sample count); with fewer than 11
    samples no such percentile exists and the maximum is returned at
    level 100.
    """
    xs = sorted(latencies)
    k = len(xs) - 11
    if k < 0:
        return xs[-1], 100.0, len(xs)
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs)


def gmean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else 0.0


def measure(pp, tracing, make_ops, args, clock):
    """Set-up and timed phase; returns raw interval ids and the judgements."""
    m = {"import": [], "setup": [], "passes": [], "traced": [], "figs": [],
         "failures": [], "quality": None, "attempted": 0, "first_trace": None}
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        m["import"].append((import_seconds(), t0, time.perf_counter()))
        ops, idx = clock.time(lambda: make_ops(pp, args.seed))
        m["setup"].append(idx)

    if args.trace:
        tracer = tracing.Tracer()
        with tracer.installed(pp):
            ops, m["traced_setup"] = clock.time(lambda: make_ops(pp, args.seed))
        m["setup_fig"] = tracing.layer_figures(tracer.spans)

    t_phase = time.perf_counter()
    traced = False
    while True:
        if traced:
            tracer = tracing.Tracer()
            with tracer.installed(pp):
                ids, outcomes = run_pass(ops, clock)
            m["figs"].append((tracing.layer_figures(tracer.spans), ids))
            m["first_trace"] = m["first_trace"] or tracer
        else:
            ids, outcomes = run_pass(ops, clock)
        m["traced" if traced else "passes"].append(ids)
        failures, quality = judge(ops, outcomes)
        m["failures"] += failures
        m["attempted"] += len(ops)
        if m["quality"] is None:
            m["quality"] = quality
        elapsed = time.perf_counter() - t_phase
        if args.trace:
            traced = not traced
            if elapsed >= args.seconds and m["traced"]:
                break
        elif elapsed >= args.seconds:
            break
    m["ops"] = ops
    return m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--frontier", action="store_true",
                        help="run the untimed conditioning-frontier scan")
    args = parser.parse_args(argv)

    t_start = time.perf_counter()
    pp = load_package()
    import speed
    import tracing
    import workloads

    if args.frontier:
        return frontier(pp, workloads, args.seed)
    if args.workload not in workloads.WORKLOADS:
        fail(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    make_ops = workloads.WORKLOADS[args.workload]

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    cpu = speed.pin_to_one_cpu()
    clock = Clock()
    sampler = speed.Sampler(OUT / f"{tag}-speed.log", cpu)
    with sampler:
        m = measure(pp, tracing, make_ops, args, clock)

    def raw(idx):
        t0, t1 = clock.intervals[idx]
        return t1 - t0

    def ref(idx):
        return raw(idx) * sampler.factor(*clock.intervals[idx])

    ops = m["ops"]
    import_s = statistics.median(
        t * sampler.factor(t0, t1) for t, t0, t1 in m["import"])
    setup_ref = [ref(i) for i in m["setup"]]
    setup_s = import_s + statistics.median(setup_ref)

    latencies = [ref(i) for ids in m["passes"] for i in ids]
    walls = [sum(ref(i) for i in ids) for ids in m["passes"]]
    wall_s = statistics.median(walls)
    op_p50 = statistics.median(latencies)
    tail_s, tail_level, samples = tail(latencies)
    by_op = {}
    for ids in m["passes"]:
        for (name, _, _), i in zip(ops, ids):
            by_op.setdefault(name, []).append(ref(i))
    failures, attempted = m["failures"], m["attempted"]
    failed = len(failures)
    kappa_g = gmean(m["quality"].get("kappa_fro", []))
    best_g = gmean(m["quality"].get("best_value", []))

    spans_written = None
    traced_walls = [sum(ref(i) for i in ids) for ids in m["traced"]]
    if args.trace:
        spans_written = OUT / f"{args.workload}-s{args.seed}-spans.jsonl"
        m["first_trace"].write_jsonl(spans_written)
        pass_figs = [
            tracing.scaled(fig, sum(ref(i) for i in ids) / sum(raw(i) for i in ids))
            for fig, ids in m["figs"]
        ]
        setup_fig = tracing.scaled(m["setup_fig"], ref(m["traced_setup"])
                                   / raw(m["traced_setup"]))
        layers = tracing.combine(setup_fig, pass_figs)
        layers.update({
            "trace.overhead_s": statistics.median(traced_walls) - wall_s,
            "op_s_tail": tail_s,
            "fail_share": failed / attempted,
            "kappa_fro_gmean": kappa_g,
            "best_value_gmean": best_g,
        })
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in per_layer_metrics()}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "ops_per_s": {"value": len(latencies) / sum(walls), "unit": "1/s"},
            "op_s_p50": {"value": op_p50, "unit": "s"},
        }

    record = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(args.seed, cpu),
        "reference_kernel_s": speed.REFERENCE_S,
        "kernel_samples": len(sampler.kernel_s),
        "setup": {"import_s": import_s,
                  "import_raw_s": [t for t, _, _ in m["import"]],
                  "inputs_s": setup_ref,
                  "inputs_raw_s": [raw(i) for i in m["setup"]]},
        "passes": {"untraced_wall_s": walls, "traced_wall_s": traced_walls,
                   "untraced_raw_s": [sum(raw(i) for i in ids)
                                      for ids in m["passes"]]},
        "ops_per_pass": len(ops),
        "op_s_p50": {"value": op_p50, "samples": samples},
        "op_s_tail": {"value": tail_s, "percentile": tail_level,
                      "samples": samples},
        "op_s_p50_by_op": {k: statistics.median(v) for k, v in by_op.items()},
        "fail_share": failed / attempted,
        "failures": sorted(set(failures)),
        "quality": {"kappa_fro_gmean": kappa_g, "best_value_gmean": best_g},
        "spans": str(spans_written.relative_to(ROOT)) if spans_written else None,
        "metrics": metrics,
        "total_s": time.perf_counter() - t_start,
    }
    out_path = OUT / f"{tag}.json"
    out_path.write_text(json.dumps(record, indent=2) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  "
          f"environment {json.dumps(record['environment'])}")
    print(f"passes {len(walls)} untraced, {len(traced_walls)} traced; "
          f"{len(ops)} ops per pass; times in reference seconds")
    print(f"op_s_p50 {op_p50:.6g} s (n={samples}); op_s_tail {tail_s:.6g} s "
          f"at p{tail_level:.1f} (n={samples})")
    print(f"fail_share {failed / attempted:.6g} ({failed}/{attempted})")
    for cause in record["failures"]:
        print(f"  failed: {cause}")
    if kappa_g:
        print(f"kappa_fro_gmean {kappa_g!r}")
    if best_g:
        print(f"best_value_gmean {best_g!r}")
    if args.trace:
        print(f"trace overhead {metrics['trace.overhead_s']['value']:.6g} s "
              f"per pass; spans in {record['spans']}")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    print(f"record {out_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def per_layer_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec["per_layer"]]


def frontier(pp, workloads, seed):
    cells = workloads.frontier_scan(pp, seed)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"frontier-s{seed}.json"
    path.write_text(json.dumps({"environment": environment(seed, None),
                                "cells": cells}, indent=2) + "\n")
    print("| n | m | class | ok | singular | residual miss | recover miss "
          "| no instance | median cond(V) |")
    print("|---|---|---|---|---|---|---|---|---|")
    for c in cells:
        cond = f"{c['cond_V_median']:.3g}" if c["cond_V_median"] else "-"
        print(f"| {c['n']} | {c['m']} | {c['class']} | {c['ok_share']:.2f} | "
              f"{c['singular_share']:.2f} | {c['residual_miss_share']:.2f} | "
              f"{c['recover_miss_share']:.2f} | {c['setup_share']:.2f} | {cond} |")
    print(f"record {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    raise SystemExit(main())
