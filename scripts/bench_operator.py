"""Time placement and evaluation layers in two source trees on fixed-seed instances.

    python3 scripts/bench_operator.py --parent ../parent --change . \
        --out BENCH.json

Each tree is measured in its own fresh interpreter, with BLAS pinned to one
thread, on the same instances, drawn by perfbench's generators from seed 1.
Three sections are written:

- "operator_build": one `Placer.operator()` build from empty caches (each
  build starts from a copy of the attributes the placer had right after
  `Placer()`, so every cache the operator fills is rebuilt), on the
  random_normality structures of perfbench at n = 4..6, m = 2 and the
  place_ladder structures at (16, 4) and (32, 8).
- "round_trip": one `Placer.build_chains`, one `Placer.place` and one
  `Placer.recover_parameters` call on the same K (recover on its chains),
  per place_ladder cell (each (n, m) of the ladder with each structure
  class), each timed after one untimed call that fills any lazily built
  cache.
- "evaluation": the optimizer's objective evaluations on k in {1, 2, 4, 8}
  probes x + t p, t = 1, 1/2, ..., of one line, from a nonsingular start
  x.  Each tree times k one-row `_Evaluator.point` calls; a tree whose
  evaluator has the stacked `points` also times one `points` call on the
  k rows, interleaved with the k `point` calls (each repeat times both,
  in alternating order), so that the two meet the same state of the host.  The instances are the normality
  objective (alpha = 1) on the random_normality structures at n = 4..6,
  m = 2 above, and the condition objective (alpha = 1) on the corpus
  entry bn02_distillation.  Each row holds "one_at_a_time" (k `point`
  calls, parent against change) and, when the change has `points`,
  "stacked" (the change's one `points` call against its own k `point`
  calls, timed in one process) and "stacked_vs_parent" (against the
  parent's k `point` calls).  This section runs EVALUATION_ROUNDS rounds.

Each probe runs ROUNDS times per tree, alternating which tree goes first,
so that drift of the host's speed falls on both sides alike; every call is
timed REPEATS times per instance, tree and round.  The record holds each
side's minimum and median over all rounds, its median in each round (so
that a difference can be judged against the round-to-round spread of
either side) and the change/parent ratio of the overall medians.  The
sections are stored under their keys of the --out JSON file, which is
created when missing and otherwise updated in place.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

# (label, n, m, generator, structure class)
INSTANCES = (
    ("n4-m2-simple", 4, 2, "normality", "simple"),
    ("n5-m2-defective", 5, 2, "normality", "defective"),
    ("n6-m2-simple", 6, 2, "normality", "simple"),
    ("n16-m4-defective", 16, 4, "ladder", "defective"),
    ("n32-m8-simple", 32, 8, "ladder", "simple"),
)
REPEATS = 20
ROUND_TRIP_REPEATS = 200
EVALUATION_REPEATS = 300
EVALUATION_ROUNDS = 8
ROUNDS = 4

PRELUDE = """
import json, sys, time
import numpy as np
sys.path[:0] = ["src", "perfbench"]
import poleplace as pp
import workloads

def timed(call, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return times
"""

# Run inside each tree: prints {label: [build seconds, ...]} as JSON.
OPERATOR_PROBE = PRELUDE + """
out = {}
for label, n, m, gen, cls in json.loads(sys.argv[1]):
    rng = np.random.default_rng([1, n, m])
    if gen == "normality":
        make = lambda r: workloads.normality_structure(pp, r, n, cls)
    else:
        make = lambda r: workloads.ladder_structure(pp, r, n, m, cls)
    placer = pp.Placer(*workloads.admissible_instance(pp, rng, n, m, make))
    fresh = dict(placer.__dict__)

    def build():
        # back to the freshly built placer, whatever its caches are called
        placer.__dict__ = dict(fresh)
        placer.operator()

    out[label] = timed(build, int(sys.argv[2]))
print(json.dumps(out))
"""

# Run inside each tree: prints {label: {"point": {k: [seconds, ...]},
# "points": {k: [...]}}}, "points" only where the evaluator has it.
EVALUATION_PROBE = PRELUDE + """
from poleplace.bench import defective_zero_structure
from poleplace.optimize import _Evaluator

cases = []
for label, n, m, gen, cls in json.loads(sys.argv[1]):
    if gen != "normality":
        continue
    rng = np.random.default_rng([1, n, m])
    make = lambda r: workloads.normality_structure(pp, r, n, cls)
    sys_, spec = workloads.admissible_instance(pp, rng, n, m, make)
    cases.append((f"normality-{label}", "normality", sys_, spec, rng))
bn02 = pp.load_system(workloads.CORPUS / "bn02_distillation.json").system
cases.append(("condition-bn02", "condition", bn02,
              defective_zero_structure(bn02), np.random.default_rng(1)))

out = {}
for label, method, sys_, spec, rng in cases:
    evaluate = _Evaluator(pp.ObjectiveSpec(method, 1.0), pp.Placer(sys_, spec))
    while True:
        x = rng.standard_normal(sys_.m * sys_.n)
        if evaluate.point(x) is not None:
            break
    X = x + 0.5 ** np.arange(8)[:, None] * rng.standard_normal(x.size)
    repeats = int(sys.argv[2])
    calls = {"point": lambda k: [evaluate.point(r) for r in X[:k]]}
    if hasattr(evaluate, "points"):
        calls["points"] = lambda k: evaluate.points(X[:k])
    row = {name: {k: [] for k in (1, 2, 4, 8)} for name in calls}
    for r in range(repeats):
        for k in (1, 2, 4, 8):
            # alternate which call goes first
            for name, call in list(calls.items())[:: 1 - 2 * (r % 2)]:
                row[name][k] += timed(lambda: call(k), 1)
    out[label] = row
print(json.dumps(out))
"""

# Run inside each tree: prints
# {label: {"build_chains": [...], "place": [...], "recover": [...]}}
# over the place_ladder cells, seconds per call.
ROUND_TRIP_PROBE = PRELUDE + """
out = {}
for n, m in workloads.LADDER_CELLS:
    for cls in workloads.STRUCTURE_CLASSES:
        rng = np.random.default_rng([1, n, m])
        make = lambda r: workloads.ladder_structure(pp, r, n, m, cls)
        placer = pp.Placer(*workloads.admissible_instance(pp, rng, n, m, make))
        while True:
            K = pp.ParameterMatrix.random(placer.spec, m, rng)
            try:
                placer.place(K)
                break
            except pp.SingularMatrixError:
                continue
        chains = placer.build_chains(K)
        placer.recover_parameters(chains)
        repeats = int(sys.argv[1])
        out[f"n{n}-m{m}-{cls}"] = {
            "build_chains": timed(lambda: placer.build_chains(K), repeats),
            "place": timed(lambda: placer.place(K), repeats),
            "recover": timed(lambda: placer.recover_parameters(chains), repeats),
        }
print(json.dumps(out))
"""


def run_probe(tree, probe, *args):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", probe, *args],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"probe failed in {tree}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def measure(trees, probe, *args, rounds=ROUNDS):
    """{side: [probe output, ...]} over alternating rounds."""
    runs = {side: [] for side in trees}
    for k in range(rounds):
        order = list(trees) if k % 2 == 0 else list(trees)[::-1]
        for side in order:
            runs[side].append(run_probe(trees[side], probe, *args))
    return runs


def compare(rounds, label, sides=("parent", "change")):
    """Both sides' minimum and median over all rounds and their median per
    round, from {side: [call times of one round, ...]}, and the ratio of the
    second side's median to the first's ("change_over_parent" by default)."""
    first, second = sides
    row = {}
    for side in sides:
        times = [t for run in rounds[side] for t in run]
        row[side] = {"min_s": min(times),
                     "median_s": statistics.median(times),
                     "round_medians_s": [statistics.median(run)
                                         for run in rounds[side]]}
    ratio = row[second]["median_s"] / row[first]["median_s"]
    row[f"{second}_over_{first}"] = ratio
    spread = {side: [t * 1e6 for t in row[side]["round_medians_s"]]
              for side in sides}
    print(f"{label}: {row[first]['median_s'] * 1e6:.1f} -> "
          f"{row[second]['median_s'] * 1e6:.1f} us ({ratio:.4f}); rounds "
          + " -> ".join(f"{min(v):.1f}..{max(v):.1f}" for v in spread.values()),
          flush=True)
    return row


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    trees = {side: getattr(args, side).resolve() for side in ("parent", "change")}

    builds = measure(trees, OPERATOR_PROBE, json.dumps(INSTANCES), str(REPEATS))
    operator_rows = {
        label: compare({side: [run[label] for run in builds[side]]
                        for side in trees}, label)
        for label, *_ in INSTANCES
    }

    calls = measure(trees, ROUND_TRIP_PROBE, str(ROUND_TRIP_REPEATS))
    round_trip_rows = {
        cell: {call: compare({side: [run[cell][call] for run in calls[side]]
                              for side in trees}, f"{cell} {call}")
               for call in ("build_chains", "place", "recover")}
        for cell in calls["parent"][0]
    }

    evals = measure(trees, EVALUATION_PROBE, json.dumps(INSTANCES),
                    str(EVALUATION_REPEATS), rounds=EVALUATION_ROUNDS)
    evaluation_rows = {}
    for label, parent_row in evals["parent"][0].items():
        evaluation_rows[label] = {}
        for k in parent_row["point"]:
            def rounds(side, name):
                return [run[label][name][k] for run in evals[side]]

            row = {"one_at_a_time": compare(
                {side: rounds(side, "point") for side in trees},
                f"{label} k={k} point")}
            if "points" in evals["change"][0][label]:
                row["stacked"] = compare(
                    {"point": rounds("change", "point"),
                     "points": rounds("change", "points")},
                    f"{label} k={k} change points/point", ("point", "points"))
                row["stacked_vs_parent"] = compare(
                    {"parent": rounds("parent", "point"),
                     "change": rounds("change", "points")},
                    f"{label} k={k} change points/parent point")
            evaluation_rows[label][k] = row

    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc["operator_build"] = {
        "question": "wall time of one Placer.operator() build from empty caches",
        "repeats": REPEATS,
        "rounds": ROUNDS,
        "blas_threads": "1",
        "instances": operator_rows,
    }
    doc["round_trip"] = {
        "question": "wall time of one Placer.build_chains, one Placer.place "
                    "and one Placer.recover_parameters call per place_ladder "
                    "cell",
        "repeats": ROUND_TRIP_REPEATS,
        "rounds": ROUNDS,
        "blas_threads": "1",
        "cells": round_trip_rows,
    }
    doc["evaluation"] = {
        "question": "wall time of the objective evaluations at k probes of "
                    "one line: k point calls in each tree, and the change's "
                    "one stacked points call against its own and the "
                    "parent's k point calls",
        "repeats": EVALUATION_REPEATS,
        "rounds": EVALUATION_ROUNDS,
        "blas_threads": "1",
        "instances": evaluation_rows,
    }
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
