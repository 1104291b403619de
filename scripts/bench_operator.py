"""Time placement layers in two source trees on fixed-seed instances.

    python3 scripts/bench_operator.py --parent ../parent --change . \
        --out BENCH.json

Each tree is measured in its own fresh interpreter, with BLAS pinned to one
thread, on the same instances, drawn by perfbench's generators from seed 1.
Two sections are written:

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


def measure(trees, probe, *args):
    """{side: [probe output, ...]} over ROUNDS alternating rounds."""
    runs = {side: [] for side in trees}
    for k in range(ROUNDS):
        order = list(trees) if k % 2 == 0 else list(trees)[::-1]
        for side in order:
            runs[side].append(run_probe(trees[side], probe, *args))
    return runs


def compare(rounds, label):
    """Both sides' minimum and median over all rounds and their median per
    round, from {side: [call times of one round, ...]}."""
    row = {}
    for side in ("parent", "change"):
        times = [t for run in rounds[side] for t in run]
        row[side] = {"min_s": min(times),
                     "median_s": statistics.median(times),
                     "round_medians_s": [statistics.median(run)
                                         for run in rounds[side]]}
    row["change_over_parent"] = (row["change"]["median_s"]
                                 / row["parent"]["median_s"])
    spread = {side: [t * 1e6 for t in row[side]["round_medians_s"]]
              for side in ("parent", "change")}
    print(f"{label}: {row['parent']['median_s'] * 1e6:.1f} -> "
          f"{row['change']['median_s'] * 1e6:.1f} us "
          f"({row['change_over_parent']:.4f}); rounds "
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
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
