"""Time `Placer.operator()` builds in two source trees on fixed-seed instances.

    python3 scripts/bench_operator.py --parent ../parent --change . \
        --out BENCH.json

Each tree is measured in its own fresh interpreter, with BLAS pinned to one
thread, on the same instances: the random_normality structures of perfbench
at n = 4..6, m = 2 and the place_ladder structures at (16, 4) and (32, 8),
drawn by perfbench's generators from seed 1.  A build is timed from an empty
operator cache, REPEATS times per instance and tree; the record holds each
side's minimum and median and the change/parent ratio of the medians.  The
result is stored under the key "operator_build" of the --out JSON file,
which is created when missing and otherwise updated in place.
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

# Run inside each tree: prints {label: [build seconds, ...]} as JSON.
PROBE = """
import json, statistics, sys, time
import numpy as np
sys.path[:0] = ["src", "perfbench"]
import poleplace as pp
import workloads
out = {}
for label, n, m, gen, cls in json.loads(sys.argv[1]):
    rng = np.random.default_rng([1, n, m])
    if gen == "normality":
        make = lambda r: workloads.normality_structure(pp, r, n, cls)
    else:
        make = lambda r: workloads.ladder_structure(pp, r, n, m, cls)
    placer = pp.Placer(*workloads.admissible_instance(pp, rng, n, m, make))
    times = []
    for _ in range(int(sys.argv[2])):
        placer._operator = None
        t0 = time.perf_counter()
        placer.operator()
        times.append(time.perf_counter() - t0)
    out[label] = times
print(json.dumps(out))
"""


def measure(tree):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(INSTANCES), str(REPEATS)],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"operator probe failed in {tree}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    times = {side: measure(getattr(args, side).resolve())
             for side in ("parent", "change")}
    rows = {}
    for label, *_ in INSTANCES:
        row = {}
        for side in ("parent", "change"):
            row[side] = {"min_s": min(times[side][label]),
                         "median_s": statistics.median(times[side][label])}
        row["change_over_parent"] = (row["change"]["median_s"]
                                     / row["parent"]["median_s"])
        rows[label] = row
        print(f"{label}: {row['parent']['median_s'] * 1e6:.1f} -> "
              f"{row['change']['median_s'] * 1e6:.1f} us "
              f"({row['change_over_parent']:.4f})", flush=True)

    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc["operator_build"] = {
        "question": "wall time of one Placer.operator() build from an empty cache",
        "repeats": REPEATS,
        "blas_threads": "1",
        "instances": rows,
    }
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
