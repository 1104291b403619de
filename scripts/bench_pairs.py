"""Run perfbench in alternating parent/change pairs and summarise the runs.

    python3 scripts/bench_pairs.py --parent ../parent --change . \
        --out BENCH.json random_normality=1-10,100 corpus_bench=1-5

Each positional argument is WORKLOAD=SEEDS, the seeds a comma-separated list
of numbers and ranges.  --parent and --change are two full source trees, for
the parent e.g. a `git clone` of this repository checked out at the parent
commit.  Every run is

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

with T the run_seconds of BENCHMARK.json and a tree as working directory,
so it measures that tree's `src/`.  The
trees must hold byte-identical `perfbench/` and `BENCHMARK.json`, so both
sides run the same benchmark code.  Pair k runs the parent first when k is
even and the change first when k is odd.

The output JSON holds, per workload and end-to-end metric of BENCHMARK.json,
both sides' runs, medians, quartiles and IQR/median, the change/parent ratio
of the medians, and in how many pairs the change read better (ties count for
neither); plus fail counts, perfbench's quality figures per run, the
commits of both trees and the environment perfbench records.  The file is
rewritten after every pair.
"""

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def parse_workload(text):
    name, sep, seeds = text.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD=SEEDS, got {text!r}")
    return name, parse_seeds(seeds)


def bench_digest(tree):
    """Hash of the benchmark code and declaration of a tree."""
    h = hashlib.sha256()
    files = sorted((tree / "perfbench").rglob("*.py")) + [tree / "BENCHMARK.json"]
    for path in files:
        h.update(str(path.relative_to(tree)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def commit_of(tree):
    """HEAD of a git tree and whether tracked files differ from it."""
    def git(*args):
        proc = subprocess.run(["git", "-C", str(tree), *args],
                              capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    head = git("rev-parse", "HEAD")
    dirty = git("status", "--porcelain", "--untracked-files=no")
    return {"commit": head, "dirty": bool(dirty) if head else None}


def run_once(tree, workload, seed, seconds):
    """One perfbench run: (end-to-end metrics, failed, attempted, record)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"perfbench failed in {tree}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    record = next(l.split(" ", 1)[1] for l in lines if l.startswith("record "))
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    return (metrics, result["failed"], result["attempted"],
            json.loads((tree / record).read_text()))


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"runs": values, "median": median, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / median if median else None}


def summarise(runs, declared):
    """Per-metric comparison of the parent and change runs of one workload."""
    out = {}
    for name, better in declared:
        parent = [r["parent"][name] for r in runs]
        change = [r["change"][name] for r in runs]
        lower = better == "lower"
        wins = sum(1 for p, c in zip(parent, change)
                   if (c < p if lower else c > p))
        p, c = summary(parent), summary(change)
        out[name] = {
            "better": better,
            "parent": p,
            "change": c,
            "change_over_parent": c["median"] / p["median"],
            "parent_iqr": p["q3"] - p["q1"],
            "change_better_pairs": wins,
            "pairs": len(runs),
        }
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("workloads", nargs="+", type=parse_workload,
                        metavar="WORKLOAD=SEEDS")
    args = parser.parse_args(argv)

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    digests = {side: bench_digest(tree) for side, tree in trees.items()}
    if digests["parent"] != digests["change"]:
        raise SystemExit("perfbench/ or BENCHMARK.json differ between the trees")
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    declared = [(m["name"], m["better"]) for m in spec["end_to_end"]]
    seconds = spec["run_seconds"]

    doc = {
        "trees": {side: commit_of(tree) for side, tree in trees.items()},
        "benchmark_sha256": digests["change"],
        "seconds": seconds,
        "order": "pair k runs the parent first when k is even",
        "environment": None,
        "workloads": {},
    }
    for workload, seeds in args.workloads:
        runs = []
        for k, seed in enumerate(seeds):
            sides = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": sides[0]}
            for side in sides:
                metrics, failed, attempted, record = run_once(
                    trees[side], workload, seed, seconds)
                pair[side] = metrics
                pair[f"{side}_failed"] = [failed, attempted]
                pair[f"{side}_quality"] = record["quality"]
                if doc["environment"] is None:
                    doc["environment"] = {
                        key: value
                        for key, value in record["environment"].items()
                        if key not in ("seed", "pinned_cpu")}
            runs.append(pair)
            doc["workloads"][workload] = {
                "seeds": seeds[: len(runs)],
                "metrics": summarise(runs, declared) if len(runs) > 1 else None,
                "failed": {side: [sum(r[f"{side}_failed"][i] for r in runs)
                                  for i in (0, 1)] for side in trees},
                "pairs": runs,
            }
            args.out.write_text(json.dumps(doc, indent=2) + "\n")
            print(f"{workload} seed {seed}: "
                  + ", ".join(f"{n} {pair['parent'][n]:.4g} -> {pair['change'][n]:.4g}"
                              for n, _ in declared), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
